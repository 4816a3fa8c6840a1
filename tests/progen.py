"""Shared seeded program generator for the differential suites.

Grown out of the inline generators that test_write_barrier_differential,
test_fusion_differential, and test_concurrency each carried a copy of:
a seeded :func:`gen_program` builds a small tensor program over a heap
model object (Tensor attributes, raw ndarrays, aliased attributes,
burned scalars, Variables, input-dependent branches), registers its
source in ``linecache`` so JANUS can convert from the AST, and returns
the compiled function plus the model.  :func:`mutation_pool` /
:func:`apply_mutation` provide the randomized heap-mutation storm the
guard suites interleave between calls.

Everything is parameterized by a :class:`Mix` — the construct-mix
config.  The two predefined mixes reproduce the historical generators
**stream-for-stream** (same ``random``/``default_rng`` consumption
order, so the same seed yields byte-identical programs and models as
before the extraction):

* :data:`WRITE_BARRIER_MIX` — the 5-kind pool with t/t2 aliasing
  (test_write_barrier_differential, test_fusion_differential),
* :data:`CONCURRENCY_MIX` — the 4-kind pool without aliasing
  (test_concurrency).

``Mix.inject`` extends a mix with *unsupported constructs* planted at
random body positions — the co-execution differential suite
(test_coexec_differential.py) uses it to generate programs that cannot
convert whole: ``.numpy()`` materialization into opaque list mutation,
dict mutation through a sourceless helper, third-party-style sourceless
calls feeding values back into the tensor flow, and generator
expressions.  All injection draws happen on a *separate* rng stream, so
enabling injection never perturbs the base program generation.

``Mix.heavy`` plants statements from :data:`HEAVY` the same way (own
rng stream): each holds two matmuls on one dependency level — a fan-out
candidate of the executor's level schedule — and some commit a heavy
result to the heap or a Variable.  The schedule differential suite
(test_schedule_differential.py) is its consumer.

``Mix.cleanup`` plants constructs from :data:`CLEANUP` (own rng stream
again): clean-up code around non-local exits — ``try/finally`` with a
heap or Variable write around an early ``return``, a ``with`` over the
model-owned :class:`Gate`, ``continue`` inside ``try/finally`` — and a
``sum`` with a start value.  test_cleanup_differential.py compares the
outputs *and* the model heap against the imperative oracle.
"""

import linecache
import random

import numpy as np

import repro as R

__all__ = [
    "Mix", "Model", "WRITE_BARRIER_MIX", "CONCURRENCY_MIX",
    "COEXEC_MIX", "SCHEDULE_MIX", "CLEANUP_MIX", "GUARDED", "INJECTIONS",
    "HEAVY", "CLEANUP", "Gate", "gen_program", "mutation_pool",
    "apply_mutation", "vec",
]


class Model:
    """Heap object whose attributes the generated programs read."""


class Gate:
    """Model-owned context manager of the clean-up mix: entering and
    leaving count themselves on the heap."""

    def __init__(self):
        self.entered = R.constant(np.float32(0.0))
        self.exits = R.constant(np.float32(0.0))
        self.scale = 0.75

    def __enter__(self):
        self.entered = self.entered + 1.0
        return self

    def __exit__(self, exc_type, exc, tb):
        self.exits = self.exits + 1.0
        return False


#: Statement pool, keyed by the attribute each statement exercises.
STMTS = {
    "t":    "    y = y + m.t",
    "t2":   "    y = y * m.t2",
    "w":    "    y = y + m.w",
    "gain": "    y = y * m.gain",
    "var":  "    y = y + m.var.value()",
}

BRANCH = [
    "    if R.reduce_sum(x) > 0.0:",
    "        y = y * 2.0",
    "    else:",
    "        y = y - 1.0",
]

#: Unsupported-construct injection pool: each entry is a list of source
#: lines forming ONE top-level statement (multi-line constructs hide
#: under ``if True:`` so a single partition boundary isolates them).
#: ``opaque_record`` and ``thirdparty_norm`` are exec-created (no
#: retrievable source), modelling third-party library calls.
INJECTIONS = {
    # I/O-style materialization + opaque list mutation.
    "io_log": ["    m.log.append(float(R.reduce_sum(y).numpy()))"],
    # Dict mutation through a sourceless helper.
    "dict_mut": ["    opaque_record(m.metrics, 'sum', y)"],
    # Third-party-style call whose result feeds back into tensor flow.
    "thirdparty": ["    y = y * thirdparty_norm(y)"],
    # Generator expression consumed imperatively.
    "generator": ["    if True:",
                  "        gvals = (float(q) * 0.5 for q in y.numpy())",
                  "        m.log.append(max(gvals))"],
}

#: Heavy statements: in each, both matmuls depend only on ``h`` and a
#: heap tensor, so they land on one dependency level.  ``heap_write``
#: and ``var_write`` defer a heavy result into the commit phase and
#: read it back through the run's local copy.
HEAVY = {
    "pair": ["    h = R.reshape(y, (1, 4))",
             "    y = y + R.reshape(R.matmul(h, m.p) + R.matmul(h, m.q),"
             " (4,))"],
    "heap_write": ["    h = R.reshape(y, (1, 4))",
                   "    m.acc = R.matmul(h, m.p)",
                   "    y = y * 0.5 + R.reshape(R.matmul(h, m.q), (4,))",
                   "    y = y + R.reshape(m.acc, (4,)) * 0.25"],
    "var_write": ["    h = R.reshape(y, (1, 4))",
                  "    m.state.assign(R.reshape(R.matmul(h, m.q), (4,)))",
                  "    y = y * 0.5 + R.reshape(R.matmul(h, m.p), (4,))",
                  "    y = y + m.state.value() * 0.25"],
}

#: Clean-up constructs: each entry is ONE planted chunk (its lines stay
#: together).  ``m.gain`` is a burned scalar, so the early ``return``
#: resolves at build time — taken in some programs, not in others, and
#: flipped mid-run by the ``gain_change`` mutation.
CLEANUP = {
    "finally_heap": ["    try:",
                     "        if m.gain > 1.25:",
                     "            return R.reduce_sum(y) * 0.5",
                     "        y = y + m.gain",
                     "    finally:",
                     "        m.ticks = m.ticks + 1.0"],
    "finally_var": ["    try:",
                    "        if m.gain <= 1.0:",
                    "            return R.reduce_sum(y * m.gain)",
                    "    finally:",
                    "        m.seen.assign_add(y * 0.125)"],
    "with_gate": ["    with m.gate as g:",
                  "        y = y * g.scale"],
    "with_return": ["    with m.gate:",
                    "        if m.gain > 1.5:",
                    "            return R.reduce_sum(y) + 1.0",
                    "        y = y * 0.75"],
    "continue_finally": ["    for k in range(3):",
                         "        try:",
                         "            if k == 1:",
                         "                continue",
                         "            y = y + m.w * 0.5",
                         "        finally:",
                         "            m.ticks = m.ticks + 1.0"],
    "sum_start": ["    parts = [y * 0.5, y * 0.25]",
                  "    y = sum(parts, y)"],
}

_HELPER_SRC = """
def opaque_record(d, key, v):
    d[key] = d.get(key, 0.0) + float(R.reduce_sum(v).numpy())

def thirdparty_norm(v):
    return 1.0 + abs(float(v.numpy().mean())) * 0.25
"""


class Mix:
    """Construct-mix configuration for :func:`gen_program`.

    ``kinds`` — statement pool (subset of :data:`STMTS` keys);
    ``nprng_offset`` — numpy rng namespace (keeps suites' value streams
    disjoint); ``aliasing`` — allow ``m.t2 is m.t``; ``model_order`` —
    heap-attribute creation order (it fixes the rng consumption order,
    so it is part of stream compatibility); ``filename_prefix`` — the
    linecache pseudo-filename family; ``inject`` — unsupported
    constructs from :data:`INJECTIONS` planted at random positions
    (1..min(2, len(inject)) of them per program); ``heavy`` — plant
    1..3 statements of :data:`HEAVY` (not combinable with ``inject``,
    whose multi-line entries a second planting could split);
    ``cleanup`` — plant 1..3 chunks of :data:`CLEANUP` (on its own).
    """

    def __init__(self, kinds=None, nprng_offset=10_000, aliasing=True,
                 model_order=("w", "t", "t2", "gain", "var"),
                 filename_prefix="progen", inject=(), heavy=False,
                 cleanup=False):
        self.kinds = sorted(STMTS if kinds is None else kinds)
        self.nprng_offset = nprng_offset
        self.aliasing = aliasing
        self.model_order = tuple(model_order)
        self.filename_prefix = filename_prefix
        self.inject = tuple(inject)
        self.heavy = bool(heavy)
        self.cleanup = bool(cleanup)
        assert bool(self.inject) + self.heavy + self.cleanup <= 1


#: Stream-identical to the historical test_write_barrier_differential
#: generator (also consumed by test_fusion_differential).
WRITE_BARRIER_MIX = Mix(filename_prefix="wbdiff")

#: Stream-identical to the historical test_concurrency generator: no
#: t2 (hence no aliasing draw), model built t, w, gain, var.
CONCURRENCY_MIX = Mix(kinds=("t", "w", "gain", "var"),
                      nprng_offset=40_000, aliasing=False,
                      model_order=("t", "w", "gain", "var"),
                      filename_prefix="concdiff")

#: The co-execution mix: full statement pool plus every unsupported
#: construct class (test_coexec_differential.py).
COEXEC_MIX = Mix(nprng_offset=70_000, filename_prefix="coexdiff",
                 inject=tuple(sorted(INJECTIONS)))


#: The schedule mix: full statement pool plus heavy two-matmul levels
#: (test_schedule_differential.py).
SCHEDULE_MIX = Mix(nprng_offset=100_000, filename_prefix="scheddiff",
                   heavy=True)


#: The clean-up mix: full statement pool plus clean-up constructs around
#: non-local exits (test_cleanup_differential.py).
CLEANUP_MIX = Mix(nprng_offset=160_000, filename_prefix="cleandiff",
                  cleanup=True)


def vec(nprng, n=4):
    return nprng.normal(size=(n,)).astype(np.float32)


def _build_model(mix, rng, nprng, used):
    m = Model()
    for attr in mix.model_order:
        if attr == "w":
            m.w = vec(nprng)
        elif attr == "t":
            m.t = R.constant(vec(nprng))
        elif attr == "t2":
            # Aliasing: sometimes both Tensor attributes are the same
            # object, so two read sites share one TensorValue.
            if mix.aliasing and "t" in used and "t2" in used \
                    and rng.random() < 0.4:
                m.t2 = m.t
            else:
                m.t2 = R.constant(vec(nprng))
        elif attr == "gain":
            m.gain = float(round(rng.uniform(0.5, 2.0), 3))
        elif attr == "var":
            m.var = R.Variable(vec(nprng))
        else:  # pragma: no cover - mix config bug
            raise AssertionError(attr)
    return m


def gen_program(seed, tag=None, mix=WRITE_BARRIER_MIX):
    """One random program + its heap model, with retrievable source.

    JANUS converts from the AST, so ``inspect.getsource`` must work on
    the generated function: the source is registered in ``linecache``
    under a ``<...>`` filename (the doctest trick) before ``exec``.
    Returns ``(prog, model, used_kinds, has_branch, filename)``.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng(mix.nprng_offset + seed)

    kinds = list(mix.kinds)
    rng.shuffle(kinds)
    used = kinds[:rng.randint(2, min(4, len(kinds)))]
    body = [STMTS[k] for k in used]
    rng.shuffle(body)
    has_branch = rng.random() < 0.5
    if mix.inject:
        # Separate stream: injection must not perturb base generation.
        irng = random.Random(90_000 + seed)
        picks = sorted(mix.inject)
        irng.shuffle(picks)
        for name in picks[:irng.randint(1, min(2, len(picks)))]:
            at = irng.randint(0, len(body))
            body[at:at] = INJECTIONS[name]
    if mix.heavy:
        hrng = random.Random(120_000 + seed)
        picks = sorted(HEAVY)
        hrng.shuffle(picks)
        for name in picks[:hrng.randint(1, len(picks))]:
            at = hrng.randint(0, len(body))
            body[at:at] = HEAVY[name]
        used = used + ["heavy"]
    if mix.cleanup:
        crng = random.Random(150_000 + seed)
        picks = sorted(CLEANUP)
        crng.shuffle(picks)
        chunks = [[line] for line in body]
        for name in picks[:crng.randint(1, 3)]:
            chunks.insert(crng.randint(0, len(chunks)), CLEANUP[name])
        body = [line for chunk in chunks for line in chunk]
        used = used + ["cleanup"]
    lines = ["def prog(x):", "    y = x * 1.0"] + body
    if has_branch:
        lines += BRANCH
    lines.append("    return R.reduce_sum(y * y)")
    src = "\n".join(lines) + "\n"

    m = _build_model(mix, rng, nprng, used)
    if mix.inject:
        m.log = []
        m.metrics = {}
    if mix.heavy:
        hnprng = np.random.default_rng(mix.nprng_offset + 500_000 + seed)
        m.p = R.constant(hnprng.normal(size=(4, 4)).astype(np.float32) / 2)
        m.q = R.constant(hnprng.normal(size=(4, 4)).astype(np.float32) / 2)
        m.acc = R.constant(np.zeros((1, 4), np.float32))
        m.state = R.Variable(np.zeros(4, np.float32))
    if mix.cleanup:
        m.ticks = R.constant(np.float32(0.0))
        m.seen = R.Variable(np.zeros(4, np.float32))
        m.gate = Gate()

    filename = "<%s-%d>" % (mix.filename_prefix, seed) if tag is None \
        else "<%s-%s-%d>" % (mix.filename_prefix, tag, seed)
    linecache.cache[filename] = (len(src), None, src.splitlines(True),
                                 filename)
    ns = {"R": R, "m": m}
    if mix.inject:
        exec(compile(_HELPER_SRC, "<%s-helpers>" % mix.filename_prefix,
                     "exec"), ns)
    exec(compile(src, filename, "exec"), ns)
    return ns["prog"], m, used, has_branch, filename


# -- mutations ---------------------------------------------------------------

#: Kinds whose mutation must produce a guard/stale signal (tensor
#: reads are memoized + sealed behind the write barrier).
GUARDED = {"t_inplace", "t_rebind_same", "t_rebind_shape", "t2_rebind",
           "gain_change", "x_flip"}


def mutation_pool(used, has_branch):
    pool = []
    if "w" in used:
        pool.append("w_inplace")
    if "t" in used:
        pool += ["t_inplace", "t_rebind_same", "t_rebind_shape"]
    if "t2" in used:
        pool.append("t2_rebind")
    if "gain" in used:
        pool.append("gain_change")
    if "var" in used:
        pool.append("var_assign")
    if has_branch:
        pool.append("x_flip")
    if "heavy" in used:
        pool += ["p_rebind", "q_inplace"]
    if "cleanup" in used:
        pool.append("ticks_rebind")
        if "gain" not in used:
            # Every clean-up program reads m.gain (the early returns).
            pool.append("gain_change")
    return pool


def apply_mutation(kind, m, nprng, state):
    if kind == "w_inplace":
        m.w[int(nprng.integers(0, m.w.shape[0]))] += 0.75
    elif kind == "t_inplace":
        m.t.add_(1.25)
    elif kind == "t_rebind_same":
        m.t = R.constant(vec(nprng, m.t.value.array.shape[0]))
    elif kind == "t_rebind_shape":
        # (4,) -> (1,): still broadcastable, so the imperative oracle
        # stays well-defined while the concrete shape guard breaks.
        m.t = R.constant(vec(nprng, 1))
    elif kind == "t2_rebind":
        m.t2 = R.constant(vec(nprng))
    elif kind == "gain_change":
        m.gain = float(round(m.gain + 0.375, 3))
    elif kind == "var_assign":
        m.var.assign(R.constant(vec(nprng)))
    elif kind == "x_flip":
        state["x"] = state["x_neg"]
    elif kind == "p_rebind":
        m.p = R.constant(nprng.normal(size=(4, 4)).astype(np.float32) / 2)
    elif kind == "q_inplace":
        m.q.add_(0.125)
    elif kind == "ticks_rebind":
        m.ticks = R.constant(np.float32(10.0))
    else:  # pragma: no cover - generator bug
        raise AssertionError(kind)
