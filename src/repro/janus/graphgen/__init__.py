"""Speculative symbolic graph generation (paper section 4).

``GraphGenerator`` converts the AST of an imperative DL program into a
symbolic dataflow graph, using the profile gathered by
:class:`~repro.janus.profiler.Profiler` to resolve dynamic features:

* **Dynamic control flow** (4.2.1) — ``if``/``while``/``for`` convert to
  functional cond/while ops; when the profile shows a stable direction or
  trip count (and +UNRL is enabled) the construct is *unrolled* behind an
  AssertOp guarding the speculative assumption.  Function calls inline;
  calls on a cycle of the profiled call graph become recursive ``invoke``
  nodes.
* **Dynamic types** (4.2.2) — placeholder dtypes/shapes come from the
  specialization lattice; non-numerical values travel as PyRef edges.
* **Impure functions** (4.2.3) — object attribute and subscript accesses
  become ``py_get_*``/``py_set_*`` nodes with deferred, all-or-nothing
  writeback; heap reads carry profiled type assumptions validated at
  runtime.

Any construct outside the supported subset raises
:class:`~repro.errors.NotConvertible`, routing the function to the
imperative executor (4.3).

The package is split along the constructs it converts (module map in
docs/architecture.md): :mod:`.generator` holds ``GraphGenerator`` and
``GeneratedGraph``; :mod:`.converter` the shared converter — handler
dispatch by AST node type, the one body converter and the one region
builder; :mod:`.values`, :mod:`.expressions`, :mod:`.statements`,
:mod:`.heap`, :mod:`.calls` and :mod:`.controlflow` the handlers.

Paper correspondence: this package is §4.1 (the speculative graph
generator itself — AST-to-graph conversion under profiled assumptions,
with AssertOp guards) and the conversion rules of §4.2.1–4.2.3 listed
above; the permanent imperative-only routing on ``NotConvertible`` is
the §4.3 fallback path.  Each completed generation emits a ``graphgen``
trace event with node counts (:mod:`repro.observability`); the spans
around generation are recorded by :mod:`repro.janus.api`.

In the execution pipeline (instrument → graphgen → compile,
docs/architecture.md) this package is stage 2; its output graph is
immediately compiled into a
:class:`~repro.janus.compiled.CompiledGraph` by ``compile_generated``.
"""

from .generator import GeneratedGraph, GraphGenerator
from .values import assigned_names, read_names

__all__ = ["GraphGenerator", "GeneratedGraph", "assigned_names",
           "read_names"]
