"""Recursive function conversion via InvokeOp (paper section 4.2.1).

The TreeNN pattern: recursion + base-case branching + heap reads on tree
nodes, including gradients through the recursion.
"""

import collections
import os
import sys

import numpy as np
import pytest

import repro as R
from repro import janus, nn
from repro.graph import GraphExecutor
from repro.modes import ImperativeStep


def strict(**kw):
    return janus.JanusConfig(fail_on_not_convertible=True, **kw)


class Node:
    def __init__(self, value=None, left=None, right=None):
        self.value = value
        self.left = left
        self.right = right
        self.is_leaf = left is None


def leaf(v):
    return Node(value=R.constant(np.float32(v)))


def full_tree(depth, counter=[0]):
    if depth == 0:
        counter[0] += 1
        return leaf(counter[0])
    return Node(left=full_tree(depth - 1, counter),
                right=full_tree(depth - 1, counter))


class TestRecursiveConversion:
    def test_tree_sum(self):
        def tree_sum(node):
            if node.is_leaf:
                return node.value
            return tree_sum(node.left) + tree_sum(node.right)

        @janus.function(config=strict())
        def run(root):
            return tree_sum(root) * 1.0

        trees = [Node(left=leaf(1), right=leaf(2)),
                 Node(left=Node(left=leaf(3), right=leaf(4)),
                      right=leaf(5))]
        expected = [3.0, 12.0]
        for _ in range(3):
            for t, want in zip(trees, expected):
                assert float(run(t).numpy()) == pytest.approx(want)
        assert run.stats["graph_runs"] > 0
        entry = next(iter(run.cache._entries.values()))
        ops = {n.op_name for n in entry.generated.graph.nodes}
        assert "invoke" in ops

    def test_one_graph_serves_all_tree_shapes(self):
        """Unlike per-shape symbolic builds, the recursive graph covers
        arbitrary trees (the paper's TreeNN advantage)."""
        def tree_sum(node):
            if node.is_leaf:
                return node.value
            return tree_sum(node.left) + tree_sum(node.right)

        @janus.function(config=strict())
        def run(root):
            return tree_sum(root) * 1.0

        rng = np.random.default_rng(0)

        def random_tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return leaf(float(rng.integers(1, 5)))
            return Node(left=random_tree(depth - 1),
                        right=random_tree(depth - 1))

        def ref_sum(t):
            if t.is_leaf:
                return float(t.value.numpy())
            return ref_sum(t.left) + ref_sum(t.right)

        for _ in range(10):
            t = random_tree(4)
            assert float(run(t).numpy()) == pytest.approx(ref_sum(t))
        assert run.cache_stats()["entries"] == 1

    def test_recursion_with_variable_gradient(self):
        """Training through recursion: the TreeRNN core."""
        w = R.Variable(np.float32(1.0), name="w")
        opt = nn.SGD(0.0)   # lr 0: parameters unchanged, grads observable

        grads_seen = []
        orig_apply = opt.apply_gradients

        def spy(pairs):
            pairs = list(pairs)
            from repro.graph.core import NodeOutput
            if not any(isinstance(g, NodeOutput) for g, _ in pairs):
                # symbolic applications (graph build) are not observable
                grads_seen.append({v.name: np.asarray(_val(g))
                                   for g, v in pairs})
            orig_apply(pairs)

        def _val(g):
            return g.numpy() if hasattr(g, "numpy") else g

        opt.apply_gradients = spy

        def tree_eval(node):
            if node.is_leaf:
                return node.value * w.value()
            return tree_eval(node.left) + tree_eval(node.right)

        @janus.function(optimizer=opt, config=strict())
        def train(root):
            return tree_eval(root) * 1.0

        tree = Node(left=leaf(2), right=Node(left=leaf(3), right=leaf(4)))
        for _ in range(5):
            train(tree)
        # d(w * sum(leaves))/dw = 9 in every mode.
        for record in grads_seen:
            g = record["w"]
            assert float(np.asarray(g).reshape(())) == pytest.approx(9.0)
        assert train.stats["graph_runs"] > 0

    def test_mixed_depth_recursion_with_state_reads(self):
        cell = nn.Dense(2, 1, use_bias=False)

        def shrink(node):
            if node.is_leaf:
                return R.reshape(node.value, (1, 1))
            a = shrink(node.left)
            b = shrink(node.right)
            return cell(R.concat([a, b], axis=1))

        @janus.function(config=strict())
        def run(root):
            return R.reduce_sum(shrink(root))

        t1 = Node(left=leaf(1), right=leaf(2))
        t2 = Node(left=t1, right=leaf(3))
        outs = []
        for _ in range(3):
            outs = [float(run(t).numpy()) for t in (t1, t2)]
        # Compare against pure imperative execution.
        def ref(node):
            if node.is_leaf:
                return R.reshape(node.value, (1, 1))
            return cell(R.concat([ref(node.left), ref(node.right)],
                                 axis=1))
        want = [float(R.reduce_sum(ref(t)).numpy()) for t in (t1, t2)]
        assert outs == [pytest.approx(w, rel=1e-5) for w in want]


class _Counter(nn.Module):
    """A recursive model that counts its visits on the heap."""

    def __init__(self):
        super().__init__("Counter")
        nn.init.seed(2)
        self.visits = R.constant(np.float32(0.0))
        self.leaf = nn.Dense(1, 1)

    def visit(self, node):
        self.visits = self.visits + 1.0
        if node.is_leaf:
            return R.reduce_sum(self.leaf(R.reshape(node.value, (1, 1))))
        return self.visit(node.left) + self.visit(node.right)


class _LeafCounter(_Counter):
    """... that counts only its leaves, so the write is in a cond branch."""

    def visit(self, node):
        if node.is_leaf:
            self.visits = self.visits + 1.0
            return R.reduce_sum(self.leaf(R.reshape(node.value, (1, 1))))
        return self.visit(node.left) + self.visit(node.right)


class TestGradientThroughEffects:
    """A recursive model that writes the heap trains as a graph: its
    gradient replays each call from the forward's record, so a write
    happens once per visit, as imperatively (a gradient that recomputed
    the callee would count 37 visits after 4 calls on a 5-node tree,
    not 20)."""

    @pytest.mark.parametrize("model, visits", [(_Counter, 20.0),
                                               (_LeafCounter, 12.0)],
                             ids=["invoke", "cond"])
    def test_recursive_writer_under_gradient_converts(self, model, visits):
        def tree():
            return Node(left=leaf(1), right=Node(left=leaf(2),
                                                 right=leaf(3)))

        traces, steps = {}, {}
        for arm in ("janus", "oracle"):
            m = model()

            def loss(root):
                return m.visit(root) * 1.0
            opt = nn.SGD(0.01)
            step = steps[arm] = janus.function(loss, optimizer=opt) \
                if arm == "janus" else ImperativeStep(loss, opt)
            traces[arm] = [
                (float(step(tree()).numpy()), float(m.visits.numpy()),
                 m.leaf.kernel.numpy().copy())
                for _ in range(4)]
        for got, want in zip(traces["janus"], traces["oracle"]):
            assert got[:2] == want[:2]
            assert np.allclose(got[2], want[2], rtol=1e-5)
        assert traces["oracle"][-1][1] == visits
        assert steps["janus"].not_convertible_reason is None
        assert steps["janus"].stats["graph_runs"] > 0


_LEDGER = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "ledger")


def _gradient_functions(step):
    """Every gradient function a replay_grad of ``step``'s graphs runs,
    recursively."""
    found, stack = {}, [entry[-1].compiled.executor.graph
                        for entry in step.cache.entries()]
    while stack:
        graph = stack.pop()
        for node in graph.nodes:
            for func in node.attrs.get("grad_funcs", ()):
                if func.name not in found:
                    found[func.name] = func
                    stack.append(func.graph)
    return found


class TestRecursiveGradientCost:
    def test_treernn_pass_runs_each_body_once_per_tree_node(
            self, monkeypatch):
        """A warm pass over the ledger's seed-1 trees (176 tree nodes,
        80 internal, 96 leaves).  Each body runs once per tree node it
        is called on, and each gradient body replays that call's record
        once: ``encode`` is invoked 176 times (336 when the gradient
        bodies called it again on both children of each internal
        node)."""
        sys.path.insert(0, _LEDGER)
        try:
            import programs
        finally:
            sys.path.remove(_LEDGER)
        program = programs.TRAIN_PROGRAMS["TreeRNN"]
        batches = program.make_batches(1)
        # Every run of an executor's program calls its ``_rendered``; a
        # call site pins it on first run, so the wrapper is what runs.
        runs = collections.Counter()
        compile_ = GraphExecutor._compile

        def counting_compile(executor):
            compile_(executor)
            rendered = executor._rendered

            def counted(values, run_state):
                runs[executor] += 1
                rendered(values, run_state)
            executor._rendered = counted
        monkeypatch.setattr(GraphExecutor, "_compile", counting_compile)
        step = program.build("janus")
        for _ in range(3):
            for batch in batches:
                step(*batch)

        runs.clear()
        before = step.stats["graph_runs"]
        for batch in batches:
            step(*batch)
        assert step.stats["graph_runs"] - before == len(batches) == 16
        top = {entry.compiled.executor for _, entry in step.cache.entries()}
        nested = collections.Counter()
        for executor, count in runs.items():
            if executor not in top:
                nested[type(executor).__name__, executor.graph.name] += count
        assert nested == {
            ("GraphExecutor", "encode"): 176,
            ("GraphExecutor", "branch_true"): 96,
            ("GraphExecutor", "branch_false"): 80,
            ("_ReplayExecutor", "encode_grad"): 176,
            ("_ReplayExecutor", "branch_true_grad"): 96,
            ("_ReplayExecutor", "branch_false_grad"): 80,
        }
        # No gradient body runs a clone of a forward node that has a
        # slot in the recorded file: it runs backprop only.
        grads = _gradient_functions(step)
        assert set(grads) == {"encode_grad", "branch_true_grad",
                              "branch_false_grad"}
        for func in grads.values():
            replays = [ex for key, ex in func.graph._executor_cache.items()
                       if key[0] == "replay"]
            assert replays
            for replay in replays:
                recorded = {
                    clone.name for clone, forward
                    in func.grad_meta["forward_of"].items()
                    if any((id(forward), out.index) in replay.forward._slots
                           for out in forward.outputs)}
                assert recorded
                assert not recorded & {entry[0].debug_name
                                       for entry in replay._entries}
