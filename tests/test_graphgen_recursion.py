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
from repro.graph import executor as executor_mod
from repro.modes import ImperativeStep
from repro.observability import COUNTERS


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


class TestGradientThroughEffects:
    def test_recursive_writer_under_gradient_serves_imperatively(self):
        """The gradient of an invoke recomputes its callee, so one that
        writes the heap would write it twice per node (37 visits after 4
        calls on a 5-node tree, not 20).  The conversion is refused and
        every call matches the imperative step."""
        def tree():
            return Node(left=leaf(1), right=Node(left=leaf(2),
                                                 right=leaf(3)))

        traces, steps = {}, {}
        for arm in ("janus", "oracle"):
            model = _Counter()

            def loss(root):
                return model.visit(root) * 1.0
            opt = nn.SGD(0.01)
            step = steps[arm] = janus.function(loss, optimizer=opt) \
                if arm == "janus" else ImperativeStep(loss, opt)
            traces[arm] = [
                (float(step(tree()).numpy()), float(model.visits.numpy()),
                 model.leaf.kernel.numpy().copy())
                for _ in range(4)]
        for got, want in zip(traces["janus"], traces["oracle"]):
            assert got[:2] == want[:2]
            assert np.allclose(got[2], want[2], rtol=1e-5)
        assert traces["oracle"][-1][1] == 20.0
        assert "gradient_through_effects" \
            in steps["janus"].not_convertible_reason


_LEDGER = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "ledger")


class TestRecursiveGradientCost:
    def test_treernn_pass_runs_each_body_once_per_tree_node(
            self, monkeypatch):
        """A warm pass over the ledger's seed-1 trees (176 tree nodes,
        80 internal, 96 leaves).  The gradient bodies call ``encode`` on
        both children of each internal node again; those calls are
        memo hits, so ``encode``'s body runs once per tree node, O(n),
        not once per tree node per ancestor."""
        sys.path.insert(0, _LEDGER)
        try:
            import programs
        finally:
            sys.path.remove(_LEDGER)
        program = programs.TRAIN_PROGRAMS["TreeRNN"]
        batches = program.make_batches(1)
        step = program.build("janus")
        for _ in range(3):
            for batch in batches:
                step(*batch)

        runs = collections.Counter()
        invokes = collections.Counter()
        run_nested = GraphExecutor._run_nested
        memo_key = executor_mod._invoke_memo_key

        def counting_run(executor, feeds, run_state):
            runs[executor.graph.name] += 1
            return run_nested(executor, feeds, run_state)

        def counting_key(func, args):
            invokes[func.name] += 1
            return memo_key(func, args)
        monkeypatch.setattr(GraphExecutor, "_run_nested", counting_run)
        monkeypatch.setattr(executor_mod, "_invoke_memo_key", counting_key)
        hits = COUNTERS.labels("executor.invoke_memo_hit")
        before = (hits.value, step.stats["graph_runs"])
        for batch in batches:
            step(*batch)
        assert step.stats["graph_runs"] - before[1] == len(batches) == 16
        assert invokes["encode"] == 336
        assert hits.value - before[0] == 160
        assert runs["encode"] == 176
        assert runs["branch_true"] == 96
