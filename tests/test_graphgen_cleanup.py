"""Speculation stays invisible around clean-up code and builtin operands.

Regression tests for defects a construct-level comparison against the
imperative function finds (result *and* heap):

* ``try/finally`` and ``with`` must run their clean-up when the
  protected body leaves through ``return``/``break``/``continue`` — at
  top level and inside a dynamic ``if`` arm;
* a structural builtin must honour every operand it is given
  (``sum(xs, start)``, ``enumerate(xs, start=k)``) or leave the call to
  the imperative executor (``max(key=)``, ``int(base=)``);
* both arms of a dynamic ``if`` are built against one capture plan, so
  a value only the ``else`` arm assigns or reads reaches it.
"""

import numpy as np
import pytest

import repro as R
from repro import janus
from repro.errors import NotConvertible

CALLS = 8


class Counting:
    """A context manager whose enter/exit mutate it."""

    def __init__(self):
        self.entered = R.constant(np.float32(0.0))
        self.exits = R.constant(np.float32(0.0))

    def __enter__(self):
        self.entered = self.entered + 1.0
        return self

    def __exit__(self, exc_type, exc, tb):
        self.exits = self.exits + 1.0
        return False


class Model:
    def __init__(self):
        self.count = R.constant(np.float32(0.0))
        self.cm = Counting()

    def heap(self):
        return [float(t.numpy())
                for t in (self.count, self.cm.entered, self.cm.exits)]


def return_in_try_finally(m):
    def f(x):
        try:
            return x + 1.0
        finally:
            m.count = m.count + 1.0
    return f


def return_in_with(m):
    def f(x):
        with m.cm:
            return x * 2.0
    return f


def continue_in_try_finally(m):
    def f(x):
        y = x * 1.0
        for i in range(3):
            try:
                if i == 1:
                    continue
                y = y + x
            finally:
                m.count = m.count + 1.0
        return y
    return f


def break_in_try_finally(m):
    def f(x):
        y = x * 1.0
        for i in range(4):
            try:
                if i == 2:
                    break
                y = y + x
            finally:
                m.count = m.count + 1.0
        return y
    return f


def branch_return_in_try_finally(m):
    def f(x):
        if R.reduce_sum(x) > 0.0:
            try:
                return x + 1.0
            finally:
                m.count = m.count + 1.0
        return x - 1.0
    return f


def branch_return_in_with(m):
    def f(x):
        if R.reduce_sum(x) > 0.0:
            with m.cm:
                return x * 2.0
        return x - 1.0
    return f


def branch_continue_break_in_try_finally(m):
    def f(x):
        y = x * 1.0
        if R.reduce_sum(x) > 0.0:
            for i in range(4):
                try:
                    if i == 1:
                        continue
                    if i == 3:
                        break
                    y = y + x
                finally:
                    m.count = m.count + 1.0
        else:
            y = y - 1.0
        return y
    return f


def finally_overrides_return(m):
    def f(x):
        try:
            return x + 1.0
        finally:
            m.count = m.count + 1.0
            return x * 3.0
    return f


def _run_both(make, strict=True):
    """Call the JANUS function and the plain one on alternating-sign
    inputs (so an input-dependent ``if`` stays dynamic); returns the
    JanusFunction after asserting results and heaps agree call by call."""
    m_graph, m_plain = Model(), Model()
    config = janus.JanusConfig(fail_on_not_convertible=strict,
                               parallel_execution=False)
    jf = janus.function(config=config)(make(m_graph))
    plain = make(m_plain)
    inputs = [R.constant(np.array([1.0, 2.0], np.float32)),
              R.constant(np.array([-1.0, -2.0], np.float32))]
    for k in range(CALLS):
        x = inputs[k % 2]
        assert np.array_equal(jf(x).numpy(), plain(x).numpy()), k
        assert m_graph.heap() == m_plain.heap(), (k, jf.stats)
    return jf


class TestNonLocalExitRunsCleanup:
    @pytest.mark.parametrize("make", [
        return_in_try_finally, return_in_with, continue_in_try_finally,
        break_in_try_finally, branch_return_in_try_finally,
        branch_return_in_with, branch_continue_break_in_try_finally,
    ], ids=lambda make: make.__name__)
    def test_matches_imperative_on_result_and_heap(self, make):
        jf = _run_both(make)
        assert jf.stats["graph_runs"] > 0, jf.stats

    def test_cleanup_that_itself_returns_is_left_imperative(self):
        with pytest.raises(NotConvertible):
            _run_both(finally_overrides_return)
        jf = _run_both(finally_overrides_return, strict=False)
        assert jf.stats["graph_runs"] == 0, jf.stats


# -- structural builtins -------------------------------------------------------

def sum_with_start(x):
    return sum([x, x], x * 10.0)


def sum_with_start_keyword(x):
    return sum([x, x], start=x * 10.0)


def enumerate_start_keyword(x):
    total = x * 0.0
    for i, e in enumerate([x, x], start=5):
        total = total + e * i
    return total


def enumerate_start_positional(x):
    total = x * 0.0
    for i, e in enumerate([x, x], 5):
        total = total + e * i
    return total


def max_with_key(x):
    return x * max([3, -5], key=abs)


def int_with_base(x):
    return x * int("12", base=8)


class TestStructuralBuiltinOperands:
    @pytest.mark.parametrize("fn, expect, converts", [
        (sum_with_start, 12.0, True),
        (sum_with_start_keyword, 12.0, True),
        (enumerate_start_keyword, 11.0, True),
        (enumerate_start_positional, 11.0, True),
        (max_with_key, -5.0, False),
        (int_with_base, 10.0, False),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_no_operand_is_dropped(self, fn, expect, converts):
        x = R.constant(np.float32(1.0))
        assert float(fn(x).numpy()) == expect
        jf = janus.function(config=janus.JanusConfig(
            parallel_execution=False))(fn)
        for _ in range(CALLS):
            assert float(jf(x).numpy()) == expect, jf.stats
        assert (jf.stats["graph_runs"] > 0) == converts, jf.stats
        if not converts:
            strict = janus.function(config=janus.JanusConfig(
                fail_on_not_convertible=True, coexecution=False))(fn)
            with pytest.raises(NotConvertible) as err:
                for _ in range(CALLS):
                    strict(x)
            assert err.value.feature == "builtin"


# -- dynamic-if capture plan ---------------------------------------------------

def assigned_only_in_else(x):
    y = x * 2.0
    z = x * 3.0
    if R.reduce_sum(x) > 0.0:
        pass
    else:
        y = y - z
    return y


def read_only_in_else(x):
    y = x * 2.0
    z = x * 3.0
    if R.reduce_sum(x) > 0.0:
        y = y * 2.0
    else:
        y = y - z
    return y


@pytest.mark.parametrize("fn", [assigned_only_in_else, read_only_in_else],
                         ids=lambda fn: fn.__name__)
def test_arms_share_one_capture_plan(fn):
    """The cond node feeds both arms the same edges, so the ``if`` arm
    must be built against what only the ``else`` arm captures (was a
    KeyError / feed-count ExecutionError at run time)."""
    jf = janus.function(config=janus.JanusConfig(
        fail_on_not_convertible=True, parallel_execution=False))(fn)
    inputs = [R.constant(np.float32(1.0)), R.constant(np.float32(-1.0))]
    for k in range(CALLS):
        x = inputs[k % 2]
        assert float(jf(x).numpy()) == float(fn(x).numpy()), k
    assert jf.stats["graph_runs"] > 0, jf.stats
