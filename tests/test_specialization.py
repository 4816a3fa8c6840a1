"""The specialization lattice (paper figure 4): observe, merge, match."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro as R
from repro.janus import specialization as spec
from repro.tensor.shape import Shape


class Thing:
    pass


def admits(sp, value):
    """Would a graph bound from *sp* serve *value*: the cache key and
    the argument's precheck together (figure 2, check 1)."""
    if spec.observe(value).signature() != sp.signature():
        return False
    check = sp.precheck(("arg", 0))
    return check is None or check((value,))


class TestObserve:
    def test_tensor(self):
        s = spec.observe(R.constant(np.zeros((4, 8), np.float32)))
        assert s.kind == spec.CONST_TENSOR
        assert s.dtype is R.float32
        assert s.shape == Shape((4, 8))

    def test_python_scalars(self):
        assert spec.observe(1.5).dtype is R.float32
        assert spec.observe(3).dtype is R.int64
        assert spec.observe(True).dtype is R.bool_

    def test_none(self):
        assert spec.observe(None).kind == spec.NONE

    def test_string_is_const(self):
        s = spec.observe("hello")
        assert s.kind == spec.CONST_PY and s.value == "hello"

    def test_callable_resolves_underlying_function(self):
        t = Thing()
        t.m = lambda: None
        obj_method_spec = spec.observe(R.Variable(np.float32(0.0)).assign)
        assert obj_method_spec.kind == spec.CALLABLE

    def test_variable(self):
        v = R.Variable(np.float32(0.0))
        s = spec.observe(v)
        assert s.kind == spec.VARIABLE and s.value is v

    def test_object(self):
        t = Thing()
        s = spec.observe(t)
        assert s.kind == spec.PYOBJ and s.py_type is Thing

    def test_list_of_tensors(self):
        s = spec.observe([R.constant(1.0), R.constant(2.0)])
        assert s.kind == spec.LIST and len(s.elements) == 2


class TestMerge:
    """Relaxation down the figure-4 hierarchy."""

    def test_identical_constant_stays_constant(self):
        a = spec.observe(np.float32(1.0))
        assert spec.merge(a, spec.observe(np.float32(1.0))).kind == \
            spec.CONST_TENSOR

    def test_different_values_same_shape_relax_to_shape(self):
        a = spec.observe(np.ones((4, 8), np.float32))
        b = spec.observe(np.zeros((4, 8), np.float32))
        merged = spec.merge(a, b)
        assert merged.kind == spec.TENSOR
        assert merged.shape == Shape((4, 8))

    def test_figure4_shape_relaxation(self):
        """(4, 8) then (3, 8) -> (?, 8), then (2, 8) needs no new graph."""
        a = spec.observe(np.zeros((4, 8), np.float32))
        b = spec.observe(np.zeros((3, 8), np.float32))
        merged = spec.merge(a, b)
        assert merged.shape == Shape((None, 8))
        assert admits(merged, np.zeros((2, 8), np.float32))
        assert admits(merged, np.zeros((6, 8), np.float32))

    def test_dtype_conflict_is_bottom(self):
        a = spec.observe(np.zeros(2, np.float32))
        b = spec.observe(np.zeros(2, np.int64))
        assert spec.merge(a, b).kind == spec.BOTTOM

    def test_object_identity_stable(self):
        t = Thing()
        merged = spec.merge(spec.observe(t), spec.observe(t))
        assert merged.value is t

    def test_object_identity_varies_keeps_type(self):
        merged = spec.merge(spec.observe(Thing()), spec.observe(Thing()))
        assert merged.kind == spec.PYOBJ
        assert merged.value is None
        assert merged.py_type is Thing

    def test_kind_mismatch_is_bottom(self):
        assert spec.merge(spec.observe(Thing()),
                          spec.observe(1.0)).kind == spec.BOTTOM

    def test_list_merges_elementwise(self):
        a = spec.observe([np.zeros((2,), np.float32)])
        b = spec.observe([np.zeros((3,), np.float32)])
        merged = spec.merge(a, b)
        assert merged.elements[0].shape == Shape((None,))

    def test_list_length_mismatch_is_bottom(self):
        a = spec.observe([1.0])
        b = spec.observe([1.0, 2.0])
        assert spec.merge(a, b).kind == spec.BOTTOM

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                    min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_merged_spec_matches_both_inputs(self, dims):
        # Same rank: calls of different ranks have different keys, so
        # their specs never merge.
        a_val = np.zeros(tuple(a for a, _ in dims), np.float32)
        b_val = np.ones(tuple(b for _, b in dims), np.float32)
        merged = spec.merge(spec.observe(a_val), spec.observe(b_val))
        assert admits(merged, a_val)
        assert admits(merged, b_val)

    def test_merge_is_commutative_on_tensors(self):
        a = spec.observe(np.zeros((2, 3), np.float32))
        b = spec.observe(np.zeros((4, 3), np.float32))
        m1, m2 = spec.merge(a, b), spec.merge(b, a)
        assert m1.kind == m2.kind and m1.shape == m2.shape


class TestMatches:
    """Cache-retrieval prechecks (figure 2, check 1): the key proves the
    types, the precheck what the key leaves open."""

    def test_const_tensor_requires_equal_value(self):
        s = spec.observe(np.array([1.0, 2.0], np.float32))
        assert admits(s, np.array([1.0, 2.0], np.float32))
        assert not admits(s, np.array([1.0, 3.0], np.float32))

    def test_tensor_shape_check(self):
        s = spec.ValueSpec(spec.TENSOR, dtype=R.float32,
                           shape=Shape((None, 8)))
        assert admits(s, np.zeros((4, 8), np.float32))
        assert not admits(s, np.zeros((4, 9), np.float32))
        assert not admits(s, np.zeros((4, 8), np.float64))
        check = s.precheck(("item", 0, 1))
        assert check.dims == (None, 8)
        assert check(([None, np.zeros((3, 8), np.float32)],))
        assert not check(([None, np.zeros((3, 7), np.float32)],))

    def test_eager_tensor_accepted(self):
        s = spec.ValueSpec(spec.TENSOR, dtype=R.float32, shape=Shape((2,)))
        assert admits(s, R.constant(np.zeros(2, np.float32)))

    def test_bottom_matches_nothing(self):
        bottom = spec.ValueSpec.bottom()
        for value in (1.0, None, "s", Thing(), [1.0], len):
            assert not admits(bottom, value)

    def test_object_type_check(self):
        s = spec.merge(spec.observe(Thing()), spec.observe(Thing()))
        assert admits(s, Thing())
        assert not admits(s, object())

    def test_key_proves_what_it_pins(self):
        """No precheck where the key pins everything: unknown dims, a
        string, a callable, None, a sequence (its items are prechecked
        on their own paths)."""
        free = spec.ValueSpec(spec.TENSOR, dtype=R.float32,
                              shape=Shape((None, None)))
        assert free.precheck(("arg", 0)) is None
        for value in ("s", len, None, [np.zeros(2, np.float32)]):
            assert spec.observe(value).precheck(("arg", 0)) is None
        assert not admits(spec.observe("a"), "b")
        assert not admits(spec.observe([1.0]), (1.0,))
        assert not admits(spec.observe([1.0]), [1.0, 2.0])

    def test_signature_type_level_only(self):
        a = spec.observe(np.zeros((4, 8), np.float32))
        b = spec.observe(np.zeros((3, 8), np.float32))
        assert a.signature() == b.signature()   # same dtype + rank
        c = spec.observe(np.zeros((4, 8, 1), np.float32))
        assert a.signature() != c.signature()   # different rank


class TestRelaxConstants:
    def test_drops_value_keeps_shape(self):
        s = spec.observe(np.ones((2, 2), np.float32))
        relaxed = spec.relax_constants(s)
        assert relaxed.kind == spec.TENSOR
        assert relaxed.shape == Shape((2, 2))
