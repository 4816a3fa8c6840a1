"""AST instrumentation and the runtime profiler (paper figure 2 (A))."""

import numpy as np
import pytest

import repro as R
from repro.janus import specialization as spec
from repro.janus.instrument import (instrument_function, function_key,
                                    get_function_ast)
from repro.janus.profiler import Profiler
from repro.errors import NotConvertible


def profiled(func, calls):
    prof = Profiler()
    results = [prof.profile_call(func, list(args)) for args in calls]
    return prof, results


class TestInstrumentationFidelity:
    """The instrumented clone must behave exactly like the original."""

    def test_return_value_identical(self):
        def f(x, y):
            return x * 2 + y

        prof, results = profiled(f, [(3, 4)])
        assert results[0] == 10

    def test_defaults_preserved(self):
        def f(x, y=5):
            return x + y

        prof = Profiler()
        clone = prof._instrument(f)
        assert clone(1) == 6

    def test_closure_shared_with_original(self):
        box = [10]

        def make():
            base = box[0]

            def f(x):
                return x + base
            return f

        f = make()
        prof = Profiler()
        clone = prof._instrument(f)
        assert clone(1) == 11

    def test_control_flow_preserved(self):
        def f(n):
            total = 0
            for i in range(n):
                if i % 2 == 0:
                    total += i
            return total

        prof, results = profiled(f, [(6,)])
        assert results[0] == 0 + 2 + 4

    def test_methods_profiled(self):
        class Model:
            def __init__(self):
                self.w = 3

            def __call__(self, x):
                return x * self.w

        m = Model()

        def step(x):
            return m(x)

        prof, results = profiled(step, [(2,)])
        assert results[0] == 6


class TestRecordedFacts:
    def test_branch_direction_stable(self):
        def f(x):
            if x > 0:
                return 1
            return -1

        prof, _ = profiled(f, [(1,), (2,), (3,)])
        sites = [s for s, e in prof.sites.items() if e.kind == "branch"]
        assert len(sites) == 1
        assert prof.branch_direction(sites[0]) is True

    def test_branch_direction_unstable_is_none(self):
        def f(x):
            if x > 0:
                return 1
            return -1

        prof, _ = profiled(f, [(1,), (-1,)])
        site = next(s for s, e in prof.sites.items()
                    if e.kind == "branch")
        assert prof.branch_direction(site) is None

    def test_trip_count_stable(self):
        def f(items):
            total = 0
            for x in items:
                total += x
            return total

        prof, _ = profiled(f, [([1, 2, 3],), ([4, 5, 6],)])
        site = next(s for s, e in prof.sites.items() if e.kind == "loop")
        assert prof.trip_count(site) == 3

    def test_trip_count_unstable_is_none(self):
        def f(items):
            total = 0
            for x in items:
                total += x
            return total

        prof, _ = profiled(f, [([1],), ([1, 2],)])
        site = next(s for s, e in prof.sites.items() if e.kind == "loop")
        assert prof.trip_count(site) is None

    def test_while_trip_count(self):
        def f(n):
            while n > 0:
                n -= 1
            return n

        prof, _ = profiled(f, [(4,), (4,)])
        site = next(s for s, e in prof.sites.items() if e.kind == "loop")
        assert prof.trip_count(site) == 4

    def test_callee_identity(self):
        def helper(x):
            return x + 1

        def f(x):
            return helper(x)

        prof, _ = profiled(f, [(1,), (2,)])
        site = next(s for s, e in prof.sites.items() if e.kind == "call")
        assert prof.callee(site) is helper

    def test_attr_spec_merges_across_calls(self):
        class Holder:
            pass

        h = Holder()

        def f():
            return h.state

        h.state = R.constant(np.zeros((4, 8), np.float32))
        prof = Profiler()
        prof.profile_call(f, [])
        h.state = R.constant(np.zeros((3, 8), np.float32))
        prof.profile_call(f, [])
        site = next(s for s, e in prof.sites.items() if e.kind == "attr"
                    and prof.sites[s].value_spec is not None
                    and prof.sites[s].value_spec.is_tensor_like)
        assert prof.attr_spec(site).shape == R.Shape((None, 8))

    def test_per_owner_attr_specs(self):
        class Layer:
            def __init__(self, s):
                self.strides = s

            def go(self):
                return self.strides

        a, b = Layer(1), Layer(2)

        def f():
            return a.go() + b.go()

        prof, _ = profiled(f, [(), ()])
        site = next(s for s, e in prof.sites.items()
                    if e.kind == "attr" and e.value_spec is not None
                    and e.value_spec.is_tensor_like)
        # merged spec is unstable, per-owner specs stay constant
        assert prof.attr_spec(site).kind in (spec.TENSOR,
                                             spec.CONST_TENSOR)
        assert prof.attr_spec(site, owner=a).kind == spec.CONST_TENSOR
        assert prof.attr_spec(site, owner=b).kind == spec.CONST_TENSOR

    def test_return_spec(self):
        def f(x):
            return x * 2.0

        prof, _ = profiled(f, [(R.constant(np.zeros(3, np.float32)),)])
        rs = prof.return_spec(f)
        assert rs is not None and rs.is_tensor_like

    def test_arg_specs_merge(self):
        def f(x):
            return x

        prof = Profiler()
        prof.profile_call(f, [np.zeros((4, 2), np.float32)])
        signature = prof.record_args([np.zeros((3, 2), np.float32)])
        assert prof.arg_specs_for(signature)[0].shape == \
            R.Shape((None, 2))


class TestRelaxationHooks:
    def test_force_dynamic(self):
        def f(x):
            if x > 0:
                return 1
            return 0

        prof, _ = profiled(f, [(1,), (1,)])
        site = next(s for s, e in prof.sites.items()
                    if e.kind == "branch")
        assert prof.branch_direction(site) is True
        prof.force_dynamic(site)
        assert prof.branch_direction(site) is None


class TestFunctionKey:
    def test_stable_across_bindings(self):
        class C:
            def m(self):
                return 1

        a, b = C(), C()
        assert function_key(a.m) == function_key(b.m)
        assert function_key(a.m) == function_key(C.m)


class TestGetFunctionAst:
    def test_builtin_rejected(self):
        with pytest.raises(NotConvertible):
            get_function_ast(len)

    def test_decorators_stripped(self):
        import functools

        @functools.lru_cache(None)
        def f():
            return 1

        fdef = get_function_ast(f.__wrapped__)
        assert fdef.decorator_list == []
