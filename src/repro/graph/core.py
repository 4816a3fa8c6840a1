"""Symbolic dataflow graph IR.

A :class:`Graph` is a DAG of :class:`Node` s.  Each node is either

* a *registered op* (its ``op_def`` points into :mod:`repro.ops.registry`
  and the executor runs its numpy kernel), or
* a *special node* interpreted directly by the executor: placeholders,
  constants, variable reads/assignments, the Python-heap access ops
  (``py_get_attr`` and friends, paper section 4.2.3), and the functional
  control-flow ops ``cond`` / ``while_loop`` / ``invoke`` (section 4.2.1)
  whose bodies are nested :class:`GraphFunction` s.

Edges are :class:`NodeOutput` handles carrying static shape/dtype
information.  A ``dtype`` of ``None`` marks a non-tensor edge transporting
a :class:`~repro.tensor.PyRef` (arbitrary Python object), mirroring the
paper's encoding of Python values as pointer-holding scalars.
"""

from ..errors import GraphError
from ..tensor.shape import Shape

#: Node op_names interpreted by the executor rather than the op registry.
SPECIAL_OPS = frozenset([
    "placeholder", "constant", "var_read", "var_assign",
    "py_get_attr", "py_set_attr", "py_get_subscr", "py_set_subscr",
    "py_call", "cond", "while_loop", "invoke", "replay_grad", "group",
])

#: Ops with side effects: never pruned, folded or deduplicated.
EFFECT_OPS = frozenset([
    "var_assign", "py_set_attr", "py_set_subscr", "py_call", "group",
    "print",
])


def _is_effect(node):
    return node.op_name in EFFECT_OPS


def _is_guard(node):
    """A check of a speculative assumption whose output may be unused: a
    constant-guard heap read or an ``assert``."""
    if node.op_name in ("py_get_attr", "py_get_subscr"):
        expected = node.attrs.get("expected")
        return bool(expected) and expected[0] == "const"
    return node.op_name == "assert"


def _must_run(node):
    return _is_effect(node) or _is_guard(node)


class NodeOutput:
    """One output edge of a node; the symbolic tensor handle."""

    __slots__ = ("node", "index", "shape", "dtype")

    def __init__(self, node, index, shape, dtype):
        self.node = node
        self.index = index
        self.shape = Shape.of(shape) if shape is not None else Shape.unknown()
        self.dtype = dtype  # DType, or None for PyRef edges

    def __repr__(self):
        dt = self.dtype.name if self.dtype else "pyref"
        return "%s:%d<%s, %s>" % (self.node.debug_name, self.index, dt,
                                  self.shape)

    # -- operator overloads shared with eager tensors -------------------------

    def _binop(self, other, fn, reverse=False):
        from ..ops import api
        f = getattr(api, fn)
        return f(other, self) if reverse else f(self, other)

    def __add__(self, o):
        return self._binop(o, "add")

    def __radd__(self, o):
        return self._binop(o, "add", True)

    def __sub__(self, o):
        return self._binop(o, "sub")

    def __rsub__(self, o):
        return self._binop(o, "sub", True)

    def __mul__(self, o):
        return self._binop(o, "mul")

    def __rmul__(self, o):
        return self._binop(o, "mul", True)

    def __truediv__(self, o):
        return self._binop(o, "div")

    def __rtruediv__(self, o):
        return self._binop(o, "div", True)

    def __floordiv__(self, o):
        return self._binop(o, "floordiv")

    def __mod__(self, o):
        return self._binop(o, "mod")

    def __pow__(self, o):
        return self._binop(o, "pow")

    def __rpow__(self, o):
        return self._binop(o, "pow", True)

    def __matmul__(self, o):
        return self._binop(o, "matmul")

    def __neg__(self):
        from ..ops import api
        return api.neg(self)

    def __abs__(self):
        from ..ops import api
        return api.abs(self)

    def __eq__(self, o):
        return self._binop(o, "equal")

    def __ne__(self, o):
        return self._binop(o, "not_equal")

    def __lt__(self, o):
        return self._binop(o, "less")

    def __le__(self, o):
        return self._binop(o, "less_equal")

    def __gt__(self, o):
        return self._binop(o, "greater")

    def __ge__(self, o):
        return self._binop(o, "greater_equal")

    def __hash__(self):
        return hash((id(self.node), self.index))

    def __getitem__(self, index):
        from ..ops import api
        return api.getitem(self, index)

    def __len__(self):
        from ..errors import ShapeError
        if self.shape.dims is None or self.shape.dims == () or \
                self.shape.dims[0] is None:
            raise ShapeError("len() needs a static leading dimension")
        return self.shape.dims[0]

    def __iter__(self):
        # Lets imperative-style loops build unrolled TF-1-style graphs
        # directly under a GraphBuilder (the symbolic baseline).
        from ..ops import api
        for i in range(len(self)):
            yield api.getitem(self, i)


class Node:
    """A vertex of the dataflow graph."""

    __slots__ = ("graph", "id", "op_name", "op_def", "attrs", "inputs",
                 "control_inputs", "outputs", "variable", "py_object",
                 "func", "branches", "constant_value", "name")

    def __init__(self, graph, node_id, op_name, op_def=None, attrs=None,
                 inputs=(), control_inputs=(), name=None):
        self.graph = graph
        self.id = node_id
        self.op_name = op_name
        self.op_def = op_def
        self.attrs = dict(attrs or {})
        self.inputs = list(inputs)
        self.control_inputs = list(control_inputs)
        self.outputs = []
        self.variable = None        # for var_read / var_assign
        self.py_object = None       # for py_get/set_attr with static object
        self.func = None            # GraphFunction for invoke/while body...
        self.branches = None        # dict of GraphFunction for cond
        self.constant_value = None  # TensorValue or PyRef for constants
        self.name = name or ("%s_%d" % (op_name, node_id))

    @property
    def debug_name(self):
        return self.name

    @property
    def is_special(self):
        return self.op_def is None

    @property
    def is_stateful(self):
        if self.op_def is not None:
            return self.op_def.stateful
        return self.op_name in SPECIAL_OPS and self.op_name not in (
            "constant", "placeholder")

    @property
    def must_run(self):
        """True if the node must execute even when its outputs are
        unused: it has effects or it is, or nests, a guard."""
        return self._any_within(_must_run, set())

    def _any_within(self, test, seen_graphs):
        """``test`` holds for this node or for a node of a nested body
        (the visited set guards against recursive functions)."""
        if test(self):
            return True
        for func in self._nested_functions():
            if func is None or func.graph is None \
                    or id(func.graph) in seen_graphs:
                continue
            seen_graphs.add(id(func.graph))
            if any(n._any_within(test, seen_graphs)
                   for n in func.graph.nodes):
                return True
        return False

    def _nested_functions(self):
        if self.branches:
            for f in self.branches.values():
                yield f
        if self.func is not None:
            yield self.func
        for key in ("cond_func", "body_func"):
            f = self.attrs.get(key)
            if f is not None:
                yield f
        yield from self.attrs.get("grad_funcs", ())

    def add_output(self, shape, dtype):
        out = NodeOutput(self, len(self.outputs), shape, dtype)
        self.outputs.append(out)
        return out

    def signature(self):
        """Structural key used by CSE; None when not deduplicable."""
        if self.is_special or self.is_stateful or self.control_inputs:
            return None
        attr_key = tuple(sorted(self.attrs.items()))
        input_key = tuple((id(i.node), i.index) for i in self.inputs)
        if self.op_def is not None and self.op_def.commutative:
            input_key = tuple(sorted(input_key))
        return (self.op_name, attr_key, input_key)

    def __repr__(self):
        return "Node(%s)" % self.debug_name

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


class Graph:
    """A dataflow graph: nodes plus designated placeholder/output lists."""

    def __init__(self, name="graph"):
        self.name = name
        self.nodes = []
        self.placeholders = []      # Nodes, in positional-argument order
        self.outputs = []           # NodeOutputs returned by execution
        self._next_id = 0
        #: config key -> compiled executor (and a gradient body's record
        #: layout, see ``executor._record_layout``)
        self._executor_cache = {}
        #: Monotonic structural version: bumped on node addition/removal.
        #: Cached whole-graph analyses (see graph.passes.AnalysisContext)
        #: key off it so they can never serve a stale order.
        self.version = 0
        #: (version, pass-pipeline key) of the last full PassManager run,
        #: or None.  Any structural change bumps ``version`` and thereby
        #: invalidates the stamp, so an already-optimized graph spliced
        #: unchanged into a regeneration is skipped by the passes.
        self._opt_stamp = None

    def new_node(self, op_name, op_def=None, attrs=None, inputs=(),
                 control_inputs=(), name=None):
        node = Node(self, self._next_id, op_name, op_def, attrs, inputs,
                    control_inputs, name)
        self._next_id += 1
        self.nodes.append(node)
        self.version += 1
        self._executor_cache.clear()
        return node

    def __getstate__(self):
        # Executor closures are per-process; a deserialized graph starts
        # with an empty cache and rebuilds them on first execution.
        state = self.__dict__.copy()
        state["_executor_cache"] = {}
        return state

    def remove_nodes(self, dead):
        """Drop a set of nodes (used by optimization passes)."""
        dead = set(dead)
        self.nodes = [n for n in self.nodes if n not in dead]
        self.version += 1
        self._executor_cache.clear()

    def topological_order(self, targets=None):
        """Nodes in dependency order; restricted to ancestors of targets.

        ``targets`` is an iterable of Nodes; None means every node.
        """
        if targets is None:
            wanted = list(self.nodes)
        else:
            wanted = list(targets)
        order = []
        state = {}  # node -> 1 visiting, 2 done
        stack = [(n, False) for n in reversed(wanted)]
        while stack:
            node, processed = stack.pop()
            if processed:
                state[node] = 2
                order.append(node)
                continue
            st = state.get(node)
            if st == 2:
                continue
            if st == 1:
                raise GraphError("cycle through %s" % node.debug_name)
            state[node] = 1
            stack.append((node, True))
            deps = [i.node for i in node.inputs] + list(node.control_inputs)
            for dep in reversed(deps):
                if state.get(dep) != 2:
                    if state.get(dep) == 1:
                        raise GraphError("cycle through %s"
                                         % dep.debug_name)
                    stack.append((dep, False))
        return order

    def live_nodes(self):
        """Ancestors of graph outputs plus the nodes that must run."""
        roots = [o.node for o in self.outputs]
        roots += [n for n in self.nodes if n.must_run]
        roots += self.placeholders  # feeds bind positionally: keep them all
        return set(self.topological_order(roots))

    def validate(self):
        node_set = set(self.nodes)
        for node in self.nodes:
            for inp in node.inputs:
                if inp.node not in node_set:
                    raise GraphError("%s consumes output of removed node %s"
                                     % (node.debug_name,
                                        inp.node.debug_name))
        self.topological_order()  # raises on cycles
        return True

    def summary(self):
        """Human-readable multi-line description (debugging aid)."""
        lines = ["graph %s (%d nodes)" % (self.name, len(self.nodes))]
        for node in self.topological_order():
            ins = ", ".join("%s:%d" % (i.node.debug_name, i.index)
                            for i in node.inputs)
            lines.append("  %s = %s(%s)" % (node.debug_name, node.op_name,
                                            ins))
        outs = ", ".join(repr(o) for o in self.outputs)
        lines.append("  return %s" % outs)
        return "\n".join(lines)

    def __repr__(self):
        return "Graph(%r, %d nodes)" % (self.name, len(self.nodes))


class GraphFunction:
    """A graph with a call signature, usable as a callee for invoke/cond/while.

    Supports recursion: the function object is registered (and can be
    referenced by invoke nodes) *before* its body graph is finalized.
    ``variables`` is the transitive list of Variables read anywhere inside,
    in deterministic (uid) order — gradient machinery relies on it.
    """

    def __init__(self, name):
        self.name = name
        self.graph = None
        self._variables = None
        self._grad = None           # lazily-built gradient GraphFunction
        self.grad_meta = None       # set on gradient functions
        self.janus_meta = None      # set by the JANUS graph generator

    def __getstate__(self):
        # Variables and gradient functions are lazily derived (or, for
        # janus_meta, conversion-time only) and may capture process-local
        # identity; rebuild them on demand in the loading process.
        state = self.__dict__.copy()
        state["_variables"] = None
        state["_grad"] = None
        state["janus_meta"] = None
        return state

    def finalize(self, graph):
        if self.graph is not None:
            raise GraphError("function %s already finalized" % self.name)
        self.graph = graph

    @property
    def variables(self):
        """Transitive Variables read inside, uid-ordered (lazy: recursion)."""
        if self._variables is None:
            if self.graph is None:
                return []
            self._variables = sorted(collect_variables(self.graph),
                                     key=lambda v: v.uid)
        return self._variables

    def __repr__(self):
        status = "%d nodes" % len(self.graph.nodes) if self.graph else \
            "unfinalized"
        return "GraphFunction(%r, %s)" % (self.name, status)


def collect_variables(graph, _seen_graphs=None):
    """All Variables read transitively inside a graph (handles recursion)."""
    if _seen_graphs is None:
        _seen_graphs = set()
    if id(graph) in _seen_graphs:
        return set()
    _seen_graphs.add(id(graph))
    found = set()
    for node in graph.nodes:
        if node.op_name in ("var_read", "var_assign") and node.variable:
            found.add(node.variable)
        for func in node._nested_functions():
            if func is not None and func.graph is not None:
                found |= collect_variables(func.graph, _seen_graphs)
    return found
