"""Low-level dataflow control-flow primitives (paper section 4.2.1).

The paper expresses Python control flow with the classic tagged-token
dataflow primitives that TensorFlow also uses: ``Switch`` and ``Merge``
for conditionals, plus ``Enter`` / ``Exit`` / ``NextIteration`` creating
iteration frames for loops (Yu et al., EuroSys'18 — ref. [50]).

JANUS's graph *generator* emits the higher-level functional ops
(:meth:`~repro.graph.builder.GraphBuilder.cond` etc.), which are easier
to differentiate and schedule; this module provides a faithful executable
model of the primitives themselves — used by tests, documentation, and
anyone studying the translation rules — including a small tagged-token
interpreter that runs graphs built from them.
"""

from ..errors import ExecutionError


class Frame:
    """An iteration frame: (parent, loop-id, iteration counter)."""

    __slots__ = ("parent", "loop_name", "iteration")

    def __init__(self, parent, loop_name, iteration=0):
        self.parent = parent
        self.loop_name = loop_name
        self.iteration = iteration

    def next_iteration(self):
        return Frame(self.parent, self.loop_name, self.iteration + 1)

    def __repr__(self):
        return "Frame(%s@%d)" % (self.loop_name, self.iteration)


ROOT_FRAME = Frame(None, "<root>", 0)


class Token:
    """A value tagged with the frame it belongs to."""

    __slots__ = ("value", "frame", "dead")

    def __init__(self, value, frame, dead=False):
        self.value = value
        self.frame = frame
        self.dead = dead

    def __repr__(self):
        return "Token(%r, %r%s)" % (self.value, self.frame,
                                    ", dead" if self.dead else "")


class PrimitiveOp:
    """A vertex in the primitive dataflow graph."""

    def __init__(self, name, inputs):
        self.name = name
        # Normalize: a bare op means its first output.
        self.inputs = [(i, 0) if isinstance(i, PrimitiveOp) else i
                       for i in inputs]
        self.num_outputs = 1

    def fire(self, tokens):
        """Consume one token per input; emit a list of output tokens.

        Returns None when the op is not ready to fire (Merge semantics).
        """
        raise NotImplementedError


class Compute(PrimitiveOp):
    """A plain computation: fn over input token values."""

    def __init__(self, name, inputs, fn):
        super().__init__(name, inputs)
        self.fn = fn

    def fire(self, tokens):
        if any(t.dead for t in tokens):
            return [Token(None, tokens[0].frame, dead=True)]
        value = self.fn(*[t.value for t in tokens])
        frame = tokens[0].frame if tokens else ROOT_FRAME
        return [Token(value, frame)]


class Switch(PrimitiveOp):
    """Demultiplexer: routes the data input to output 0 (false branch is
    dead) when the predicate is true, to output 1 otherwise."""

    def __init__(self, name, data, pred):
        super().__init__(name, [data, pred])
        self.num_outputs = 2

    def fire(self, tokens):
        data, pred = tokens
        if data.dead or pred.dead:
            dead = Token(None, data.frame, dead=True)
            return [dead, Token(None, data.frame, dead=True)]
        if pred.value:
            return [Token(data.value, data.frame),
                    Token(None, data.frame, dead=True)]
        return [Token(None, data.frame, dead=True),
                Token(data.value, data.frame)]


class Merge(PrimitiveOp):
    """Multiplexer: forwards whichever input arrives alive first."""

    def fire(self, tokens):
        alive = [t for t in tokens if t is not None and not t.dead]
        if not alive:
            present = [t for t in tokens if t is not None]
            if len(present) == len(self.inputs):
                return [Token(None, present[0].frame, dead=True)]
            return None  # wait for more tokens
        return [Token(alive[0].value, alive[0].frame)]

    #: Merge fires on the first live token; the interpreter knows this.
    fires_eagerly = True


class Enter(PrimitiveOp):
    """Pushes a value into a fresh iteration frame of a named loop."""

    def __init__(self, name, data, loop_name):
        super().__init__(name, [data])
        self.loop_name = loop_name

    def fire(self, tokens):
        (data,) = tokens
        if data.dead:
            return [Token(None, data.frame, dead=True)]
        frame = Frame(data.frame, self.loop_name, 0)
        return [Token(data.value, frame)]


class Exit(PrimitiveOp):
    """Pops a value out of its iteration frame into the parent frame."""

    def fire(self, tokens):
        (data,) = tokens
        if data.dead:
            return [Token(None, data.frame.parent or ROOT_FRAME,
                          dead=True)]
        if data.frame.parent is None:
            raise ExecutionError("Exit outside of a loop frame")
        return [Token(data.value, data.frame.parent)]


class NextIteration(PrimitiveOp):
    """Advances a value to the next iteration of its frame."""

    def fire(self, tokens):
        (data,) = tokens
        if data.dead:
            return [Token(None, data.frame, dead=True)]
        return [Token(data.value, data.frame.next_iteration())]


class PrimitiveGraph:
    """A graph of primitive ops plus a tiny tagged-token interpreter.

    This models how a dataflow runtime executes Switch/Merge/Enter/Exit/
    NextIteration: tokens queue on edges, an op fires when every input
    edge for a matching frame holds a token (Merge fires on the first
    live token), and execution ends when the designated sink receives a
    token in the root frame.
    """

    def __init__(self):
        self.ops = []
        self.sources = {}

    def add(self, op):
        self.ops.append(op)
        return op

    def source(self, name, value):
        op = Compute(name, [], lambda: value)
        self.sources[name] = op
        return self.add(op)

    def run(self, sink, max_steps=100000):
        """Run until ``sink`` (an op) produces a live token; return value."""
        consumers = {}
        for op in self.ops:
            for port, edge in enumerate(op.inputs):
                if edge is None:
                    continue
                src, idx = (edge, 0) if isinstance(edge, PrimitiveOp) \
                    else edge
                consumers.setdefault((src, idx), []).append((op, port))
        # pending[(op, frame_tag)] -> list of tokens per input port
        pending = {}
        ready = []
        for op in self.ops:
            if not op.inputs:
                ready.append((op, []))

        result = None
        steps = 0
        while ready:
            steps += 1
            if steps > max_steps:
                raise ExecutionError("primitive graph did not terminate")
            op, tokens = ready.pop()
            outputs = op.fire(tokens)
            if outputs is None:
                continue
            produced_by = op._op if isinstance(op, _Prefired) else op
            for idx, token in enumerate(outputs):
                if produced_by is sink and idx == 0 and not token.dead:
                    result = token.value
                for consumer, port in consumers.get((produced_by, idx),
                                                     []):
                    self._deliver(consumer, port, token, pending, ready)
        if result is None:
            raise ExecutionError("sink never produced a live token")
        return result

    @staticmethod
    def _frame_tag(frame):
        tags = []
        while frame is not None:
            tags.append((frame.loop_name, frame.iteration))
            frame = frame.parent
        return tuple(tags)

    def _deliver(self, consumer, port, token, pending, ready):
        tag = self._frame_tag(token.frame)
        key = (id(consumer), tag)
        slots = pending.get(key)
        if slots is None:
            slots = [None] * len(consumer.inputs)
            pending[key] = slots
        slots[port] = token
        eager = getattr(consumer, "fires_eagerly", False)
        if eager:
            outputs = consumer.fire(list(slots))
            if outputs is not None:
                pending.pop(key, None)
                ready.append((_Prefired(consumer, outputs), []))
            return
        if all(s is not None for s in slots):
            pending.pop(key, None)
            ready.append((consumer, list(slots)))


class _Prefired(PrimitiveOp):
    """Wrapper replaying already-computed outputs (Merge eager firing)."""

    def __init__(self, op, outputs):
        super().__init__(op.name, [])
        self._op = op
        self._outputs = outputs
        self.num_outputs = op.num_outputs

    def fire(self, tokens):
        return self._outputs




def build_cond(graph, pred_op, true_fn, false_fn, data_op):
    """Wire an if/else from Switch and Merge (basic translation rule)."""
    switch = graph.add(Switch("switch", (data_op, 0), (pred_op, 0)))
    t = true_fn(graph, (switch, 0))
    f = false_fn(graph, (switch, 1))
    return graph.add(Merge("merge", [t, f]))


def build_while(graph, init_op, cond_fn, body_fn, loop_name="loop"):
    """Wire a while-loop from Enter/Merge/Switch/Body/NextIteration/Exit."""
    enter = graph.add(Enter("enter", (init_op, 0), loop_name))
    merge = Merge("merge", [(enter, 0), None])
    graph.add(merge)
    pred = cond_fn(graph, (merge, 0))
    switch = graph.add(Switch("switch", (merge, 0), (pred, 0)))
    body = body_fn(graph, (switch, 0))
    next_it = graph.add(NextIteration("next", [(body, 0)]))
    merge.inputs[1] = (next_it, 0)
    exit_op = graph.add(Exit("exit", [(switch, 1)]))
    return exit_op
