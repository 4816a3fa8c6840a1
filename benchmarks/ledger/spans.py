"""Spans recorded by the benchmark around its own calls into each layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the span that caused it (-1 for an op span) and ``op`` identifies the
operation all of its spans share.  Spans stay in memory during the run
and are written once, as chrome-trace JSON, when it ends.  Durations of
every op feed the per-layer metrics; only the first :data:`KEEP_OPS` ops
of each program keep their spans, which bounds the file.
"""

import json

#: Ops per program whose spans are kept for the trace file.
KEEP_OPS = 200


class SpanLog:
    def __init__(self):
        self.spans = []
        self._ops = {}          # program -> ops kept so far
        self._next_op = 0

    def record(self, program, start, end, parts):
        """Keep one op span and its child *parts* ``(name, start, end)``."""
        kept = self._ops.get(program, 0)
        if kept >= KEEP_OPS:
            return
        self._ops[program] = kept + 1
        op = self._next_op
        self._next_op += 1
        parent = len(self.spans)
        self.spans.append(("op:" + program, start, end, -1, op))
        for name, part_start, part_end in parts:
            self.spans.append((name, part_start, part_end, parent, op))

    def write(self, path):
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"id": index, "parent": parent, "op": op}}
                  for index, (name, start, end, parent, op)
                  in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def self_times(events):
    """``{span id: self time in us}`` for loaded chrome-trace events:
    a span's duration minus the part its child spans cover."""
    own = {e["args"]["id"]: e["dur"] for e in events}
    for event in events:
        parent = event["args"]["parent"]
        if parent >= 0:
            own[parent] -= event["dur"]
    return own
