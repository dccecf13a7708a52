"""In-memory spans with self time, and the traced mode's function wrappers.

Every run records spans around the benchmark's own calls into the
library (set-up calls, training steps, scoring, evaluation); the
end-to-end metrics are read from those.  Only the traced mode wraps
functions inside the library, where their callers look them up, so an
untraced run executes the library exactly as shipped.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Span recorder; a span's self time is its duration minus its children's.

    Each record is ``(name, start, duration, self_time, parent_name,
    step, pass_no)``; ``step`` is the index of the enclosing training
    step or -1, ``pass_no`` the index of the enclosing pass.
    """

    def __init__(self):
        self.records: list[tuple] = []
        self._stack: list[list] = []     # [name, start, child_time]
        self.step = -1
        self.pass_no = -1

    @contextmanager
    def span(self, name: str):
        frame = [name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = perf_counter() - frame[1]
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += duration
            self.records.append((name, frame[1], duration, duration - frame[2],
                                 parent[0] if parent else "", self.step, self.pass_no))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def parent_name(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def write_chrome_trace(self, path: Path) -> None:
        """Spans as Chrome trace events (load in Perfetto or chrome://tracing)."""
        t0 = min((r[1] for r in self.records), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": 0,
             "ts": round((start - t0) * 1e6, 3), "dur": round(dur * 1e6, 3),
             "args": {"self_us": round(self_t * 1e6, 3), "parent": parent,
                      "step": step, "pass": pass_no}}
            for name, start, dur, self_t, parent, step, pass_no in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def install_wrappers(tracer: Tracer):
    """Wrap library functions at their call sites; returns an undo function.

    ``forward_cached``, ``backprop`` and ``l2_reg`` are wrapped as the
    ``losses`` module sees them, ``forward_batch`` as ``metrics`` sees it
    (the scoring inside ``evaluate``), and ``RngStream.random`` only when
    its caller is a forward pass, i.e. for dropout masks.
    """
    from distilrec import losses, metrics
    from distilrec.rng import RngStream

    undo = []

    def patch(owner, attr, name, only_under=None):
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            if only_under is not None and tracer.parent_name() not in only_under:
                return original(*args, **kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))

    patch(losses, "forward_cached", "network.forward")
    patch(losses, "backprop", "network.backprop")
    patch(losses, "l2_reg", "losses.l2_reg")
    patch(metrics, "forward_batch", "network.score")
    patch(RngStream, "random", "rng.random", only_under={"network.forward", "network.score"})

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
