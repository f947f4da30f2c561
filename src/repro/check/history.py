"""Building checkable concurrent histories from tracer spans.

The tracer already records one span per client operation, carrying the
key, the written value, the returned value and the success flag (PR 1,
extended here).  :func:`kv_ops_from_spans` turns a tracer's span list
into the :class:`~repro.core.linearizability.KvOp` history the KV
checker consumes.

Zero-latency schedule exploration needs one extra ingredient: with every
protocol step at simulated t=0, ``env.now`` cannot order invocations and
completions.  :class:`LogicalClockTracer` substitutes the controlled
scheduler's logical clock — which advances on every dispatched event and
every query — so recorded spans carry the *serialization order* of the
execution, which is its true real-time order.
"""

from __future__ import annotations

import math
from typing import Iterable, List

from ..core.linearizability import KvOp
from ..obs.tracer import Span, Tracer

__all__ = ["kv_ops_from_spans", "LogicalClockTracer"]

_KV_KINDS = frozenset(("search", "insert", "update", "delete"))


def kv_ops_from_spans(spans: Iterable[Span]) -> List[KvOp]:
    """Convert traced client spans into a KV history.

    Non-KV spans (recovery procedures, master work) are skipped, as are
    spans with no key.  A span that never ended, or that ended with an
    error (its client crashed or gave up mid-protocol), becomes a
    *pending* operation: the checker may linearize it anywhere after its
    invocation or drop it.
    """
    ops: List[KvOp] = []
    for span in spans:
        if span.op not in _KV_KINDS or span.key is None:
            continue
        pending = span.end_us is None or span.error is not None
        lost = span.outcome in ("lose", "finish")
        ops.append(KvOp(
            kind=span.op,
            key=span.key,
            invoked=span.start_us,
            completed=math.inf if pending else span.end_us,
            ok=bool(span.ok) and not pending,
            wrote=span.wrote,
            value=span.value,
            existed=span.existed,
            lost=lost,
            op_id=span.sid,
            required=not pending,
        ))
    return ops


class LogicalClockTracer(Tracer):
    """A tracer that timestamps spans with a logical clock.

    ``clock`` is any zero-argument callable returning monotonically
    increasing values — normally a :class:`ControlledScheduler`'s
    :meth:`~repro.check.scheduler.ControlledScheduler.logical_clock`.
    Batch/RPC records keep simulated time (they are not part of the
    linearizability history).
    """

    def __init__(self, clock, env=None):
        super().__init__(env=env)
        self.clock = clock

    def begin_span(self, op, cid, key=None, wrote=None) -> Span:
        span = super().begin_span(op, cid, key=key, wrote=wrote)
        span.start_us = self.clock()
        return span

    def end_span(self, span, ok, outcome=None, error=None, value=None,
                 existed=False) -> None:
        super().end_span(span, ok, outcome=outcome, error=error,
                         value=value, existed=existed)
        span.end_us = self.clock()
