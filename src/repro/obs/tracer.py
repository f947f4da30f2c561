"""Structured per-operation tracing for the simulated fabric.

The tracer records two kinds of structured data:

* **Verb/batch events** — every doorbell batch the fabric posts (and every
  RPC), with per-verb kind, target memory node, payload bytes, and
  issue/complete simulated times.
* **KV-op spans** — one record per client operation (search / insert /
  update / delete, plus master recovery paths), with the operation kind,
  per-phase batch breakdown, signaled-RTT count, retries and outcome.

Attribution works without any explicit context passing: client operations
run as DES processes, and the fabric is always invoked synchronously from
within a process step, so ``env.active_process`` identifies the operation
a verb belongs to.  The tracer keeps a span stack per process.

When tracing is off the fabric checks a single ``enabled`` attribute (the
default is the shared :data:`NULL_TRACER`), so the disabled path costs one
attribute read per batch — see ``benchmarks/test_obs_overhead.py`` for the
regression guard.

Everything recorded is derived from simulated time and posted verbs only —
no wall-clock, no ``id()`` values — so traces of a seeded workload are
byte-for-byte reproducible (``tests/test_trace_determinism.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..rdma.verbs import (FAIL, TIMEOUT, CasOp, FaaOp, ReadOp, Verb, WriteOp,
                          op_bytes)

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "verb_kind"]


#: Short lowercase kind tag per verb class: what trace records and the
#: gray detector's families call a verb.
VERB_KINDS = {ReadOp: "read", WriteOp: "write", CasOp: "cas", FaaOp: "faa"}


def verb_kind(op: Verb) -> str:
    """Short lowercase kind tag for a verb descriptor."""
    return VERB_KINDS.get(op.__class__, "verb")


class Span:
    """One traced KV operation (or recovery procedure)."""

    __slots__ = ("sid", "op", "cid", "start_us", "end_us", "ok", "outcome",
                 "error", "rtts", "unsignaled", "rpcs", "retries",
                 "transport_retries", "batches", "cur_phase", "key", "wrote",
                 "value", "existed")

    def __init__(self, sid: int, op: str, cid: int, start_us: float,
                 key: Optional[bytes] = None,
                 wrote: Optional[bytes] = None):
        self.sid = sid
        self.op = op
        self.cid = cid
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.ok: Optional[bool] = None
        self.outcome: Optional[str] = None
        self.error: Optional[str] = None
        # KV-history fields (concurrent linearizability checking): the
        # operation's key, the value argument it wrote, the value a
        # successful search returned, and insert's already-present flag.
        self.key = key
        self.wrote = wrote
        self.value: Optional[bytes] = None
        self.existed = False
        self.rtts = 0          # signaled doorbell batches (1 batch = 1 RTT)
        self.unsignaled = 0    # fire-and-forget batches (off critical path)
        self.rpcs = 0
        self.retries = 0            # protocol-level retries (CAS races, ...)
        self.transport_retries = 0  # fault-layer retransmissions
        self.batches: List[dict] = []
        self.cur_phase = ""

    @property
    def duration_us(self) -> float:
        return (self.end_us or self.start_us) - self.start_us

    def phases(self) -> List[str]:
        """Phase labels of the signaled batches, in issue order."""
        return [b["phase"] for b in self.batches
                if not b.get("unsignaled") and b["kind"] == "batch"]

    def verb_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for batch in self.batches:
            for verb in batch.get("verbs", ()):
                counts[verb["kind"]] = counts.get(verb["kind"], 0) + 1
        return counts

    def to_record(self) -> dict:
        """Flat dict for JSONL export (deterministic content)."""
        return {
            "type": "span",
            "sid": self.sid,
            "op": self.op,
            "cid": self.cid,
            "key": self.key.hex() if self.key is not None else None,
            "t0": self.start_us,
            "t1": self.end_us,
            "ok": self.ok,
            "outcome": self.outcome,
            "error": self.error,
            "rtts": self.rtts,
            "unsignaled": self.unsignaled,
            "rpcs": self.rpcs,
            "retries": self.retries,
            "transport_retries": self.transport_retries,
            "batches": self.batches,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.sid} {self.op} cid={self.cid} "
                f"rtts={self.rtts} ok={self.ok}>")


class Tracer:
    """Records spans and fabric events for one simulation environment.

    ``env`` may be left ``None``; the fabric binds it on attach.
    """

    def __init__(self, env=None, enabled: bool = True):
        self.env = env
        self.enabled = enabled
        self.spans: List[Span] = []        # in begin order
        self.orphan_batches: List[dict] = []   # batches outside any span
        self._stacks: Dict[object, List[Span]] = {}
        self._sid = itertools.count()
        # Alert spans (Monitor.finish / SLO trips) get negative sids from
        # their own counter, so operation spans keep the exact sids an
        # unmonitored run would assign (tests/test_trace_determinism.py
        # compares monitored clean runs minus alerts against unmonitored
        # runs byte-for-byte).
        self._alert_sid = itertools.count(1)
        # Span-end link to the fabric's online monitor (repro.obs.monitor),
        # set by ``attach_monitor`` / ``attach_tracer``: receives every
        # ended span.  None keeps end_span at one attribute check.
        self.monitor = None

    # ------------------------------------------------------------- spans
    def _stack(self) -> Optional[List[Span]]:
        proc = self.env.active_process if self.env is not None else None
        if proc is None:
            return None
        return self._stacks.setdefault(proc, [])

    def current_span(self) -> Optional[Span]:
        proc = self.env.active_process if self.env is not None else None
        if proc is None:
            return None
        stack = self._stacks.get(proc)
        return stack[-1] if stack else None

    def begin_span(self, op: str, cid: int, key: Optional[bytes] = None,
                   wrote: Optional[bytes] = None) -> Span:
        span = Span(next(self._sid), op, cid, self.env.now, key=key,
                    wrote=wrote)
        self.spans.append(span)
        stack = self._stack()
        if stack is not None:
            stack.append(span)
        return span

    def end_span(self, span: Span, ok: bool, outcome: Optional[str] = None,
                 error: Optional[str] = None,
                 value: Optional[bytes] = None,
                 existed: bool = False) -> None:
        span.end_us = self.env.now
        span.ok = ok
        span.outcome = outcome
        span.error = error
        span.value = value
        span.existed = existed
        proc = self.env.active_process
        stack = self._stacks.get(proc)
        if stack and span in stack:
            stack.remove(span)
        if proc is not None and not stack:
            self._stacks.pop(proc, None)
        if self.monitor is not None:
            self.monitor.on_span(span)

    def alert(self, op: str, t0: float, t1: float,
              outcome: Optional[str] = None) -> Span:
        """Record a monitor alert as a span over the offending window.

        ``op`` is an ``alert.*`` name (``alert.slo.<slo>``,
        ``alert.gray.<scope>``); the span lands in ``spans`` (so it is
        exported to Chrome traces and JSONL alongside the operations
        that caused it) under a negative sid and cid ``-1``."""
        span = Span(-next(self._alert_sid), op, -1, t0)
        span.end_us = t1
        span.ok = False
        span.outcome = outcome
        self.spans.append(span)
        return span

    def phase(self, name: str) -> None:
        """Label the next batches of the innermost active span."""
        span = self.current_span()
        if span is not None:
            span.cur_phase = name

    def note_retry(self) -> None:
        span = self.current_span()
        if span is not None:
            span.retries += 1

    def note_transport_retry(self, span: Optional[Span] = None) -> None:
        """A fault-layer retransmission.  The fabric's fault-aware paths
        run in their own delivery processes, so they pass the issuing
        span explicitly (captured at post time)."""
        if span is None:
            span = self.current_span()
        if span is not None:
            span.transport_retries += 1

    # ------------------------------------------------- fabric-side hooks
    def on_batch(self, ops, completions, t0: float, t1: float,
                 unsignaled: bool = False,
                 span: Optional[Span] = None) -> None:
        """Called by the fabric for every posted doorbell batch.

        ``span`` overrides process-based attribution when the batch
        completes inside a fabric-internal delivery process (fault
        injection) rather than the client's own process step.
        """
        verbs = []
        for op, comp in zip(ops, completions):
            value = comp.value
            verbs.append({"kind": VERB_KINDS.get(op.__class__, "verb"),
                          "mn": op.mn_id, "bytes": op_bytes(op),
                          "failed": value is FAIL or value is TIMEOUT})
        record = {
            "kind": "batch",
            "phase": "",
            "t0": t0,
            "t1": t1,
            "verbs": verbs,
        }
        if unsignaled:
            record["unsignaled"] = True
        if span is None:
            span = self.current_span()
        if span is not None:
            record["phase"] = span.cur_phase
            span.batches.append(record)
            if unsignaled:
                span.unsignaled += 1
            else:
                span.rtts += 1
        else:
            self.orphan_batches.append(record)

    def on_rpc(self, mn_id: int, name: str) -> dict:
        """Called by the fabric when an RPC is issued; returns the record
        whose ``t1`` the fabric fills in at completion."""
        record = {
            "kind": "rpc",
            "phase": "",
            "name": name,
            "mn": mn_id,
            "t0": self.env.now,
            "t1": None,
        }
        span = self.current_span()
        if span is not None:
            record["phase"] = span.cur_phase
            span.batches.append(record)
            span.rpcs += 1
        else:
            self.orphan_batches.append(record)
        return record

    # ----------------------------------------------------------- queries
    def spans_of(self, op: str) -> List[Span]:
        return [s for s in self.spans if s.op == op]

    def last_span(self, op: Optional[str] = None) -> Optional[Span]:
        for span in reversed(self.spans):
            if op is None or span.op == op:
                return span
        return None

    def clear(self) -> None:
        """Drop recorded data (stacks of live processes are kept)."""
        self.spans = []
        self.orphan_batches = []


class NullTracer:
    """Shared no-op tracer: the disabled fast path.

    Every hook is a no-op; the fabric and clients only ever check the
    ``enabled`` attribute before doing any tracing work.
    """

    enabled = False
    env = None
    monitor = None
    spans: List[Span] = []
    orphan_batches: List[dict] = []

    def begin_span(self, op: str, cid: int, key=None, wrote=None) -> None:
        return None

    def end_span(self, span, ok, outcome=None, error=None, value=None,
                 existed=False) -> None:
        pass

    def phase(self, name: str) -> None:
        pass

    def note_retry(self) -> None:
        pass

    def note_transport_retry(self, span=None) -> None:
        pass

    def current_span(self) -> None:
        return None

    def on_batch(self, ops, completions, t0, t1, unsignaled=False,
                 span=None) -> None:
        pass

    def on_rpc(self, mn_id: int, name: str) -> dict:
        return {}

    def alert(self, op: str, t0: float, t1: float, outcome=None) -> None:
        return None


NULL_TRACER = NullTracer()
