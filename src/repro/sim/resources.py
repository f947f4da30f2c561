"""Shared resources for the simulation kernel.

Two queueing primitives cover every contention point in the reproduction:

* :class:`Resource` — a counted server pool with a FIFO queue.  Used for
  metadata-server CPU cores (Clover), memory-node cores (ALLOC RPCs and the
  MN-centric allocation ablation), and anything else that serializes work.
* :class:`NicPort` — a serialisation line modelling an RNIC: each operation
  occupies the port for a service time derived from a fixed per-op overhead
  plus a byte-transfer time, with an extra penalty for atomics.  This is the
  mechanism that makes memory-node NICs saturate, which drives the plateaus
  in Figures 12-14 of the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from .core import Environment, Event

__all__ = ["Resource", "Request", "NicPort", "NicProfile"]


class Request(Event):
    """Pending acquisition of a :class:`Resource`; fires when granted.

    ``t_request``/``t_grant`` stamp the FIFO queueing interval so the
    profiler (repro.obs.profile) can attribute CPU wait vs. service time
    and :meth:`Resource.utilisation` can integrate busy time.
    """

    __slots__ = ("resource", "t_request", "t_grant", "prof_span")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.t_grant: Optional[float] = None
        # t_request / prof_span are stamped by Resource.request only when
        # a profiler is installed — the unprofiled path skips the
        # bookkeeping entirely (they are profiler-only attribution data).

    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1,
                 label: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()
        # Deterministic identity for schedule-exploration footprints: the
        # grant order of a contended pool is shared state, so acquisitions
        # and releases must register as conflicting accesses.
        self._uid = env.next_uid()
        # Attribution identity for the profiler and total granted-core
        # busy time (for utilisation sampling).
        self.label = label or f"cpu{self._uid}"
        self.total_busy = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        env = self.env
        if env._access_hook is not None:
            env.note_access(("res", self._uid), True)
        req = Request(self)
        prof = env._profiler
        if prof is not None:
            req.t_request = env._now
            req.prof_span = prof.current_span()
        if self._in_use < self.capacity:
            self._in_use += 1
            req.t_grant = env._now
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        env = self.env
        if env._access_hook is not None:
            env.note_access(("res", self._uid), True)
        now = env._now
        if request.t_grant is not None:
            self.total_busy += now - request.t_grant
        prof = env._profiler
        if prof is not None and request.t_grant is not None:
            prof.note("cpu_service", self.label, request.t_grant, now,
                      span=getattr(request, "prof_span", None))
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.t_grant = now
            if prof is not None:
                prof.note("cpu_wait", self.label,
                          getattr(nxt, "t_request", now), now,
                          span=getattr(nxt, "prof_span", None))
            nxt.succeed()
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise RuntimeError("release without matching request")

    def utilisation(self, elapsed: float) -> float:
        """Mean fraction of granted core-time over ``elapsed`` (0..1)."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy / (elapsed * self.capacity))


@dataclass(frozen=True)
class NicProfile:
    """Serialisation costs of one RNIC port (all times in microseconds).

    ``op_overhead``        fixed cost to process one verb;
    ``atomic_overhead``    fixed cost for CAS/FAA (RNIC atomics units are the
                           scaling bottleneck the paper cites from Kalia et
                           al. [30]);
    ``bandwidth_gbps``     payload bandwidth used to charge byte time;
    ``rpc_overhead``       fixed NIC cost of sending/receiving an RPC packet.
    """

    op_overhead: float = 0.030
    atomic_overhead: float = 0.060
    bandwidth_gbps: float = 56.0
    rpc_overhead: float = 0.060

    def byte_time(self, nbytes: int) -> float:
        # gbps -> bytes/us: 56 Gbps = 7e3 MB/s = 7000 bytes/us.
        bytes_per_us = self.bandwidth_gbps / 8.0 * 1000.0
        return nbytes / bytes_per_us


class NicPort:
    """A single serialisation line: operations queue and occupy it in turn.

    ``occupy(service_time)`` returns an event that fires when the operation's
    slot on the wire *ends*; the caller adds propagation delay itself.
    """

    def __init__(self, env: Environment, profile: NicProfile,
                 label: str = ""):
        self.env = env
        self.profile = profile
        self._next_free = 0.0
        self.total_busy = 0.0
        self.ops = 0
        self._uid = env.next_uid()
        self.label = label or f"nic{self._uid}"

    def occupy(self, service_time: float,
               not_before: Optional[float] = None) -> Event:
        """Like :meth:`finish_time`, but as an event firing at completion."""
        env = self.env
        return env.timeout(
            self.finish_time(service_time, not_before) - env._now)

    def finish_time(self, service_time: float,
                    not_before: Optional[float] = None) -> float:
        """Reserve the port for ``service_time``; returns the completion time.

        ``not_before`` lets the caller model propagation delay before the
        operation reaches the port (service cannot start earlier).
        """
        env = self.env
        earliest = env._now if not_before is None else not_before
        # max(earliest, next_free), spelled without the call: every verb
        # of every batch comes through here.
        start = earliest
        if self._next_free > start:
            start = self._next_free
        end = start + service_time
        if service_time > 0.0 and env._hooked:
            # With zero service time the line never queues, so occupancy is
            # not observable shared state — keep it out of footprints.
            if env._access_hook is not None:
                env.note_access(("nic", self._uid), True)
            prof = env._profiler
            if prof is not None:
                prof.note_nic(self.label, earliest, start, end)
        self._next_free = end
        self.total_busy += service_time
        self.ops += 1
        return end

    def backlog(self, now: float) -> float:
        """Microseconds of already-accepted service still queued at ``now``.

        The port's analogue of queue depth: how far its serialisation line
        is committed beyond the current instant (0 when idle).
        """
        return max(0.0, self._next_free - now)

    def utilisation(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy / elapsed)
