"""Deterministic, seeded fault model for the simulated RDMA fabric.

A :class:`FaultPlan` is a scripted timeline of network imperfections:

* :class:`LinkFault` — per-link drop/duplicate probability and delay
  jitter over a time window (``mn_id=None`` applies to every
  compute-side↔MN link);
* :class:`Partition` — a link partition between the compute side
  (clients + master, endpoint :data:`CN`) and an MN, or between two MNs;
  ``drop_requests`` / ``drop_replies`` make it asymmetric (one direction
  only);
* :class:`GrayNode` — a slow-but-alive MN whose NIC/CPU service times
  are inflated by ``factor``.

The :class:`FaultInjector` turns a plan into per-delivery *fates*.  Every
probabilistic draw is a keyed hash (BLAKE2b over the plan seed, the link,
the message identity, the attempt number, and the current sim time) —
**not** a sequential RNG — so a fate depends only on *what* is sent and
*when*, never on how many unrelated draws happened before it.  Replaying
a schedule replays the exact same faults, which keeps the
:mod:`repro.check` schedule explorer and Hypothesis shrinking sound.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, Optional, Tuple

from ..rdma.verbs import verb_ident
from .retry import RetryPolicy

__all__ = [
    "CN",
    "LinkFault",
    "Partition",
    "GrayNode",
    "FaultPlan",
    "Fate",
    "FaultInjector",
    "verb_ident",
]

#: Endpoint label for the compute side of the fabric (clients + master).
CN = "cn"

_INF = math.inf


@dataclass(frozen=True)
class LinkFault:
    """Loss / duplication / jitter on a compute-side↔MN link.

    ``port`` scopes the fault to one NIC port of a multi-port MN
    (``None``, the default, hits every port — the whole link).
    """

    mn_id: Optional[int] = None    # None: every compute↔MN link
    drop_p: float = 0.0            # per message, per direction
    dup_p: float = 0.0             # per delivered request
    jitter_us: float = 0.0         # extra one-way delay, uniform [0, jitter)
    start_us: float = 0.0
    end_us: float = _INF
    port: Optional[int] = None     # None: every NIC port of the MN

    def active(self, now: float) -> bool:
        return self.start_us <= now < self.end_us


@dataclass(frozen=True)
class Partition:
    """A (possibly asymmetric) partition between ``a`` and ``b``.

    ``a``/``b`` are :data:`CN` or MN ids.  ``drop_requests`` kills a→b
    traffic, ``drop_replies`` kills b→a traffic; set only one for an
    asymmetric partition.  ``port`` restricts the partition to a single
    NIC port on the MN side (a failed cable on one queue of a multi-port
    RNIC); deliveries hashed onto other ports are unaffected, so clients
    escape by re-hashing their retries.
    """

    a: object
    b: object
    start_us: float = 0.0
    end_us: float = _INF
    drop_requests: bool = True
    drop_replies: bool = True
    port: Optional[int] = None

    def active(self, now: float) -> bool:
        return self.start_us <= now < self.end_us


@dataclass(frozen=True)
class GrayNode:
    """A slow-but-alive MN: service times multiplied by ``factor``.

    With ``port`` set, only traffic hashed onto that NIC port of a
    multi-port MN is slowed (a single degraded queue/lane), so retries
    that re-hash onto a healthy port run at full speed.
    """

    mn_id: int
    factor: float = 8.0
    start_us: float = 0.0
    end_us: float = _INF
    port: Optional[int] = None

    def active(self, now: float) -> bool:
        return self.start_us <= now < self.end_us


@dataclass(frozen=True)
class FaultPlan:
    """A scripted timeline of fabric imperfections (plus the fate seed)."""

    link_faults: Tuple[LinkFault, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    gray_nodes: Tuple[GrayNode, ...] = ()
    seed: int = 0

    def __post_init__(self):
        # accept lists for convenience, store tuples (hashable/frozen)
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "gray_nodes", tuple(self.gray_nodes))

    @property
    def empty(self) -> bool:
        return not (self.link_faults or self.partitions or self.gray_nodes)

    def horizon_us(self) -> float:
        """Latest finite fault-window end — after this the fabric is clean."""
        ends = [f.end_us for f in
                (*self.link_faults, *self.partitions, *self.gray_nodes)
                if f.end_us != _INF]
        return max(ends, default=0.0)

    @staticmethod
    def random(seed: int, n_mns: int, duration_us: float,
               max_loss_bursts: int = 3, max_drop_p: float = 0.05,
               max_dup_p: float = 0.02, max_jitter_us: float = 2.0,
               partition: bool = True, gray: bool = True) -> "FaultPlan":
        """A seeded random campaign: a few loss bursts, at most one
        transient compute↔MN partition, at most one gray node."""
        rng = random.Random(seed)
        links = []
        for _ in range(rng.randint(1, max(1, max_loss_bursts))):
            start = rng.uniform(0.0, 0.7 * duration_us)
            links.append(LinkFault(
                mn_id=rng.choice([None] + list(range(n_mns))),
                drop_p=rng.uniform(0.001, max_drop_p),
                dup_p=rng.uniform(0.0, max_dup_p),
                jitter_us=rng.uniform(0.0, max_jitter_us),
                start_us=start,
                end_us=start + rng.uniform(0.05, 0.4) * duration_us))
        partitions = []
        if partition and rng.random() < 0.8:
            start = rng.uniform(0.1, 0.6) * duration_us
            asym = rng.random() < 0.3
            partitions.append(Partition(
                a=CN, b=rng.randrange(n_mns),
                start_us=start,
                end_us=start + rng.uniform(0.05, 0.25) * duration_us,
                drop_requests=True,
                drop_replies=not asym))
        grays = []
        if gray and rng.random() < 0.5:
            start = rng.uniform(0.0, 0.5) * duration_us
            grays.append(GrayNode(
                mn_id=rng.randrange(n_mns),
                factor=rng.uniform(2.0, 8.0),
                start_us=start,
                end_us=start + rng.uniform(0.1, 0.5) * duration_us))
        return FaultPlan(link_faults=tuple(links),
                         partitions=tuple(partitions),
                         gray_nodes=tuple(grays), seed=seed)


@dataclass(frozen=True)
class Fate:
    """The drawn outcome of one delivery attempt."""

    drop_request: bool = False
    drop_reply: bool = False
    duplicate: bool = False
    request_jitter_us: float = 0.0
    reply_jitter_us: float = 0.0
    backoff_u: float = 0.0      # uniform variate for the retry backoff

    @property
    def clean(self) -> bool:
        """Nothing lost, duplicated or delayed: the clean fabric's delivery."""
        return not (self.drop_request or self.drop_reply or self.duplicate
                    or self.request_jitter_us or self.reply_jitter_us)


_CLEAN_FATE = Fate()


def _port_match(fault_port: Optional[int], port: Optional[int]) -> bool:
    """Does a fault scoped to ``fault_port`` hit a delivery on ``port``?
    ``fault_port=None`` hits every port; a port-scoped fault never hits a
    path that has no port (MN↔MN mirrors)."""
    return fault_port is None or fault_port == port


class FaultInjector:
    """Evaluates a :class:`FaultPlan` into per-delivery :class:`Fate`\\ s.

    Lives in one place, ``fabric.injector``: verb/RPC delivery, the
    clients' master calls and the MN block allocators' mirror writes all
    read it there.  :meth:`repro.core.kvstore.FuseeCluster.install_faults`
    and setting ``fabric.injector`` directly are the same thing.
    """

    def __init__(self, plan: FaultPlan, retry: RetryPolicy | None = None):
        self.plan = plan
        self.retry = retry or RetryPolicy()
        self._key = struct.pack(">q", plan.seed & ((1 << 63) - 1))
        # The keyed BLAKE2b state every draw copies: keying is done once.
        self._keyed = blake2b(digest_size=8, key=self._key)
        # The plan is frozen, so the set of active faults changes only at
        # a window edge.  Between two consecutive edges (an *epoch*) every
        # link, partition and gray query answers the same; each epoch keeps
        # those answers, filled by a plan scan on first use.
        self._edges = sorted({
            t for f in (*plan.link_faults, *plan.partitions,
                        *plan.gray_nodes)
            for t in (f.start_us, f.end_us)})
        self._epochs: Dict[int, tuple] = {}
        # the epoch of the last query: [lo, hi) and its two tables
        self._lo, self._hi = _INF, -_INF
        self._links: Dict[tuple, tuple] = {}
        self._reach: Dict[tuple, bool] = {}

    # ------------------------------------------------------------ draws
    def _u(self, parts: str) -> float:
        """Deterministic uniform in [0, 1) keyed by seed + ``parts``, the
        ``repr`` of the draw's tuple of parts."""
        h = self._keyed.copy()
        h.update(parts.encode())
        return int.from_bytes(h.digest(), "big") / 2.0 ** 64

    # ------------------------------------------------------------ epochs
    def _enter(self, now: float) -> None:
        """Make the epoch holding ``now`` the current one.

        Edge ``e`` closes the epoch before it, so with ``e_k`` the last
        edge ``<= now`` a fault is active at ``now`` iff ``start_us <=
        e_k < end_us`` — the same for every time in ``[e_k, e_k+1)``.
        """
        edges = self._edges
        k = bisect_right(edges, now)
        tables = self._epochs.get(k)
        if tables is None:
            tables = self._epochs[k] = (
                edges[k - 1] if k else -_INF,
                edges[k] if k < len(edges) else _INF, {}, {})
        self._lo, self._hi, self._links, self._reach = tables

    def _link(self, mn_id: int, now: float, port: Optional[int]) -> tuple:
        """The compute↔``mn_id`` link on ``port`` in the epoch of ``now``:
        ``((drop_request, drop_reply), active link faults, gray factor)``.
        """
        if not self._lo <= now < self._hi:
            self._enter(now)
        state = self._links.get((mn_id, port))
        if state is not None:
            return state
        plan = self.plan
        drop_req = drop_rep = False
        for p in plan.partitions:
            if not p.active(now) or not _port_match(p.port, port):
                continue
            if p.a == CN and p.b == mn_id:
                drop_req |= p.drop_requests
                drop_rep |= p.drop_replies
            elif p.a == mn_id and p.b == CN:
                drop_req |= p.drop_replies
                drop_rep |= p.drop_requests
        active = tuple(
            (i, lf) for i, lf in enumerate(plan.link_faults)
            if (lf.mn_id is None or lf.mn_id == mn_id)
            and lf.active(now) and _port_match(lf.port, port))
        factor = 1.0
        for g in plan.gray_nodes:
            if g.mn_id == mn_id and g.active(now) \
                    and _port_match(g.port, port):
                factor *= g.factor
        state = self._links[(mn_id, port)] = (
            (drop_req, drop_rep), active, factor)
        return state

    # ------------------------------------------------------------ topology
    def cn_partition(self, mn_id: int, now: float,
                     port: Optional[int] = None) -> Tuple[bool, bool]:
        """Active compute↔MN partition state → (drop_request, drop_reply).

        ``port`` is the NIC port the delivery hashed onto; port-scoped
        partitions only bite deliveries on their port.
        """
        return self._link(mn_id, now, port)[0]

    def mn_reachable(self, src: int, dst: int, now: float) -> bool:
        """Can MN ``src`` currently push traffic to MN ``dst``?"""
        if not self._lo <= now < self._hi:
            self._enter(now)
        reachable = self._reach.get((src, dst))
        if reachable is not None:
            return reachable
        reachable = True
        for p in self.plan.partitions:
            if not p.active(now) or p.port is not None:
                continue
            if (p.a == src and p.b == dst and p.drop_requests) or \
                    (p.a == dst and p.b == src and p.drop_replies):
                reachable = False
                break
        self._reach[(src, dst)] = reachable
        return reachable

    def service_factor(self, mn_id: int, now: float,
                       port: Optional[int] = None) -> float:
        return self._link(mn_id, now, port)[2]

    # ------------------------------------------------------------ fates
    def _active_link_faults(self, mn_id: int, now: float,
                            port: Optional[int] = None
                            ) -> Tuple[Tuple[int, LinkFault], ...]:
        return self._link(mn_id, now, port)[1]

    def fate(self, ident: tuple, mn_id: int, attempt: int,
             now: float, port: Optional[int] = None) -> Fate:
        """Draw the fate of delivery attempt ``attempt`` of message
        ``ident`` to/from ``mn_id`` starting at sim time ``now``, on
        NIC port ``port`` of the target (None on single-queue paths).

        ``port`` only *scopes* which faults apply — it is never mixed
        into the hash keys, so single-port campaigns draw byte-identical
        fates with or without the multi-queue machinery.
        """
        (drop_req, drop_rep), active, _ = self._link(mn_id, now, port)
        if not (active or drop_req or drop_rep):
            return _CLEAN_FATE
        dup = False
        jit_req = jit_rep = 0.0
        # A draw hashes repr((kind, i, mn_id, ident, attempt, now)); all
        # but the first two parts are the fate's own and ident may carry
        # a WRITE's whole body, so that tail is repr'd once per fate.
        tail = repr((mn_id, ident, attempt, now))[1:]
        for i, lf in active:
            at = f"{i}, {tail}"
            if lf.drop_p > 0.0:
                drop_req = drop_req or self._u("('dq', " + at) < lf.drop_p
                drop_rep = drop_rep or self._u("('dr', " + at) < lf.drop_p
            if lf.dup_p > 0.0:
                dup = dup or self._u("('dup', " + at) < lf.dup_p
            if lf.jitter_us > 0.0:
                jit_req += lf.jitter_us * self._u("('jq', " + at)
                jit_rep += lf.jitter_us * self._u("('jr', " + at)
        if not (drop_req or drop_rep or dup or jit_req or jit_rep):
            return _CLEAN_FATE
        return Fate(drop_request=drop_req, drop_reply=drop_rep,
                    duplicate=dup, request_jitter_us=jit_req,
                    reply_jitter_us=jit_rep,
                    backoff_u=self._u("('bo', " + tail))
