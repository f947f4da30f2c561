"""Fault campaigns: scripted workloads on an imperfect fabric.

A campaign stands up a small FUSEE cluster, preloads a key set, installs
a :class:`~repro.faults.model.FaultPlan`, and drives a 3-client YCSB-A
style workload (reads + updates on shared keys, plus per-client
insert/delete churn that exercises ALLOC/FREE).  After the fault horizon
the fabric heals, the clients run their background maintenance, and the
campaign verifies the end state:

* **zero hung operations** — every client process ran to completion and
  every traced span ended (timeouts surface as typed failures, never
  hangs);
* **ALLOC/FREE balance** — the blocks each MN handed out and has not
  been returned exactly match the blocks some client owns.  A retried
  ALLOC whose first reply was lost only balances because the MN answers
  the retry from its idempotency-token cache; a double-applied ALLOC
  leaks a block and trips this check;
* **KV linearizability** — the traced operation history (including
  typed failures, which become *pending* operations the checker may
  discard) linearizes against map semantics via
  :func:`repro.core.linearizability.check_kv_linearizable`.

``python -m repro faults`` is the CLI front-end; ``tests/test_faults.py``
asserts the acceptance campaign both with retries (clean) and without
(demonstrably failing).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.addressing import RegionConfig
from ..core.client import ClientConfig
from ..core.kvstore import ClusterConfig, FuseeCluster
from ..core.race import RaceConfig
from ..obs import Tracer
from .model import CN, FaultPlan, GrayNode, LinkFault, Partition
from .retry import NO_RETRY, RetryPolicy

__all__ = ["CAMPAIGNS", "CampaignReport", "run_campaign", "campaign_plan",
           "scenario_fault_plan"]


# --------------------------------------------------------------------------
# Named campaigns.  Windows are tuned so the default retry budgets cover
# them (a partition shorter than the verb retry span never exhausts an
# op's retries), keeping the with-retries runs failure-free.
# --------------------------------------------------------------------------
def _loss_plan(n_mns: int) -> FaultPlan:
    return FaultPlan(link_faults=[
        LinkFault(drop_p=0.01, dup_p=0.01, jitter_us=1.0,
                  start_us=100.0, end_us=6000.0)])


def _partition_heal_plan(n_mns: int) -> FaultPlan:
    return FaultPlan(
        link_faults=[LinkFault(drop_p=0.005, start_us=100.0,
                               end_us=6000.0)],
        partitions=[Partition(a=CN, b=min(1, n_mns - 1),
                              start_us=800.0, end_us=950.0)])


def _gray_plan(n_mns: int) -> FaultPlan:
    return FaultPlan(gray_nodes=[
        GrayNode(mn_id=0, factor=6.0, start_us=300.0, end_us=2200.0)])


def _mixed_plan(n_mns: int) -> FaultPlan:
    """The acceptance campaign: 1% loss + duplication + a transient
    client<->MN partition + a gray node."""
    return FaultPlan(
        link_faults=[LinkFault(drop_p=0.01, dup_p=0.01, jitter_us=0.5,
                               start_us=100.0, end_us=6000.0)],
        partitions=[Partition(a=CN, b=min(1, n_mns - 1),
                              start_us=900.0, end_us=1050.0)],
        gray_nodes=[GrayNode(mn_id=0, factor=4.0,
                             start_us=1500.0, end_us=2400.0)])


CAMPAIGNS = {
    "loss": _loss_plan,
    "partition-heal": _partition_heal_plan,
    "gray": _gray_plan,
    "mixed": _mixed_plan,
}


def scenario_fault_plan(scenario, seed: int = 0) -> FaultPlan:
    """Translate a scenario's declarative fault windows into a plan.

    :class:`repro.workloads.scenarios.FaultEvent` times are fractions
    of the scenario duration; campaign traffic starts right after
    ``install_faults``, so scaling by ``duration_us`` keeps a compound
    scenario's fault windows aligned with its load events at any trim.
    """
    duration = scenario.duration_us
    link_faults: List[LinkFault] = []
    partitions: List[Partition] = []
    gray_nodes: List[GrayNode] = []
    for event in scenario.faults:
        start = event.start_frac * duration
        end = event.end_frac * duration
        if event.kind == "gray":
            gray_nodes.append(GrayNode(mn_id=event.mn_id,
                                       factor=event.factor,
                                       start_us=start, end_us=end))
        elif event.kind == "loss":
            link_faults.append(LinkFault(drop_p=event.drop_p,
                                         dup_p=event.dup_p,
                                         jitter_us=event.jitter_us,
                                         start_us=start, end_us=end))
        else:
            partitions.append(Partition(a=CN, b=event.mn_id,
                                        start_us=start, end_us=end))
    return FaultPlan(link_faults=link_faults, partitions=partitions,
                     gray_nodes=gray_nodes, seed=seed)


def campaign_plan(name: str, n_mns: int, seed: int = 0) -> FaultPlan:
    """Resolve a campaign name to its plan (``random`` is seeded)."""
    if name == "random":
        plan = FaultPlan.random(seed, n_mns, duration_us=5000.0)
    else:
        try:
            plan = CAMPAIGNS[name](n_mns)
        except KeyError:
            known = ", ".join(sorted([*CAMPAIGNS, "random"]))
            raise ValueError(f"unknown campaign {name!r} (one of: {known})")
    if plan.seed != seed:
        plan = FaultPlan(link_faults=plan.link_faults,
                         partitions=plan.partitions,
                         gray_nodes=plan.gray_nodes, seed=seed)
    return plan


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Everything a campaign observed, plus the verdicts."""

    name: str
    seed: int
    retries: bool
    plan: FaultPlan
    sim_time_us: float = 0.0
    ops_total: int = 0
    ops_ok: int = 0
    ops_failed: int = 0            # typed failures (span.error set)
    failures_by_error: Dict[str, int] = field(default_factory=dict)
    hung_ops: int = 0
    exceptions: List[str] = field(default_factory=list)
    fabric: Dict[str, int] = field(default_factory=dict)
    master_dedup_hits: int = 0
    blocks_outstanding: int = 0    # granted by MNs and not returned
    blocks_owned: int = 0          # adopted and still held by clients
    # Replica FAAs of batched frees that timed out: each may have left an
    # object's free bit unset on that replica, never to be posted again
    # (ClientAllocator.stats_free_timeouts; ROADMAP item 3(e)).
    free_faa_timeouts: int = 0
    linearizable: bool = True
    violation: Optional[str] = None
    # Gray-failure detector verdict (repro.obs.detect.detector_verdict)
    # and monitor health report; None when the campaign ran unmonitored.
    detector: Optional[dict] = None
    health: Optional[dict] = None

    @property
    def balance_ok(self) -> bool:
        return self.blocks_outstanding == self.blocks_owned

    @property
    def detector_ok(self) -> bool:
        """Monitored campaigns also require the detector verdict: every
        seeded gray/port fault flagged, no unexplained flags."""
        return self.detector is None or bool(self.detector.get("ok"))

    @property
    def sound(self) -> bool:
        """The safety verdict: no hangs, no leaks, linearizable."""
        return (self.hung_ops == 0 and not self.exceptions
                and self.balance_ok and self.linearizable
                and self.detector_ok)

    @property
    def clean(self) -> bool:
        """Soundness plus liveness: every operation also succeeded."""
        return self.sound and self.ops_failed == 0

    def render(self) -> str:
        f = self.fabric
        lines = [
            f"campaign {self.name!r} seed={self.seed} "
            f"retries={'on' if self.retries else 'off'}",
            f"  plan: {len(self.plan.link_faults)} link fault(s), "
            f"{len(self.plan.partitions)} partition(s), "
            f"{len(self.plan.gray_nodes)} gray node(s), "
            f"horizon {self.plan.horizon_us():g}us",
            f"  sim time: {self.sim_time_us:.1f}us",
            f"  ops: {self.ops_total} total, {self.ops_ok} ok, "
            f"{self.ops_failed} typed failures, {self.hung_ops} hung",
        ]
        for error, count in sorted(self.failures_by_error.items()):
            lines.append(f"    failure {error!r}: {count}")
        lines.append(
            f"  fabric: {f.get('dropped_requests', 0)} req dropped, "
            f"{f.get('dropped_replies', 0)} replies dropped, "
            f"{f.get('duplicates', 0)} duplicated")
        lines.append(
            f"  retries: {f.get('transport_retries', 0)} verb, "
            f"{f.get('rpc_retries', 0)} rpc; timeouts: "
            f"{f.get('verb_timeouts', 0)} verb, "
            f"{f.get('rpc_timeouts', 0)} rpc")
        lines.append(
            f"  dedup hits: {f.get('dedup_hits', 0)} verb, "
            f"{f.get('rpc_dedup_hits', 0)} MN rpc, "
            f"{self.master_dedup_hits} master rpc")
        lines.append(
            f"  alloc balance: {self.blocks_outstanding} outstanding at "
            f"MNs vs {self.blocks_owned} owned by clients "
            f"[{'ok' if self.balance_ok else 'LEAK'}]")
        lines.append(
            f"  batched frees: {self.free_faa_timeouts} replica FAA(s) "
            f"timed out")
        lines.append(
            "  linearizable: " + ("yes" if self.linearizable else
                                  f"NO\n{self.violation}"))
        if self.detector is not None:
            det = self.detector
            lines.append(
                f"  gray detector: {len(det['caught'])}/{det['expected']} "
                f"expected fault(s) caught, {len(det['missed'])} missed, "
                f"{len(det['unexplained'])} unexplained flag(s) "
                f"[{'ok' if det['ok'] else 'FAIL'}]")
            for row in det["caught"]:
                lines.append(
                    f"    caught {row['fault']} on mn{row['mn']}"
                    + (f".p{row['port']}" if row["port"] is not None else "")
                    + f" via {row['flag_scope']} after "
                      f"{row['latency_windows']} window(s)")
        if self.exceptions:
            lines.append(f"  exceptions: {self.exceptions}")
        lines.append(f"  verdict: {'CLEAN' if self.clean else 'sound' if self.sound else 'UNSOUND'}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# The campaign driver
# --------------------------------------------------------------------------
# Every pinned campaign verdict was taken on this geometry: a 3-MN cluster,
# 32 preloaded shared keys, and a gray/port fault caught within three
# monitor windows of its onset.
N_MNS = 3
PRELOAD = 32
DETECT_WINDOWS = 3


def _small_cluster(n_mns: int, tracer=None, nic_ports: int = 1,
                   rpc_shards: int = 1,
                   replication: str = "snapshot",
                   index_replication: int = 1) -> FuseeCluster:
    config = ClusterConfig(
        n_memory_nodes=n_mns,
        replication_factor=min(2, n_mns),
        index_replication=min(index_replication, n_mns),
        region=RegionConfig(region_size=1 << 18, block_size=1 << 13),
        race=RaceConfig(n_subtables=4, n_groups=32, slots_per_bucket=7),
        client=ClientConfig(replication_mode=replication),
        nic_ports=nic_ports,
        rpc_shards=rpc_shards,
    )
    return FuseeCluster(config, tracer=tracer)


def run_campaign(name: str = "mixed", seed: int = 0, retries: bool = True,
                 clients: int = 3, ops_per_client: int = 120,
                 value_size: int = 48,
                 plan: Optional[FaultPlan] = None,
                 nic_ports: int = 1,
                 rpc_shards: int = 1,
                 replication: str = "snapshot",
                 index_replication: int = 1,
                 monitor_config=None,
                 slos=(),
                 scenario=None,
                 scenario_overrides: Optional[dict] = None
                 ) -> CampaignReport:
    """Run one fault campaign and verify its end state.

    ``scenario`` (a :class:`repro.workloads.scenarios.Scenario` or a
    registry name; ``scenario_overrides`` are factory knobs for the
    name form) swaps the scripted YCSB-A loop for the scenario's paced,
    seeded arrival streams: the preload set becomes the scenario's
    tenant key spaces, the client count the scenario's, and — for
    compound scenarios carrying fault events — the fault plan is
    derived from the scenario itself (:func:`scenario_fault_plan`).
    Pure-load scenarios run under the named campaign plan, so *every*
    shipped scenario gets a fault-campaign + linearizability verdict,
    replayable from ``(scenario, seed)``.

    ``retries=False`` swaps in :data:`~repro.faults.retry.NO_RETRY` —
    the negative control showing the resilience layer is load-bearing.
    An explicit ``plan`` overrides the named one (used by the Hypothesis
    property tests).  ``nic_ports``/``rpc_shards`` size each MN's
    multi-queue NIC and sharded RPC service, so campaigns can target
    port-scoped faults (``Partition(port=...)`` etc.).  ``replication``
    selects the slot replication strategy the clients run under faults
    ("snapshot" | "sequential" | "swarm"), and ``index_replication`` the
    index replica count (capped at the 3 MNs) — raise it so multi-replica
    protocol machinery (broadcasts, fixups, validated reads) actually
    runs under the fault plan.

    ``monitor_config`` (a :class:`repro.obs.MonitorConfig`) attaches the
    online monitor for the faulted window; the campaign then also
    scores the gray-failure detector against the seeded plan — every
    gray node / port-scoped fault must be flagged within
    ``DETECT_WINDOWS`` windows of onset with no unexplained flags — and
    folds that verdict into ``CampaignReport.sound``.
    """
    ambient = name  # the named plan pure-load scenarios run under
    if scenario is not None:
        from ..workloads.scenarios import get_scenario
        if isinstance(scenario, str):
            scenario = get_scenario(scenario, seed=seed,
                                    **(scenario_overrides or {}))
        clients = scenario.n_clients
        name = f"scenario:{scenario.name}"
        if plan is None and scenario.faults:
            plan = scenario_fault_plan(scenario, seed)
    if plan is None:
        plan = campaign_plan(ambient, N_MNS, seed)
    cluster = _small_cluster(N_MNS, nic_ports=nic_ports,
                             rpc_shards=rpc_shards,
                             replication=replication,
                             index_replication=index_replication)
    env = cluster.env

    # ---- preload on a clean fabric (not part of the checked history)
    loader = cluster.new_client()
    rng = random.Random(seed ^ 0x5EED)
    if scenario is not None:
        preload_items = scenario.preload_items()
    else:
        preload_items = [
            (f"k{i:03d}".encode(),
             f"v0-{i:03d}".encode().ljust(value_size, b"."))
            for i in range(PRELOAD)]
    initial: Dict[bytes, bytes] = {}
    for key, value in preload_items:
        result = env.run(until=env.process(loader.insert(key, value)))
        if not result.ok:
            raise RuntimeError(f"preload of {key!r} failed: {result}")
        initial[key] = value
    shared_keys = sorted(initial)

    tracer = Tracer(env=env)
    cluster.attach_tracer(tracer)
    monitor = None
    if monitor_config is not None:
        from ..obs import Monitor
        monitor = Monitor(env, cluster.fabric, config=monitor_config,
                          slos=slos, race=cluster.race)
        cluster.attach_monitor(monitor)
    report = CampaignReport(name=name, seed=seed, retries=retries, plan=plan)
    free_before = {mn: alloc.free_block_count
                   for mn, alloc in cluster.mn_allocators.items()}
    owned_before = sum(len(c.allocator.owned_blocks())
                      for c in cluster.clients)
    cluster.install_faults(plan,
                           retry=RetryPolicy() if retries else NO_RETRY)

    # ---- the workload: YCSB-A on shared keys + scratch-key churn
    def client_loop(client, cid: int):
        crng = random.Random((seed << 8) ^ cid)
        scratch_live: Dict[bytes, bytes] = {}
        for i in range(ops_per_client):
            roll = crng.random()
            try:
                if roll < 0.10:
                    key = f"s{cid}-{crng.randrange(3)}".encode()
                    if key in scratch_live:
                        result = yield from client.delete(key)
                        if result.ok:
                            scratch_live.pop(key)
                    else:
                        value = f"s{cid}-{i}".encode().ljust(value_size,
                                                             b".")
                        result = yield from client.insert(key, value)
                        if result.ok:
                            scratch_live[key] = value
                elif roll < 0.55:
                    yield from client.search(crng.choice(shared_keys))
                else:
                    key = crng.choice(shared_keys)
                    value = f"v{cid}-{i}".encode().ljust(value_size, b".")
                    yield from client.update(key, value)
            except Exception as exc:  # noqa: BLE001 - campaign verdict data
                report.exceptions.append(
                    f"client {cid} op {i}: {type(exc).__name__}: {exc}")
                return

    # Paced scenario loops: sleep to each seeded arrival time, then run
    # the op; late arrivals (client still mid-op under faults) run
    # immediately, so fault-stretched latency never drops arrivals.
    traffic_start = env.now

    def scenario_loop(client, cid: int):
        for arrival in scenario.client_stream(cid):
            at = traffic_start + arrival.at_us
            if at > env.now:
                yield env.timeout(at - env.now)
            try:
                if arrival.op == "search":
                    yield from client.search(arrival.key)
                elif arrival.op == "update":
                    yield from client.update(arrival.key, arrival.value)
                elif arrival.op == "insert":
                    yield from client.insert(arrival.key, arrival.value)
                else:
                    yield from client.delete(arrival.key)
            except Exception as exc:  # noqa: BLE001 - campaign verdict data
                report.exceptions.append(
                    f"client {cid} {arrival.op} @{arrival.at_us:.1f}: "
                    f"{type(exc).__name__}: {exc}")
                return

    loop = client_loop if scenario is None else scenario_loop
    workers = [cluster.new_client() for _ in range(clients)]
    procs = [env.process(loop(client, idx), name=f"campaign-{idx}")
             for idx, client in enumerate(workers)]

    # Bounded runs: extend past the fault horizon until every client loop
    # finishes (or provably never will — those are the hung ops).
    if scenario is not None:
        expected_ops = scenario.schedule.integral(0.0, scenario.duration_us)
        deadline = max(plan.horizon_us(), scenario.duration_us, 1000.0) \
            + 100.0 * (expected_ops + clients)
    else:
        deadline = max(plan.horizon_us(), 1000.0) \
            + 100.0 * clients * ops_per_client
    for _round in range(4):
        env.run(until=env.now + deadline)
        if all(p.triggered for p in procs):
            break
    report.hung_ops = sum(1 for p in procs if not p.triggered)

    # ---- heal, then run background maintenance on a clean fabric
    cluster.clear_faults()
    if report.hung_ops == 0:
        for client in (*workers, loader):
            env.run(until=env.process(
                client.maintenance(release_blocks=True)))
    report.sim_time_us = env.now

    # ---- verdicts
    spans = [s for s in tracer.spans
             if s.op in ("search", "insert", "update", "delete")]

    if monitor is not None:
        from ..obs import detector_verdict
        report.health = monitor.finish()
        # A fault seeded after the last op completes is invisible to any
        # comparative detector — exclude it from "expected".
        traffic_end = max((s.end_us for s in spans
                           if s.end_us is not None), default=None)
        report.detector = detector_verdict(
            plan, monitor.detector.flags, monitor.width,
            windows=DETECT_WINDOWS, traffic_end_us=traffic_end)

    report.ops_total = len(spans)
    for span in spans:
        if span.end_us is None:
            report.hung_ops += 1
        elif span.error is not None:
            report.ops_failed += 1
            report.failures_by_error[span.error] = \
                report.failures_by_error.get(span.error, 0) + 1
        else:
            report.ops_ok += 1
    report.fabric = dataclasses.asdict(cluster.fabric.stats.snapshot())
    report.master_dedup_hits = cluster.master.rpc_dedup_hits

    report.blocks_outstanding = owned_before + sum(
        free_before[mn] - alloc.free_block_count
        for mn, alloc in cluster.mn_allocators.items())
    report.blocks_owned = sum(len(c.allocator.owned_blocks())
                              for c in cluster.clients)
    report.free_faa_timeouts = sum(c.allocator.stats_free_timeouts
                                   for c in cluster.clients)

    from ..check.history import kv_ops_from_spans
    from ..core.linearizability import check_kv_linearizable
    violation = check_kv_linearizable(kv_ops_from_spans(tracer.spans),
                                      initial=initial)
    report.linearizable = violation is None
    report.violation = None if violation is None else str(violation)
    return report
