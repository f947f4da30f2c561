"""The four fixed workloads, as steps the repetition driver times.

Imported only inside a repetition subprocess (it imports :mod:`repro`).
Every workload exposes the same steps — ``build_bed``, ``bulk_load``,
``spawn_clients``, ``construct``, ``run``, ``verify`` — so
:mod:`benchmarks.perf.rep` can time each as one phase span, and the same
observations afterwards: per-kind latencies of the measured window,
attempted/failed counts, and the counter deltas of that window.

Sizes are the reference sizes of the issue scaled by one common
``factor`` (``--seconds`` / 25): durations and op counts scale, key
counts, client counts and bed geometry do not.

Why these four (the README has the long form):

* ``ycsb_a_sat`` — write-heavy saturation, caches far smaller than the
  key set: replication CAS rounds, the RACE miss path, ``fabric.post``
  and the kernel drain loop do the work; bulk load dominates set-up.
* ``ycsb_c_hot`` — the same kernel/fabric layers used the other way:
  read-only, everything cached, NIC-bound.  A write-path or loader gain
  must show no change here.
* ``crud_1c_default_bed`` — one unloaded client on the default bed:
  latency is RTT budget x propagation, host time is protocol + codecs +
  allocation, and bed construction dominates set-up.
* ``scenario_faulty_obs`` — the general (hooked, faulty, observed,
  open-loop) path that the three fast-path workloads bypass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional, Tuple

from repro.check.history import kv_ops_from_spans
from repro.core.linearizability import check_kv_linearizable
from repro.faults import RetryPolicy
from repro.faults.campaign import scenario_fault_plan
from repro.harness import fusee_bed, run_closed_loop
from repro.harness.runner import run_open_loop
from repro.obs import CATEGORIES, Monitor, Profiler, RunProfile, Tracer
from repro.workloads import YcsbConfig, YcsbWorkload, get_scenario

KV_KINDS = ("search", "update", "insert", "delete")

#: Failure messages kept per repetition (the count is always exact).
MAX_MESSAGES = 8
#: Slices the run phase is timed in at the reference size (~5 s of run
#: phase, so ~50 ms each); scales with the factor like every duration.
SLICES_AT_REFERENCE = 100


def _scaled_count(reference: int, factor: float) -> int:
    return max(1, round(reference * factor))


def _load_ycsb_keys(bed, seeder: YcsbWorkload) -> None:
    """Bulk-load the seeder's key set with its load values."""
    bed.load((key, seeder.load_value(i))
             for i, key in enumerate(seeder.load_keys()))


# ------------------------------------------------------------------ window
class Window:
    """Counter deltas of the measurement window, from public state only.

    ``open`` is called at the start of the window (for the closed loops,
    by an ``events=[(warmup_us, callback)]`` timeline action, so bulk
    load and warm-up are excluded) and ``close`` at the end of the run.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self._before: Optional[dict] = None
        self.delta: Dict[str, float] = {}
        self.port_ops: Dict[str, int] = {}

    def _snapshot(self) -> dict:
        cluster = self.cluster
        stats = dataclasses.asdict(cluster.fabric.stats.snapshot())
        clients = cluster.clients
        flat = {f"fabric.{k}": v for k, v in stats.items()
                if not isinstance(v, dict)}
        for field in ("hits", "misses", "bypasses", "invalidations",
                      "evictions"):
            flat[f"cache.{field}"] = sum(
                getattr(c.cache.stats, field) for c in clients)
        flat["client.retries"] = sum(c.stats.retries for c in clients)
        flat["client.master_escalations"] = sum(
            c.stats.master_escalations for c in clients)
        flat["sim.events"] = events_scheduled(cluster.env)
        flat["sim.now_us"] = cluster.env.now
        return {"flat": flat, "ports": dict(stats["per_port_ops"])}

    def open(self) -> None:
        self._before = self._snapshot()

    def close(self) -> None:
        if self._before is None:
            raise RuntimeError("measurement window was never opened")
        after = self._snapshot()
        before = self._before
        self.delta = {k: v - before["flat"][k]
                      for k, v in after["flat"].items()}
        self.port_ops = {
            label: n - before["ports"].get(label, 0)
            for label, n in after["ports"].items()}


def events_scheduled(env) -> int:
    """Events the kernel has scheduled so far.

    The one read of non-public state in this benchmark: the kernel has no
    public event counter, and this PR may not add one.  ``_eid`` is the
    id the next scheduled event gets, i.e. the count so far; if a later
    kernel drops it the per-event metrics read 0 instead of failing.
    """
    return int(getattr(env, "_eid", 0))


# ---------------------------------------------------------------- outcome
@dataclasses.dataclass
class Outcome:
    """What one run phase produced, before it is turned into metrics."""

    latencies: Dict[str, List[float]]      # per kind, measured window
    window_us: float
    errors: int = 0                        # returned not-ok or raised
    unfinished: int = 0                    # open loop: due but not done
    # open loop only: generator lateness (actual start - due) samples
    lateness: List[float] = dataclasses.field(default_factory=list)
    offered: int = 0                       # open loop: arrivals due
    messages: List[str] = dataclasses.field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def attempted(self) -> int:
        return self.ops + self.errors + self.unfinished

    def note(self, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


class Bench:
    """Common state and the traced-sim observer plumbing."""

    name = ""
    loop = ""
    n_clients = 0

    def __init__(self, seed: int, factor: float, traced_sim: bool):
        self.seed = seed
        self.factor = factor
        self.traced_sim = traced_sim
        self.bed = None
        self.clients: list = []
        self.window: Optional[Window] = None
        self.outcome: Optional[Outcome] = None
        self.tracer: Optional[Tracer] = None
        self.profiler: Optional[Profiler] = None
        self.run_events = 0            # kernel events of the run phase
        # set by the repetition driver, which starts and stops it around
        # ``run``; ``run`` marks the end of every slice but the last
        self.timer = None
        self.n_slices = max(2, _scaled_count(SLICES_AT_REFERENCE, factor))
        self._window_span: Tuple[float, float] = (0.0, 0.0)

    # -- steps the driver times -------------------------------------------
    def build_bed(self) -> None:
        raise NotImplementedError

    def bulk_load(self) -> None:
        raise NotImplementedError

    def spawn_clients(self) -> None:
        self.clients = [self.bed.new_client()
                        for _ in range(self.n_clients)]

    def construct(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> Tuple[int, List[str]]:
        """Returns ``(checks made, failure messages)``."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    # -- shared plumbing --------------------------------------------------
    @property
    def cluster(self):
        return self.bed.cluster

    @property
    def env(self):
        return self.bed.env

    @property
    def fast(self) -> bool:
        """Whether the kernel's fast drain loop must be eligible."""
        return self.profiler is None

    def slice_marks(self, duration_us: float) -> list:
        """Timeline actions that end a timing slice: evenly spaced in
        simulated time (the runners ignore what ``mark`` returns)."""
        n = self.n_slices
        return [(duration_us * i / n, self.timer.mark) for i in range(1, n)]

    def attach_observers(self) -> None:
        """Traced-sim: Tracer + Profiler after the bulk load (which must
        run on the fast kernel path), exactly as ``profile_ycsb`` does."""
        if not self.traced_sim:
            return
        self.tracer = Tracer()
        self.cluster.attach_tracer(self.tracer)
        self.profiler = Profiler(tracer=self.tracer).install(self.env)

    def detach_profiler(self) -> None:
        """Verification reads run unprofiled whatever the mode."""
        if self.profiler is not None:
            self.profiler.uninstall()

    def obs_counts(self) -> Dict[str, int]:
        """Spans recorded and monitor panes evaluated during the run."""
        return {"obs.spans": 0, "obs.monitor_windows": 0}

    def fingerprint(self) -> str:
        """Hash of per-kind op counts, the fabric's counters and the
        final simulated time: a host-only change must leave it as is."""
        payload = {
            "ops": {k: len(v) for k, v in self.outcome.latencies.items()},
            "errors": self.outcome.errors,
            "unfinished": self.outcome.unfinished,
            "fabric": dataclasses.asdict(
                self.cluster.fabric.stats.snapshot()),
            "now_us": self._window_span[1],
        }
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def sim_profile(self) -> Optional[dict]:
        """``simshare.*`` and ``rtts.*`` from the tracer/profiler, over
        the spans that ended inside the measurement window."""
        if not self.traced_sim:
            return None
        lo, hi = self._window_span
        spans = [s for s in self.tracer.spans
                 if s.op in KV_KINDS and s.end_us is not None
                 and lo <= s.end_us <= hi]
        profile = RunProfile.collect(self.profiler, spans)
        rtts = {}
        for kind in KV_KINDS:
            counts = sorted(s.rtts for s in spans if s.op == kind)
            rtts[kind] = counts[len(counts) // 2] if counts else 0
        return {"simshare": {cat: profile.share(cat) for cat in CATEGORIES},
                "rtts": rtts}


# ------------------------------------------------------------ closed loops
class _RecordingWorkload:
    """Pass-through ``next_op`` that remembers every value written per
    key, so the read-back can require that each key holds its loaded
    value or one some client actually wrote."""

    def __init__(self, inner, written: Dict[bytes, set]):
        self._inner = inner
        self._written = written

    def next_op(self):
        op = self._inner.next_op()
        if op[0] == "update":
            self._written.setdefault(op[1], set()).add(op[2])
        return op


class YcsbClosed(Bench):
    """Closed-loop YCSB on a FUSEE bed (``ycsb_a_sat``, ``ycsb_c_hot``)."""

    loop = "closed"
    mix = "A"
    n_keys = 0
    duration_us = 0.0
    warmup_us = 0.0
    bed_kwargs: dict = {}

    def __init__(self, seed, factor, traced_sim):
        super().__init__(seed, factor, traced_sim)
        self.config = YcsbConfig(workload=self.mix, n_keys=self.n_keys)
        self._seeder = YcsbWorkload(self.config, seed=seed)
        self._streams: list = []
        self._written: Dict[bytes, set] = {}

    def sizes(self) -> dict:
        return {"loop": self.loop, "clients": self.n_clients,
                "keys": self.n_keys, "kv_bytes": self.config.kv_size,
                "mix": f"YCSB-{self.mix}",
                "duration_us": self.duration_us * self.factor,
                "warmup_us": self.warmup_us * self.factor,
                "bed": self.bed_kwargs}

    def build_bed(self) -> None:
        self.bed = fusee_bed(background_interval_us=0.0,
                             max_clients=self.n_clients + 8,
                             **self.bed_kwargs)

    def bulk_load(self) -> None:
        _load_ycsb_keys(self.bed, self._seeder)

    def construct(self) -> None:
        # 1009 > every client count, so two benchmark seeds never share a
        # client stream.
        self._streams = [
            _RecordingWorkload(
                YcsbWorkload(self.config, seed=self.seed * 1009 + 1 + i),
                self._written)
            for i in range(self.n_clients)]

    def run(self) -> None:
        duration = self.duration_us * self.factor
        warmup = self.warmup_us * self.factor
        self.window = Window(self.cluster)
        start = self.env.now
        events_before = events_scheduled(self.env)
        result = run_closed_loop(
            self.env, self.clients, lambda index: self._streams[index],
            self.bed.execute, duration_us=duration, warmup_us=warmup,
            collect_latency=True,
            events=[(warmup, self.window.open)] + self.slice_marks(duration),
            fast=self.fast)
        self.window.close()
        self.run_events = events_scheduled(self.env) - events_before
        self._window_span = (start + warmup, start + duration)
        self.outcome = Outcome(latencies=result.latencies,
                               window_us=result.duration_us,
                               errors=result.errors)

    def verify(self) -> Tuple[int, List[str]]:
        """Read every preloaded key back from a fresh client."""
        reader = self.bed.new_client()
        seeder = self._seeder
        written = self._written
        value_size = self.config.value_size
        failures: List[str] = []

        def read_all():
            for index, key in enumerate(seeder.load_keys()):
                result = yield from reader.search(key)
                if not result.ok:
                    failures.append(f"{key!r}: not found after the run")
                elif len(result.value) != value_size:
                    failures.append(f"{key!r}: {len(result.value)} bytes, "
                                    f"expected {value_size}")
                elif (result.value != seeder.load_value(index)
                      and result.value not in written.get(key, ())):
                    failures.append(f"{key!r}: holds a value nobody wrote")

        self.cluster.run_op(read_all())
        return self.n_keys, failures


class YcsbASat(YcsbClosed):
    name = "ycsb_a_sat"
    mix = "A"
    n_clients = 128
    n_keys = 20_000
    duration_us = 2000.0
    warmup_us = 400.0
    bed_kwargs = dict(n_memory_nodes=4, replication_factor=2, nic_ports=4,
                      rpc_shards=2, port_affinity="rss",
                      dataset_bytes=22 << 20)


class YcsbCHot(YcsbClosed):
    name = "ycsb_c_hot"
    mix = "C"
    n_clients = 64
    n_keys = 200
    duration_us = 20_000.0
    warmup_us = 4000.0
    bed_kwargs = dict(n_memory_nodes=2, replication_factor=2, nic_ports=1,
                      rpc_shards=1)


# ------------------------------------------------------------------- crud
class Crud1Client(Bench):
    """One unloaded client, fixed op count, default-geometry bed."""

    name = "crud_1c_default_bed"
    loop = "closed"
    n_clients = 1
    n_preload = 20_000
    ops_per_kind = 12_000
    maintenance_every = 64
    # 256-byte values on average; the seed draws each length so that the
    # simulated latencies depend on the seed as on the other workloads.
    value_bytes = (192, 320)

    def __init__(self, seed, factor, traced_sim):
        super().__init__(seed, factor, traced_sim)
        self.n_ops = _scaled_count(self.ops_per_kind, factor)
        self._preload = YcsbWorkload(
            YcsbConfig(workload="A", n_keys=self.n_preload), seed=seed)
        self._keys: List[bytes] = []
        self._values: List[Tuple[bytes, bytes]] = []
        self._log: List[tuple] = []     # successful ops: (kind, key, value)

    def sizes(self) -> dict:
        return {"loop": self.loop, "clients": 1,
                "preloaded_keys": self.n_preload,
                "ops_per_kind": self.n_ops, "kinds": list(
                    ("insert", "search", "update", "delete")),
                "value_bytes": list(self.value_bytes),
                "maintenance_every": self.maintenance_every,
                "bed": "fusee_bed() defaults"}

    def build_bed(self) -> None:
        self.bed = fusee_bed()

    def bulk_load(self) -> None:
        _load_ycsb_keys(self.bed, self._preload)

    def construct(self) -> None:
        rng = random.Random(self.seed)
        lo, hi = self.value_bytes
        self._keys = [f"crud{self.seed:06d}-{i:08d}".encode()
                      for i in range(self.n_ops)]

        def value():
            return rng.randbytes(8) * (rng.randint(lo, hi) // 8)

        self._values = [(value(), value()) for _ in self._keys]

    def run(self) -> None:
        cluster, env, fast = self.cluster, self.env, self.fast
        client = self.clients[0]
        latencies: Dict[str, List[float]] = {
            "insert": [], "search": [], "update": [], "delete": []}
        self.outcome = outcome = Outcome(latencies=latencies, window_us=0.0)
        log = self._log
        self.window = Window(cluster)
        self.window.open()
        events_before = events_scheduled(env)
        start = env.now

        def timed(kind, key, generator):
            began = env.now
            result = cluster.run_op(generator, fast=fast)
            if result.ok:
                latencies[kind].append(env.now - began)
                log.append((kind, key, result.value))
            else:
                outcome.errors += 1
                outcome.note(f"{kind} {key!r}: returned not-ok")

        keys, values = self._keys, self._values
        # a timing slice ends every ``per_slice`` ops of a kind
        per_slice = max(1, 4 * len(keys) // self.n_slices)
        mark = self.timer.mark
        for i, (key, (first, _second)) in enumerate(zip(keys, values), 1):
            timed("insert", key, client.insert(key, first))
            if i % per_slice == 0:
                mark()
        for i, key in enumerate(keys, 1):
            timed("search", key, client.search(key))
            if i % per_slice == 0:
                mark()
        every = self.maintenance_every
        for i, (key, (_first, second)) in enumerate(zip(keys, values), 1):
            timed("update", key, client.update(key, second))
            if i % every == 0:
                cluster.run_op(client.maintenance(), fast=fast)
            if i % per_slice == 0:
                mark()
        for i, key in enumerate(keys, 1):
            timed("delete", key, client.delete(key))
            if i % per_slice == 0 and i < len(keys):
                mark()

        self.window.close()
        self.run_events = events_scheduled(env) - events_before
        self._window_span = (start, env.now)
        outcome.window_us = env.now - start

    def verify(self) -> Tuple[int, List[str]]:
        """Replay the successful ops against a dict model (ops that
        returned not-ok are already counted as errors), then look up
        every deleted key."""
        model: Dict[bytes, bytes] = {}
        failures: List[str] = []
        written = dict(zip(self._keys, self._values))
        for kind, key, value in self._log:
            if kind == "insert":
                model[key] = written[key][0]
            elif kind == "update":
                model[key] = written[key][1]
            elif kind == "search" and value != model.get(key):
                failures.append(f"search {key!r}: not the last write")
            elif kind == "delete":
                model.pop(key, None)
        client = self.clients[0]
        cluster = self.cluster
        for key in self._keys:
            result = cluster.run_op(client.search(key))
            if result.ok:
                failures.append(f"search {key!r}: found after delete")
        return len(self._log) + len(self._keys), failures


# --------------------------------------------------------------- scenario
class _DueClock:
    """Open-loop timing from the *due* time.

    ``run_open_loop`` stamps an op after its pacing sleep, so a client
    that has fallen behind hides its backlog.  The stream wrapper
    remembers each client's last scheduled arrival and the ``execute``
    wrapper records completion, so latency is ``completion - due``,
    lateness is ``actual start - due``, and arrivals that were due but
    never completed are counted.
    """

    def __init__(self, env, inner_execute):
        self.env = env
        self._inner = inner_execute
        self.start_us = 0.0
        self._due: Dict[int, float] = {}
        self.offered = 0
        # (kind, due, began, ended, ok)
        self.records: List[tuple] = []
        self.raised: List[str] = []

    def stream(self, cid: int, inner):
        for arrival in inner:
            self._due[cid] = arrival.at_us
            self.offered += 1
            yield arrival

    def execute(self, client, op, key, value):
        due = self.start_us + self._due[client.cid]
        began = self.env.now
        try:
            ok = yield from self._inner(client, op, key, value)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            self.raised.append(f"{op} {key!r}: {type(exc).__name__}: {exc}")
            ok = False
        self.records.append((op, due, began, self.env.now, bool(ok)))
        return ok


class ScenarioFaultyObs(Bench):
    """Open-loop compound scenario with faults, retries and every
    observer on: the general path."""

    name = "scenario_faulty_obs"
    loop = "open"
    n_clients = 32
    scenario_name = "flash-crowd-gray"
    duration_us = 20_000.0
    rate_scale = 8
    keys_per_tenant = 4000
    # The streams stop at the scenario's end; the runner's deadline is
    # this much later so that ops due near the end can finish.  What is
    # still unfinished then is real backlog and counts as failed.
    grace_frac = 0.05
    bed_kwargs = dict(n_memory_nodes=4, nic_ports=2, rpc_shards=2,
                      dataset_bytes=4 << 20)

    def __init__(self, seed, factor, traced_sim):
        super().__init__(seed, factor, traced_sim)
        self.scenario = get_scenario(
            self.scenario_name, n_clients=self.n_clients,
            duration_us=self.duration_us * factor,
            rate_scale=self.rate_scale,
            keys_per_tenant=self.keys_per_tenant, seed=seed)
        self.monitor: Optional[Monitor] = None
        self._obs: Dict[str, int] = {}
        self._initial: Dict[bytes, bytes] = {}
        self._clock: Optional[_DueClock] = None
        self._streams: list = []
        self._balance_before: Tuple[dict, int] = ({}, 0)

    def sizes(self) -> dict:
        scenario = self.scenario
        return {"loop": self.loop, "clients": self.n_clients,
                "scenario": self.scenario_name,
                "duration_us": scenario.duration_us,
                "grace_us": scenario.duration_us * self.grace_frac,
                "rate_scale": self.rate_scale,
                "keys_per_tenant": self.keys_per_tenant,
                "offered_ops": scenario.schedule.integral(
                    0.0, scenario.duration_us),
                "bed": self.bed_kwargs}

    def build_bed(self) -> None:
        self.tracer = Tracer()
        # no background maintenance thread: the allocation-balance check
        # runs maintenance itself once the fabric has healed
        self.bed = fusee_bed(background_interval_us=0.0,
                             tracer=self.tracer, **self.bed_kwargs)

    def bulk_load(self) -> None:
        items = self.scenario.preload_items()
        self._initial = dict(items)
        self.bed.load(items)

    def attach_observers(self) -> None:
        """Always: the observers are this workload's measured path (the
        traced-sim repetition only adds the profile collection)."""
        self.profiler = Profiler(tracer=self.tracer).install(self.env)
        self.tracer.clear()
        self.monitor = Monitor(self.env, self.cluster.fabric,
                               race=self.cluster.race)
        self.cluster.attach_monitor(self.monitor)

    def construct(self) -> None:
        cluster = self.cluster
        self._clock = _DueClock(self.env, self.bed.execute)
        self._streams = [
            self._clock.stream(client.cid,
                               self.scenario.client_stream(index))
            for index, client in enumerate(self.clients)]
        self._balance_before = (
            {mn: alloc.free_block_count
             for mn, alloc in cluster.mn_allocators.items()},
            sum(len(c.allocator.owned_blocks()) for c in cluster.clients))
        cluster.install_faults(
            scenario_fault_plan(self.scenario, self.seed),
            retry=RetryPolicy())

    def run(self) -> None:
        env = self.env
        clock = self._clock
        scenario = self.scenario
        duration = scenario.duration_us * (1.0 + self.grace_frac)
        self.window = Window(self.cluster)
        self.window.open()
        events_before = events_scheduled(env)
        clock.start_us = start = env.now
        result = run_open_loop(
            env, self.clients, lambda index: self._streams[index],
            clock.execute, duration_us=duration, fast=False,
            events=self.slice_marks(duration), monitor=self.monitor)
        self.window.close()
        self.run_events = events_scheduled(env) - events_before
        self._obs = {
            "obs.spans": len(self.tracer.spans),
            "obs.monitor_windows": result.health["run"]["panes_evaluated"]}
        self._window_span = (start, start + duration)

        latencies: Dict[str, List[float]] = {}
        lateness: List[float] = []
        errors = 0
        for kind, due, began, ended, ok in clock.records:
            lateness.append(began - due)
            if ok:
                latencies.setdefault(kind, []).append(ended - due)
            else:
                errors += 1
        self.outcome = Outcome(
            latencies=latencies, window_us=duration, errors=errors,
            unfinished=clock.offered - len(clock.records),
            lateness=lateness, offered=clock.offered,
            messages=clock.raised[:MAX_MESSAGES])

    def verify(self) -> Tuple[int, List[str]]:
        """Allocation balance, zero hung ops, linearizable history."""
        cluster, env = self.cluster, self.env
        failures: List[str] = []
        # heal, let the ops cut off at the deadline finish, then run the
        # background maintenance on a clean fabric (as run_campaign does)
        cluster.clear_faults()
        env.run(until=env.now + 10.0 * RetryPolicy().rpc_timeout_us)
        hung = [s for s in self.tracer.spans
                if s.op in KV_KINDS and s.end_us is None]
        if hung:
            failures.append(f"{len(hung)} hung ops after the fabric healed")
        else:
            for client in cluster.clients:
                cluster.run_op(client.maintenance(release_blocks=True),
                               fast=False)
        free_before, owned_before = self._balance_before
        outstanding = owned_before + sum(
            free_before[mn] - alloc.free_block_count
            for mn, alloc in cluster.mn_allocators.items())
        owned = sum(len(c.allocator.owned_blocks())
                    for c in cluster.clients)
        if outstanding != owned:
            failures.append(f"allocation leak: {outstanding} blocks "
                            f"outstanding at MNs, {owned} owned by clients")
        violation = check_kv_linearizable(
            kv_ops_from_spans(self.tracer.spans), initial=self._initial)
        if violation is not None:
            failures.append(f"history not linearizable: {violation}")
        return 3, failures

    def obs_counts(self) -> Dict[str, int]:
        return self._obs

    def detach_profiler(self) -> None:
        """The drain and maintenance of ``verify`` stay on the hooked
        path: the profiler is this workload's normal state."""

WORKLOADS = {cls.name: cls for cls in (YcsbASat, YcsbCHot, Crud1Client,
                                       ScenarioFaultyObs)}
