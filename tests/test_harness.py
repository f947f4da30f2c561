"""Tests for the closed-loop runner, latency driver, and system beds."""

import math
from types import SimpleNamespace

import pytest

from repro.harness import (
    Scale,
    StopLoop,
    cdf_points,
    clover_bed,
    fusee_bed,
    observed_run,
    pdpm_bed,
    percentile,
    profile_ycsb,
    run_closed_loop,
    run_latency,
    run_open_loop,
)
from repro.obs import MonitorConfig
from repro.sim import Environment
from repro.sim.core import SimulationError
from repro.workloads import MicroConfig, MicroWorkload
from repro.workloads.ycsb import key_bytes, make_value


def tiny_dataset(n=100, value_size=100):
    return [(key_bytes(i), make_value(value_size, salt=i)) for i in range(n)]


class TestPercentiles:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize("p", [-50, -0.001, 100.001, 150,
                                   float("nan")])
    def test_p_outside_0_100_rejected(self, p):
        """A negative ``p`` used to wrap around to the top of the list and
        ``p > 100`` died with a bare IndexError."""
        with pytest.raises(ValueError, match="outside"):
            percentile([1, 2, 3], p)

    def test_cdf_points(self):
        points = cdf_points(list(range(1000)), (50, 99))
        assert 490 < points[50] < 510
        assert points[99] > 980


class _FixedWorkload:
    """Deterministic single-op workload for runner tests."""

    def __init__(self, op="search", key=None, value=None):
        self._op = (op, key if key is not None else key_bytes(0), value)

    def next_op(self):
        return self._op


class TestRunner:
    def make_bed(self):
        bed = fusee_bed(dataset_bytes=1 << 20, background_interval_us=0)
        bed.load(tiny_dataset())
        return bed

    def test_throughput_positive(self):
        bed = self.make_bed()
        clients = [bed.new_client() for _ in range(4)]
        result = run_closed_loop(bed.env, clients,
                                 lambda i: _FixedWorkload(key=key_bytes(i)),
                                 bed.execute, duration_us=300.0)
        assert result.ops > 0
        assert result.mops > 0
        assert result.errors == 0

    def test_warmup_excluded(self):
        bed = self.make_bed()
        clients = [bed.new_client()]
        full = run_closed_loop(bed.env, clients,
                               lambda i: _FixedWorkload(),
                               bed.execute, duration_us=300.0)
        bed2 = self.make_bed()
        clients2 = [bed2.new_client()]
        warm = run_closed_loop(bed2.env, clients2,
                               lambda i: _FixedWorkload(),
                               bed2.execute, duration_us=300.0,
                               warmup_us=150.0)
        assert warm.ops < full.ops

    def test_latency_collection(self):
        bed = self.make_bed()
        clients = [bed.new_client()]
        result = run_closed_loop(bed.env, clients,
                                 lambda i: _FixedWorkload(),
                                 bed.execute, duration_us=200.0,
                                 collect_latency=True)
        assert "search" in result.latencies
        assert all(lat > 0 for lat in result.latencies["search"])

    def test_failed_ops_counted_as_errors(self):
        bed = self.make_bed()
        clients = [bed.new_client()]
        result = run_closed_loop(
            bed.env, clients,
            lambda i: _FixedWorkload(key=b"missing-key"),
            bed.execute, duration_us=200.0)
        assert result.ops == 0
        assert result.errors > 0

    def test_both_op_tuple_forms_and_unmeasured_ops(self):
        """``next_op()`` may return ``(op, key, value)`` or ``(op, key,
        value, measured)``; an unmeasured op runs but is not recorded."""
        class Alternating:
            def __init__(self):
                self.issued = []

            def next_op(self):
                form = len(self.issued) % 3
                self.issued.append(form)
                op = ("search", key_bytes(0), None)
                return op if form == 0 else op + (form == 1,)

        bed = self.make_bed()
        workload = Alternating()
        executed = []

        def execute(client, op, key, value):
            executed.append(op)
            return (yield from bed.execute(client, op, key, value))

        result = run_closed_loop(bed.env, [bed.new_client()],
                                 lambda i: workload, execute,
                                 duration_us=300.0, collect_latency=True)
        assert len(executed) == len(workload.issued) > 9
        finished = len(executed) - 1     # the last op straddles the deadline
        measured = sum(form != 2 for form in workload.issued[:finished])
        assert result.ops == result.per_op_counts["search"] == measured
        assert len(result.latencies["search"]) == measured
        assert result.errors == 0

    def test_timeline_buckets(self):
        bed = self.make_bed()
        clients = [bed.new_client() for _ in range(2)]
        result = run_closed_loop(bed.env, clients,
                                 lambda i: _FixedWorkload(),
                                 bed.execute, duration_us=400.0,
                                 timeline_bucket_us=100.0)
        assert len(result.timeline) == 4
        assert all(mops >= 0 for _t, mops in result.timeline)

    def test_events_fire(self):
        bed = self.make_bed()
        fired = []
        clients = [bed.new_client()]
        run_closed_loop(bed.env, clients, lambda i: _FixedWorkload(),
                        bed.execute, duration_us=200.0,
                        events=[(50.0, lambda: fired.append(bed.env.now))])
        assert len(fired) == 1

    def test_event_can_add_clients(self):
        bed = self.make_bed()
        clients = [bed.new_client()]

        def add():
            return [(bed.new_client(), _FixedWorkload())]

        result = run_closed_loop(bed.env, clients,
                                 lambda i: _FixedWorkload(),
                                 bed.execute, duration_us=400.0,
                                 timeline_bucket_us=100.0,
                                 events=[(200.0, add)])
        first_half = sum(m for t, m in result.timeline if t < 200.0)
        second_half = sum(m for t, m in result.timeline if t >= 200.0)
        assert second_half > first_half

    def test_stoploop_retires_client(self):
        bed = self.make_bed()
        clients = [bed.new_client()]
        calls = []

        def execute(client, op, key, value):
            calls.append(bed.env.now)
            if len(calls) >= 5:
                raise StopLoop()
            return (yield from bed.execute(client, op, key, value))

        result = run_closed_loop(bed.env, clients,
                                 lambda i: _FixedWorkload(),
                                 execute, duration_us=1000.0)
        assert len(calls) == 5

    def test_closed_and_paced_agree_on_one_op_list(self):
        """Both runners are one driver with a different pacing generator:
        the same single-client op list must be counted identically."""
        ops = ([("search", key_bytes(i), None) for i in range(6)]
               + [("search", b"missing-key", None)]
               + [("update", key_bytes(i), make_value(100, salt=50 + i))
                  for i in range(4)]
               + [("insert", key_bytes(200 + i), make_value(100, salt=i))
                  for i in range(3)]
               + [("delete", key_bytes(9), None),
                  ("search", key_bytes(9), None)])

        class _ListWorkload:
            def __init__(self):
                self._ops = iter(ops + [("stop", b"", None)])

            def next_op(self):
                return next(self._ops)

        def run(paced):
            bed = self.make_bed()

            def execute(client, op, key, value):
                if op == "stop":
                    raise StopLoop()
                return (yield from bed.execute(client, op, key, value))

            if paced:
                stream = [SimpleNamespace(at_us=0.0, op=op, key=key,
                                          value=value)
                          for op, key, value in ops]
                return run_open_loop(bed.env, [bed.new_client()],
                                     lambda i: stream, execute,
                                     duration_us=5000.0)
            return run_closed_loop(bed.env, [bed.new_client()],
                                   lambda i: _ListWorkload(), execute,
                                   duration_us=5000.0)

        closed, paced = run(paced=False), run(paced=True)
        assert closed.ops == paced.ops == len(ops) - 2
        assert closed.errors == paced.errors == 2
        assert closed.per_op_counts == paced.per_op_counts

    @pytest.mark.parametrize("run", [run_closed_loop, run_open_loop])
    @pytest.mark.parametrize("duration_us, warmup_us", [
        (100.0, 200.0),   # used to report ops=0 over a -100 us window
        (100.0, 100.0),   # an empty window
        (0.0, 0.0),       # used to return silently
        (-5.0, 0.0),      # used to die in the kernel after spawning
        (100.0, -1.0),
    ])
    def test_bad_window_rejected_before_anything_spawns(
            self, run, duration_us, warmup_us):
        bed = self.make_bed()
        sources, loaded_at = [], bed.env.now
        with pytest.raises(ValueError, match="warmup_us < duration_us"):
            run(bed.env, [bed.new_client()],
                lambda i: sources.append(i) or _FixedWorkload(),
                bed.execute, duration_us=duration_us, warmup_us=warmup_us)
        assert not sources and bed.env.now == loaded_at

    @pytest.mark.parametrize("duration_us, warmup_us", [
        (math.inf, 0.0),  # used to return with no clients, hang with any
        (math.nan, 0.0), (100.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_window_rejected(self, duration_us, warmup_us):
        with pytest.raises(ValueError, match="warmup_us < duration_us"):
            run_closed_loop(Environment(), [], lambda i: _FixedWorkload(),
                            None, duration_us=duration_us,
                            warmup_us=warmup_us)

    def test_run_latency_sequential(self):
        bed = self.make_bed()
        client = bed.new_client()
        ops = [("search", key_bytes(i % 100), None) for i in range(20)]
        latencies = run_latency(bed.env, client, bed.execute, ops)
        assert len(latencies) == 20
        assert all(lat > 0 for lat in latencies)


class TestObservedRun:
    """The one recipe behind every watched run (``ycsb``, ``monitor``,
    ``profile``, fig21 saturating, the scenario suite)."""

    OBSERVERS = {  # observed_run keyword -> the ProfiledRun fields it fills
        "trace": {"tracer"},
        "profile": {"tracer", "profiler", "profile", "critical"},
        "metrics": {"metrics"},
        "sample_interval_us": {"metrics"},
        "monitor_config": {"tracer", "health"},
    }

    @staticmethod
    def run(bed=None, n_clients=2, **observers):
        if bed is None:
            bed = fusee_bed(dataset_bytes=1 << 20, background_interval_us=0)
            bed.load(tiny_dataset())
        return bed, observed_run(
            bed, n_clients, lambda i: _FixedWorkload(key=key_bytes(i)),
            300.0, **observers)

    @pytest.mark.parametrize("mask", range(32))
    def test_returns_exactly_the_observers_asked_for(self, mask):
        values = {"trace": True, "profile": True, "metrics": True,
                  "sample_interval_us": 50.0,
                  "monitor_config": MonitorConfig()}
        asked = [name for bit, name in enumerate(self.OBSERVERS)
                 if mask >> bit & 1]
        bed, result = self.run(**{name: values[name] for name in asked})
        expected = set().union(*(self.OBSERVERS[name] for name in asked))
        got = {name for name in ("tracer", "profiler", "profile", "critical",
                                 "metrics", "health")
               if getattr(result, name) is not None}
        assert got == expected
        assert result.run.ops > 0 and result.system == bed.name
        if "tracer" in expected:
            assert result.spans
        if "sample_interval_us" in asked:
            assert result.metrics.series
        elif "metrics" in asked:
            assert result.metrics.counters and not result.metrics.series
        if "health" in expected:
            assert result.health["run"]["panes_evaluated"] > 0

    def test_only_a_profiled_run_is_hook_aware(self):
        bed, plain = self.run(trace=True, metrics=True,
                              monitor_config=MonitorConfig())
        bed.env.require_fast()          # nothing left the fast path
        bed, profiled = self.run(profile=True)
        with pytest.raises(SimulationError, match="profiler"):
            bed.env.require_fast()
        assert profiled.profile.overall["count"] == profiled.run.ops > 0

    def test_leftover_check_hook_rejected_before_anything_attaches(self):
        from repro.check import ControlledScheduler

        bed = fusee_bed(dataset_bytes=1 << 20, background_interval_us=0)
        bed.load(tiny_dataset())
        bed.env.set_scheduler(ControlledScheduler())
        clients_before = len(bed.cluster.clients)
        # profile=True drives with fast=False, so only the recipe's own
        # guard stands between a forgotten hook and a wasted load
        with pytest.raises(SimulationError, match="scheduler"):
            self.run(bed, profile=True, monitor_config=MonitorConfig())
        assert bed.cluster.fabric.tracer is None    # still untraced
        assert len(bed.cluster.clients) == clients_before

    def test_paced_run_and_runner_keywords(self):
        from repro.workloads import SMOKE_TRIM, get_scenario

        scn = get_scenario("multi-tenant", seed=0, **SMOKE_TRIM)
        bed = fusee_bed(dataset_bytes=1 << 21)
        bed.load(scn.preload_items())
        result = observed_run(bed, scn.n_clients, scn.client_stream,
                              scn.duration_us, paced=True, metrics=True,
                              timeline_bucket_us=scn.duration_us / 4)
        assert result.run.ops > 0 and len(result.run.timeline) == 4
        assert any(name.startswith("tenant.")
                   for name in result.metrics.counters)

    @pytest.mark.parametrize("make_bed", [clover_bed, pdpm_bed])
    def test_baseline_beds_get_one_span_per_op(self, make_bed):
        bed = make_bed(dataset_bytes=1 << 20)
        bed.load(tiny_dataset())
        bed, result = self.run(bed, profile=True, sample_interval_us=50.0)
        finished = [s for s in result.spans if s.end_us is not None]
        assert len(finished) >= result.run.ops > 0
        assert result.profile.overall["count"] == len(finished)

    @pytest.mark.parametrize("make_bed", [clover_bed, pdpm_bed])
    def test_monitor_on_a_baseline_bed_rejected(self, make_bed):
        """Used to run unmonitored and return ``health=None``."""
        bed = make_bed(dataset_bytes=1 << 20)
        with pytest.raises(ValueError, match="FUSEE bed"):
            self.run(bed, monitor_config=MonitorConfig())

    @pytest.mark.parametrize("n_clients", [0, -1])
    def test_client_count_validated(self, n_clients):
        with pytest.raises(ValueError, match="n_clients"):
            self.run(n_clients=n_clients)


class TestProfileYcsb:
    def test_forwards_bed_keywords_to_the_builder(self):
        result = profile_ycsb(scale=Scale.tiny(), n_clients=2, nic_ports=2,
                              rpc_shards=2, read_spread="least_loaded")
        series = result.to_dict()["series"]
        assert "mn0.nic_tx.p1.util" in series
        assert "mn0.cpu.s1.queue_depth" in series
        assert "kv_read_skew" in series

    def test_monitor_on_clover_rejected(self):
        with pytest.raises(ValueError, match="FUSEE bed"):
            profile_ycsb(system="clover", scale=Scale.tiny(), n_clients=2,
                         monitor_config=MonitorConfig())

    @pytest.mark.parametrize("system", ["clover", "pdpm"])
    def test_fusee_only_knob_on_a_baseline_rejected(self, system):
        """Used to run a single-queue bed without a word."""
        with pytest.raises(TypeError, match="nic_ports"):
            profile_ycsb(system=system, scale=Scale.tiny(), n_clients=2,
                         nic_ports=4)

    def test_zero_clients_is_not_the_default(self):
        """``n_clients or scale.n_clients`` used to run the scale's 8."""
        with pytest.raises(ValueError, match="n_clients"):
            profile_ycsb(scale=Scale.tiny(), n_clients=0)
        assert profile_ycsb(scale=Scale.tiny()).run.ops > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            profile_ycsb(system="redis", scale=Scale.tiny())

    def test_pdpm_index_holds_a_full_scale_key_set(self):
        """``profile_ycsb`` and fig10 used to size pDPM's index for 1x the
        key count where every other caller said 4x: the same 4096 buckets
        up to bench scale, "pDPM bucket full during load" at
        ``Scale.full()``'s 10k keys."""
        from dataclasses import replace

        from repro.harness import fig10_latency_cdf

        scale = replace(Scale.tiny(), n_keys=Scale.full().n_keys)
        assert profile_ycsb(system="pdpm", scale=scale,
                            n_clients=2).run.ops > 0
        rows = fig10_latency_cdf(scale).rows
        assert {row[0] for row in rows} == {"fusee", "clover", "pdpm-direct"}


class TestBeds:
    def test_fusee_bed_variants(self):
        for variant in ("fusee", "fusee-cr", "fusee-nc"):
            bed = fusee_bed(dataset_bytes=1 << 20, variant=variant,
                            background_interval_us=0)
            bed.load(tiny_dataset(20))
            client = bed.new_client()

            def proc():
                return (yield from bed.execute(client, "search",
                                               key_bytes(3), None))

            assert bed.env.run(until=bed.env.process(proc()))

    @pytest.mark.parametrize("n_memory_nodes", [0, -1])
    def test_no_memory_node_rejected_like_any_bad_geometry(self,
                                                           n_memory_nodes):
        """Zero used to die sizing the pool, with a ZeroDivisionError."""
        with pytest.raises(ValueError, match="need at least one memory node"):
            fusee_bed(n_memory_nodes=n_memory_nodes)

    def test_fusee_nc_has_no_cache(self):
        bed = fusee_bed(dataset_bytes=1 << 20, variant="fusee-nc",
                        background_interval_us=0)
        client = bed.new_client()
        assert not client.cache.enabled

    def test_fusee_cr_is_sequential(self):
        bed = fusee_bed(dataset_bytes=1 << 20, variant="fusee-cr",
                        background_interval_us=0)
        client = bed.new_client()
        assert client.config.replication_mode == "sequential"

    def test_clover_bed(self):
        bed = clover_bed(dataset_bytes=1 << 20)
        bed.load(tiny_dataset(20))
        client = bed.new_client()

        def proc():
            return (yield from bed.execute(client, "search", key_bytes(3),
                                           None))

        assert bed.env.run(until=bed.env.process(proc()))

    def test_pdpm_bed(self):
        bed = pdpm_bed(dataset_bytes=1 << 20, n_keys_hint=100)
        bed.load(tiny_dataset(20))
        client = bed.new_client()

        def proc():
            return (yield from bed.execute(client, "update", key_bytes(3),
                                           b"new"))

        assert bed.env.run(until=bed.env.process(proc()))

    def test_unknown_op_rejected(self):
        bed = fusee_bed(dataset_bytes=1 << 20, background_interval_us=0)
        client = bed.new_client()

        def proc():
            return (yield from bed.execute(client, "upsert", b"k", b"v"))

        with pytest.raises(ValueError):
            bed.env.run(until=bed.env.process(proc()))


class TestScale:
    def test_presets_ordered(self):
        tiny, bench, full = Scale.tiny(), Scale.bench(), Scale.full()
        assert tiny.n_keys < bench.n_keys < full.n_keys
        assert tiny.n_clients < bench.n_clients < full.n_clients
