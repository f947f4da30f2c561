"""Tests for the closed-loop runner, latency driver, and system beds."""

from types import SimpleNamespace

import pytest

from repro.harness import (
    Scale,
    StopLoop,
    cdf_points,
    clover_bed,
    fusee_bed,
    pdpm_bed,
    percentile,
    run_closed_loop,
    run_latency,
    run_open_loop,
)
from repro.sim import Environment
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

    def test_run_latency_sequential(self):
        bed = self.make_bed()
        client = bed.new_client()
        ops = [("search", key_bytes(i % 100), None) for i in range(20)]
        latencies = run_latency(bed.env, client, bed.execute, ops)
        assert len(latencies) == 20
        assert all(lat > 0 for lat in latencies)


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
