"""The online telemetry plane: sketches, windows, SLOs, gray detection.

Four layers, tested bottom-up:

* the streaming sketches (``DDSketch``, ``SpaceSaving``) against their
  published guarantees, with Hypothesis driving the value streams;
* the windowed view (``WindowStore``) — pane edges as a pure function
  of simulated time, exact sliding merges, bounded memory;
* the SLO burn-rate evaluator and the comparative gray-failure
  detector as units, on synthetic streams with known answers;
* the assembled :class:`~repro.obs.Monitor` on live beds — hot-key
  tracking, health artifacts, zero false positives on clean beds at
  both microbench and scale-test size, and every seeded gray/port
  fault caught within three windows of onset.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DDSketch,
    GrayDetector,
    KV_OPS,
    Monitor,
    MonitorConfig,
    SloSpec,
    SloState,
    SpaceSaving,
    Tracer,
    WindowStore,
    detector_verdict,
    health_fingerprint,
    load_health,
    render_health,
    write_health,
)
from repro.obs.metrics import Histogram, TimeSeries
from repro.obs.slo import ERR_STREAM, OK_STREAM


class _FakeEnv:
    """Just enough of an Environment for the window layer: ``now``."""

    def __init__(self, now: float = 0.0):
        self.now = now


# ---------------------------------------------------------------------------
# DDSketch
# ---------------------------------------------------------------------------
values_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=300)


def _exact_quantile(values, q):
    # the sketch's rank convention: 0-based, floor(q * (count - 1))
    ordered = sorted(values)
    return ordered[math.floor(q * (len(ordered) - 1))]


class TestDDSketch:
    @given(values=values_strategy,
           q=st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_quantile_within_relative_error(self, values, q):
        alpha = 0.01
        sketch = DDSketch(alpha=alpha)
        for v in values:
            sketch.add(v)
        exact = _exact_quantile(values, q)
        # the documented bound, plus float slack for values that land
        # exactly on a bucket boundary
        assert abs(sketch.quantile(q) - exact) <= exact * (alpha + 1e-9)

    @given(chunks=st.lists(values_strategy, min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_merge_is_exact_and_associative(self, chunks):
        def sketch_of(vals):
            s = DDSketch()
            for v in vals:
                s.add(v)
            return s

        a, b, c = (sketch_of(chunk) for chunk in chunks)
        left = sketch_of(chunks[0]).merge(b).merge(c)
        right = sketch_of(chunks[1]).merge(c)
        right = sketch_of(chunks[0]).merge(right)
        direct = sketch_of([v for chunk in chunks for v in chunk])

        def state(sketch):
            # bucket contents are exact integers; only the running float
            # `total` is sensitive to addition order
            data = sketch.to_dict()
            return {k: v for k, v in data.items() if k != "total"}

        # merging is exact bucket addition: all three states identical
        assert state(left) == state(right) == state(direct)
        assert left.total == pytest.approx(direct.total)
        assert right.total == pytest.approx(direct.total)

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError):
            DDSketch(alpha=0.01).merge(DDSketch(alpha=0.02))

    def test_zero_bucket_collapses_tiny_values(self):
        sketch = DDSketch()
        for _ in range(10):
            sketch.add(0.0)
        sketch.add(5.0)
        assert sketch.zero_count == 10
        assert sketch.count == 11
        assert sketch.quantile(0.5) == 0.0
        assert abs(sketch.quantile(1.0) - 5.0) <= 5.0 * 0.01

    @given(values=values_strategy,
           threshold=st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_count_above_errs_low_by_at_most_one_bucket(self, values,
                                                        threshold):
        sketch = DDSketch()
        for v in values:
            sketch.add(v)
        true_above = sum(1 for v in values if v > threshold)
        approx = sketch.count_above(threshold)
        assert approx <= true_above
        # the under-count is confined to the threshold's own value band
        band = 2 * sketch.alpha / (1 - sketch.alpha) * threshold
        missable = sum(1 for v in values
                       if threshold < v <= threshold + 2 * band)
        assert true_above - approx <= missable

    def test_round_trip_through_dict(self):
        sketch = DDSketch()
        for v in (0.0, 0.5, 1.0, 3.7, 3.7, 120.0):
            sketch.add(v)
        clone = DDSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict())))
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(0.5) == sketch.quantile(0.5)

    def test_empty_sketch_answers_zero(self):
        sketch = DDSketch()
        assert sketch.quantile(0.99) == 0.0
        assert sketch.mean == 0.0
        assert sketch.count_above(1.0) == 0


# ---------------------------------------------------------------------------
# SpaceSaving
# ---------------------------------------------------------------------------
class TestSpaceSaving:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=50, deadline=None)
    def test_estimate_bounds_hold(self, seed):
        rng = random.Random(seed)
        # Zipf-flavoured stream over 50 keys, capacity 8
        stream = [min(int(rng.paretovariate(1.2)), 50) for _ in range(500)]
        truth = {}
        sketch = SpaceSaving(capacity=8)
        for key in stream:
            truth[key] = truth.get(key, 0) + 1
            sketch.offer(key)
        assert sketch.n == len(stream)
        for key, count, error in sketch.top():
            assert count >= truth.get(key, 0)          # never under-counts
            assert count - error <= truth.get(key, 0)  # bounded over-count
        # every key heavier than n/capacity is tracked
        floor = sketch.n / sketch.capacity
        tracked = {key for key, _c, _e in sketch.top()}
        for key, true_count in truth.items():
            if true_count > floor:
                assert key in tracked

    def test_exact_when_under_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for key, n in (("a", 5), ("b", 3), ("c", 1)):
            sketch.offer(key, n)
        assert sketch.top() == [("a", 5, 0), ("b", 3, 0), ("c", 1, 0)]
        assert sketch.estimate("b") == (3, 0)
        assert sketch.estimate("missing") == (0, 0)

    def test_deterministic_over_identical_streams(self):
        def run():
            sketch = SpaceSaving(capacity=4)
            for key in [1, 2, 3, 4, 5, 1, 2, 6, 7, 1, 8, 2, 9]:
                sketch.offer(key)
            return sketch.to_dict(key_repr=str)

        assert run() == run()

    def test_heavy_hitters_use_guaranteed_counts(self):
        sketch = SpaceSaving(capacity=4)
        for _ in range(60):
            sketch.offer("hot")
        for key in range(30):
            sketch.offer(f"cold{key}")
        hitters = [key for key, _c, _e in sketch.heavy_hitters(0.25)]
        assert hitters == ["hot"]


# ---------------------------------------------------------------------------
# WindowStore
# ---------------------------------------------------------------------------
class TestWindowStore:
    def test_pane_edges_are_pure_functions_of_time(self):
        env = _FakeEnv()
        store = WindowStore(env, width_us=250.0)
        for t, expected_pane in ((0.0, 0), (249.999, 0), (250.0, 1),
                                 (500.0, 2), (1249.0, 4)):
            env.now = t
            store.inc("ops")
            assert store.pane_of(t) == expected_pane
        assert store.panes() == [0, 1, 2, 4]
        assert store.count("ops", 0) == 2
        assert store.count("ops", 4, k=5) == 5     # sliding over all panes
        assert store.rate("ops", 0) == 2 / 250.0

    def test_sliding_sketch_merge_equals_direct(self):
        env = _FakeEnv()
        store = WindowStore(env, width_us=100.0)
        values = [(10.0, 1.0), (50.0, 2.0), (150.0, 8.0), (250.0, 4.0)]
        for t, v in values:
            env.now = t
            store.observe("lat", v)
        direct = DDSketch(store.alpha)
        for _t, v in values:
            direct.add(v)
        merged = store.sketch("lat", pane=2, k=3)
        assert merged.to_dict() == direct.to_dict()
        # tumbling pane view is just that pane
        assert store.sketch("lat", pane=1).count == 1

    def test_prune_drops_old_panes_only(self):
        env = _FakeEnv()
        store = WindowStore(env, width_us=100.0)
        for t in (10.0, 110.0, 210.0):
            env.now = t
            store.inc("ops")
            store.observe("lat", t)
        store.prune(before_pane=2)
        assert store.panes() == [2]
        assert store.count("ops", 2) == 1
        assert store.count("ops", 1) == 0


# ---------------------------------------------------------------------------
# Satellites: TimeSeries, Histogram edge cases
# ---------------------------------------------------------------------------
class TestTimeSeriesCap:
    def test_default_is_unbounded_and_byte_identical(self):
        plain = TimeSeries()
        for i in range(1000):
            plain.record(float(i), float(i) * 0.5)
        assert plain.points == [(float(i), float(i) * 0.5)
                                for i in range(1000)]


class TestHistogramEdgeCases:
    """Pins the documented empty/single-observation contract."""

    def test_empty_histogram_returns_sentinel_zero(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        for p in (0.0, 0.1, 50.0, 99.9, 100.0):
            assert hist.percentile(p) == 0.0

    def test_single_observation_is_every_percentile(self):
        hist = Histogram()
        hist.observe(7.3)
        assert hist.mean == 7.3
        for p in (0.1, 50.0, 99.0, 99.9, 100.0):
            assert hist.percentile(p) == 7.3

    def test_zero_value_observation_distinguishable_by_count(self):
        hist = Histogram()
        hist.observe(0.0)
        # same sentinel value as empty, but count differs
        assert hist.percentile(99.0) == 0.0
        assert hist.count == 1


# ---------------------------------------------------------------------------
# SLO specs and burn-rate evaluation
# ---------------------------------------------------------------------------
class TestSloSpec:
    def test_parse_latency(self):
        spec = SloSpec.parse("latency:search:p99:8.5")
        assert spec.kind == "latency" and spec.op == "search"
        assert spec.percentile == 99.0 and spec.threshold_us == 8.5
        assert abs(spec.budget - 0.01) < 1e-12

    def test_parse_errors_and_availability(self):
        assert SloSpec.parse("errors:0.01").budget == 0.01
        avail = SloSpec.parse("availability:0.999")
        assert abs(avail.budget - 0.001) < 1e-12

    @pytest.mark.parametrize("bad", [
        "latency:search:99:8",        # missing the p
        "latency:frobnicate:p99:8",   # unknown op
        "latency:search:p0:8",        # percentile out of range
        "errors:1.5",
        "availability:0",
        "nonsense:1",
        "latency:search",             # truncated
    ])
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            SloSpec.parse(bad)


class TestSloBurnRate:
    def _store_with_errors(self, per_pane_err, per_pane_ok,
                           width_us=100.0):
        env = _FakeEnv()
        store = WindowStore(env, width_us=width_us)
        for pane, (err, ok) in enumerate(zip(per_pane_err, per_pane_ok)):
            env.now = pane * width_us + 1.0
            if ok:
                store.inc(OK_STREAM, ok)
            if err:
                store.inc(ERR_STREAM, err)
        return store

    def test_sustained_burn_trips_both_windows(self):
        # 10% errors against a 1% budget: burn 10x in fast AND slow
        store = self._store_with_errors([10] * 6, [90] * 6)
        state = SloState(SloSpec.parse("errors:0.01"), fast_panes=1,
                         slow_panes=6, burn_threshold=2.0, min_volume=20)
        alert = state.evaluate(store, pane=5)
        assert alert is not None
        assert alert.burn_fast == pytest.approx(10.0)
        assert alert.burn_slow == pytest.approx(10.0)
        assert state.windows_tripped == 1

    def test_single_pane_blip_is_suppressed_by_slow_window(self):
        # one bad pane out of six: fast window burns, slow window doesn't
        store = self._store_with_errors([0, 0, 0, 0, 0, 10],
                                        [100] * 5 + [90])
        state = SloState(SloSpec.parse("errors:0.01"), fast_panes=1,
                         slow_panes=6, burn_threshold=5.0, min_volume=20)
        assert state.evaluate(store, pane=5) is None

    def test_min_volume_gates_low_traffic_windows(self):
        store = self._store_with_errors([2], [3])
        state = SloState(SloSpec.parse("errors:0.01"), min_volume=20)
        assert state.evaluate(store, pane=0) is None
        assert state.windows_evaluated == 1

    def test_latency_slo_counts_threshold_violations(self):
        env = _FakeEnv()
        store = WindowStore(env, width_us=100.0)
        for pane in range(6):
            env.now = pane * 100.0 + 1.0
            for i in range(20):
                # 15% of observations blow a 10us threshold
                store.observe("span.latency_us.search",
                              50.0 if i < 3 else 2.0)
        state = SloState(SloSpec.parse("latency:search:p99:10"),
                         burn_threshold=2.0, min_volume=20)
        alert = state.evaluate(store, pane=5)
        assert alert is not None
        assert alert.bad == 3 and alert.total == 20

    def test_to_dict_round_trips_through_json(self):
        state = SloState(SloSpec.parse("availability:0.99"))
        payload = json.loads(json.dumps(state.to_dict()))
        assert payload["name"] == "availability"
        assert payload["windows_evaluated"] == 0


# ---------------------------------------------------------------------------
# Zero-arrival panes and non-finite inputs must never become NaN
# ---------------------------------------------------------------------------
class TestZeroArrivalPanes:
    """A diurnal trough produces panes with zero arrivals.  Nothing in
    the telemetry plane may turn that into a NaN: ``nan < threshold``
    is False, so a NaN burn rate would sail through every alert gate as
    a nonsense alert (or silently suppress a real one)."""

    def test_burn_of_empty_window_is_exactly_zero(self):
        state = SloState(SloSpec.parse("errors:0.01"))
        burn = state._burn(0, 0)
        assert burn == 0.0 and not math.isnan(burn)

    def test_all_empty_panes_never_trip(self):
        env = _FakeEnv()
        store = WindowStore(env, width_us=100.0)
        state = SloState(SloSpec.parse("errors:0.01"), min_volume=0)
        for pane in range(8):
            assert state.evaluate(store, pane=pane) is None
        assert state.windows_evaluated == 8
        assert state.windows_tripped == 0

    def test_empty_fast_pane_amid_traffic_does_not_nan(self):
        # Traffic in earlier panes, then a dead pane: the slow window
        # clears min_volume, the fast pane is empty -> burn_fast must
        # be 0.0 (not 0/0) and the evaluation must not trip.
        env = _FakeEnv()
        store = WindowStore(env, width_us=100.0)
        for pane in range(5):
            env.now = pane * 100.0 + 1.0
            store.inc(OK_STREAM, 90)
            store.inc(ERR_STREAM, 10)
        state = SloState(SloSpec.parse("errors:0.01"), fast_panes=1,
                         slow_panes=6, burn_threshold=2.0, min_volume=20)
        assert state.evaluate(store, pane=5) is None
        assert not state.alerts

    def test_latency_slo_on_idle_panes_does_not_trip(self):
        env = _FakeEnv()
        store = WindowStore(env, width_us=100.0)
        state = SloState(SloSpec.parse("latency:search:p99:10"),
                         min_volume=0)
        for pane in range(6):
            assert state.evaluate(store, pane=pane) is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), -1.0])
    def test_ddsketch_rejects_bad_values_without_corruption(self, value):
        sketch = DDSketch()
        sketch.add(3.0)
        before = sketch.to_dict()
        with pytest.raises(ValueError):
            sketch.add(value)
        # The failed add must not have touched count/total/min/max:
        # a half-applied NaN poisons every later mean and quantile.
        assert sketch.to_dict() == before
        assert sketch.count == 1
        assert not math.isnan(sketch.mean)

    @pytest.mark.parametrize("spec", ["errors:nan", "errors:inf",
                                      "availability:nan",
                                      "latency:search:p99:nan",
                                      "latency:search:p99:inf"])
    def test_slo_parse_rejects_non_finite_targets(self, spec):
        with pytest.raises(ValueError):
            SloSpec.parse(spec)


# ---------------------------------------------------------------------------
# Gray detector unit behaviour
# ---------------------------------------------------------------------------
class TestGrayDetector:
    def _feed_pane(self, det, pane, medians, family="read@7", count=20):
        for scope, median in medians.items():
            for _ in range(count):
                det.observe(pane, scope, family, median)

    def test_flags_slow_scope_against_clean_peers(self):
        det = GrayDetector(rel_threshold=2.0, min_count=8)
        self._feed_pane(det, 0, {"mn0": 6.0, "mn1": 1.0, "mn2": 1.0})
        flags = det.evaluate(0, 0.0, 250.0)
        assert [f.scope for f in flags] == ["mn0"]
        assert flags[0].kind == "service"
        assert flags[0].rel == pytest.approx(6.0, rel=0.05)

    def test_identical_peers_produce_no_flags(self):
        det = GrayDetector()
        self._feed_pane(det, 0, {f"mn{i}": 2.5 for i in range(4)})
        assert det.evaluate(0, 0.0, 250.0) == []

    def test_single_scope_has_no_peers_no_flags(self):
        det = GrayDetector()
        self._feed_pane(det, 0, {"mn0": 50.0})
        assert det.evaluate(0, 0.0, 250.0) == []

    def test_low_volume_scopes_are_ignored(self):
        det = GrayDetector(min_count=8)
        self._feed_pane(det, 0, {"mn0": 6.0, "mn1": 1.0}, count=3)
        assert det.evaluate(0, 0.0, 250.0) == []

    def test_families_are_never_cross_compared(self):
        # mn0 only serves big writes (slower), mn1 only small reads:
        # different families, so no comparison and no flag
        det = GrayDetector()
        self._feed_pane(det, 0, {"mn0": 8.0}, family="write@12")
        self._feed_pane(det, 0, {"mn1": 1.0}, family="read@7")
        assert det.evaluate(0, 0.0, 250.0) == []

    def test_z_gate_applies_with_four_plus_peers(self):
        # five peers with real spread: rel barely over 2 but z below the
        # bar must not flag
        det = GrayDetector(rel_threshold=2.0, z_threshold=1e9)
        self._feed_pane(det, 0, {"mn0": 2.2, "mn1": 1.0, "mn2": 0.8,
                                 "mn3": 1.2, "mn4": 0.9, "mn5": 1.1})
        assert det.evaluate(0, 0.0, 250.0) == []

    def test_drop_rule_flags_starved_port(self):
        det = GrayDetector(drop_rate_threshold=0.5)
        port_rates = {"mn0.nic_rx.p0": (40, 0),
                      "mn0.nic_rx.p1": (2, 38),   # 95% dropped
                      "mn1.nic_rx.p0": (40, 0)}
        flags = det.evaluate(0, 0.0, 250.0, port_rates)
        assert [f.scope for f in flags] == ["mn0.nic_rx.p1"]
        assert flags[0].kind == "drops"
        assert flags[0].value == pytest.approx(0.95)

    def test_cluster_wide_loss_is_not_a_scoped_fault(self):
        det = GrayDetector()
        port_rates = {"mn0.nic_rx.p0": (20, 20),
                      "mn1.nic_rx.p0": (20, 20),
                      "mn2.nic_rx.p0": (20, 20)}
        assert det.evaluate(0, 0.0, 250.0, port_rates) == []

    def test_prune_bounds_memory(self):
        det = GrayDetector()
        for pane in range(10):
            det.observe(pane, "mn0", "read@7", 1.0)
        det.prune(before_pane=8)
        assert sorted(det._panes) == [8, 9]

    def test_to_dict_is_json_safe(self):
        det = GrayDetector()
        self._feed_pane(det, 0, {"mn0": 6.0, "mn1": 1.0})
        det.evaluate(0, 0.0, 250.0)
        payload = json.loads(json.dumps(det.to_dict()))
        assert payload["scopes_seen"] == ["mn0", "mn1"]
        assert len(payload["flags"]) == 1


class TestDetectorVerdict:
    def _flag(self, scope, pane, kind="service", width=250.0):
        from repro.obs.detect import DetectorFlag
        return DetectorFlag(scope=scope, scope_class="mn", kind=kind,
                            family="read@7", pane=pane,
                            t0=pane * width, t1=(pane + 1) * width,
                            value=6.0, peer=1.0, rel=6.0, z=10.0,
                            count=20)

    def test_gray_caught_within_deadline(self):
        from repro.faults.model import FaultPlan, GrayNode
        plan = FaultPlan(gray_nodes=[GrayNode(mn_id=0, factor=6.0,
                                              start_us=300.0,
                                              end_us=2000.0)])
        verdict = detector_verdict(plan, [self._flag("mn0", pane=2)],
                                   width_us=250.0, windows=3)
        assert verdict["ok"]
        assert verdict["caught"][0]["latency_windows"] <= 3

    def test_late_flag_counts_as_missed(self):
        from repro.faults.model import FaultPlan, GrayNode
        plan = FaultPlan(gray_nodes=[GrayNode(mn_id=0, factor=6.0,
                                              start_us=0.0,
                                              end_us=5000.0)])
        verdict = detector_verdict(plan, [self._flag("mn0", pane=9)],
                                   width_us=250.0, windows=3)
        assert not verdict["ok"] and verdict["missed"]

    def test_uncovered_flag_is_unexplained(self):
        from repro.faults.model import FaultPlan, GrayNode
        plan = FaultPlan(gray_nodes=[GrayNode(mn_id=0, factor=6.0,
                                              start_us=0.0,
                                              end_us=5000.0)])
        verdict = detector_verdict(
            plan, [self._flag("mn0", pane=1), self._flag("mn2", pane=1)],
            width_us=250.0)
        assert not verdict["ok"]
        assert [f["scope"] for f in verdict["unexplained"]] == ["mn2"]

    def test_fault_after_traffic_end_is_not_expected(self):
        # A gray window seeded after the last op completes is invisible
        # to a comparative detector; with traffic_end_us set it must not
        # count as missed (e.g. the mixed campaign's quiescent tail).
        from repro.faults.model import FaultPlan, GrayNode
        plan = FaultPlan(gray_nodes=[GrayNode(mn_id=0, factor=4.0,
                                              start_us=1500.0,
                                              end_us=2400.0)])
        verdict = detector_verdict(plan, [], width_us=250.0,
                                   traffic_end_us=1300.0)
        assert verdict["expected"] == 0 and verdict["ok"]
        # ...but any overlap with live traffic keeps the expectation.
        verdict = detector_verdict(plan, [], width_us=250.0,
                                   traffic_end_us=1600.0)
        assert verdict["expected"] == 1 and not verdict["ok"]

    def test_unscoped_link_fault_is_not_expected(self):
        from repro.faults.model import FaultPlan, LinkFault
        plan = FaultPlan(link_faults=[
            LinkFault(drop_p=0.01, start_us=0.0, end_us=1000.0),
            LinkFault(drop_p=0.01, port=1, start_us=0.0, end_us=1000.0),
        ])
        # neither names an MN, so nothing is expected of the detector
        verdict = detector_verdict(plan, [], width_us=250.0)
        assert verdict["expected"] == 0 and verdict["ok"]


# ---------------------------------------------------------------------------
# The assembled monitor on live beds
# ---------------------------------------------------------------------------
def monitored_ycsb_run(seed, duration_us=1500.0, n_clients=2,
                       n_memory_nodes=2, nic_ports=1, rpc_shards=1,
                       slos=(), hotkeys=8, window_us=250.0,
                       port_affinity="qp", monitored=True, traced=True):
    """A fusee bed driving seeded YCSB-A clients with the monitor
    attached; returns ``(tracer, health)`` — tracer is None when
    ``traced=False``, health is None when ``monitored=False``."""
    from repro.harness.runner import run_closed_loop
    from repro.harness.systems import fusee_bed
    from repro.workloads import YcsbConfig, YcsbWorkload

    bed = fusee_bed(n_memory_nodes=n_memory_nodes, replication_factor=2,
                    dataset_bytes=1 << 18, background_interval_us=0.0,
                    nic_ports=nic_ports, rpc_shards=rpc_shards,
                    port_affinity=port_affinity,
                    max_clients=max(256, n_clients + 8))
    config = YcsbConfig(workload="A", n_keys=200)
    seeder = YcsbWorkload(config, seed=seed)
    bed.load((key, seeder.load_value(i))
             for i, key in enumerate(seeder.load_keys()))
    tracer = Tracer() if traced else None
    if traced:
        bed.cluster.attach_tracer(tracer)
    monitor = None
    if monitored:
        monitor = Monitor(bed.env, bed.cluster.fabric,
                          config=MonitorConfig(window_us=window_us,
                                               hotkey_capacity=hotkeys),
                          slos=[SloSpec.parse(s) for s in slos],
                          race=bed.cluster.race)
        bed.cluster.attach_monitor(monitor)
    clients = [bed.new_client() for _ in range(n_clients)]
    result = run_closed_loop(
        bed.env, clients,
        lambda index: YcsbWorkload(config, seed=seed + 1 + index),
        bed.execute, duration_us=duration_us, monitor=monitor)
    assert result.ops > 0
    return tracer, result.health


class TestMonitorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"hotkey_capacity": -1}, {"window_us": 0.0}, {"window_us": -250.0},
        {"window_us": math.nan}])
    def test_bad_settings_rejected(self, kwargs):
        """A negative hotkey capacity used to mean "off" without a word."""
        with pytest.raises(ValueError):
            MonitorConfig(**kwargs)

    def test_health_reports_the_thresholds_it_ran_with(self):
        """The sketch accuracy, SLO windows and detector thresholds are
        their classes' defaults; the report still names every one."""
        _tracer, health = monitored_ycsb_run(seed=7)
        assert health["config"] == {
            "window_us": 250.0, "alpha": 0.01, "fast_panes": 1,
            "slow_panes": 6, "burn_threshold": 2.0, "hotkey_capacity": 8,
            "detector": True, "detect_rel": 2.0, "detect_z": 3.5}


class TestMonitorOnCleanBeds:
    def test_windows_quantiles_and_hot_keys_populate(self):
        _tracer, health = monitored_ycsb_run(seed=7)
        rows = health["windows"]["rows"]
        assert len(rows) >= 5
        busy = [row for row in rows if row["ops"]]
        assert busy and all(row["p99_us"] >= row["p50_us"] > 0.0
                            for row in busy)
        assert any("hot_keys" in row for row in busy)
        assert health["hot_keys"]["n"] > 0
        assert health["hot_buckets"]["top"]   # RACE bucket sketch fed
        assert health["run"]["panes_evaluated"] == len(rows)

    def test_clean_64c_2mn_bed_has_zero_false_positives(self):
        _tracer, health = monitored_ycsb_run(
            seed=7, n_clients=64, duration_us=400.0, window_us=100.0,
            hotkeys=0)
        assert health["detector"]["flags"] == []
        assert len(health["detector"]["scopes_seen"]) >= 2

    def test_clean_256c_8mn_multiqueue_bed_has_zero_false_positives(self):
        _tracer, health = monitored_ycsb_run(
            seed=13, n_clients=256, n_memory_nodes=8, nic_ports=4,
            rpc_shards=2, port_affinity="rss", duration_us=250.0,
            window_us=100.0, hotkeys=0)
        assert health["detector"]["flags"] == []
        # per-port and per-shard scopes really were compared
        scopes = health["detector"]["scopes_seen"]
        assert any(".nic_rx" in s for s in scopes)
        assert any(".cpu" in s for s in scopes)

    def test_impossible_latency_slo_trips_and_emits_alert_spans(self):
        tracer, health = monitored_ycsb_run(
            seed=7, slos=("latency:all:p99:0.001",))
        slo = health["slos"][0]
        assert slo["windows_tripped"] > 0
        assert slo["alerts"][0]["burn_slow"] >= 2.0
        alert_spans = [s for s in tracer.spans
                       if s.op.startswith("alert.slo.")]
        assert len(alert_spans) == slo["windows_tripped"]
        # alert spans ride negative sids on the shared alerts track
        assert all(s.sid < 0 and s.cid == -1 for s in alert_spans)

    def test_achievable_slo_stays_quiet(self):
        _tracer, health = monitored_ycsb_run(
            seed=7, slos=("errors:0.5", "latency:all:p99:1e6"))
        assert all(s["windows_tripped"] == 0 for s in health["slos"])

    def test_alert_spans_render_as_canonical_jsonl(self):
        from repro.obs import jsonl_lines
        tracer, _health = monitored_ycsb_run(
            seed=7, slos=("latency:all:p99:0.001",))
        lines = jsonl_lines(tracer)
        alert_lines = [line for line in lines
                       if json.loads(line).get("op", "").startswith("alert.")]
        assert alert_lines
        for line in alert_lines:
            record = json.loads(line)
            assert record["sid"] < 0
            assert json.dumps(record, sort_keys=True,
                              separators=(",", ":")) == line

    def test_health_artifact_round_trips_through_json(self, tmp_path):
        _tracer, health = monitored_ycsb_run(seed=7)
        path = tmp_path / "health.json"
        write_health(health, path)
        loaded = load_health(path)
        assert health_fingerprint(loaded) == health_fingerprint(health)
        report = render_health(loaded)
        assert "health report" in report and "gray detector" in report

    def test_kv_ops_from_spans_skips_alert_spans(self):
        from repro.check.history import kv_ops_from_spans
        tracer, _health = monitored_ycsb_run(
            seed=7, slos=("latency:all:p99:0.001",))
        ops = kv_ops_from_spans(tracer.spans)
        assert ops
        assert all(op.kind in KV_OPS and op.op_id >= 0 for op in ops)


class TestMonitorWiring:
    """The monitor has one home, ``fabric.monitor``: every client reads
    it there at the top of each KV op, traced or not, whenever it was
    created."""

    def test_untraced_bed_counts_hot_keys(self):
        _tracer, health = monitored_ycsb_run(seed=7, traced=False)
        assert health["hot_keys"]["n"] > 0
        assert health["hot_buckets"]["top"]

    def test_hot_keys_are_the_same_traced_or_not(self):
        _tracer, traced = monitored_ycsb_run(seed=7)
        _none, untraced = monitored_ycsb_run(seed=7, traced=False)
        assert untraced["hot_keys"] == traced["hot_keys"]
        assert untraced["hot_buckets"] == traced["hot_buckets"]
        assert ([row.get("hot_keys") for row in untraced["windows"]["rows"]]
                == [row.get("hot_keys") for row in traced["windows"]["rows"]])

    @pytest.mark.parametrize("traced", [False, True])
    def test_clients_made_before_and_after_attach_feed_it(self, traced):
        from repro.core import FuseeCluster
        from tests.conftest import small_config

        cluster = FuseeCluster(small_config(),
                               tracer=Tracer() if traced else None)
        before = cluster.new_client()
        monitor = cluster.attach_monitor(Monitor(
            cluster.env, cluster.fabric,
            config=MonitorConfig(hotkey_capacity=8), race=cluster.race))
        after = cluster.new_client()
        cluster.run_op(before.insert(b"made-before", b"v"))
        cluster.run_op(after.insert(b"made-after", b"v"))
        cluster.run_op(after.search(b"made-before"))
        cluster.run_op(before.update(b"made-after", b"w"))
        assert monitor.hot_total.estimate(b"made-before") == (2, 0)
        assert monitor.hot_total.estimate(b"made-after") == (2, 0)
        assert monitor.hot_total.n == 4


class TestMonitorOnFaultedBeds:
    def test_gray_campaign_caught_within_three_windows(self):
        from repro.faults.campaign import run_campaign
        report = run_campaign("gray", monitor_config=MonitorConfig())
        assert report.linearizable
        verdict = report.detector
        assert verdict["ok"], verdict
        assert verdict["expected"] == 1
        assert all(row["latency_windows"] <= 3
                   for row in verdict["caught"])
        assert verdict["unexplained"] == []
        assert report.sound

    def test_port_scoped_gray_fault_is_caught_on_the_port(self):
        from repro.faults.campaign import run_campaign
        from repro.faults.model import FaultPlan, GrayNode
        plan = FaultPlan(gray_nodes=[GrayNode(
            mn_id=0, factor=6.0, port=1, start_us=300.0, end_us=2200.0)])
        report = run_campaign("portgray", plan=plan, nic_ports=2,
                              rpc_shards=2,
                              monitor_config=MonitorConfig())
        verdict = report.detector
        assert verdict["ok"], verdict
        assert verdict["caught"][0]["flag_scope"].endswith(".p1")
        assert report.sound

    def test_port_scoped_partition_is_caught_by_drop_rule(self):
        from repro.faults.campaign import run_campaign
        from repro.faults.model import CN, FaultPlan, Partition
        plan = FaultPlan(partitions=[Partition(
            a=CN, b=0, port=1, start_us=300.0, end_us=900.0)])
        report = run_campaign("portdrop", plan=plan, nic_ports=2,
                              monitor_config=MonitorConfig())
        verdict = report.detector
        assert verdict["ok"], verdict
        assert verdict["caught"][0]["flag_scope"].endswith(".p1")
        assert report.sound

    def test_per_pane_tally_reports_what_per_verb_feeding_does(
            self, monkeypatch):
        """The monitor tallies the fabric's service observations and feeds
        the detector once per distinct slot and pane, at evaluation.  A
        monitor that feeds it after every verb must write the same health
        report, flags and their sample counts included."""
        import repro.obs
        from repro.faults.campaign import run_campaign
        from repro.workloads import SMOKE_TRIM

        class _PerVerbMonitor(Monitor):
            def note_verb(self, *args):
                super().note_verb(*args)
                self._flush_verbs()

        def health():
            return run_campaign(
                scenario="flash-crowd-gray", seed=0,
                scenario_overrides=SMOKE_TRIM,
                monitor_config=MonitorConfig(window_us=250.0,
                                             hotkey_capacity=4),
                slos=[SloSpec.parse("errors:0.05")]).health

        tallied = health()
        monkeypatch.setattr(repro.obs, "Monitor", _PerVerbMonitor)
        per_verb = health()
        assert tallied["detector"]["flags"]
        assert health_fingerprint(tallied) == health_fingerprint(per_verb)
        assert tallied["overhead"]["hook_calls"] \
            == per_verb["overhead"]["hook_calls"]

    def test_detector_failure_breaks_campaign_soundness(self):
        from repro.faults.campaign import CampaignReport
        from repro.faults.model import FaultPlan
        report = CampaignReport(name="x", seed=0, retries=True,
                                plan=FaultPlan())
        assert report.sound
        report.detector = {"ok": False, "expected": 1, "caught": [],
                           "missed": [{"fault": "gray"}],
                           "unexplained": []}
        assert not report.detector_ok
        assert not report.sound

    def test_unmonitored_campaign_report_unchanged(self):
        from repro.faults.campaign import run_campaign
        report = run_campaign("gray")
        assert report.detector is None and report.health is None
        assert report.detector_ok    # vacuously sound
        assert report.sound
