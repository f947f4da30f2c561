"""Production traffic scenarios: generators, verdicts, elasticity.

Four layers:

* **Generator properties** (Hypothesis): seeded determinism — the same
  ``(scenario, seed)`` always yields a byte-identical op stream;
  rate-schedule conservation — arrival counts match the schedule's
  analytic integral within Poisson tolerance, and every analytic
  integral matches numeric quadrature; tenant key-space disjointness;
  monotonic hot-set rotation under popularity shifts.
* **Verdicts**: every shipped scenario family runs as a fault campaign
  (`run_campaign(scenario=...)`) and must come out *sound* — no hangs,
  no leaks, allocator balance, and a passing whole-run linearizability
  check.  The compound family additionally runs monitored and its
  seeded gray fault must be caught by the detector.
* **Isolation**: the paced open-loop runner feeds per-tenant metrics;
  `tenant_report` shares must track the configured tenant weights.
* **Elasticity under saturation**: `fig21_elasticity(saturate=True)`
  grows the MN pool mid-scenario and the profiler must attribute the
  rebalance — snapshot read-only window vs. data copy.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.campaign import run_campaign, scenario_fault_plan
from repro.harness.experiments import Scale, fig21_elasticity
from repro.workloads import (
    ConstantRate,
    DiurnalRate,
    FaultEvent,
    FlashCrowdRate,
    HotKeyStorm,
    RampRate,
    SCENARIOS,
    SMOKE_TRIM,
    WorkingSetDrift,
    get_scenario,
    tenant_report,
)

SCENARIO_NAMES = sorted(SCENARIOS)

# A fast trim for generator-property examples (distinct from the CI
# smoke trim: shorter still, since properties run many examples).
PROP_TRIM = {"duration_us": 1_500.0, "keys_per_tenant": 64,
             "n_clients": 2}


# ---------------------------------------------------------------------------
# Seeded determinism: replayable verdicts need byte-identical streams
# ---------------------------------------------------------------------------
class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(SCENARIO_NAMES),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_same_seed_yields_byte_identical_stream(self, name, seed):
        a = get_scenario(name, seed=seed, **PROP_TRIM)
        b = get_scenario(name, seed=seed, **PROP_TRIM)
        stream_a = b"\n".join(op.encode() for op in a.ops())
        stream_b = b"\n".join(op.encode() for op in b.ops())
        assert stream_a == stream_b

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(SCENARIO_NAMES),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_different_clients_see_different_streams(self, name, seed):
        scn = get_scenario(name, seed=seed, **PROP_TRIM)
        ops_0 = [op.encode() for op in scn.client_stream(0)]
        ops_1 = [op.encode() for op in scn.client_stream(1)]
        if ops_0 and ops_1:
            assert ops_0 != ops_1

    def test_seed_changes_the_stream(self):
        a = get_scenario("hot-key-storm", seed=0, **PROP_TRIM)
        b = get_scenario("hot-key-storm", seed=1, **PROP_TRIM)
        assert ([op.encode() for op in a.ops()]
                != [op.encode() for op in b.ops()])


# ---------------------------------------------------------------------------
# Rate schedules: analytic integrals and arrival conservation
# ---------------------------------------------------------------------------
def _numeric_integral(schedule, t0, t1, steps=4000):
    dt = (t1 - t0) / steps
    total = 0.0
    for i in range(steps):
        a = t0 + i * dt
        total += 0.5 * (schedule.rate(a) + schedule.rate(a + dt)) * dt
    return total


class TestRateSchedules:
    SCHEDULES = [
        ConstantRate(0.25),
        DiurnalRate(trough=0.05, peak=0.4, period_us=5_000.0),
        DiurnalRate(trough=0.1, peak=0.3, period_us=3_000.0,
                    phase=1_000.0),
        FlashCrowdRate(base=0.1, surge=0.5, at_us=2_000.0,
                       duration_us=1_500.0),
        RampRate(lo=0.05, hi=0.45, t0_us=1_000.0, t1_us=6_000.0),
        ConstantRate(0.1) + RampRate(lo=0.0, hi=0.2, t0_us=0.0,
                                     t1_us=8_000.0),
    ]

    @pytest.mark.parametrize("schedule", SCHEDULES,
                             ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("window", [(0.0, 8_000.0),
                                        (1_500.0, 4_321.0)])
    def test_analytic_integral_matches_quadrature(self, schedule, window):
        t0, t1 = window
        analytic = schedule.integral(t0, t1)
        numeric = _numeric_integral(schedule, t0, t1)
        assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    @pytest.mark.parametrize("schedule", SCHEDULES,
                             ids=lambda s: type(s).__name__)
    def test_rate_never_exceeds_peak(self, schedule):
        peak = schedule.peak_rate()
        for i in range(200):
            assert schedule.rate(i * 40.0) <= peak + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(SCENARIO_NAMES),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_arrivals_conserve_the_schedule_integral(self, name, seed):
        # Thinned Poisson arrivals: the op count is Poisson(E) with
        # E = integral(0, duration).  A 6-sigma band plus slack keeps
        # this deterministic-per-seed check far from flaking while
        # still catching any systematic rate error.
        scn = get_scenario(name, seed=seed, duration_us=4_000.0,
                           keys_per_tenant=64, n_clients=3)
        expected = scn.schedule.integral(0.0, scn.duration_us)
        got = len(scn.ops())
        assert abs(got - expected) <= 6.0 * math.sqrt(expected) + 12.0

    def test_ops_are_time_sorted_and_in_range(self):
        scn = get_scenario("diurnal", seed=3, **PROP_TRIM)
        ops = scn.ops()
        times = [op.at_us for op in ops]
        assert times == sorted(times)
        assert all(0.0 <= t < scn.duration_us for t in times)


# ---------------------------------------------------------------------------
# Multi-tenant key spaces stay disjoint
# ---------------------------------------------------------------------------
class TestTenantIsolation:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_key_spaces_are_disjoint(self, seed):
        scn = get_scenario("multi-tenant", seed=seed, **PROP_TRIM)
        seen = {}
        for key, _value in scn.preload_items():
            assert key not in seen
            seen[key] = True
        # Every preloaded or generated key carries exactly one tenant's
        # prefix; prefixes never collide because tenant names are
        # unique and colon-terminated.
        prefixes = [t.name.encode() + b":" for t in scn.tenants]
        for op in scn.ops():
            owners = [p for p in prefixes if op.key.startswith(p)]
            assert len(owners) == 1

    def test_tenant_weights_steer_traffic_shares(self):
        scn = get_scenario("multi-tenant", seed=0, duration_us=8_000.0,
                           keys_per_tenant=128, n_clients=4)
        counts = {t.name: 0 for t in scn.tenants}
        for op in scn.ops():
            counts[op.tenant] += 1
        # weights 3 / 2 / 1 -> strict ordering with this much traffic
        assert counts["readmost"] > counts["writer"] > counts["churn"]


# ---------------------------------------------------------------------------
# Popularity shifts rotate the hot set monotonically
# ---------------------------------------------------------------------------
class TestPopularityShift:
    @settings(max_examples=30, deadline=None)
    @given(period=st.floats(min_value=100.0, max_value=10_000.0),
           stride=st.integers(min_value=1, max_value=16),
           t=st.floats(min_value=0.0, max_value=50_000.0),
           dt=st.floats(min_value=0.0, max_value=50_000.0))
    def test_storm_offset_is_monotone(self, period, stride, t, dt):
        storm = HotKeyStorm(period_us=period, stride=stride)
        assert storm.offset(t + dt) >= storm.offset(t)

    def test_storm_rotates_once_per_period(self):
        storm = HotKeyStorm(period_us=1_000.0, stride=3)
        offsets = [storm.offset(t * 1_000.0) for t in range(8)]
        assert offsets == [i * 3 for i in range(8)]
        assert [storm.epoch(t * 1_000.0) for t in range(8)] \
            == list(range(8))

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(min_value=0.001, max_value=1.0),
           t=st.floats(min_value=0.0, max_value=50_000.0),
           dt=st.floats(min_value=0.0, max_value=50_000.0))
    def test_drift_offset_is_monotone(self, rate, t, dt):
        drift = WorkingSetDrift(keys_per_us=rate)
        assert drift.offset(t + dt) >= drift.offset(t)

    def test_storm_scenario_hot_key_changes_across_epochs(self):
        scn = get_scenario("hot-key-storm", seed=0, **PROP_TRIM)
        tenant = scn.tenants[0]
        period = scn.shift.period_us
        hot = [scn.hot_index(tenant, epoch * period)
               for epoch in range(4)]
        assert len(set(hot)) > 1  # the head actually moves


# ---------------------------------------------------------------------------
# Verdicts: every shipped family is sound under its fault campaign
# ---------------------------------------------------------------------------
class TestScenarioVerdicts:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_family_is_sound_and_linearizable(self, name):
        report = run_campaign(scenario=name, seed=0,
                              scenario_overrides=SMOKE_TRIM)
        assert report.name == f"scenario:{name}"
        assert report.sound, report.render()
        assert report.linearizable
        assert report.balance_ok
        assert report.hung_ops == 0 and not report.exceptions

    def test_compound_scenario_supplies_its_own_fault_plan(self):
        scn = get_scenario("flash-crowd-gray", seed=0, **SMOKE_TRIM)
        plan = scenario_fault_plan(scn, seed=0)
        assert plan.gray_nodes and plan.link_faults
        gray = plan.gray_nodes[0]
        assert gray.start_us == pytest.approx(0.25 * scn.duration_us)
        assert gray.end_us == pytest.approx(0.75 * scn.duration_us)

    def test_fault_event_fracs_are_validated(self):
        with pytest.raises(ValueError):
            FaultEvent("gray", 0.8, 0.2)
        with pytest.raises(ValueError):
            FaultEvent("meteor", 0.1, 0.9)

    def test_monitored_compound_scenario_catches_its_gray_fault(self):
        from repro.obs import MonitorConfig
        # Full-size timing: the smoke trim compresses the gray onset
        # below the detector's catch deadline (3 windows of 250us).
        report = run_campaign(scenario="flash-crowd-gray", seed=0,
                              monitor_config=MonitorConfig())
        assert report.sound, report.render()
        det = report.detector
        assert det is not None and det["ok"], det
        assert det["expected"] >= 1 and not det["missed"]

    @pytest.mark.xfail(strict=True, reason=(
        "seed 1: the gray node on mn0 starts at 5000 us; with 250 us panes "
        "and DETECT_WINDOWS = 3 a flag must start by 5750 us, but the "
        "first mn0 service flag is pane 24, [6000, 6250) us, one pane "
        "late (seed 0 catches it)"))
    def test_monitored_compound_scenario_catches_its_gray_fault_seed_1(self):
        """``python -m repro monitor --scenario flash-crowd-gray --seed 1``
        ends UNSOUND: 0/1 faults caught, 64 flags, none unexplained.  The
        detector and its deadline are left as they are; this pins the
        miss until one of them changes on purpose."""
        from repro.faults.campaign import DETECT_WINDOWS
        from repro.obs import MonitorConfig
        config = MonitorConfig()
        report = run_campaign(scenario="flash-crowd-gray", seed=1,
                              monitor_config=config)
        (gray,) = report.plan.gray_nodes
        first = min(flag["t0"] for flag in report.health["detector"]["flags"]
                    if flag["scope"] == f"mn{gray.mn_id}"
                    and flag["kind"] == "service")
        deadline = gray.start_us + DETECT_WINDOWS * config.window_us
        assert first <= deadline, (
            f"first mn{gray.mn_id} service flag starts at {first} us, "
            f"after the {deadline} us deadline")
        assert report.sound and report.detector["ok"], report.render()


# ---------------------------------------------------------------------------
# Per-tenant isolation metrics through the paced open-loop runner
# ---------------------------------------------------------------------------
class TestTenantReport:
    def test_shares_track_weights_on_a_live_bed(self):
        from repro.harness import fusee_bed, run_open_loop
        from repro.obs import Metrics

        scn = get_scenario("multi-tenant", seed=0, duration_us=4_000.0,
                           keys_per_tenant=96, n_clients=3)
        bed = fusee_bed(dataset_bytes=1 << 21)
        assert bed.load(scn.preload_items()) > 0
        metrics = Metrics()
        clients = [bed.new_client() for _ in range(scn.n_clients)]
        result = run_open_loop(bed.env, clients, scn.client_stream,
                               bed.execute, duration_us=scn.duration_us,
                               metrics=metrics)
        assert result.ops > 0 and result.errors == 0
        report = tenant_report(metrics, scn)
        assert set(report) == {"readmost", "writer", "churn"}
        shares = {name: row["throughput_share"]
                  for name, row in report.items()}
        assert shares["readmost"] > shares["writer"] > shares["churn"]
        assert sum(shares.values()) == pytest.approx(1.0)
        for row in report.values():
            assert row["ops"] > 0
            assert row["p99_us"] >= row["p50_us"] > 0.0


# ---------------------------------------------------------------------------
# Elasticity under saturation: rebalance time attributed by the profiler
# ---------------------------------------------------------------------------
class TestElasticityUnderSaturation:
    def test_fig21_saturating_attributes_rebalance_phases(self):
        result = fig21_elasticity(scale=Scale.tiny(), saturate=True,
                                  scenario="hot-key-storm", seed=0)
        reb = result.extras["rebalance"]
        assert reb["new_mn_id"] is not None
        assert reb["snapshot_window_us"] > 0.0
        assert reb["copy_us"] > 0.0
        assert reb["total_us"] >= reb["snapshot_window_us"] + reb["copy_us"]
        assert 0.0 < reb["window_share"] < 1.0
        assert 0.0 < reb["copy_share"] < 1.0
        assert "rebalance" in result.notes
        # the run itself kept serving under saturation
        assert any(row for row in result.rows)

    def test_closed_loop_scenario_stream_wraps_forever(self):
        scn = get_scenario("flash-crowd", seed=0, **PROP_TRIM)
        sat = scn.saturating_workload(0)
        ops = [sat.next_op() for _ in range(500)]
        assert len(ops) == 500
        kinds = {op for op, _key, _value in ops}
        assert "search" in kinds
