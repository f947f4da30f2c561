"""Profiler correctness: additive breakdowns, attribution, critical path.

The profiler's core contract is that every finished span's breakdown is a
*partition* of its ``[start_us, end_us]`` window: category totals sum to
the span duration exactly (to float precision), whatever the instrumented
layers emitted.  That property is checked twice — as a Hypothesis
property over arbitrary interval soups, and end-to-end on real FUSEE
runs, including lossy-fabric runs where retry backoff must show up in the
breakdown (the PR 3 sleeps used to be invisible).
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.model import FaultPlan, LinkFault
from repro.faults.retry import RetryPolicy, backoff_wait
from repro.harness.runner import run_closed_loop
from repro.harness.systems import fusee_bed
from repro.obs import (
    CATEGORIES,
    RESIDUAL,
    Profiler,
    RunProfile,
    Tracer,
    analyze_critical_path,
    critical_report,
    folded_stacks,
    profile_report,
    span_breakdown,
)
from repro.sim.core import Environment
from repro.workloads import YcsbConfig, YcsbWorkload

# ------------------------------------------------------------------ helpers


def profiled_ycsb_run(seed=7, duration_us=600.0, n_clients=4, plan=None,
                      retry=None):
    """A small profiled FUSEE YCSB-A run (bulk load unprofiled)."""
    bed = fusee_bed(n_memory_nodes=2, replication_factor=2,
                    dataset_bytes=1 << 18, background_interval_us=0.0)
    config = YcsbConfig(workload="A", n_keys=200)
    seeder = YcsbWorkload(config, seed=seed)
    bed.load((key, seeder.load_value(i))
             for i, key in enumerate(seeder.load_keys()))
    tracer = Tracer()
    bed.cluster.attach_tracer(tracer)
    profiler = Profiler(tracer=tracer).install(bed.env)
    if plan is not None:
        bed.cluster.install_faults(plan, retry=retry)
    clients = [bed.new_client() for _ in range(n_clients)]
    run_closed_loop(bed.env, clients,
                    lambda index: YcsbWorkload(config, seed=seed + 1 + index),
                    bed.execute, duration_us=duration_us,
                    fast=False)
    return tracer, profiler


def ended(tracer):
    return [s for s in tracer.spans if s.end_us is not None]


# ------------------------------------------- span_breakdown as a partition

_times = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def _interval(draw):
    a = draw(_times)
    b = draw(_times)
    return (draw(st.sampled_from(CATEGORIES)),
            draw(st.sampled_from(["a", "b", "c"])),
            min(a, b), max(a, b))


class TestSpanBreakdownProperty:
    @given(st.lists(_interval(), max_size=20), _times, _times)
    def test_partition_is_additive_and_nonnegative(self, intervals, x, y):
        t0, t1 = min(x, y), max(x, y)
        parts = span_breakdown(intervals, t0, t1)
        assert all(us >= 0.0 for us in parts.values())
        assert all(cat in CATEGORIES or (cat, label) == RESIDUAL
                   for cat, label in parts)
        if t1 > t0:
            assert math.isclose(sum(parts.values()), t1 - t0,
                                rel_tol=1e-9, abs_tol=1e-9)
        else:
            assert parts == {}

    @given(st.lists(_interval(), max_size=20), _times, _times)
    def test_full_cover_by_top_priority_leaves_no_residual(self, intervals,
                                                          x, y):
        t0, t1 = min(x, y), max(x, y)
        covered = intervals + [("cpu_service", "cover", t0 - 1.0, t1 + 1.0)]
        parts = span_breakdown(covered, t0, t1)
        assert RESIDUAL not in parts
        if t1 > t0:
            # cpu_service is the highest priority: every segment lands in
            # it (another cpu_service interval may tie and take a segment,
            # so assert the category, not the single covering label).
            assert all(cat == "cpu_service" for cat, _label in parts)


class TestSpanBreakdownUnits:
    def test_no_intervals_is_all_residual(self):
        assert span_breakdown([], 2.0, 5.0) == {RESIDUAL: 3.0}

    def test_priority_resolves_overlap(self):
        # propagation covers the window; a cpu_service burst overlaps the
        # middle and must win its segment.
        parts = span_breakdown([("propagation", "net", 0.0, 10.0),
                                ("cpu_service", "mn0.cpu", 4.0, 6.0)],
                               0.0, 10.0)
        assert parts[("cpu_service", "mn0.cpu")] == pytest.approx(2.0)
        assert parts[("propagation", "net")] == pytest.approx(8.0)

    def test_intervals_clip_to_window(self):
        parts = span_breakdown([("backoff", "retry", -5.0, 3.0)], 0.0, 4.0)
        assert parts[("backoff", "retry")] == pytest.approx(3.0)
        assert parts[RESIDUAL] == pytest.approx(1.0)


# ----------------------------------------------- end-to-end on a real run


class TestRealRunAdditivity:
    def test_every_span_breakdown_sums_to_duration(self):
        tracer, profiler = profiled_ycsb_run()
        spans = ended(tracer)
        assert len(spans) > 50
        for span in spans:
            parts = profiler.breakdown(span)
            assert math.isclose(sum(parts.values()), span.duration_us,
                                rel_tol=1e-9, abs_tol=1e-9), span.op

    def test_fabric_time_is_attributed_not_residual(self):
        tracer, profiler = profiled_ycsb_run()
        profile = RunProfile.collect(profiler, tracer.spans)
        # The client residual must be a minority: the fabric layers emit
        # real intervals for the bulk of every op's latency.
        assert profile.share("client", label="compute") < 0.5
        assert profile.share("propagation") > 0.0
        assert profile.share("nic_service") > 0.0

    def test_breakdown_refuses_unfinished_span(self, ):
        tracer, profiler = profiled_ycsb_run()
        unfinished = [s for s in tracer.spans if s.end_us is None]
        if not unfinished:
            pytest.skip("run ended with no span in flight")
        with pytest.raises(ValueError):
            profiler.breakdown(unfinished[0])


class TestBackoffAttribution:
    """Satellite regression: retry sleeps must be visible in breakdowns."""

    def test_transport_retries_show_backoff_time(self):
        plan = FaultPlan(link_faults=(LinkFault(drop_p=0.30),), seed=3)
        tracer, profiler = profiled_ycsb_run(
            duration_us=800.0, plan=plan,
            retry=RetryPolicy(verb_timeout_us=6.0, backoff_base_us=2.0))
        retried = [s for s in ended(tracer) if s.transport_retries > 0]
        assert retried, "lossy plan produced no transport retries"
        for span in retried:
            parts = profiler.breakdown(span)
            backoff_us = sum(us for (cat, _label), us in parts.items()
                             if cat == "backoff")
            assert backoff_us > 0.0, (
                f"span {span.op} retried {span.transport_retries}x "
                f"but shows no backoff time: {parts}")

    def test_clean_run_has_no_backoff(self):
        tracer, profiler = profiled_ycsb_run()
        profile = RunProfile.collect(profiler, tracer.spans)
        assert profile.share("backoff") == 0.0


class TestAttributedTimeout:
    def test_records_interval_when_profiling(self):
        env = Environment()
        profiler = Profiler().install(env)

        def proc():
            yield env.attributed_timeout(5.0, "backoff", "test.sleep")

        env.process(proc())
        env.run(until=10.0)
        assert (None, "backoff", "test.sleep", 0.0, 5.0) in profiler.intervals

    def test_noop_without_profiler(self):
        env = Environment()
        done = []

        def proc():
            yield env.attributed_timeout(5.0, "backoff", "test.sleep")
            done.append(env.now)

        env.process(proc())
        env.run(until=10.0)
        assert done == [5.0]

    def test_backoff_wait_delegates(self):
        env = Environment()
        profiler = Profiler().install(env)

        def proc():
            yield backoff_wait(env, 3.0, label="verb.timeout")

        env.process(proc())
        env.run(until=10.0)
        assert (None, "backoff", "verb.timeout", 0.0, 3.0) \
            in profiler.intervals

    def test_zero_delay_records_nothing(self):
        env = Environment()
        profiler = Profiler().install(env)

        def proc():
            yield env.attributed_timeout(0.0, "backoff", "noop")

        env.process(proc())
        env.run(until=1.0)
        assert profiler.intervals == []


# --------------------------------------------------- aggregation & exports


class TestRunProfile:
    def test_overall_counts_and_totals(self):
        tracer, profiler = profiled_ycsb_run()
        profile = RunProfile.collect(profiler, tracer.spans)
        spans = ended(tracer)
        assert profile.overall["count"] == len(spans)
        assert profile.unfinished_spans == len(tracer.spans) - len(spans)
        assert profile.overall["total_us"] == pytest.approx(
            sum(s.duration_us for s in spans))
        # aggregate additivity: the overall breakdown is also a partition
        assert sum(profile.overall["breakdown"].values()) == pytest.approx(
            profile.overall["total_us"])
        assert sum(profile.ops[op]["count"] for op in profile.ops) \
            == len(spans)

    def test_shares_are_fractions(self):
        tracer, profiler = profiled_ycsb_run()
        profile = RunProfile.collect(profiler, tracer.spans)
        total = sum(profile.share(cat) for cat in CATEGORIES)
        assert total == pytest.approx(1.0)
        assert 0.0 <= profile.tail_share("propagation") <= 1.0

    def test_to_dict_is_json_clean(self):
        tracer, profiler = profiled_ycsb_run()
        profile = RunProfile.collect(profiler, tracer.spans)
        payload = json.loads(json.dumps(profile.to_dict(), sort_keys=True))
        assert payload["overall"]["count"] == profile.overall["count"]
        assert "resources" in payload and "tail" in payload

    def test_report_renders(self):
        tracer, profiler = profiled_ycsb_run()
        profile = RunProfile.collect(profiler, tracer.spans)
        text = profile_report(profile)
        assert "overall:" in text
        assert "slowest tail" in text

    @pytest.mark.parametrize("pct", [150.0, -5.0, math.nan])
    def test_tail_pct_outside_0_100_rejected(self, pct):
        """The rank used to be clamped, so 150 reported ``tail.pct`` 150
        over the single slowest span."""
        tracer, profiler = profiled_ycsb_run()
        with pytest.raises(ValueError, match="outside"):
            RunProfile.collect(profiler, tracer.spans, tail_pct=pct)

    @pytest.mark.parametrize("pct", [0.0, 100.0])
    def test_tail_pct_edges_accepted(self, pct):
        tracer, profiler = profiled_ycsb_run()
        profile = RunProfile.collect(profiler, tracer.spans, tail_pct=pct)
        assert profile.tail["pct"] == pct
        assert profile.tail["count"] >= 1


class TestCriticalPath:
    def test_attribution_sums_to_makespan(self):
        tracer, profiler = profiled_ycsb_run()
        cp = analyze_critical_path(profiler, tracer.spans)
        assert cp.makespan_us > 0.0
        assert cp.spans_on_path >= 1
        assert math.isclose(sum(cp.attribution.values()), cp.makespan_us,
                            rel_tol=1e-9, abs_tol=1e-9)

    def test_edges_are_ranked_and_typed(self):
        tracer, profiler = profiled_ycsb_run(n_clients=8)
        cp = analyze_critical_path(profiler, tracer.spans)
        assert cp.edges, "8 contending clients should produce queueing"
        weights = [us for us, *_ in cp.edges]
        assert weights == sorted(weights, reverse=True)
        for us, blocker, waiter, label in cp.edges:
            assert us > 0.0
            assert isinstance(blocker, str) and isinstance(waiter, str)
            assert label in profiler_labels(profiler)

    def test_empty_population(self):
        cp = analyze_critical_path(Profiler(), [])
        assert cp.makespan_us == 0.0
        assert critical_report(cp) == "(no finished spans)"

    def test_to_dict_shape(self):
        tracer, profiler = profiled_ycsb_run()
        payload = analyze_critical_path(profiler, tracer.spans).to_dict()
        assert set(payload) == {"makespan_us", "cid", "spans_on_path",
                                "attribution_us", "top_edges"}
        assert sum(payload["attribution_us"].values()) == pytest.approx(
            payload["makespan_us"], abs=1e-3)


def profiler_labels(profiler):
    return {label for _s, _c, label, _a, _b in profiler.intervals}


class TestFoldedStacks:
    def test_lines_sum_to_span_totals(self):
        tracer, profiler = profiled_ycsb_run()
        lines = folded_stacks(profiler, tracer.spans)
        assert lines
        total = 0.0
        for line in lines:
            stack, _, value = line.rpartition(" ")
            frames = stack.split(";")
            assert len(frames) == 3, line
            total += float(value)
        expected = sum(s.duration_us for s in ended(tracer))
        # values carry 6 decimals; rounding error is bounded by the line count
        assert total == pytest.approx(expected, abs=1e-5 * len(lines) + 1e-6)

    def test_stacks_use_op_and_phase_frames(self):
        tracer, profiler = profiled_ycsb_run()
        ops = {line.split(";")[0] for line in
               folded_stacks(profiler, tracer.spans)}
        assert ops <= {"search", "update", "insert", "delete"}
        assert "search" in ops and "update" in ops
