"""Trace determinism: same seed => byte-identical trace output.

The simulation is a deterministic function of its seeds, and the tracer
records only simulated time and verb contents (no wall clock, no memory
addresses).  So the JSONL rendering of a seeded YCSB run must be
byte-for-byte reproducible — that property is what makes traces usable
as regression artifacts (diff two trace files to see exactly where an
optimisation changed the verb stream).  A same-seed run is compared with
its cell in ``DIFFERENTIAL.json`` (``repro.check.differential``), whose
digest another process recorded.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.differential import digest, recorded
from repro.harness import fusee_bed, observed_run
from repro.obs import chrome_trace, folded_stacks, jsonl_lines
from repro.workloads import YcsbConfig, YcsbWorkload


def observed_ycsb(seed: int, duration_us: float, n_clients: int = 2,
                  bed_kw=None, **observers):
    """A small seeded YCSB-A bed driven through the recipe every CLI
    subcommand uses (``harness.profiling.observed_run``), always traced:
    the bulk load stays untraced, only the measured run is recorded."""
    bed = fusee_bed(replication_factor=2, dataset_bytes=1 << 18,
                    background_interval_us=0.0, **(bed_kw or {}))
    config = YcsbConfig(workload="A", n_keys=200)
    seeder = YcsbWorkload(config, seed=seed)
    bed.load((key, seeder.load_value(i))
             for i, key in enumerate(seeder.load_keys()))
    return observed_run(
        bed, n_clients,
        lambda index: YcsbWorkload(config, seed=seed + 1 + index),
        duration_us, trace=True, **observers)


def traced_ycsb_run(seed: int, duration_us: float = 1500.0, profile=False,
                    metrics=False, replication=None):
    """Run seeded YCSB-A clients on a small FUSEE bed, return the tracer.
    With ``profile``/``metrics``, also return a profiler and a sampled
    metrics registry (in that order).  ``replication`` selects the slot
    replication strategy (default: the bed's, i.e. snapshot)."""
    result = observed_ycsb(seed, duration_us,
                           bed_kw={"replication": replication},
                           profile=profile,
                           sample_interval_us=50.0 if metrics else None)
    out = [result.tracer]
    if profile:
        out.append(result.profiler)
    if metrics:
        out.append(result.metrics)
    return out[0] if len(out) == 1 else tuple(out)


class TestTraceDeterminism:
    """``bed/trace/<seed>`` cells: ``trace`` is the JSONL, ``out`` the
    Chrome trace."""

    def test_same_seed_gives_identical_jsonl(self):
        lines = jsonl_lines(traced_ycsb_run(seed=7))
        assert len(lines) > 50  # a real run, not a trivial one
        assert digest("\n".join(lines)) == recorded()["bed/trace/7"]["trace"]

    def test_same_seed_gives_identical_chrome_trace(self):
        text = json.dumps(chrome_trace(traced_ycsb_run(seed=7)),
                          sort_keys=True, separators=(",", ":"))
        assert digest(text) == recorded()["bed/trace/7"]["out"]

    def test_different_seed_gives_different_trace(self):
        lines = jsonl_lines(traced_ycsb_run(seed=7))
        assert digest("\n".join(lines)) != recorded()["bed/trace/8"]["trace"]

    def test_jsonl_lines_are_valid_sorted_json(self):
        lines = jsonl_lines(traced_ycsb_run(seed=7))
        for line in lines:
            record = json.loads(line)
            assert record["type"] in ("span", "fabric_event")
            # canonical rendering: re-dumping must reproduce the line
            assert json.dumps(record, sort_keys=True,
                              separators=(",", ":")) == line


def scaled_ycsb_trace(seed: int, n_clients: int = 256,
                      n_memory_nodes: int = 8, nic_ports: int = 4,
                      rpc_shards: int = 2, duration_us: float = 250.0):
    """A multi-queue bed at scale-test size (hundreds of clients, many
    MNs), short measured window to keep the wall clock bounded."""
    result = observed_ycsb(
        seed, duration_us, n_clients,
        bed_kw=dict(n_memory_nodes=n_memory_nodes, nic_ports=nic_ports,
                    rpc_shards=rpc_shards, port_affinity="rss",
                    max_clients=n_clients + 8))
    return jsonl_lines(result.tracer)


class TestScaledBedDeterminism:
    """The scale-test beds inherit the determinism contract: a fixed
    seed on a 256-client / 8-MN multi-queue bed renders the JSONL trace
    its ``bed/scaled-*`` cell recorded in another process."""

    def test_256_client_8_mn_multiqueue_trace_is_reproducible(self):
        lines = scaled_ycsb_trace(seed=13)
        assert len(lines) > 500  # hundreds of clients really ran
        assert digest("\n".join(lines)) == \
            recorded()["bed/scaled-256c-8mn/13"]["trace"]

    def test_scaled_bed_seed_still_matters(self):
        lines = scaled_ycsb_trace(seed=13, n_clients=64, n_memory_nodes=4,
                                  duration_us=150.0)
        assert digest("\n".join(lines)) != \
            recorded()["bed/scaled-64c-4mn/14"]["trace"]


class TestFastReferenceDifferential:
    """The fast drain loop is an *optimisation*, not a semantic change:
    under ``kernel_mode("reference")`` every event pops through the slow,
    unpooled, hook-checking loop, and the rendered JSONL must still be
    byte-for-byte what the fast path produced.  These are the enforcement
    teeth behind the ISSUE's "bit-for-bit" claim — a reordered callback,
    a float shortcut, or a pooling bug shows up here as a trace diff.
    """

    def test_64c_2mn_bed_fast_vs_reference_byte_identical(self):
        from repro.sim.core import kernel_mode

        fast = scaled_ycsb_trace(seed=7, n_clients=64, n_memory_nodes=2,
                                 duration_us=150.0)
        with kernel_mode("reference"):
            slow = scaled_ycsb_trace(seed=7, n_clients=64, n_memory_nodes=2,
                                     duration_us=150.0)
        assert len(fast) > 200  # the microbench bed really ran
        assert fast == slow

    def test_256c_8mn_bed_fast_vs_reference_byte_identical(self):
        from repro.sim.core import kernel_mode

        fast = scaled_ycsb_trace(seed=11)
        with kernel_mode("reference"):
            slow = scaled_ycsb_trace(seed=11)
        assert len(fast) > 500
        assert fast == slow

    def test_profiled_64c_2mn_run_keeps_the_pooled_kernel(self):
        """Nothing in ``Environment.step`` serves a profiler, so a profiled
        run stays on the inlined, event-recycling drain loop — and still
        renders the JSONL (and the intervals) of the reference kernel."""
        from repro.sim.core import kernel_mode

        def profiled():
            result = observed_ycsb(
                7, 150.0, 64, profile=True,
                bed_kw=dict(n_memory_nodes=2, max_clients=72))
            return result.profiler, jsonl_lines(result.tracer)

        fast, fast_lines = profiled()
        with kernel_mode("reference"):
            slow, slow_lines = profiled()
        assert fast.env._fast and fast.env._hooked and fast.env._timeout_pool
        assert not slow.env._fast and not slow.env._timeout_pool
        assert len(fast_lines) > 200 and fast_lines == slow_lines
        assert len(fast.intervals) > 1000
        assert [(span and span.sid, *rest) for span, *rest in fast.intervals] \
            == [(span and span.sid, *rest) for span, *rest in slow.intervals]
        assert fast.env._eid == slow.env._eid

    def test_profiler_on_vs_off_trace_byte_identical(self):
        """Installing the profiler must only *observe*: span/fabric JSONL
        from a profiled run matches the unprofiled run byte-for-byte."""
        plain = jsonl_lines(traced_ycsb_run(seed=7))
        profiled, _ = traced_ycsb_run(seed=7, profile=True)
        assert plain == jsonl_lines(profiled)


def _inline_replicated_write(self, ref, v_old, v_new, prepared):
    """The pre-seam ``FuseeClient._replicated_write``, copied verbatim:
    inline if/else dispatch on ``replication_mode`` instead of the
    ``ReplicationProtocol`` strategy object."""
    from repro.core.client import RETRY_SLEEP_US, CrashPoint
    from repro.core.snapshot import sequential_write, snapshot_write

    on_win = None
    if prepared is not None and len(ref.placement) > 1:
        on_win = self._log_committer(prepared)
    if self.config.replication_mode == "sequential":
        result = yield from sequential_write(self.fabric, ref, v_old,
                                             v_new, on_win=on_win)
    else:
        result = yield from snapshot_write(
            self.fabric, ref, v_old, v_new, on_win=on_win,
            retry_sleep_us=RETRY_SLEEP_US,
            phase_guard=lambda: self._wait_if_blocked(ref.subtable))
    self._maybe_crash(CrashPoint.C3)
    self.stats.count_outcome(result.outcome)
    return result


class TestReplicationSeamDifferential:
    """The ``ReplicationProtocol`` seam is a *pure refactor* for the
    existing protocols: dispatching snapshot/sequential writes through
    the strategy object must render the exact JSONL trace the
    pre-refactor inline if/else produced — same verbs, same phases, same
    timings, byte for byte.  Hypothesis drives the seeds so the property
    holds across workloads, not just one lucky run."""

    @staticmethod
    def _with_inline_dispatch(fn):
        from repro.core.client import FuseeClient

        seam = FuseeClient._replicated_write
        FuseeClient._replicated_write = _inline_replicated_write
        try:
            return fn()
        finally:
            FuseeClient._replicated_write = seam

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_snapshot_seam_trace_matches_pre_refactor(self, seed):
        seam = jsonl_lines(traced_ycsb_run(seed=seed, duration_us=800.0))
        inline = self._with_inline_dispatch(
            lambda: jsonl_lines(traced_ycsb_run(seed=seed,
                                                duration_us=800.0)))
        assert len(seam) > 30
        assert seam == inline

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sequential_seam_trace_matches_pre_refactor(self, seed):
        def run():
            return jsonl_lines(traced_ycsb_run(seed=seed, duration_us=800.0,
                                               replication="sequential"))

        assert run() == self._with_inline_dispatch(run)

    def test_swarm_trace_is_deterministic(self):
        """The new strategy inherits the determinism contract."""
        first = jsonl_lines(traced_ycsb_run(seed=7, replication="swarm"))
        second = jsonl_lines(traced_ycsb_run(seed=7, replication="swarm"))
        assert len(first) > 50
        assert first == second

    def test_swarm_trace_differs_from_snapshot(self):
        """Sanity: the mode knob actually changes the verb stream (a
        silently ignored knob would pass every equivalence test)."""
        assert jsonl_lines(traced_ycsb_run(seed=7, replication="swarm")) \
            != jsonl_lines(traced_ycsb_run(seed=7))


class TestProfileDeterminism:
    """The profiler's outputs inherit the trace determinism contract."""

    def test_same_seed_gives_identical_profile_json(self):
        from repro.obs import RunProfile, analyze_critical_path

        def payload(seed):
            tracer, profiler = traced_ycsb_run(seed=seed, profile=True)
            bundle = {
                "profile": RunProfile.collect(
                    profiler, tracer.spans).to_dict(),
                "critical": analyze_critical_path(
                    profiler, tracer.spans).to_dict(),
            }
            return json.dumps(bundle, indent=2, sort_keys=True)

        first = payload(seed=7)
        assert first == payload(seed=7)
        assert json.loads(first)["profile"]["overall"]["count"] > 50

    def test_same_seed_gives_identical_folded_stacks(self):
        tracer1, prof1 = traced_ycsb_run(seed=7, profile=True)
        tracer2, prof2 = traced_ycsb_run(seed=7, profile=True)
        lines = folded_stacks(prof1, tracer1.spans)
        assert lines == folded_stacks(prof2, tracer2.spans)
        assert lines

    def test_folded_values_sum_to_span_durations(self):
        tracer, profiler = traced_ycsb_run(seed=7, profile=True)
        lines = folded_stacks(profiler, tracer.spans)
        total = sum(float(line.rpartition(" ")[2]) for line in lines)
        expected = sum(s.duration_us for s in tracer.spans
                       if s.end_us is not None)
        # each line carries 6 decimals -> bounded per-line rounding error
        assert abs(total - expected) <= 1e-5 * len(lines) + 1e-6


def monitored_ycsb_trace(seed: int, duration_us: float = 1500.0,
                         monitored: bool = True, slos=()):
    """Like :func:`traced_ycsb_run` but with the online monitor attached;
    returns ``(jsonl_lines, health)`` (health None when unmonitored)."""
    from repro.obs import MonitorConfig, SloSpec

    result = observed_ycsb(
        seed, duration_us,
        monitor_config=MonitorConfig(hotkey_capacity=8) if monitored
        else None,
        slos=[SloSpec.parse(s) for s in slos])
    return jsonl_lines(result.tracer), result.health


class TestMonitorDeterminism:
    """The telemetry plane inherits the determinism contract: window
    edges are pure functions of simulated time, sketches are exactly
    mergeable, and the monitor only observes — so health reports are
    byte-identical across same-seed runs, and a monitored clean run's
    *operation* records are byte-identical to the unmonitored run."""

    def test_same_seed_gives_identical_health_fingerprint(self):
        from repro.obs import health_fingerprint

        _lines1, health1 = monitored_ycsb_trace(seed=7)
        _lines2, health2 = monitored_ycsb_trace(seed=7)
        fp = health_fingerprint(health1)
        assert fp == health_fingerprint(health2)
        assert '"rows":' in fp       # window rows are part of the print

    def test_window_edges_are_seed_stable(self):
        _lines, health = monitored_ycsb_trace(seed=7)
        rows = health["windows"]["rows"]
        width = health["windows"]["width_us"]
        assert rows
        for row in rows:
            assert row["t0"] == row["pane"] * width
            assert row["t1"] == (row["pane"] + 1) * width

    def test_monitored_clean_run_trace_matches_unmonitored(self):
        """Alert spans ride negative sids; everything with sid >= 0 (ops
        and fabric events) must be byte-identical to the bare run."""
        import json as _json

        plain, _none = monitored_ycsb_trace(seed=7, monitored=False)
        monitored, health = monitored_ycsb_trace(
            seed=7, slos=("latency:all:p99:0.001",))
        assert health["slos"][0]["windows_tripped"] > 0  # alerts emitted

        def op_records(lines):
            keep = []
            for line in lines:
                sid = _json.loads(line).get("sid")
                if sid is None or sid >= 0:
                    keep.append(line)
            return keep

        assert op_records(monitored) != monitored  # filter removed alerts
        assert op_records(monitored) == plain


class TestChromeCounterTracks:
    def test_counter_events_are_valid_and_time_ordered(self):
        tracer, metrics = traced_ycsb_run(seed=7, metrics=True)
        doc = json.loads(json.dumps(chrome_trace(tracer, metrics=metrics)))
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters, "sample_fabric produced no counter events"
        by_series = {}
        for event in counters:
            assert event["cat"] == "counter"
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["args"]["value"], (int, float))
            by_series.setdefault(event["name"], []).append(event["ts"])
        for name, stamps in by_series.items():
            assert stamps == sorted(stamps), f"{name} not time-ordered"
        # per-MN CPU utilisation made it into the tracks (satellite b)
        assert "mn0.cpu.util" in by_series and "mn1.cpu.util" in by_series

    def test_span_events_have_monotone_nonnegative_extents(self):
        tracer = traced_ycsb_run(seed=7)
        doc = chrome_trace(tracer)
        for event in doc["traceEvents"]:
            if event.get("ph") != "X":
                continue
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
