"""Unit tests for the observability layer (``repro.obs``).

Covers the tracer's span/batch bookkeeping, the metrics registry and its
log-bucketed histograms, the fabric sampler, the three exporters, and
the CLI/report integration points.
"""

import json

import pytest

from repro import ClusterConfig, FuseeCluster, Tracer
from repro.__main__ import main
from repro.core.client import ClientCrashed, CrashPoint
from repro.harness.report import obs_report
from repro.obs import (
    NULL_TRACER,
    Histogram,
    Metrics,
    NullTracer,
    chrome_trace,
    jsonl_lines,
    metrics_table,
    sample_fabric,
    summary_table,
    verb_kind,
    write_chrome_trace,
    write_jsonl,
)
from repro.rdma.verbs import CasOp, FaaOp, ReadOp, WriteOp
from tests.conftest import small_config, run


@pytest.fixture
def traced():
    tracer = Tracer()
    cluster = FuseeCluster(small_config(), tracer=tracer)
    return cluster, cluster.new_client(), tracer


class TestTracerSpans:
    def test_every_client_op_gets_a_span(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.insert(b"k", b"v"))
        run(cluster, client.search(b"k"))
        run(cluster, client.update(b"k", b"v2"))
        run(cluster, client.delete(b"k"))
        assert [s.op for s in tracer.spans] == ["insert", "search",
                                                "update", "delete"]
        assert all(s.ok for s in tracer.spans)
        assert all(s.end_us is not None for s in tracer.spans)
        assert all(s.cid == client.cid for s in tracer.spans)

    def test_span_times_are_simulated(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.insert(b"k", b"v"))
        span = tracer.spans[0]
        assert span.start_us == 0.0
        assert span.end_us == pytest.approx(cluster.env.now)
        assert span.duration_us > 0

    def test_failed_op_recorded_with_ok_false(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.update(b"missing", b"v"))
        span = tracer.last_span("update")
        assert span.ok is False

    def test_crash_ends_span_with_error(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.insert(b"k", b"v"))
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"v2"))
        span = tracer.last_span("update")
        assert span.ok is False
        assert span.error == "ClientCrashed"
        assert span.end_us is not None

    def test_batches_record_verb_kind_mn_and_bytes(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.insert(b"k", b"v" * 100))
        span = tracer.spans[0]
        verbs = [v for b in span.batches if b["kind"] == "batch"
                 for v in b["verbs"]]
        assert all(v["kind"] in ("read", "write", "cas", "faa")
                   for v in verbs)
        assert all(v["mn"] in cluster.fabric.nodes for v in verbs)
        assert any(v["bytes"] > 100 for v in verbs
                   if v["kind"] == "write")
        counts = span.verb_counts()
        assert counts.get("write", 0) >= 1 and counts.get("cas", 0) >= 1

    def test_concurrent_ops_attribute_batches_to_own_span(self, traced):
        cluster, client, tracer = traced
        other = cluster.new_client()
        run(cluster, client.insert(b"a", b"1"))
        run(cluster, other.insert(b"b", b"2"))
        env = cluster.env
        env.process(client.search(b"a"), name="c1")
        env.process(other.search(b"b"), name="c2")
        env.run(until=env.now + 50.0)
        by_cid = {s.cid for s in tracer.spans_of("search")}
        assert by_cid == {client.cid, other.cid}
        for span in tracer.spans_of("search"):
            assert span.rtts >= 1

    def test_rpcs_counted_on_span(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.insert(b"k", b"v"))  # ALLOC rpc on first insert
        span = tracer.spans[0]
        assert span.rpcs >= 1
        rpc = next(b for b in span.batches if b["kind"] == "rpc")
        assert rpc["name"] == "alloc_block"
        assert rpc["t1"] is not None and rpc["t1"] > rpc["t0"]

    def test_recovery_paths_are_spanned(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.insert(b"k", b"v"))
        client.arm_crash(CrashPoint.C1)
        with pytest.raises(ClientCrashed):
            run(cluster, client.update(b"k", b"v2"))

        def proc():
            return (yield from cluster.master.recover_client(client.cid))

        run(cluster, proc())
        span = tracer.last_span("recover.client")
        assert span is not None and span.ok
        # The read-heads phase lives on the nested metadata-scan span.
        scan = tracer.last_span("recover.metadata_scan")
        assert scan is not None and scan.ok
        assert "recover.read_heads" in scan.phases()
        assert scan.rtts > 0

    def test_clear_drops_recorded_data(self, traced):
        cluster, client, tracer = traced
        run(cluster, client.insert(b"k", b"v"))
        tracer.clear()
        assert tracer.spans == [] and tracer.orphan_batches == []


class TestNullTracer:
    def test_shared_instance_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)

    def test_fabric_defaults_to_null_tracer(self):
        cluster = FuseeCluster(small_config())
        assert cluster.fabric.tracer is NULL_TRACER

    def test_untraced_run_records_nothing(self):
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        assert NULL_TRACER.spans == []
        # the singleton's env must never be captured by a cluster
        assert NULL_TRACER.env is None

    def test_attach_tracer_mid_run(self):
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        tracer = Tracer()
        cluster.attach_tracer(tracer)
        assert tracer.env is cluster.env
        run(cluster, client.search(b"k"))
        assert [s.op for s in tracer.spans] == ["search"]


class TestVerbKind:
    def test_kinds(self):
        assert verb_kind(ReadOp(0, 0, 8)) == "read"
        assert verb_kind(WriteOp(0, 0, b"x")) == "write"
        assert verb_kind(CasOp(0, 0, expected=0, swap=1)) == "cas"
        assert verb_kind(FaaOp(0, 0, delta=1)) == "faa"


class TestHistogram:
    def test_percentiles_bound_samples(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.mean == pytest.approx(50.5)
        assert 50 <= hist.percentile(50) <= 60   # bucket upper bound
        assert 99 <= hist.percentile(99) <= 100
        assert hist.percentile(99.9) <= hist.max_seen

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.percentile(50) == 0.0
        assert hist.summary()["count"] == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Histogram(base=0)
        with pytest.raises(ValueError):
            Histogram(growth=1.0)


class TestMetricsRegistry:
    def test_create_on_access_and_snapshot(self):
        metrics = Metrics()
        metrics.counter("ops.search").inc(3)
        metrics.gauge("clients").set(4.0)
        metrics.histogram("latency").observe(2.5)
        metrics.timeseries("util").record(1.0, 0.5)
        snap = metrics.snapshot()
        assert snap["counters"] == {"ops.search": 3}
        assert snap["gauges"] == {"clients": 4.0}
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["series"]["util"]["samples"] == 1
        assert metrics.names() == ["clients", "latency", "ops.search",
                                   "util"]

    def test_same_name_returns_same_instrument(self):
        metrics = Metrics()
        assert metrics.counter("c") is metrics.counter("c")
        assert metrics.histogram("h") is metrics.histogram("h")


class TestSampleFabric:
    def test_sampler_records_nic_and_cpu_series(self):
        tracer = Tracer()
        cluster = FuseeCluster(small_config(), tracer=tracer)
        client = cluster.new_client()
        metrics = Metrics()
        sample_fabric(cluster.env, metrics, cluster.fabric, interval_us=2.0,
                      until_us=100.0)
        run(cluster, client.insert(b"k", b"v" * 200))
        cluster.run(until=100.0)
        names = metrics.names()
        for mn_id in cluster.fabric.nodes:
            assert f"mn{mn_id}.nic_rx.util" in names
            assert f"mn{mn_id}.nic.backlog_us" in names
            assert f"mn{mn_id}.cpu.queue_depth" in names
        busiest = max(
            metrics.timeseries(f"mn{mn}.nic_rx.util").peak()
            for mn in cluster.fabric.nodes)
        assert 0.0 < busiest <= 1.0

    @pytest.mark.parametrize("interval_us", [0.0, -25.0, float("nan")])
    def test_non_positive_interval_rejected_up_front(self, interval_us):
        """``interval_us=0`` used to die with ZeroDivisionError inside
        the sampler process, mid-run."""
        cluster = FuseeCluster(small_config())
        events_before = cluster.env._eid
        with pytest.raises(ValueError, match="interval_us"):
            sample_fabric(cluster.env, Metrics(), cluster.fabric,
                          interval_us=interval_us)
        assert cluster.env._eid == events_before   # no sampler spawned


class TestExporters:
    def _tracer_with_ops(self):
        tracer = Tracer()
        cluster = FuseeCluster(small_config(), tracer=tracer)
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        run(cluster, client.search(b"k"))
        return tracer

    def test_chrome_trace_shape(self):
        trace = chrome_trace(self._tracer_with_ops())
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "M"}
        kvops = [e for e in events if e.get("cat") == "kvop"]
        assert [e["name"] for e in kvops] == ["insert", "search"]
        verbs = [e for e in events if e.get("cat") == "verb"]
        assert verbs and all(e["pid"] == 2 for e in verbs)
        assert all(e["dur"] >= 0 for e in kvops + verbs)
        names = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in names)

    def test_chrome_trace_file_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._tracer_with_ops(), path)
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["traceEvents"]

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self._tracer_with_ops()
        path = tmp_path / "events.jsonl"
        write_jsonl(tracer, path)
        lines = path.read_text().splitlines()
        assert lines == jsonl_lines(tracer)
        spans = [json.loads(line) for line in lines]
        assert [s["op"] for s in spans if s["type"] == "span"] == \
            ["insert", "search"]

    def test_summary_table_lists_ops(self):
        table = summary_table(self._tracer_with_ops())
        assert "insert" in table and "search" in table
        assert "mean_rtts" in table

    def test_empty_tables(self):
        assert "no spans" in summary_table(Tracer())
        assert "no metrics" in metrics_table(Metrics())

    def test_metrics_table_renders_all_sections(self):
        metrics = Metrics()
        metrics.counter("c").inc()
        metrics.gauge("g").set(1.0)
        metrics.histogram("h").observe(1.0)
        metrics.timeseries("s").record(0.0, 1.0)
        table = metrics_table(metrics)
        for section in ("counters:", "gauges:", "histograms", "series:"):
            assert section in table

    def test_obs_report_combines_sections(self):
        tracer = self._tracer_with_ops()
        metrics = Metrics()
        metrics.counter("ops.search").inc()
        report = obs_report(tracer, metrics)
        assert "per-operation spans" in report
        assert "metrics" in report
        assert obs_report(None, None) == "(no observability data)"


class TestCliFlags:
    def test_demo_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "demo.json"
        jsonl = tmp_path / "demo.jsonl"
        assert main(["demo", "--trace", str(trace), "--jsonl", str(jsonl),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "per-operation spans" in out
        assert "nic_rx.util" in out
        data = json.loads(trace.read_text())
        assert data["traceEvents"]
        assert jsonl.read_text().strip()

    def test_ycsb_command_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "ycsb.json"
        assert main(["ycsb", "--keys", "200", "--clients", "2",
                     "--duration-us", "1000", "--trace", str(trace),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Mops" in out
        assert "latency_us.search" in out
        assert json.loads(trace.read_text())["traceEvents"]
