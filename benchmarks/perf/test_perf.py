"""Self-test of the benchmark.  Not tier-1 (``testpaths`` is ``tests``);
run it explicitly, about a minute::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q

It executes every workload with ``--smoke`` (~1/20 size, 2 repetitions
plus the two traced ones) and checks the properties every later
performance claim leans on.
"""

import io
import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf import MANIFEST, OUT_DIR, ROOT, compare, driver

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
END_TO_END = ("sim_mops", "sim_p50_us", "sim_p99_us", "host_kops_per_s",
              "setup_s", "peak_rss_mb")


def _bench(*argv):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *argv], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


@pytest.fixture(scope="module")
def manifest():
    with open(MANIFEST) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    """One traced smoke run of all four workloads."""
    out = OUT_DIR / "selftest.json"
    proc = _bench("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out) as fh:
        result = json.load(fh)
    with open(OUT_DIR / "spans.json") as fh:
        spans = json.load(fh)
    return result, spans, proc.stdout


class TestManifest:
    def test_contract_shape(self, manifest):
        assert set(manifest) == {"command", "paths", "run_seconds",
                                 "workloads", "end_to_end", "per_layer"}
        assert manifest["paths"] == ["benchmarks/perf"]
        assert 1 <= manifest["run_seconds"] <= 60
        assert [w["name"] for w in manifest["workloads"]] == list(
            driver.WORKLOADS)
        assert [m["name"] for m in manifest["end_to_end"]] == list(
            END_TO_END)
        assert 1 <= len(manifest["per_layer"]) <= 128
        assert MANIFEST.stat().st_size <= 64 * 1024

    def test_names_units_bounds(self, manifest):
        names = [w["name"] for w in manifest["workloads"]]
        for workload in manifest["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200
            assert "\n" not in workload["why"]
        for metric in manifest["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in manifest["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
        for name in names:
            assert NAME.match(name), name
        assert len(set(names)) == len(names)
        setup = next(m for m in manifest["end_to_end"]
                     if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"]
                                     for m in manifest["end_to_end"])


class TestSmokeRun:
    def test_every_metric_for_every_workload(self, smoke, manifest):
        result, _spans, stdout = smoke
        assert set(result["workloads"]) == set(driver.WORKLOADS)
        for name, workload in result["workloads"].items():
            assert NAME.match(name)
            assert set(workload["end_to_end"]) == set(END_TO_END)
            assert set(workload["per_layer"]) == {
                m["name"] for m in manifest["per_layer"]}
            for metric in manifest["end_to_end"] + manifest["per_layer"]:
                # printed by name with its unit
                assert re.search(
                    rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                    rf"{re.escape(metric['unit'])}\b", stdout, re.M), metric
            for key in END_TO_END:
                assert workload["end_to_end"][key]["value"] > 0, (name, key)

    def test_correct_and_deterministic(self, smoke):
        """The driver compares simulated metrics, counts and fingerprints
        of all repetitions, traced ones included, and reports any
        difference as a failure."""
        result, _spans, _stdout = smoke
        for name, workload in result["workloads"].items():
            assert workload["correct"], (name, workload["messages"])
            assert workload["failed"] == 0
            assert workload["messages"] == []
            assert workload["attempted"] >= 1

    def test_shares_sum_to_one(self, smoke):
        result, _spans, _stdout = smoke
        for name, workload in result["workloads"].items():
            layer = workload["per_layer"]
            for prefix in ("hostshare.", "simshare."):
                total = sum(row["value"] for key, row in layer.items()
                            if key.startswith(prefix))
                assert total == pytest.approx(1.0, abs=0.01), (name, prefix)

    def test_layer_separation(self, smoke):
        layer = {name: {k: v["value"] for k, v in w["per_layer"].items()}
                 for name, w in smoke[0]["workloads"].items()}
        hot, sat = layer["ycsb_c_hot"], layer["ycsb_a_sat"]
        assert hot["fabric.writes_per_op"] + hot["fabric.atomics_per_op"] \
            <= 0.01
        assert sat["fabric.writes_per_op"] + sat["fabric.atomics_per_op"] \
            >= 1.0
        assert sat["cache.hit_ratio"] <= 0.5
        faulty = layer["scenario_faulty_obs"]
        assert faulty["hostshare.obs"] + faulty["hostshare.faults"] >= 0.10
        assert sat["hostshare.obs"] + sat["hostshare.faults"] <= 0.01
        assert faulty["fabric.transport_retries"] > 0
        for name in ("ycsb_a_sat", "ycsb_c_hot", "crud_1c_default_bed"):
            for key in ("fabric.failed_verbs", "fabric.transport_retries",
                        "fabric.dropped_msgs", "fabric.dedup_hits",
                        "fabric.rpc_retries", "fabric.verb_timeouts"):
                assert layer[name][key] == 0, (name, key)
        crud = layer["crud_1c_default_bed"]
        assert (crud["rtts.search"], crud["rtts.update"],
                crud["rtts.insert"], crud["rtts.delete"]) == (1, 2, 3, 2)

    def test_spans_cover_each_repetition(self, smoke):
        _result, spans, _stdout = smoke
        for name, rows in spans.items():
            reps = [s for s in rows if s["name"].startswith("rep:")]
            assert len(reps) == driver.SMOKE_REPS + 2, name
            for rep in reps:
                children = [s for s in rows if s["parent"] == rep["name"]]
                assert {"name", "start", "end", "parent", "rep"} <= set(
                    children[0])
                covered = sum(s["end"] - s["start"] for s in children)
                wall = rep["end"] - rep["start"]
                assert covered >= 0.95 * wall, (name, rep["name"])

    def test_compare_with_itself_is_clean(self, smoke, manifest):
        result, _spans, _stdout = smoke
        out = io.StringIO()
        assert compare.compare(result, result, manifest, out=out) == 0
        assert " worse" not in out.getvalue().replace("0 worse", "")


class TestContract:
    @pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                               (1, "per_layer")])
    def test_last_line(self, manifest, trace, section):
        proc = _bench("--workload", "ycsb_c_hot", "--seed", "5", "--smoke",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"]
                                        for m in manifest[section]}
        units = {m["name"]: m["unit"] for m in manifest[section]}
        for name, row in line["metrics"].items():
            assert set(row) == {"value", "unit"}
            assert row["unit"] == units[name]

    def test_seed_changes_the_fingerprint(self):
        prints = set()
        for seed in (13, 14):
            record = driver.spawn_rep("ycsb_c_hot", seed,
                                      driver.SMOKE_FACTOR, "plain", 0)
            prints.add(record["fingerprint"])
        assert len(prints) == 2

    def test_host_call_counts_repeat_exactly(self):
        counts = [driver.spawn_rep("ycsb_c_hot", 13, driver.SMOKE_FACTOR,
                                   "host", rep)["host_profile"]["hostcalls"]
                  for rep in (0, 1)]
        # 'other' and 'builtins' hold the import machinery, whose calls
        # depend on whether .pyc files were fresh
        for layer in counts[0]:
            if layer not in ("other", "builtins"):
                assert counts[0][layer] == counts[1][layer], layer

    def test_refuses_to_run_without_the_program(self, tmp_path):
        """In a directory with only BENCHMARK.json and the benchmark's
        own files there is nothing to measure: non-zero, no result."""
        target = tmp_path / "benchmarks" / "perf"
        target.mkdir(parents=True)
        for path in (ROOT / "benchmarks" / "perf").glob("*.py"):
            (target / path.name).write_bytes(path.read_bytes())
        (tmp_path / "BENCHMARK.json").write_bytes(MANIFEST.read_bytes())
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.perf", "--workload",
             "ycsb_c_hot", "--seed", "1", "--seconds", "8", "--trace", "0"],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


class TestVerdicts:
    BOUND = 0.10

    @staticmethod
    def row(value, q1=None, q3=None):
        row = {"value": value}
        if q1 is not None:
            row.update(q1=q1, q3=q3)
        return row

    def test_direction_and_bound(self):
        v = compare.verdict
        assert v(self.row(100), self.row(120), "higher", 0.1) == "improved"
        assert v(self.row(100), self.row(80), "higher", 0.1) == "worse"
        assert v(self.row(100), self.row(95), "higher", 0.1) == "unchanged"
        assert v(self.row(100), self.row(120), "lower", 0.1) == "worse"
        assert v(self.row(100), self.row(80), "lower", 0.1) == "improved"

    def test_wide_spread_is_unresolved_not_unchanged(self):
        noisy = self.row(100, q1=90, q3=110)
        assert compare.verdict(noisy, self.row(101, 100, 102), "higher",
                               0.1) == "unresolved"

    def test_identity_notices_a_changed_count(self):
        record = {"fingerprint": "f", "attempted": 1, "failed": 0,
                  "sim": {"sim_mops": 1.0}, "counts": {"sim.events": 10}}
        other = json.loads(json.dumps(record))
        assert driver._identity(record) == driver._identity(other)
        other["counts"]["sim.events"] = 11
        assert driver._identity(record) != driver._identity(other)
        assert "sim.events" in driver._first_difference(record, other)
