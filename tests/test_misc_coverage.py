"""Targeted tests for remaining cold paths across modules."""

import pathlib
import re

import pytest

from repro.core import FuseeCluster
from repro.core.race import SlotRef
from repro.core.snapshot import snapshot_read
from repro.harness.experiments import ExperimentResult
from repro.harness.report import render
from repro.rdma import Fabric, FabricConfig, MemoryNode
from repro.sim import Environment
from tests.conftest import small_config, run


class TestSnapshotReadEdges:
    def test_r1_primary_crash_unresolvable(self):
        env = Environment()
        fabric = Fabric(env, FabricConfig())
        fabric.add_node(MemoryNode(env, 0, capacity=64))
        fabric.node(0).crash()
        ref = SlotRef(subtable=0, slot_index=0, placement=((0, 0),))

        def reader():
            return (yield from snapshot_read(fabric, ref))

        result = env.run(until=env.process(reader()))
        assert result.value is None
        assert result.rtts == 1

    def test_all_replicas_crashed(self):
        env = Environment()
        fabric = Fabric(env, FabricConfig())
        for mn in range(2):
            fabric.add_node(MemoryNode(env, mn, capacity=64))
            fabric.node(mn).crash()
        ref = SlotRef(subtable=0, slot_index=0,
                      placement=((0, 0), (1, 0)))

        def reader():
            return (yield from snapshot_read(fabric, ref))

        result = env.run(until=env.process(reader()))
        assert result.value is None


class TestMasterFailQuery:
    def test_resolves_value_without_failure(self):
        """fail_query on a healthy subtable just reads the primary."""
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        entry = client.cache.peek(b"k")
        ref = entry.slot_ref

        def proc():
            return (yield from cluster.master.fail_query(ref, 0))

        value = run(cluster, proc())
        assert value == entry.slot_word

    def test_resolves_after_primary_crash(self):
        cluster = FuseeCluster(small_config(n_memory_nodes=3,
                                            replication_factor=2))
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        entry = client.cache.peek(b"k")
        ref = entry.slot_ref
        cluster.fabric.node(ref.primary()[0]).crash()

        def proc():
            return (yield from cluster.master.fail_query(ref,
                                                         entry.slot_word))

        value = run(cluster, proc())
        assert value == entry.slot_word  # repaired replicas still hold it


class TestExperimentResultFormat:
    def test_none_cells_rendered(self):
        result = ExperimentResult("x", "t", ["a", "b"], [[1, None]])
        formatted = result.format()
        assert "None" in formatted

    def test_render_chart_via_dispatch(self):
        result = ExperimentResult("fig", "timeline",
                                  ["bucket", "t_us", "mops"],
                                  [[0, 0.0, 1.0], [1, 10.0, 2.0]])
        chart = render(result, "chart")
        assert "t=0us" in chart and "#" in chart

    def test_format_without_notes(self):
        result = ExperimentResult("x", "t", ["a"], [[1]])
        assert "note:" not in result.format()


class TestClusterRun:
    def test_run_until_none_drains_queue(self):
        cluster = FuseeCluster(small_config())
        # the master detector loops forever, so drain-until-empty is not
        # available; run to a time instead
        cluster.run(until=cluster.env.now + 50.0)
        assert cluster.env.now >= 50.0

    def test_run_op_returns_value(self):
        cluster = FuseeCluster(small_config())

        def proc():
            yield cluster.env.timeout(1.0)
            return "done"

        assert cluster.run_op(proc()) == "done"


class TestClientStatsAccounting:
    def test_ops_counted(self):
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        run(cluster, client.search(b"k"))
        run(cluster, client.update(b"k", b"w"))
        run(cluster, client.delete(b"k"))
        assert client.stats.ops == {"insert": 1, "search": 1,
                                    "update": 1, "delete": 1}

    def test_outcomes_counted(self):
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        assert sum(client.stats.outcomes.values()) >= 1

    def test_cache_stats_move(self):
        cluster = FuseeCluster(small_config())
        client = cluster.new_client()
        run(cluster, client.insert(b"k", b"v"))
        run(cluster, client.search(b"k"))
        assert client.cache.stats.hits >= 1


class TestFacadeEdge:
    def test_insert_empty_key_roundtrip(self):
        """Zero-length keys are legal wire-format-wise."""
        from repro.core import FuseeKV
        kv = FuseeKV(small_config())
        assert kv.insert(b"\x00", b"nul-key")
        assert kv.search(b"\x00") == b"nul-key"


class TestSettingsInventory:
    """Every settable value has a caller outside the tests.  A config
    field stays only while two callers outside ``tests/`` and
    ``examples/`` (the CLI, ``harness/``, ``check/``, ``faults/``,
    ``benchmarks/``) pass it different values; any other value is a
    constant where it is used."""

    SETTINGS = {
        "FabricConfig": ["one_way_delay_us", "post_overhead_us",
                         "max_coalesce_width", "port_affinity"],
        "ClientConfig": ["replication_mode", "cache_enabled",
                         "cache_threshold", "mn_centric_alloc",
                         "embedded_log", "read_spread"],
        "ClusterConfig": ["n_memory_nodes", "replication_factor",
                          "index_replication", "regions_per_mn",
                          "max_clients", "region", "race", "fabric", "nic",
                          "client", "nic_ports", "rpc_shards"],
        "MonitorConfig": ["window_us", "hotkey_capacity"],
        "RetryPolicy": ["max_attempts", "verb_timeout_us", "rpc_timeout_us",
                        "backoff_base_us", "backoff_cap_us"],
    }

    def test_config_fields_are_the_inventory(self):
        import dataclasses

        from repro.core import ClientConfig, ClusterConfig
        from repro.faults import RetryPolicy
        from repro.obs import MonitorConfig

        found = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                 for cls in (FabricConfig, ClientConfig, ClusterConfig,
                             MonitorConfig, RetryPolicy)}
        assert found == self.SETTINGS, (
            "the settings inventory changed: a new setting needs two "
            "callers outside tests/ and examples/ that pass it different "
            "values; with one value in use it is a constant")
        assert sum(map(len, found.values())) == 29

    def test_constants_take_no_setting(self):
        import inspect

        import repro.core.master as master_mod
        from repro.core import FuseeClient, Master
        from repro.obs import GrayDetector
        from repro.obs.metrics import Metrics, TimeSeries

        assert not hasattr(master_mod, "MasterConfig")
        assert "config" not in inspect.signature(Master).parameters
        assert not inspect.signature(TimeSeries).parameters
        assert not inspect.signature(Metrics).parameters
        assert not inspect.signature(GrayDetector).parameters
        assert list(inspect.signature(FuseeClient.start_background)
                    .parameters) == ["self", "interval_us"]


class TestCiRunsEachCheckOnce:
    """CI runs each check in one place.  Tier-1 tests run only in the
    ``tests`` job (the ``-m campaign`` step runs the ones it deselects),
    ``benchmarks/`` tests only in ``benchmarks-smoke`` (the
    ``benchmarks/perf`` self-test has its own job), and a gate is a named
    test, never inline Python.  ``ci.yml`` is read as text: CI installs no
    YAML parser."""

    SELF_TEST = "benchmarks/perf/test_perf.py"

    @staticmethod
    def _ci_text():
        root = pathlib.Path(__file__).resolve().parents[1]
        return (root / ".github" / "workflows" / "ci.yml").read_text()

    def _jobs(self):
        """Job id -> its text, continued shell lines joined."""
        body = self._ci_text().split("\njobs:\n", 1)[1]
        body = re.sub(r"\\\n\s*", " ", body)
        parts = re.split(r"^  ([\w-]+):\n", body, flags=re.MULTILINE)
        jobs = dict(zip(parts[1::2], parts[2::2]))
        assert {"tests", "benchmarks-smoke"} <= set(jobs), list(jobs)
        return jobs

    def _pytest_commands(self):
        """(job, command) for every pytest command."""
        return [(job, line.strip()) for job, text in self._jobs().items()
                for line in text.splitlines() if "-m pytest" in line]

    def test_no_inline_python(self):
        heredocs = re.findall(r"<<-?\s*['\"]?\w+", self._ci_text())
        assert not heredocs, "a gate belongs in a named test, not inline"

    def test_tier1_tests_run_only_in_the_tests_job(self):
        for job, command in self._pytest_commands():
            if job == "tests":
                continue
            assert not re.search(r"(?<![\w/.-])tests/", command), (
                f"{job} re-runs a tier-1 test: {command}")
            # no path at all collects testpaths, i.e. tier-1 again
            assert "benchmarks" in command or "-m campaign" in command, (
                f"{job} re-runs the tier-1 suite: {command}")

    def test_benchmarks_run_only_in_benchmarks_smoke(self):
        for job, text in self._jobs().items():
            if job == "benchmarks-smoke":
                continue
            files = set(re.findall(r"benchmarks/\S*test_\w+\.py", text))
            assert files <= {self.SELF_TEST}, (job, files)
        for job, command in self._pytest_commands():
            if job == "benchmarks-smoke":
                continue
            others = command.replace(self.SELF_TEST, "")
            assert "benchmarks" not in others, (
                f"{job} re-runs a benchmarks-smoke test: {command}")


class TestPythonFloor:
    """``requires-python`` names the oldest Python CI tests: the records'
    ``@dataclass(slots=True)`` needs 3.10.  Both files are read as text
    (``tomllib`` is 3.11+)."""

    @staticmethod
    def _version(text: str) -> tuple:
        return tuple(int(part) for part in text.split("."))

    def test_requires_python_is_the_lowest_ci_matrix_version(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        floor = re.search(r'^requires-python = ">=([\d.]+)"$',
                          (root / "pyproject.toml").read_text(),
                          flags=re.MULTILINE)
        assert floor, "pyproject.toml states no requires-python floor"
        matrix = re.search(r"^\s+python-version: \[([^\]]*)\]",
                           (root / ".github" / "workflows" / "ci.yml")
                           .read_text(), flags=re.MULTILINE)
        assert matrix, "ci.yml has no python-version matrix"
        tested = [self._version(v.strip(" \"'"))
                  for v in matrix.group(1).split(",")]
        assert self._version(floor.group(1)) == min(tested), (
            f"requires-python >={floor.group(1)}, but CI's oldest Python "
            f"is {'.'.join(map(str, min(tested)))}")
