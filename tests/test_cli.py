"""Tests for the ``python -m repro`` command-line interface."""

import pathlib

import pytest

from repro.__main__ import main
from repro.harness import ALL_EXPERIMENTS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "it works" in out
        assert "verbs used" in out


class TestRun:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--scale", "galactic"])

    def test_run_writes_output_file(self, tmp_path, capsys):
        assert main(["run", "fig03", "--scale", "tiny",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out
        written = pathlib.Path(tmp_path, "fig03.txt")
        assert written.exists()
        assert "snapshot_mops" in written.read_text()

    def test_run_table1_tiny(self, capsys):
        assert main(["run", "table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Recover connection & MR" in out
        assert "Total" in out


class TestProfile:
    def test_profile_writes_artifacts(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_profile.json"
        flame = tmp_path / "profile.folded"
        assert main(["profile", "--scale", "tiny", "--clients", "4",
                     "--out", str(out), "--flame", str(flame)]) == 0
        text = capsys.readouterr().out
        assert "overall:" in text and "makespan:" in text
        payload = json.loads(out.read_text())
        assert payload["system"] == "fusee"
        assert payload["profile"]["overall"]["count"] > 0
        assert payload["critical_path"]["makespan_us"] > 0
        lines = flame.read_text().splitlines()
        assert lines and all(len(l.split(";")) == 3 for l in lines)

    def test_profile_clover_bed(self, capsys):
        assert main(["profile", "--system", "clover", "--scale", "tiny",
                     "--clients", "4", "--out", ""]) == 0
        text = capsys.readouterr().out
        assert "clover" in text
        assert "metadata.cpu" in text

    @pytest.mark.parametrize("flags", [
        "--windows 250", "--slo errors:0.05", "--hotkeys 4",
        "--read-spread least_loaded", "--coalesce-width 4",
        "--nic-ports 2", "--rpc-shards 2", "--port-affinity rss",
        "--replication swarm"])
    @pytest.mark.parametrize("system", ["clover", "pdpm"])
    def test_fusee_only_flags_refused_on_baseline_beds(self, system, flags,
                                                       capsys):
        """Used to print a report for a bed that ignored the flag."""
        try:
            status = main(["profile", "--system", system, "--scale", "tiny",
                           "--out", "", *flags.split()])
        except SystemExit as exc:   # argparse's own parser.error
            status = exc.code
        assert status == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert len(captured.err.splitlines()) == 1
        assert "FUSEE bed" in captured.err

    def test_ycsb_profile_flag_prints_breakdown(self, capsys):
        assert main(["ycsb", "--keys", "100", "--clients", "2",
                     "--duration-us", "500", "--profile"]) == 0
        text = capsys.readouterr().out
        assert "overall:" in text
        assert "makespan:" in text

    def test_tail_pct_outside_0_100_rejected(self, tmp_path):
        """Used to write a profile whose ``tail.pct`` was 150."""
        out = tmp_path / "p.json"
        with pytest.raises(ValueError, match="outside"):
            main(["profile", "--scale", "tiny", "--clients", "2",
                  "--tail-pct", "150", "--out", str(out)])
        assert not out.exists()


class TestBadInputs:
    @pytest.mark.parametrize("flag", ["--scenario", "--mutation"])
    def test_unknown_check_name_exits_2_naming_the_choices(self, flag,
                                                           capsys):
        """Used to end in a bare KeyError."""
        from repro.check import MUTATIONS, SCENARIOS

        assert main(["check", flag, "nope"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "'nope'" in captured.err
        known = SCENARIOS if flag == "--scenario" else MUTATIONS
        assert all(name in captured.err for name in known)

    @pytest.mark.parametrize("flags", ["--hotkeys -1", "--windows 0",
                                       "--windows -250"])
    def test_bad_monitor_settings_rejected(self, flags):
        """``--hotkeys -1`` used to mean "off" without a word."""
        with pytest.raises(ValueError):
            main(["ycsb", "--keys", "100", "--clients", "2",
                  "--duration-us", "500", *flags.split()])


# --------------------------------------------------------------------------
# Every run-driving entry point, once: the CLI bodies share one recipe
# (harness.profiling.observed_run), and a flag that stops reaching it — or
# a result line that drifts between subcommands — must fail here rather
# than in a CI smoke job.
# --------------------------------------------------------------------------
_LOADED = r"^loaded \d+(/\d+)? keys .*seed \d+\)$"
_OPS = r"^\d+ ops in \d+ simulated us -> \d+\.\d{3} Mops \(\d+ errors"
_BREAKDOWN = [r"^overall: \d+ spans, ", r"^makespan: "]
_CLEAN = r"^monitor verdict: clean \(no detector flags\)$"
_YCSB = "ycsb --keys 300 --clients 3 --duration-us 3000 "
_MONITOR = "monitor --keys 300 --clients 4 --duration-us 3000 "
_PROFILE = "profile --scale tiny --out {tmp}/p.json "

ENTRY_POINTS = {
    "ycsb": (_YCSB, [_LOADED, _OPS + r"\)$"]),
    "ycsb-trace-jsonl-metrics": (
        _YCSB + "--trace {tmp}/t.json --jsonl {tmp}/t.jsonl --metrics",
        [_LOADED, _OPS, r"^chrome trace: ", r"^jsonl events: ",
         r"^== metrics ==$", r"^  mn0\.nic_tx\.util "]),
    "ycsb-profile": (_YCSB + "--profile", [_LOADED, _OPS, *_BREAKDOWN]),
    "ycsb-monitored": (
        _YCSB + "--windows 250 --slo errors:0.05 --hotkeys 4 "
                "--health-out {tmp}/h.json",
        [_LOADED, _OPS, r"^== health report ==$", r"^health json: "]),
    "ycsb-bed-flags": (
        _YCSB + "--replication swarm --read-spread least_loaded "
                "--coalesce-width 4 --nic-ports 2 --rpc-shards 2 "
                "--port-affinity rss --metrics",
        # per-port and per-shard series only exist on a multi-queue bed,
        # the skew series only under a non-primary read spread
        [_LOADED, _OPS, r"^  mn0\.nic_tx\.p1\.util ",
         r"^  mn0\.cpu\.s1\.queue_depth ", r"^  kv_read_skew "]),
    "ycsb-scenario": (
        "ycsb --scenario multi-tenant --smoke --seed 0 --metrics",
        [_LOADED, _OPS + r"; ~\d+ offered\)$",
         r"^\s+tenant\s+ops\s+share\s+err\s+p50_us\s+p99_us$",
         r"^\s+readmost\s+\d+\s+0\.\d\d\s+\d+ "]),
    "monitor": (_MONITOR, [_LOADED, _OPS, r"^== health report ==$", _CLEAN]),
    "monitor-scenario": ("monitor --scenario diurnal --smoke --seed 0",
                         [_LOADED, _OPS, _CLEAN]),
    "monitor-multiqueue": (_MONITOR + "--nic-ports 2 --rpc-shards 2",
                           [_LOADED, _OPS, _CLEAN]),
    "profile-fusee": (
        _PROFILE, [r"^profile: fusee YCSB-A \(\d+ ops, \d+\.\d{3} Mops\)$",
                   *_BREAKDOWN, r"^profile json: "]),
    "profile-clover": (
        _PROFILE + "--system clover --clients 4",
        [r"^profile: clover YCSB-A \(\d+ ops, ", *_BREAKDOWN,
         r"cpu_wait:metadata\.cpu"]),
    "profile-pdpm": (_PROFILE + "--system pdpm --clients 4",
                     [r"^profile: pdpm YCSB-A \(\d+ ops, ", *_BREAKDOWN]),
    "profile-scenario": (
        _PROFILE + "--scenario hot-key-storm --smoke --seed 3",
        [r"^profile: fusee YCSB-scenario:hot-key-storm \(\d+ ops, ",
         *_BREAKDOWN]),
    "faults-monitored": (
        "faults --campaign mixed --seed 0 --windows 250",
        [r"^campaign 'mixed' seed=0 retries=on$",
         r"^  batched frees: 0 replica FAA\(s\) timed out$",
         r"^  linearizable: yes$",
         r"^  verdict: (CLEAN|sound)$", r"^== health report ==$"]),
}


def _run_cli(command: str, tmp_path, capsys):
    status = main(command.replace("{tmp}", str(tmp_path)).split())
    return status, capsys.readouterr().out


class TestEntryPoints:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_runs_and_reports(self, name, tmp_path, capsys):
        import json
        import re

        command, patterns = ENTRY_POINTS[name]
        status, out = _run_cli(command, tmp_path, capsys)
        assert status == 0, out
        for pattern in patterns:
            assert re.search(pattern, out, re.MULTILINE), (pattern, out)
        # every artefact the command asked for parses and is non-trivial
        written = {path.name: path for path in tmp_path.iterdir()}
        assert set(written) == set(re.findall(r"\{tmp\}/(\S+)", command))
        if "t.json" in written:
            assert json.loads(written["t.json"].read_text())["traceEvents"]
        if "t.jsonl" in written:
            lines = written["t.jsonl"].read_text().splitlines()
            assert len(lines) > 50
            assert {json.loads(l)["type"] for l in lines} \
                == {"span", "fabric_event"}
        if "h.json" in written:
            health = json.loads(written["h.json"].read_text())
            assert health["run"]["panes_evaluated"] > 0
        if "p.json" in written:
            bundle = json.loads(written["p.json"].read_text())
            assert bundle["profile"]["overall"]["count"] > 0
            assert bundle["critical_path"]["makespan_us"] > 0
            assert bundle["series"]

    def test_same_seed_gives_identical_jsonl(self, tmp_path, capsys):
        command = _YCSB + "--seed 7 --jsonl {tmp}/"
        first, _ = _run_cli(command + "a.jsonl", tmp_path, capsys)
        second, _ = _run_cli(command + "b.jsonl", tmp_path, capsys)
        other, _ = _run_cli(command.replace("--seed 7", "--seed 8")
                            + "c.jsonl", tmp_path, capsys)
        assert (first, second, other) == (0, 0, 0)
        a, b, c = ((tmp_path / f"{n}.jsonl").read_bytes() for n in "abc")
        assert a == b and a != c
