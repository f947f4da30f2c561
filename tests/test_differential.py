"""The differential catalogue (``repro.check.differential``).

Tier-1 verifies a slice of every cell group against ``DIFFERENTIAL.json``
and pins the catalogue's teeth: each known-bad variant below moves at
least one slice cell.  ``-m campaign`` verifies every other cell, so each
cell runs once in CI.
"""

import json

import pytest

from repro.check import differential
from repro.check.differential import CATALOGUE, build, recorded

#: One or more cheap cells per group.
SLICE = ["bed/trace/7", "bed/A/default", "bed/D/default",
         "recovery/3mn_rf2_idx2/c3-update/no-mn",
         "campaign/gray/1", "campaign/monitored/mixed/0",
         "cli/demo --metrics --jsonl d.jsonl", "cli/check --list",
         "check/slot-write-race", "check/mutation/reorder-replica-writes"]


def moved(name):
    """The first field in which a fresh build differs from the record."""
    fresh, old = build(name), recorded()[name]
    return next((field for field in differential.FIELDS
                 if fresh.get(field) != old.get(field)), None)


class TestCatalogue:
    @pytest.mark.parametrize("name", SLICE)
    def test_slice_cell_is_recorded(self, name):
        assert moved(name) is None

    def test_file_records_exactly_the_catalogue(self):
        doc = json.loads(differential.PATH.read_text())
        assert sorted(doc["cells"]) == sorted(CATALOGUE)
        assert doc["header"]["cells"] == len(CATALOGUE)
        assert {"python", "PYTHONHASHSEED"} <= set(doc["header"])

    def test_every_group_has_a_slice_cell(self):
        groups = {name.split("/")[0] for name in CATALOGUE}
        assert groups == {"bed", "recovery", "campaign", "cli", "check"}
        assert groups == {name.split("/")[0] for name in SLICE}

    @pytest.mark.campaign
    def test_every_other_cell_is_recorded(self, capsys):
        rest = [name for name in CATALOGUE if name not in SLICE]
        assert differential.main("verify", rest) == 0, capsys.readouterr().out


class TestCommand:
    def test_verify_names_moved_unrecorded_and_stale_cells(self, tmp_path,
                                                           capsys):
        path = tmp_path / "d.json"
        cell = "check/slot-write-race"
        assert differential.main("record", [cell], path) == 0
        doc = json.loads(path.read_text())
        assert list(doc["cells"]) == [cell] and doc["header"]["cells"] == 1
        doc["cells"][cell]["verdict"] = "violation"
        doc["cells"]["check/gone"] = {"verdict": "clean"}
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert differential.main(
            "verify", ["check/slot-write-race*", "check/gone",
                       "check/slot-crash-read"], path) == 1
        out = capsys.readouterr().out
        assert f"moved       {cell}: verdict violation -> clean" in out
        assert "stale       check/gone" in out
        assert "unrecorded  check/slot-crash-read" in out
        assert "unrecorded  check/slot-write-race-lossy" in out

    def test_record_does_not_depend_on_the_callers_hash_seed(
            self, tmp_path, monkeypatch):
        """Re-recording a cell from a shell without ``PYTHONHASHSEED``
        keeps the header's ``"0"`` (its workers run under it) and every
        other line of the file."""
        path = tmp_path / "d.json"
        path.write_text(differential.PATH.read_text())
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        assert differential.main("record", ["check/slot-write-race"],
                                 path) == 0
        old, new = (p.read_text() for p in (differential.PATH, path))
        assert new.splitlines()[1:] == old.splitlines()[1:]
        old_header, new_header = (json.loads(doc)["header"]
                                  for doc in (old, new))
        assert new_header["PYTHONHASHSEED"] == "0"
        # the interpreter's version is the one field a caller may move
        assert {**new_header, "python": ""} == {**old_header, "python": ""}

    def test_a_pattern_matching_nothing_exits_2(self, capsys):
        assert differential.main("list", ["no/such/*"]) == 2
        assert "no cell matches" in capsys.readouterr().err

    def test_list_prints_names_and_seeds(self, capsys):
        from repro.__main__ import main

        assert main(["differential", "list", "campaign/gray/*"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"campaign/gray/{seed}  (seed {seed})" for seed in (1, 2, 3)]


# -------------------------------------------------------------- the teeth
def _batched_read_slot_kv(self, key, meta, word, phase=None):
    """``FuseeClient._read_slot_kv`` with ``post([x])`` in place of
    ``post_one(x)``: one kernel event fewer, the same bytes."""
    from repro.core import client as mod

    slot = mod.unpack_slot(word)
    if slot.fingerprint != meta.fingerprint:
        return mod.KV_OTHER_KEY, None
    kv_read = self._kv_read_op(slot.pointer, slot.block_bytes)
    if kv_read is None:
        return mod._KV_UNREAD, None
    if phase is not None and self.fabric.tracer is not None:
        self.fabric.tracer.phase(phase)
    comp, = yield self.fabric.post([kv_read])
    if comp.failed:
        self._note_kv_timeout(comp)
        return (mod._KV_TIMED_OUT if comp.value is mod.TIMEOUT
                else mod._KV_UNREAD), None
    return mod.match_kv(comp.value, key)


def _second_hash_first(self, scan, payloads):
    """``RaceHashing._free_slots`` with the equal-load tie-break reversed:
    the second combined bucket fills first."""
    per_cb = []
    for which, start, skip in scan:
        words = self._cb_struct.unpack(payloads[which])[skip:]
        free = [index for index, word in enumerate(words, start + skip)
                if not word]
        per_cb.append((len(words) - len(free), which, free))
    per_cb.sort(key=lambda cb: (cb[0], -cb[1]))
    return (tuple(index for _load, _which, free in per_cb for index in free),
            sum(load for load, _which, _free in per_cb))


class TestTeeth:
    def test_post_one_versus_post_moves_eid_not_trace(self, monkeypatch):
        from repro.core.client import FuseeClient

        monkeypatch.setattr(FuseeClient, "_read_slot_kv",
                            _batched_read_slot_kv)
        fresh, old = build("bed/trace/7"), recorded()["bed/trace/7"]
        assert fresh["eid"] != old["eid"]
        assert (fresh["trace"], fresh["memory"]) == (old["trace"],
                                                     old["memory"])

    def test_reversed_freed_offsets_move_recovery(self, monkeypatch):
        from repro.core.addressing import RegionLayout

        offsets = RegionLayout.freed_offsets
        monkeypatch.setattr(RegionLayout, "freed_offsets",
                            lambda self, bitmap, first_byte:
                            offsets(self, bitmap, first_byte)[::-1])
        assert moved("recovery/3mn_rf2_idx2/c3-update/no-mn") is not None

    def test_reversed_empties_tie_break_moves_insert_cells_only(
            self, monkeypatch):
        from repro.core.race import RaceHashing

        monkeypatch.setattr(RaceHashing, "_free_slots", _second_hash_first)
        assert moved("bed/D/default") is not None     # YCSB-D inserts
        assert moved("bed/A/default") is None         # YCSB-A never does

    def test_five_slow_panes_move_the_monitored_cells(self, monkeypatch):
        from repro.obs import monitor, slo

        monkeypatch.setattr(monitor, "SLOW_PANES", 5)
        monkeypatch.setattr(slo, "SLOW_PANES", 5)
        assert moved("campaign/monitored/mixed/0") == "out"
        assert moved("campaign/gray/1") is None
