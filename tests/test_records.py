"""The record contract: FUSEE's per-op structures (the four verbs and
their completion, the RACE handles, the wire formats, the allocator's and
the cache's handles, an op's result) are ``@dataclass(slots=True)``
values.  Each record's ``repr`` is pinned, since traces print records
and the differential catalogue digests them through ``str``."""

import dataclasses

import pytest

from repro.core.cache import CacheEntry
from repro.core.client import OpResult
from repro.core.memory import AllocResult
from repro.core.race import KeyMeta, SlotRef, SlotSnapshot
from repro.core.snapshot import Outcome
from repro.core.wire import KvHeader, LogEntry, Slot
from repro.rdma.verbs import (FAIL, TIMEOUT, CasOp, Completion, FaaOp,
                              ReadOp, WriteOp)

_REF = SlotRef(1, 2, ((0, 64), (1, 128)))
_REF_REPR = "SlotRef(subtable=1, slot_index=2, placement=((0, 64), (1, 128)))"

#: (class, args of a sample, args of an unequal value, the sample's repr)
_RECORDS = [
    (ReadOp, (0, 8, 3), (0, 8, 4), "ReadOp(mn_id=0, addr=8, length=3)"),
    (WriteOp, (1, 16, b"ab\x00"), (1, 16, b"ab"),
     "WriteOp(mn_id=1, addr=16, data=b'ab\\x00')"),
    (CasOp, (0, 8, 1, 2), (0, 8, 2, 1),
     "CasOp(mn_id=0, addr=8, expected=1, swap=2)"),
    (FaaOp, (0, 8, 3), (1, 8, 3), "FaaOp(mn_id=0, addr=8, delta=3)"),
    (Completion, (ReadOp(0, 8, 3), b"xyz"), (ReadOp(0, 8, 3), FAIL),
     "Completion(op=ReadOp(mn_id=0, addr=8, length=3), value=b'xyz')"),
    (KeyMeta, (1, 2, 3, 4), (1, 2, 3, 5),
     "KeyMeta(subtable=1, group1=2, group2=3, fingerprint=4)"),
    (SlotRef, (1, 2, ((0, 64), (1, 128))), (1, 3, ((0, 64), (1, 128))),
     _REF_REPR),
    (SlotSnapshot, (_REF, 77), (_REF, 78),
     f"SlotSnapshot(ref={_REF_REPR}, word=77)"),
    (Slot, (1, 2, 3), (1, 2, 4),
     "Slot(fingerprint=1, length_units=2, pointer=3)"),
    (KvHeader, (True, 3, 4, 5), (False, 3, 4, 5),
     "KvHeader(invalid=True, key_len=3, value_len=4, crc32=5)"),
    (LogEntry, (1, 2, 3, 4, 5, True), (1, 2, 3, 4, 5, False),
     "LogEntry(next_ptr=1, prev_ptr=2, old_value=3, old_value_crc=4, "
     "opcode=5, used=True)"),
    (AllocResult, (1, 2, 3, 4, 5), (1, 2, 3, 5, 4),
     "AllocResult(gaddr=1, class_idx=2, size=3, next_ptr=4, prev_ptr=5)"),
    (CacheEntry, (_REF, 9, 3, 1), (_REF, 9, 3, 2),
     f"CacheEntry(slot_ref={_REF_REPR}, slot_word=9, access_count=3, "
     "invalid_count=1)"),
    (OpResult, (True, b"v", False, Outcome.WIN_RULE1, None),
     (True, b"v", True, Outcome.WIN_RULE1, None),
     "OpResult(ok=True, value=b'v', existed=False, "
     "outcome=<Outcome.WIN_RULE1: 'rule1'>, error=None)"),
]
#: Mutable-by-design records compare by value but cannot be hashed.
_UNHASHABLE = (Completion, CacheEntry)


def _cases():
    return [pytest.param(*case, id=case[0].__name__) for case in _RECORDS]


class TestRecordContract:
    @pytest.mark.parametrize("cls, args, other, want", _cases())
    def test_a_record_is_a_slots_value(self, cls, args, other, want):
        one, same, different = cls(*args), cls(*args), cls(*other)
        assert repr(one) == str(one) == want
        assert one == same and not one != same
        assert one != different and not one == different
        assert one != args      # a record is not its field tuple
        # a record of another class with the same value fields and values
        value = [f.name for f in dataclasses.fields(cls) if f.compare]
        twin = dataclasses.make_dataclass(cls.__name__, value,
                                          unsafe_hash=True)(
            *(getattr(one, name) for name in value))
        assert repr(twin) == want and one != twin and twin != one
        if cls in _UNHASHABLE:
            with pytest.raises(TypeError):
                hash(one)
        else:
            assert hash(one) == hash(same)
            assert len({one, same}) == 1 and len({one, different}) == 2
        assert not hasattr(one, "__dict__")
        with pytest.raises(AttributeError):
            one.nope = 1

    @pytest.mark.parametrize("cls, args, other, want", _cases())
    def test_construction_errors(self, cls, args, other, want):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*args, nope=1)
        with pytest.raises(TypeError):   # a derived field is no argument
            cls(*args, None)

    def test_records_of_two_verb_classes_never_compare_equal(self):
        assert ReadOp(0, 8, 3) != FaaOp(0, 8, 3)
        assert FaaOp(0, 8, 3) != ReadOp(0, 8, 3)
        assert len({ReadOp(0, 8, 3), FaaOp(0, 8, 3)}) == 2

    def test_fields_outside_the_value(self):
        """``SlotRef.primary_read``, ``CacheEntry.bypassed`` and
        ``Completion.failed`` are state, not value: not compared, hashed
        or printed."""
        read = SlotRef(*_RECORDS[6][1])
        assert read.primary_read is None
        read.primary_read = ReadOp(0, 80, 8)
        assert read == _REF and hash(read) == hash(_REF)
        assert repr(read) == _REF_REPR
        entry, fresh = CacheEntry(_REF, 9), CacheEntry(_REF, 9)
        assert not entry.bypassed
        entry.bypassed = True
        assert entry == fresh and repr(entry) == repr(fresh)
        done = Completion(ReadOp(0, 8, 3), b"xyz")
        assert not done.failed
        assert Completion(ReadOp(0, 8, 3), FAIL).failed
        assert Completion(ReadOp(0, 8, 3), TIMEOUT).failed
        done.failed = True
        assert done == Completion(ReadOp(0, 8, 3), b"xyz")
        assert "failed" not in repr(done)

    def test_every_op_result_construction_form(self):
        """Positional and keyword forms give the value their fields say,
        and two results are equal exactly when their fields are."""
        forms = [
            ((True,), {}), ((False,), {}), ((), {"ok": False}),
            ((True, b"v"), {}), ((True,), {"value": b""}),
            ((False, None, True), {}), ((False,), {"existed": True}),
            ((True, None, False, Outcome.WIN_RULE1), {}),
            ((True,), {"outcome": Outcome.LOSE}),
            ((False, None, False, None, "index unavailable"), {}),
            ((False,), {"error": "no alive replica"}),
            ((), {"ok": True, "value": b"v", "existed": False,
                  "outcome": Outcome.WIN_RULE1, "error": None}),
        ]
        want = [
            (True, None, False, None, None), (False, None, False, None, None),
            (False, None, False, None, None), (True, b"v", False, None, None),
            (True, b"", False, None, None), (False, None, True, None, None),
            (False, None, True, None, None),
            (True, None, False, Outcome.WIN_RULE1, None),
            (True, None, False, Outcome.LOSE, None),
            (False, None, False, None, "index unavailable"),
            (False, None, False, None, "no alive replica"),
            (True, b"v", False, Outcome.WIN_RULE1, None),
        ]
        results = [OpResult(*args, **kw) for args, kw in forms]
        for result, fields in zip(results, want):
            assert dataclasses.astuple(result) == fields
            assert repr(result) == ("OpResult(ok=%r, value=%r, existed=%r, "
                                    "outcome=%r, error=%r)" % fields)
        for i, mine in enumerate(results):
            for j, other in enumerate(results):
                assert (mine == other) == (want[i] == want[j])
                assert (mine != other) == (want[i] != want[j])
