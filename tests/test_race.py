"""Tests for RACE hashing geometry, parsing, and placement."""

import gc
import struct
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FuseeCluster
from repro.core.race import (
    BUCKETS_PER_GROUP,
    KeyMeta,
    RaceConfig,
    RaceHashing,
    SlotSnapshot,
    hash_key,
)
from repro.core.wire import SLOT_SIZE, pack_slot
from repro.harness.loader import fusee_load
from repro.harness.systems import fusee_bed
from tests.conftest import run, small_config


def make_race(n_subtables=4, n_groups=16, spb=7, replicas=2):
    config = RaceConfig(n_subtables=n_subtables, n_groups=n_groups,
                        slots_per_bucket=spb)
    placements = {
        st_: [(mn, mn * 1000 + st_ * config.subtable_bytes)
              for mn in range(replicas)]
        for st_ in range(n_subtables)}
    return RaceHashing(config, placements)


class TestConfig:
    def test_geometry_arithmetic(self):
        cfg = RaceConfig(n_subtables=2, n_groups=8, slots_per_bucket=7)
        assert cfg.bucket_bytes == 56
        assert cfg.slots_per_subtable == 8 * 3 * 7
        assert cfg.subtable_bytes == cfg.slots_per_subtable * 8
        assert cfg.slots_per_key == 28

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            RaceConfig(n_groups=1)

    def test_placement_must_cover_subtables(self):
        cfg = RaceConfig(n_subtables=4)
        with pytest.raises(ValueError):
            RaceHashing(cfg, {0: [(0, 0)]})


class TestKeyHashing:
    def test_deterministic(self):
        race = make_race()
        assert race.key_meta(b"alpha") == race.key_meta(b"alpha")

    def test_groups_distinct(self):
        race = make_race()
        for i in range(300):
            meta = race.key_meta(f"key-{i}".encode())
            assert meta.group1 != meta.group2

    def test_subtable_in_range(self):
        race = make_race(n_subtables=4)
        for i in range(100):
            assert 0 <= race.key_meta(f"k{i}".encode()).subtable < 4

    def test_fingerprint_nonzero_byte(self):
        race = make_race()
        for i in range(100):
            assert 1 <= race.key_meta(f"k{i}".encode()).fingerprint <= 255

    def test_keys_spread_over_subtables(self):
        race = make_race(n_subtables=4)
        seen = {race.key_meta(f"key-{i}".encode()).subtable
                for i in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_hash_key_stable_128_bits(self):
        h = hash_key(b"x")
        assert 0 <= h < (1 << 128)
        assert h == hash_key(b"x")


class TestSlotRefs:
    def test_locations_primary_first(self):
        race = make_race(replicas=3)
        ref = race.slot_ref(1, 5)
        locs = ref.locations()
        assert locs[0] == ref.primary()
        assert locs[1:] == ref.backups()
        assert len(locs) == 3

    def test_slot_addresses_are_8_byte_strided(self):
        race = make_race()
        a = race.slot_ref(0, 0).primary()[1]
        b = race.slot_ref(0, 1).primary()[1]
        assert b - a == SLOT_SIZE

    def test_out_of_range_slot_rejected(self):
        race = make_race()
        with pytest.raises(IndexError):
            race.slot_ref(0, race.config.slots_per_subtable)

    def test_reconfigure_changes_placement(self):
        race = make_race(replicas=2)
        race.reconfigure(0, [(9, 0)])
        assert race.slot_ref(0, 0).placement == ((9, 0),)
        assert race.slot_ref(0, 0).backups() == []

    def test_subtables_on(self):
        race = make_race(n_subtables=4, replicas=2)
        assert race.subtables_on(0) == [0, 1, 2, 3]
        assert race.subtables_on(5) == []


class TestBucketOps:
    def test_two_contiguous_reads(self):
        race = make_race()
        meta = race.key_meta(b"somekey")
        ops = race.bucket_read_ops(meta)
        assert len(ops) == 2
        for op in ops:
            assert op.length == 2 * race.config.bucket_bytes

    def test_reads_cover_both_groups(self):
        race = make_race()
        meta = race.key_meta(b"somekey")
        mn, base = race.placement(meta.subtable)[0]
        ops = race.bucket_read_ops(meta)
        spb = race.config.slots_per_bucket
        cb1 = (meta.group1 * BUCKETS_PER_GROUP) * spb * SLOT_SIZE
        cb2 = (meta.group2 * BUCKETS_PER_GROUP + 1) * spb * SLOT_SIZE
        offsets = sorted(op.addr - base for op in ops)
        assert offsets == sorted([cb1, cb2])

    def test_replica_selects_placement(self):
        race = make_race(replicas=2)
        meta = race.key_meta(b"k")
        ops0 = race.bucket_read_ops(meta, replica=0)
        ops1 = race.bucket_read_ops(meta, replica=1)
        assert ops0[0].mn_id != ops1[0].mn_id

    @pytest.mark.parametrize("groups", [(0, 9), (4, 1), (-1, 2), (2, -3)])
    def test_group_outside_the_table_rejected(self, groups):
        """A hand-made meta must not address the neighbouring subtable
        (group 9 of a 4-group table starts 448 bytes into a 192-byte
        one), nor die in the parse with a bare IndexError."""
        race = make_race(n_subtables=2, n_groups=4, spb=2, replicas=1)
        meta = KeyMeta(subtable=0, group1=groups[0], group2=groups[1],
                       fingerprint=3)
        bad = next(g for g in groups if not 0 <= g < 4)
        with pytest.raises(ValueError, match=f"group {bad} "):
            race.bucket_read_ops(meta)
        with pytest.raises(ValueError, match=f"group {bad} "):
            race.parse_buckets(meta, [bytes(32), bytes(32)])
        # the last group of the table is still addressable
        edge = KeyMeta(subtable=0, group1=3, group2=0, fingerprint=3)
        assert max(op.addr + op.length for op in race.bucket_read_ops(edge)) \
            <= race.config.subtable_bytes


class TestParsing:
    def payload_pair(self, race, meta, slots=None):
        """Build combined-bucket payloads with the given {index: word}."""
        cfg = race.config
        ranges = race._combined_ranges(meta)
        slots = slots or {}
        payloads = []
        for start, count in ranges:
            buf = bytearray(count * SLOT_SIZE)
            for i in range(count):
                word = slots.get(start + i, 0)
                buf[i * 8:(i + 1) * 8] = word.to_bytes(8, "big")
            payloads.append(bytes(buf))
        return payloads

    def test_all_empty(self):
        race = make_race()
        meta = race.key_meta(b"key")
        view = race.parse_buckets(meta, self.payload_pair(race, meta))
        assert view.matches == ()
        assert view.occupied == 0
        assert len(view.empties) > 0

    def test_fingerprint_match_found(self):
        race = make_race()
        meta = race.key_meta(b"key")
        ranges = race._combined_ranges(meta)
        idx = ranges[0][0]
        word = pack_slot(meta.fingerprint, 1, 0x1000)
        view = race.parse_buckets(
            meta, self.payload_pair(race, meta, {idx: word}))
        assert len(view.matches) == 1
        assert view.matches[0].word == word
        assert view.matches[0].ref.slot_index == idx

    def test_non_matching_fingerprint_ignored(self):
        race = make_race()
        meta = race.key_meta(b"key")
        idx = race._combined_ranges(meta)[0][0]
        other_fp = (meta.fingerprint % 255) + 1
        word = pack_slot(other_fp, 1, 0x1000)
        view = race.parse_buckets(
            meta, self.payload_pair(race, meta, {idx: word}))
        assert view.matches == ()
        assert view.occupied == 1

    def test_occupied_slots_not_in_empties(self):
        race = make_race()
        meta = race.key_meta(b"key")
        idx = race._combined_ranges(meta)[0][0]
        word = pack_slot(meta.fingerprint, 1, 0x1000)
        view = race.parse_buckets(
            meta, self.payload_pair(race, meta, {idx: word}))
        assert idx not in view.empties

    def test_matches_sorted_by_slot_index(self):
        race = make_race()
        meta = race.key_meta(b"key")
        r = race._combined_ranges(meta)
        i1, i2 = r[0][0] + 1, r[1][0] + 2
        w = lambda p: pack_slot(meta.fingerprint, 1, p)
        view = race.parse_buckets(
            meta, self.payload_pair(race, meta, {i2: w(0x2000), i1: w(0x1000)}))
        indexes = [m.ref.slot_index for m in view.matches]
        assert indexes == sorted(indexes)

    def test_less_loaded_bucket_preferred_for_inserts(self):
        race = make_race()
        meta = race.key_meta(b"key")
        ranges = race._combined_ranges(meta)
        # Fill 3 slots of combined bucket 1, none of combined bucket 2.
        fill = {ranges[0][0] + i: pack_slot(7, 1, 0x100 + i)
                for i in range(3)}
        view = race.parse_buckets(meta, self.payload_pair(race, meta, fill))
        first_empty = view.empties[0]
        cb2_indexes = set(range(ranges[1][0], ranges[1][0] + ranges[1][1]))
        assert first_empty in cb2_indexes

    def test_payload_length_mismatch_rejected(self):
        race = make_race()
        meta = race.key_meta(b"key")
        with pytest.raises(ValueError):
            race.parse_buckets(meta, [b"", b""])

    def test_payload_checks_run_on_every_call(self):
        """No memo answers for a read that was never validated: the same
        good read parses, then each malformed variant of it is refused."""
        race = make_race()
        meta = race.key_meta(b"key")
        good = self.payload_pair(race, meta)
        race.parse_buckets(meta, good)
        for bad in ([good[0]], good + [good[0]], [good[0], good[1][:-8]],
                    [good[0] + bytes(8), good[1]]):
            with pytest.raises(ValueError):
                race.parse_buckets(meta, bad)

    def test_any_bytes_like_payload_gives_the_same_view(self):
        race = make_race()
        meta = race.key_meta(b"key")
        ranges = race._combined_ranges(meta)
        slots = {ranges[0][0] + 2: pack_slot(meta.fingerprint, 1, 0x1000),
                 ranges[1][0] + 5: pack_slot(meta.fingerprint, 2, 0x2000),
                 ranges[1][0]: pack_slot((meta.fingerprint % 255) + 1, 1, 0x40)}
        payloads = self.payload_pair(race, meta, slots)
        views = [race.parse_buckets(meta, [kind(p) for p in payloads])
                 for kind in (bytes, bytearray, memoryview)]
        assert len(views[0].matches) == 2 and views[0].occupied == 3
        assert views[0] == views[1] == views[2]
        assert len({hash(view) for view in views}) == 1

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_candidate_count_bounded_by_associativity(self, key):
        race = make_race()
        meta = race.key_meta(key)
        word = pack_slot(meta.fingerprint, 1, 0x40)
        ranges = race._combined_ranges(meta)
        full = {}
        for start, count in ranges:
            for i in range(count):
                full[start + i] = word
        view = race.parse_buckets(meta, self.payload_pair(race, meta, full))
        assert len(view.matches) <= race.config.slots_per_key
        assert view.empties == ()


class TestWholeSubtableHelpers:
    def test_subtable_read_op_covers_all_slots(self):
        race = make_race()
        op = race.subtable_read_op(0, 0, 0)
        assert op.length == race.config.subtable_bytes

    def test_iter_slot_words(self):
        race = make_race()
        payload = bytearray(race.config.subtable_bytes)
        payload[8:16] = (42).to_bytes(8, "big")
        words = dict(race.iter_slot_words(bytes(payload)))
        assert words[1] == 42
        assert words[0] == 0
        assert len(words) == race.config.slots_per_subtable

    @pytest.mark.parametrize("n_bytes", [1, 12, 8 * 5 + 7])
    def test_iter_slot_words_rejects_a_ragged_payload(self, n_bytes):
        """A truncated subtable read must not pass for a shorter table
        (the split would silently lose the tail slot's key)."""
        race = make_race()
        with pytest.raises(ValueError, match="whole number"):
            list(race.iter_slot_words(bytes(n_bytes)))
        assert list(race.iter_slot_words(b"")) == []
        assert list(race.iter_slot_words(memoryview(bytes(7) + b"\x05"))) \
            == [(0, 5)]


# -- decode on demand -----------------------------------------------------------
def eager_reference_decode(race, meta, payloads):
    """The decoder ``parse_buckets`` replaced, kept as the reference: it
    unpacks every slot word of both combined buckets in a Python loop,
    resolves a ``SlotRef`` for every fingerprint hit, lists every empty
    slot's index, and ranks the two buckets by load.  Returns
    ``(matches, empties, occupied)``."""
    ranges = race._combined_ranges(meta)
    matches = []
    per_cb_empties = []
    per_cb_load = []
    seen_end = -1
    seen_start = 0
    for (start, count), payload in zip(ranges, payloads):
        empties = []
        load = 0
        for i, word in enumerate(struct.unpack(">%dQ" % count, payload)):
            index = start + i
            if seen_start <= index <= seen_end:
                continue  # shared overflow bucket counted once
            if word == 0:
                empties.append(index)
            else:
                load += 1
                if (word >> 56) & 0xFF == meta.fingerprint:
                    matches.append(SlotSnapshot(
                        ref=race.slot_ref(meta.subtable, index), word=word))
        seen_start = min(seen_start, start) if seen_end >= 0 else start
        seen_end = max(seen_end, start + count - 1)
        per_cb_empties.append(empties)
        per_cb_load.append(load)
    matches.sort(key=lambda snap: snap.ref.slot_index)
    order = sorted(range(len(per_cb_empties)), key=lambda i: per_cb_load[i])
    empties_flat = []
    for i in order:
        empties_flat.extend(per_cb_empties[i])
    return tuple(matches), tuple(empties_flat), sum(per_cb_load)


@st.composite
def bucket_reads(draw):
    """(race, meta, payloads): any small geometry, any two groups — the
    same one twice included, the only case where the two ranges overlap
    — and slot words chosen to confuse a fingerprint-column scan."""
    spb = draw(st.integers(1, 8))
    n_groups = draw(st.integers(2, 6))
    race = make_race(n_subtables=2, n_groups=n_groups, spb=spb, replicas=2)
    fingerprint = draw(st.integers(0, 255))
    meta = KeyMeta(subtable=draw(st.integers(0, 1)),
                   group1=draw(st.integers(0, n_groups - 1)),
                   group2=draw(st.integers(0, n_groups - 1)),
                   fingerprint=fingerprint)
    other = (fingerprint + draw(st.integers(1, 255))) & 0xFF
    words = st.one_of(
        st.just(0),                                        # empty slot
        st.integers(1, (1 << 56) - 1).map(                 # a true hit
            lambda low: (fingerprint << 56) | low),
        st.just(int.from_bytes(                            # the byte, but
            bytes([other]) + bytes([fingerprint]) * 7,     # not in byte 0
            "big")),
        st.integers(0, (1 << 64) - 1))
    kind = draw(st.sampled_from([bytes, bytearray, memoryview]))
    payloads = [kind(struct.pack(">%dQ" % (2 * spb),
                                 *draw(st.lists(words, min_size=2 * spb,
                                                max_size=2 * spb))))
                for _ in range(2)]
    return race, meta, payloads


class TestDecodeOnDemand:
    @given(bucket_reads(), st.permutations(["matches", "empties", "occupied"]))
    @settings(max_examples=400)
    def test_same_view_as_the_eager_decoder(self, read, access_order):
        race, meta, payloads = read
        matches, empties, occupied = eager_reference_decode(
            race, meta, payloads)
        view = race.parse_buckets(meta, payloads)
        want = {"matches": matches, "empties": empties, "occupied": occupied}
        # Tuple equality is ordered, and the order is the point: INSERT
        # installs into empties[0], so it decides bytes in MN memory, and
        # readers take the first live match.
        for name in access_order + access_order:   # any order, and twice
            assert getattr(view, name) == want[name]
        assert view.empties is view.empties
        untouched = race.parse_buckets(meta, payloads)
        assert untouched == view and hash(untouched) == hash(view)
        assert hash(view) == hash((matches, empties, occupied))
        assert repr(view) == (f"BucketView(matches={matches!r}, "
                              f"empties={empties!r}, occupied={occupied!r})")

    def test_shared_overflow_bucket_counted_once(self):
        """group1 == group2 (key_meta_for_digest never produces it): the
        second range opens with the bucket that closes the first."""
        race = make_race(n_subtables=2, n_groups=4, spb=2, replicas=1)
        meta = KeyMeta(subtable=1, group1=2, group2=2, fingerprint=9)
        hit = pack_slot(9, 1, 0x40)
        # slots 12..15 then 14..17; the copies of 14 and 15 disagree
        first = struct.pack(">4Q", 0, hit, 0, hit + 1)
        second = struct.pack(">4Q", hit + 2, 0, hit + 3, 0)
        view = race.parse_buckets(meta, [first, second])
        assert [(m.ref.slot_index, m.word) for m in view.matches] \
            == [(13, hit), (15, hit + 1), (16, hit + 3)]
        assert list(view.empties) == [17, 12, 14]
        assert view.occupied == 3
        assert (view.matches, view.empties, view.occupied) \
            == eager_reference_decode(race, meta, [first, second])

    def test_zero_fingerprint_never_matches_an_empty_slot(self):
        """An all-zero word carries fingerprint byte 0 but is no hit."""
        race = make_race()
        meta = KeyMeta(subtable=0, group1=1, group2=5, fingerprint=0)
        start = race._combined_ranges(meta)[0][0]
        live = pack_slot(0, 3, 0x1240)
        first = bytearray(race.config.bucket_bytes * 2)
        first[8:16] = live.to_bytes(8, "big")
        view = race.parse_buckets(
            meta, [bytes(first), bytes(race.config.bucket_bytes * 2)])
        assert [(m.ref.slot_index, m.word) for m in view.matches] \
            == [(start + 1, live)]
        assert view.occupied == 1 and len(view.empties) == 27


class _Counted:
    """Count, through wrappers on one ``RaceHashing``, what an operation
    asks of it: bucket parses (with the views they returned), ``SlotRef``
    resolutions and free-slot decodes."""

    def __init__(self, race):
        self.views, self.resolved, self.free_decodes = [], [], 0
        parse, slot_ref, free = (race.parse_buckets, race.slot_ref,
                                 race._free_slots)

        def parse_buckets(meta, payloads):
            view = parse(meta, payloads)
            self.views.append(view)
            return view

        def counted_slot_ref(subtable, slot_index):
            self.resolved.append((subtable, slot_index))
            return slot_ref(subtable, slot_index)

        def free_slots(*read):
            self.free_decodes += 1
            return free(*read)

        race.parse_buckets = parse_buckets
        race.slot_ref = counted_slot_ref
        race._free_slots = free_slots

    def hits(self):
        return [m.ref.key for view in self.views for m in view.matches]


@pytest.fixture
def loaded_cluster():
    """A small bed loaded without the protocol: the bulk loader resolves
    a SlotRef for each slot it fills and nothing else."""
    cluster = FuseeCluster(small_config())
    fusee_load(cluster, cluster.new_client(),
               [(f"key-{i:03d}".encode(), f"value-{i}".encode())
                for i in range(120)])
    return cluster


class TestAnOpPaysForWhatItUses:
    """Cache-miss ops on a freshly loaded bed: a fresh client has no
    index cache, so each op below takes the full bucket-read path."""

    @pytest.mark.parametrize("op, rereads", [
        ("search", 0),
        # _write_slot re-resolves the located ref against the current
        # placement (a failover may have moved it) — the same slot again
        ("update", 1),
        ("delete", 1),
    ])
    def test_no_slot_ref_for_a_slot_the_op_does_not_use(
            self, loaded_cluster, op, rereads):
        cluster = loaded_cluster
        client = cluster.new_client()
        counted = _Counted(cluster.race)
        args = (b"key-017",) + ((b"new-value",) if op == "update" else ())
        assert run(cluster, getattr(client, op)(*args)).ok
        assert len(counted.views) == 1
        hits = counted.hits()
        assert len(hits) >= 1
        assert counted.resolved[:len(hits)] == hits
        assert len(counted.resolved) == len(hits) + rereads
        assert set(counted.resolved) == set(hits)
        assert counted.free_decodes == 0

    def test_search_of_an_absent_key_resolves_collisions_only(
            self, loaded_cluster):
        cluster = loaded_cluster
        client = cluster.new_client()
        counted = _Counted(cluster.race)
        for i in range(40):
            assert not run(cluster, client.search(f"absent-{i}".encode())).ok
        assert len(counted.views) == 40
        assert counted.resolved == counted.hits()
        assert len(counted.resolved) < 40 and counted.free_decodes == 0

    def test_insert_decodes_the_free_slots_of_the_read_it_acts_on(
            self, loaded_cluster):
        """Two bucket reads per INSERT — the one it picks a slot from and
        the post-install duplicate sweep — and one free-slot decode."""
        cluster = loaded_cluster
        client = cluster.new_client()
        counted = _Counted(cluster.race)
        assert run(cluster, client.insert(b"a-new-key", b"v")).ok
        first, sweep = counted.views
        assert counted.free_decodes == 1
        assert first._undecoded is None and sweep._undecoded is not None
        subtable = cluster.race.key_meta(b"a-new-key").subtable
        empties = [(subtable, index) for index in first.empties]
        # every ref resolved is a hit or the one free slot the insert
        # tries: the first read's other free slots stay indexes
        assert counted.resolved == (
            [m.ref.key for m in first.matches] + empties[:1]
            + [m.ref.key for m in sweep.matches])
        assert empties[0] in [m.ref.key for m in sweep.matches]


class TestNothingRetainedPerRead:
    def test_the_view_dies_with_the_op(self, loaded_cluster):
        cluster = loaded_cluster
        client = cluster.new_client()
        views = []
        parse = cluster.race.parse_buckets

        def parse_buckets(meta, payloads):
            view = parse(meta, payloads)
            views.append(weakref.ref(view))
            return view

        cluster.race.parse_buckets = parse_buckets
        assert run(cluster, client.search(b"key-003")).ok
        assert run(cluster, client.insert(b"another-key", b"v")).ok
        assert run(cluster, client.update(b"key-004", b"w")).ok
        assert run(cluster, client.delete(b"key-005")).ok
        gc.collect()
        assert len(views) == 5   # search, insert + sweep, update, delete
        assert [ref() for ref in views] == [None] * 5

    def test_inserts_keep_a_ref_only_for_the_slots_they_cas(self):
        """On the default bed an INSERT's bucket read shows it ~27 free
        slots; the ref memo grows by the one slot each INSERT CASes, not
        by every free slot it saw."""
        bed = fusee_bed()
        cluster, client = bed.cluster, bed.new_client()
        memo = cluster.race._slot_ref_cache
        before = set(memo)
        keys = [f"lazy-{i:03d}".encode() for i in range(60)]
        for key in keys:
            assert cluster.run_op(client.insert(key, b"v" * 32)).ok
        cased = {client.cache.peek(key).slot_ref.key for key in keys}
        assert len(cased) == len(keys)
        assert len(memo) - len(before) <= len(cased)
        assert set(memo) - before == cased

    def test_distinct_bucket_states_leave_no_residue(self):
        race = make_race()
        meta = race.key_meta(b"key")
        start = race._combined_ranges(meta)[1][0]
        hit = pack_slot(meta.fingerprint, 1, 0x1000).to_bytes(8, "big")
        empty = bytes(2 * race.config.bucket_bytes)

        def state(serial):
            foreign = pack_slot((meta.fingerprint % 255) + 1, 1, serial)
            return [empty, hit + foreign.to_bytes(8, "big") + empty[16:]]

        def sizes():
            return {name: len(value) for name, value in vars(race).items()
                    if hasattr(value, "__len__")}

        # memoise the hit's SlotRef; decoding the free slots builds none
        race.parse_buckets(meta, state(0)).empties
        before = sizes()
        for serial in range(1, 2001):
            view = race.parse_buckets(meta, state(serial))
            assert view.matches[0].ref.slot_index == start
            assert view.occupied == 2 and len(view.empties) == 26
        assert sizes() == before
