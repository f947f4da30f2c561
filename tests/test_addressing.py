"""Tests for the global address space and region layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import RegionConfig, RegionLayout, RegionMap
from repro.core.memory import size_classes_for
from repro.core.ring import ConsistentHashRing


def make_map(n_nodes=3, r=2, n_regions=4, config=None):
    config = config or RegionConfig(region_size=1 << 18, block_size=1 << 13,
                                    min_object_size=64)
    ring = ConsistentHashRing(range(n_nodes))
    rmap = RegionMap(config, ring, replication_factor=r)
    carves = {mn: 0 for mn in range(n_nodes)}

    def carve(mn, nbytes):
        base = carves[mn]
        carves[mn] += nbytes
        return base

    for rid in range(n_regions):
        rmap.place_region(rid, carve)
    return rmap


class TestRegionConfig:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            RegionConfig(region_size=1000)

    def test_block_larger_than_region_rejected(self):
        with pytest.raises(ValueError):
            RegionConfig(region_size=1 << 12, block_size=1 << 13)

    @pytest.mark.parametrize("block_size,min_object_size", [
        (256, 64),      # 4 objects: a zero-byte bitmap
        (1024, 64),     # 16 objects: a 2-byte bitmap reclaim CASes as a word
        (2048, 64),     # 32 objects: 4 bytes
        (256, 8),
    ])
    def test_bitmap_under_one_word_rejected(self, block_size,
                                            min_object_size):
        with pytest.raises(ValueError, match="one 8-byte word"):
            RegionConfig(region_size=1 << 16, block_size=block_size,
                         min_object_size=min_object_size)

    def test_bitmap_of_exactly_one_word_accepted(self):
        cfg = RegionConfig(region_size=1 << 16, block_size=1 << 12,
                           min_object_size=64)
        assert RegionLayout(cfg).bitmap_bytes_per_block == 8

    def test_shift_and_mask(self):
        cfg = RegionConfig(region_size=1 << 20)
        assert cfg.region_shift == 20
        assert cfg.offset_mask == (1 << 20) - 1


class TestRegionLayout:
    def test_blocks_fit_in_region(self):
        cfg = RegionConfig(region_size=1 << 18, block_size=1 << 13)
        layout = RegionLayout(cfg)
        last_end = (layout.block_offset(layout.n_blocks - 1)
                    + cfg.block_size)
        assert last_end <= cfg.region_size
        assert layout.n_blocks >= 1

    def test_metadata_precedes_data(self):
        layout = RegionLayout(RegionConfig(region_size=1 << 18,
                                           block_size=1 << 13))
        assert layout.table_offset < layout.bitmap_offset < layout.data_offset

    def test_block_index_roundtrip(self):
        layout = RegionLayout(RegionConfig(region_size=1 << 18,
                                           block_size=1 << 13))
        for block in range(layout.n_blocks):
            off = layout.block_offset(block)
            assert layout.block_index_of(off) == block
            assert layout.block_index_of(off + 100) == block

    def test_metadata_offset_rejected(self):
        layout = RegionLayout(RegionConfig(region_size=1 << 18,
                                           block_size=1 << 13))
        with pytest.raises(ValueError):
            layout.block_index_of(0)

    def test_object_bit_distinct_per_object(self):
        cfg = RegionConfig(region_size=1 << 18, block_size=1 << 13,
                           min_object_size=64)
        layout = RegionLayout(cfg)
        start = layout.block_offset(0)
        seen = set()
        for i in range(cfg.block_size // 64):
            bit = layout.object_bit(start + i * 64)
            assert bit not in seen
            seen.add(bit)

    def test_bitmap_bit_in_block_bitmap_range(self):
        cfg = RegionConfig(region_size=1 << 18, block_size=1 << 13)
        layout = RegionLayout(cfg)
        for block in (0, layout.n_blocks - 1):
            byte, bit = layout.object_bit(layout.block_offset(block))
            assert layout.bitmap_offset_of(block) <= byte
            assert byte < (layout.bitmap_offset_of(block)
                           + layout.bitmap_bytes_per_block)
            assert 0 <= bit < 8

    def test_region_too_small_rejected(self):
        with pytest.raises(ValueError):
            RegionLayout(RegionConfig(region_size=1 << 12,
                                      block_size=1 << 12))


class TestRegionMap:
    def test_placement_replicas_distinct_nodes(self):
        rmap = make_map()
        for rid in rmap.region_ids:
            mns = [mn for mn, _ in rmap.placement(rid)]
            assert len(mns) == len(set(mns)) == 2

    def test_gaddr_split_roundtrip(self):
        rmap = make_map()
        gaddr = rmap.gaddr(3, 12345)
        assert rmap.split(gaddr) == (3, 12345)

    def test_gaddr_offset_bounds(self):
        rmap = make_map()
        with pytest.raises(ValueError):
            rmap.gaddr(0, rmap.config.region_size)

    def test_translate_consistent_with_placement(self):
        rmap = make_map()
        gaddr = rmap.gaddr(1, 500)
        locs = rmap.translate(gaddr)
        placement = rmap.placement(1)
        assert len(locs) == len(placement)
        for (mn, addr), (pmn, base) in zip(locs, placement):
            assert mn == pmn
            assert addr == base + 500

    def test_primary_regions_cover_all_regions(self):
        rmap = make_map(n_regions=6)
        primaries = []
        for mn in range(3):
            primaries.extend(rmap.primary_regions_of(mn))
        assert sorted(primaries) == list(range(6))

    def test_duplicate_region_rejected(self):
        rmap = make_map()
        with pytest.raises(ValueError):
            rmap.place_region(0, lambda mn, n: 0)

    def test_zero_gaddr_is_region_metadata(self):
        """gaddr 0 = region 0, offset 0 = block table: never a KV address,
        so it can serve as the null pointer."""
        rmap = make_map()
        assert rmap.layout.data_offset > 0

    @given(rid=st.integers(0, 3), off=st.integers(0, (1 << 18) - 1))
    @settings(max_examples=100)
    def test_split_property(self, rid, off):
        rmap = make_map()
        assert rmap.split(rmap.gaddr(rid, off)) == (rid, off)


# ---------------------------------------------------------------------------
# The pool's bytes have one definition.  Until PR 21 the allocators and the
# master each spelled this arithmetic inline; those spellings are kept here,
# verbatim, as the reference the RegionLayout/RegionMap functions must equal.
# ---------------------------------------------------------------------------
def ref_object_offsets(layout, size):
    """``_adopt_block``, ``_handle_alloc_object``, ``release_empty_blocks``,
    ``_scan_owned_objects``, ``_construct_free_lists``."""
    return list(range(0, layout.config.block_size - size + 1, size))


def ref_free_bit(layout, region_offset):
    """``ClientAllocator.flush_frees`` and ``Master._ensure_freed``."""
    byte_off, bit = layout.object_bit(region_offset)
    # FAA operates on the aligned 8-byte word containing the byte.
    word_off = byte_off - (byte_off % 8)
    shift = (7 - (byte_off % 8)) * 8 + bit  # big-endian bit position
    return word_off, 1 << shift


def ref_reclaim_word(layout, word_idx, word):
    """``ClientAllocator._reclaim_word``: one CASed bitmap word."""
    offsets = []
    for byte_in_word in range(8):
        byte = (word >> ((7 - byte_in_word) * 8)) & 0xFF
        for bit in range(8):
            if not byte & (1 << bit):
                continue
            unit = (word_idx + byte_in_word) * 8 + bit
            offsets.append(unit * layout.config.min_object_size)
    return offsets


def ref_freed_units(bitmap):
    """``Master._construct_free_lists``: a whole bitmap."""
    freed_units = set()
    for byte_idx, byte in enumerate(bitmap):
        for bit in range(8):
            if byte & (1 << bit):
                freed_units.add(byte_idx * 8 + bit)
    return freed_units


def ref_block_of(rmap, gaddr):
    """The ``try: block_index_of ... except ValueError`` of five callers."""
    region_id, offset = rmap.split(gaddr)
    try:
        block = rmap.layout.block_index_of(offset)
    except ValueError:
        return None
    return region_id, block


@st.composite
def region_configs(draw):
    """Power-of-two geometries whose bitmap is at least one FAA word."""
    min_shift = draw(st.integers(3, 8))
    block_shift = min_shift + draw(st.integers(6, 9))
    region_shift = block_shift + draw(st.integers(1, 4))
    return RegionConfig(region_size=1 << region_shift,
                        block_size=1 << block_shift,
                        min_object_size=1 << min_shift)


def faa_image(layout, region_offsets):
    """Region metadata after one FAA per object: ``free_bit`` applied the
    way a memory node applies it, to a big-endian 8-byte word."""
    image = bytearray(layout.data_offset + 8)
    for region_offset in region_offsets:
        word_off, mask = layout.free_bit(region_offset)
        word = int.from_bytes(image[word_off:word_off + 8], "big") + mask
        image[word_off:word_off + 8] = word.to_bytes(8, "big")
    return image


class TestOneDefinition:
    @given(config=region_configs())
    @settings(max_examples=25)
    def test_object_offsets_equal_the_inline_range(self, config):
        layout = RegionLayout(config)
        for size in size_classes_for(config.min_object_size,
                                     config.block_size):
            offsets = layout.object_offsets(size)
            assert list(offsets) == ref_object_offsets(layout, size)
            assert len(offsets) == sum(
                1 for _ in ref_object_offsets(layout, size))
            assert offsets[-1] + size <= config.block_size

    @given(config=region_configs(), data=st.data())
    @settings(max_examples=25)
    def test_free_bit_is_one_distinct_bit_per_object(self, config, data):
        layout = RegionLayout(config)
        block = data.draw(st.integers(0, layout.n_blocks - 1))
        start = layout.block_offset(block)
        for size in size_classes_for(config.min_object_size,
                                     config.block_size):
            by_word = {}
            for off in layout.object_offsets(size):
                word_off, mask = layout.free_bit(start + off)
                assert (word_off, mask) == ref_free_bit(layout, start + off)
                assert word_off % 8 == 0
                assert mask & (mask - 1) == 0 and 0 < mask < 1 << 64
                by_word.setdefault(word_off, []).append(mask)
            for word_off, masks in by_word.items():
                assert layout.bitmap_offset_of(block) <= word_off \
                    < layout.bitmap_offset_of(block) \
                    + layout.bitmap_bytes_per_block
                assert len(set(masks)) == len(masks)
                # An FAA can never carry into a neighbour's bit: adding
                # the masks of any distinct objects equals OR-ing them.
                some = data.draw(st.sets(st.sampled_from(masks)))
                for chosen in (masks, sorted(some)):
                    union = 0
                    for mask in chosen:
                        union |= mask
                    assert sum(chosen) == union

    @given(config=region_configs(), data=st.data())
    @settings(max_examples=25)
    def test_freed_offsets_inverts_free_bit(self, config, data):
        layout = RegionLayout(config)
        block = data.draw(st.integers(0, layout.n_blocks - 1))
        size = data.draw(st.sampled_from(size_classes_for(
            config.min_object_size, config.block_size)))
        freed = sorted(data.draw(st.sets(st.sampled_from(
            layout.object_offsets(size)))))
        start = layout.block_offset(block)
        image = faa_image(layout, [start + off for off in freed])
        lo = layout.bitmap_offset_of(block)
        nbytes = layout.bitmap_bytes_per_block
        bitmap = bytes(image[lo:lo + nbytes])
        assert not any(image[:lo]) and not any(image[lo + nbytes:])
        # a whole bitmap (recovery's free-list construction) ...
        assert layout.freed_offsets(bitmap, 0) == freed
        assert {off // config.min_object_size for off in freed} \
            == ref_freed_units(bitmap)
        # ... and word by word (the owner's reclaim), at every first_byte
        by_word = []
        for first_byte in range(0, nbytes, 8):
            run = bitmap[first_byte:first_byte + 8]
            assert layout.freed_offsets(run, first_byte) == ref_reclaim_word(
                layout, first_byte, int.from_bytes(run, "big"))
            by_word += layout.freed_offsets(run, first_byte)
        assert by_word == freed

    @given(config=region_configs(), data=st.data())
    @settings(max_examples=25)
    def test_block_of_is_none_exactly_on_region_metadata(self, config, data):
        rmap = make_map(n_regions=2, config=config)
        layout = rmap.layout
        blocks_end = layout.block_offset(layout.n_blocks - 1) \
            + config.block_size
        edges = [0, layout.bitmap_offset, layout.data_offset - 1,
                 layout.data_offset, blocks_end - 1]
        for offset in edges + data.draw(st.lists(
                st.integers(0, blocks_end - 1), max_size=20)):
            for region_id in rmap.region_ids:
                gaddr = rmap.gaddr(region_id, offset)
                assert rmap.block_of(gaddr) == ref_block_of(rmap, gaddr)
                assert (rmap.block_of(gaddr) is None) \
                    == (offset < layout.data_offset)
            # free_bit agrees on the same edges: its value off metadata,
            # the chain's ValueError on it
            if offset < layout.data_offset:
                for free_bit in (layout.free_bit,
                                 lambda off: ref_free_bit(layout, off)):
                    with pytest.raises(ValueError, match="metadata"):
                        free_bit(offset)
            else:
                assert layout.free_bit(offset) == ref_free_bit(layout,
                                                               offset)
        for block in range(layout.n_blocks):
            gaddr = rmap.block_gaddr(1, block)
            assert gaddr == rmap.gaddr(1, layout.block_offset(block))
            assert rmap.block_of(gaddr) == (1, block)
            assert rmap.block_of(gaddr + config.block_size - 1) == (1, block)
        if blocks_end < config.region_size:
            # the unusable tail of a region is no block either: loudly
            with pytest.raises(IndexError):
                rmap.block_of(rmap.gaddr(0, blocks_end))
            for free_bit in (layout.free_bit,
                             lambda off: ref_free_bit(layout, off)):
                with pytest.raises(IndexError):
                    free_bit(blocks_end)
