"""Unit and property tests for the on-wire data formats."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wire import (
    FLAG_INVALID,
    KV_HEADER_SIZE,
    KV_HOLDS_KEY,
    KV_INVALID,
    KV_LIVE,
    KV_OTHER_KEY,
    KV_TORN,
    LOG_ENTRY_SIZE,
    LogEntry,
    MASTER_COMMIT_OLD_VALUE,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    committed_old_value_bytes,
    crc8,
    decode_kv_block,
    decode_log_entry,
    encode_kv_block,
    encode_kv_body,
    encode_log_entry,
    kv_block_size,
    log_entry_offset,
    make_fingerprint,
    match_kv,
    old_value_offset,
    pack_slot,
    unpack_slot,
)


class TestSlotPacking:
    def test_roundtrip(self):
        word = pack_slot(0xAB, 16, 0x123456789ABC)
        slot = unpack_slot(word)
        assert slot.fingerprint == 0xAB
        assert slot.length_units == 16
        assert slot.pointer == 0x123456789ABC

    def test_empty_slot_is_zero(self):
        slot = unpack_slot(0)
        assert slot.empty
        assert slot.pointer == 0

    def test_block_bytes(self):
        assert unpack_slot(pack_slot(1, 4, 64)).block_bytes == 256

    def test_fingerprint_out_of_range(self):
        with pytest.raises(ValueError):
            pack_slot(256, 0, 0)

    def test_length_out_of_range(self):
        with pytest.raises(ValueError):
            pack_slot(0, 256, 0)

    def test_pointer_out_of_range(self):
        with pytest.raises(ValueError):
            pack_slot(0, 0, 1 << 48)

    def test_word_fits_64_bits(self):
        word = pack_slot(255, 255, (1 << 48) - 1)
        assert word < (1 << 64)

    @given(fp=st.integers(0, 255), ln=st.integers(0, 255),
           ptr=st.integers(0, (1 << 48) - 1))
    def test_roundtrip_property(self, fp, ln, ptr):
        slot = unpack_slot(pack_slot(fp, ln, ptr))
        assert (slot.fingerprint, slot.length_units, slot.pointer) == (
            fp, ln, ptr)

    @given(h=st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_fingerprint_nonzero(self, h):
        assert 1 <= make_fingerprint(h) <= 255


class TestCrc8:
    def test_zero_payload_has_nonzero_crc(self):
        """The all-zero 'never written' old value must fail verification."""
        assert crc8(bytes(8)) != 0

    def test_deterministic(self):
        assert crc8(b"abc") == crc8(b"abc")

    def test_sensitive_to_change(self):
        assert crc8(b"abc") != crc8(b"abd")

    def test_range(self):
        for data in (b"", b"\x00", b"\xff" * 16):
            assert 0 <= crc8(data) < 256


class TestLogEntry:
    def entry(self, **kw):
        defaults = dict(next_ptr=0x1000, prev_ptr=0x2000, old_value=0,
                        old_value_crc=0, opcode=OP_UPDATE, used=True)
        defaults.update(kw)
        return LogEntry(**defaults)

    def test_size(self):
        assert len(encode_log_entry(self.entry())) == LOG_ENTRY_SIZE == 22

    def test_roundtrip(self):
        entry = self.entry(next_ptr=0xABCDEF, prev_ptr=0x123456,
                           old_value=0xDEAD, old_value_crc=7,
                           opcode=OP_DELETE, used=False)
        assert decode_log_entry(encode_log_entry(entry)) == entry

    def test_uncommitted_old_value_detected(self):
        assert not self.entry().old_value_committed

    def test_committed_old_value_verifies(self):
        payload = committed_old_value_bytes(0xDEADBEEF)
        entry = self.entry(old_value=0xDEADBEEF, old_value_crc=payload[8])
        assert entry.old_value_committed

    def test_master_commit_marker_verifies(self):
        """The master writes old value 0 *with a valid CRC* (§5.4)."""
        payload = committed_old_value_bytes(MASTER_COMMIT_OLD_VALUE)
        entry = self.entry(old_value=0, old_value_crc=payload[8])
        assert entry.old_value_committed

    def test_opcode_range_enforced(self):
        with pytest.raises(ValueError):
            encode_log_entry(self.entry(opcode=128))

    def test_pointer_range_enforced(self):
        with pytest.raises(ValueError):
            encode_log_entry(self.entry(next_ptr=1 << 48))

    def test_wrong_size_decode(self):
        with pytest.raises(ValueError):
            decode_log_entry(b"\x00" * 21)

    @given(next_ptr=st.integers(0, (1 << 48) - 1),
           prev_ptr=st.integers(0, (1 << 48) - 1),
           old_value=st.integers(0, (1 << 64) - 1),
           crc=st.integers(0, 255),
           opcode=st.integers(0, 127),
           used=st.booleans())
    @settings(max_examples=200)
    def test_roundtrip_property(self, next_ptr, prev_ptr, old_value, crc,
                                opcode, used):
        entry = LogEntry(next_ptr, prev_ptr, old_value, crc, opcode, used)
        assert decode_log_entry(encode_log_entry(entry)) == entry

    def test_used_bit_is_last_byte(self):
        """The used bit must be the final byte written (order-preserving
        RDMA_WRITE integrity marker, §4.5)."""
        used = encode_log_entry(self.entry(used=True))
        unused = encode_log_entry(self.entry(used=False))
        assert used[:-1] == unused[:-1]
        assert used[-1] & 1 == 1
        assert unused[-1] & 1 == 0


class TestKvBlock:
    def test_block_size_accounts_for_framing(self):
        assert kv_block_size(3, 5) == KV_HEADER_SIZE + 3 + 5 + LOG_ENTRY_SIZE

    def test_roundtrip(self):
        entry = LogEntry(1, 2, 0, 0, OP_INSERT, True)
        block = encode_kv_block(b"key", b"value", 64, entry)
        assert len(block) == 64
        header, key, value, decoded = decode_kv_block(block)
        assert key == b"key"
        assert value == b"value"
        assert decoded == entry
        assert not header.invalid

    def test_too_small_block_rejected(self):
        entry = LogEntry(0, 0, 0, 0, OP_INSERT, True)
        with pytest.raises(ValueError):
            encode_kv_block(b"key", b"x" * 100, 64, entry)

    def test_corrupted_body_detected(self):
        entry = LogEntry(1, 2, 0, 0, OP_INSERT, True)
        block = bytearray(encode_kv_block(b"key", b"value", 64, entry))
        block[KV_HEADER_SIZE] ^= 0xFF  # flip a key byte
        with pytest.raises(ValueError):
            decode_kv_block(bytes(block))

    def test_truncated_block_detected(self):
        with pytest.raises(ValueError):
            decode_kv_block(b"\x00" * 10)

    def test_log_entry_at_end(self):
        entry = LogEntry(0xAA, 0xBB, 0, 0, OP_UPDATE, True)
        block = encode_kv_block(b"k", b"v", 128, entry)
        assert block[log_entry_offset(128):] == encode_log_entry(entry)

    def test_old_value_offset_lands_on_old_value(self):
        entry = LogEntry(0, 0, 0, 0, OP_UPDATE, True)
        block = bytearray(encode_kv_block(b"k", b"v", 128, entry))
        off = old_value_offset(128)
        block[off:off + 9] = committed_old_value_bytes(0xFEED)
        decoded = decode_log_entry(bytes(block[-LOG_ENTRY_SIZE:]))
        assert decoded.old_value == 0xFEED
        assert decoded.old_value_committed

    @given(key=st.binary(min_size=1, max_size=40),
           value=st.binary(min_size=0, max_size=200))
    @settings(max_examples=100)
    def test_roundtrip_property(self, key, value):
        entry = LogEntry(5, 6, 0, 0, OP_UPDATE, True)
        size = 64
        while size < kv_block_size(len(key), len(value)):
            size *= 2
        header, k, v, _ = decode_kv_block(
            encode_kv_block(key, value, size, entry))
        assert (k, v) == (key, value)
        assert (header.key_len, header.value_len) == (len(key), len(value))


def _flagged(image: bytes) -> bytes:
    return bytes([image[0] | FLAG_INVALID]) + image[1:]


def _crc_broken(image: bytes) -> bytes:
    return image[:-1] + bytes([image[-1] ^ 0xFF])


class TestMatchKv:
    """``match_kv`` is the one place a KV image is compared with a key;
    the table is everything its callers distinguish."""

    BODY = encode_kv_body(b"key", b"value")

    @pytest.mark.parametrize("image,status,value", [
        pytest.param(BODY[:KV_HEADER_SIZE - 1], KV_TORN, None,
                     id="shorter-than-a-header"),
        pytest.param(BODY[:-2], KV_TORN, None, id="truncated-body"),
        pytest.param(bytes(64), KV_OTHER_KEY, None,
                     id="zeroed-block-decodes-as-the-empty-key"),
        pytest.param(_crc_broken(BODY), KV_TORN, None, id="bad-crc"),
        pytest.param(encode_kv_body(b"kex", b"value"), KV_OTHER_KEY, None,
                     id="other-key"),
        pytest.param(encode_kv_body(b"ke", b"yvalue"), KV_OTHER_KEY, None,
                     id="same-bytes-other-key-length"),
        pytest.param(_flagged(encode_kv_body(b"kex", b"value")),
                     KV_OTHER_KEY, None, id="other-key-invalidated"),
        pytest.param(_flagged(BODY), KV_INVALID, b"value",
                     id="invalid-flag"),
        pytest.param(BODY, KV_LIVE, b"value", id="live-pair"),
        pytest.param(BODY + bytes(40), KV_LIVE, b"value",
                     id="live-pair-read-to-the-len-unit"),
        pytest.param(encode_kv_body(b"key", b""), KV_LIVE, b"",
                     id="empty-value"),
        pytest.param(_flagged(encode_kv_body(b"key", b"")), KV_INVALID, b"",
                     id="empty-value-invalidated"),
    ])
    def test_table(self, image, status, value):
        assert match_kv(image, b"key") == (status, value)

    def test_accepts_the_views_memory_nodes_hand_out(self):
        assert match_kv(memoryview(bytearray(self.BODY)), b"key") \
            == (KV_LIVE, b"value")

    def test_holds_key_is_the_pair_marked_or_not(self):
        assert set(KV_HOLDS_KEY) == {KV_INVALID, KV_LIVE}
