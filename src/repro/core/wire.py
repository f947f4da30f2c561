"""On-wire / in-memory data formats.

Everything FUSEE stores on a memory node is real bytes; this module is the
single place that knows how to encode and decode them.

Formats (all integers big-endian):

**Index slot** — 8 bytes, the atomic unit of RACE hashing (§4.2)::

    | fingerprint (8 bits) | length (8 bits) | pointer (48 bits) |

  ``fingerprint`` is one byte of the key hash used to filter candidate
  slots without fetching KV pairs; ``length`` is the KV block size in
  64-byte units (so a one-sided READ knows how many bytes to fetch);
  ``pointer`` is the 48-bit global address of the KV block.  The empty
  slot is the all-zero word.

**KV block** — the object a slot points to::

    | header (16 B) | key | value | padding | embedded log entry (22 B) |

  header: flags(1) keylen(2) vallen(4) crc32(4) reserved(5).
  flags bit 0 = INVALID (set by an UPDATE/DELETE writer to invalidate
  cached copies, §4.6).  The embedded log entry sits at the *end* of the
  block so that the order-preserving RDMA_WRITE makes its trailing used
  bit an integrity marker for the whole object (§4.5).

**Embedded log entry** — 22 bytes (§4.5, Fig. 8a)::

    | next ptr (6 B) | prev ptr (6 B) | old value (8 B) | CRC (1 B) |
    | opcode (7 bits) + used bit (1 bit)                             |

  The 1-byte CRC covers the old-value field; an *uncommitted* entry (old
  value never written) fails the CRC check, which is how recovery
  distinguishes committed winners from in-flight operations (§5.3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from zlib import crc32

__all__ = [
    "SLOT_SIZE",
    "SLOT_LEN_UNIT",
    "LOG_ENTRY_SIZE",
    "KV_HEADER_SIZE",
    "NULL_ADDR",
    "MASTER_COMMIT_OLD_VALUE",
    "OP_INSERT",
    "OP_UPDATE",
    "OP_DELETE",
    "FLAG_INVALID",
    "KV_TORN",
    "KV_OTHER_KEY",
    "KV_INVALID",
    "KV_LIVE",
    "KV_HOLDS_KEY",
    "committed_old_value_bytes",
    "old_value_offset",
    "Slot",
    "KvHeader",
    "LogEntry",
    "pack_slot",
    "unpack_slot",
    "make_fingerprint",
    "kv_block_size",
    "kv_len_units",
    "encode_kv_block",
    "encode_kv_body",
    "decode_kv_block",
    "decode_kv_payload",
    "match_kv",
    "encode_log_entry",
    "decode_log_entry",
    "log_entry_offset",
    "crc8",
]

SLOT_SIZE = 8
SLOT_LEN_UNIT = 64
LOG_ENTRY_SIZE = 22
KV_HEADER_SIZE = 16
NULL_ADDR = 0

# Special old-value the master writes to commit a log on a crashed client's
# behalf so recovery never redoes the operation (§5.4 / Appendix A.4.3).
MASTER_COMMIT_OLD_VALUE = 0

OP_INSERT = 1
OP_UPDATE = 2
OP_DELETE = 3

_POINTER_MASK = (1 << 48) - 1

FLAG_INVALID = 0x01

_KV_HEADER = struct.Struct(">BHLL5x")
_unpack_kv_header = _KV_HEADER.unpack_from
# next ptr and prev ptr (48 bits each, as 16 + 32), old value, crc,
# opcode|used
_LOG_ENTRY = struct.Struct(">HIHIQBB")


# ---------------------------------------------------------------------------
# CRC-8 (poly 0x07, init 0x9E).  The non-zero init guarantees that the
# all-zero "old value never written" state fails verification, which the
# recovery path relies on.
# ---------------------------------------------------------------------------
def _build_crc8_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table.append(crc)
    return tuple(table)


_CRC8_TABLE = _build_crc8_table()


def crc8(data: bytes, init: int = 0x9E) -> int:
    crc = init
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


# ---------------------------------------------------------------------------
# Index slots
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class Slot:
    """Decoded 8-byte index slot."""

    fingerprint: int
    length_units: int  # KV block size in SLOT_LEN_UNIT units
    pointer: int  # 48-bit global address

    @property
    def empty(self) -> bool:
        return self.pointer == NULL_ADDR

    @property
    def block_bytes(self) -> int:
        return self.length_units * SLOT_LEN_UNIT


def pack_slot(fingerprint: int, length_units: int, pointer: int) -> int:
    """Pack slot fields into the 8-byte integer stored in the index."""
    # one test for the common case: a negative field shifts to -1
    if fingerprint >> 8 or length_units >> 8 or pointer >> 48:
        if not 0 <= fingerprint < 256:
            raise ValueError(f"fingerprint {fingerprint} out of range")
        if not 0 <= length_units < 256:
            raise ValueError(
                f"length {length_units} out of range (in 64B units)")
        raise ValueError(f"pointer {pointer:#x} exceeds 48 bits")
    return (fingerprint << 56) | (length_units << 48) | pointer


def unpack_slot(word: int) -> Slot:
    return Slot(fingerprint=(word >> 56) & 0xFF,
                length_units=(word >> 48) & 0xFF,
                pointer=word & _POINTER_MASK)


def make_fingerprint(key_hash: int) -> int:
    """One byte of the key hash, guaranteed non-zero for non-empty slots.

    A zero fingerprint with a non-null pointer would be fine, but keeping
    it non-zero makes hexdumps easier to read and mirrors RACE.
    """
    fp = (key_hash >> 40) & 0xFF
    return fp or 1


# ---------------------------------------------------------------------------
# KV blocks
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class KvHeader:
    """Decoded KV-block header (one per SEARCH-path READ)."""

    invalid: bool
    key_len: int
    value_len: int
    crc32: int


def kv_block_size(key_len: int, value_len: int) -> int:
    """Minimum bytes a KV pair needs, including header and log entry."""
    return KV_HEADER_SIZE + key_len + value_len + LOG_ENTRY_SIZE


def kv_len_units(key_len: int, value_len: int) -> int:
    """Slot ``Len`` field: the KV pair's size in 64-byte units (§4.2) —
    the *actual* pair size, so a SEARCH reads only what it needs, not the
    whole slab class."""
    need = KV_HEADER_SIZE + key_len + value_len
    return (need + SLOT_LEN_UNIT - 1) // SLOT_LEN_UNIT


def encode_kv_block(key: bytes, value: bytes, block_size: int,
                    log_entry: "LogEntry") -> bytes:
    """Serialise a KV pair + its embedded log entry into one block image.

    The block image is what a single order-preserving RDMA_WRITE carries:
    header, key, value, padding, then the log entry whose trailing used bit
    doubles as the whole-object integrity marker.
    """
    padding = block_size - kv_block_size(len(key), len(value))
    if padding < 0:
        raise ValueError(f"block of {block_size}B cannot hold "
                         f"{block_size - padding}B KV pair")
    return b"".join((_kv_header(key, value), key, value, bytes(padding),
                     encode_log_entry(log_entry)))


def encode_kv_body(key: bytes, value: bytes) -> bytes:
    """Serialise just the KV payload (header + key + value).

    This is the first WRITE of the two-WRITE doorbell batch a client
    posts per replica (body, then log entry); the padding between them
    is never transmitted, so callers that only need the wire images can
    skip materialising the whole block.
    """
    return b"".join((_kv_header(key, value), key, value))


def _kv_header(key: bytes, value: bytes) -> bytes:
    # the CRC of key + value, chained rather than over a concatenated copy
    return _KV_HEADER.pack(0, len(key), len(value),
                           crc32(value, crc32(key)))


def _split_payload(data: bytes):
    """``(flags, key, value, crc)`` of a payload image (header + key +
    value); raises ``ValueError`` on torn or inconsistent data."""
    if len(data) < KV_HEADER_SIZE:
        raise ValueError("block too small")
    flags, key_len, value_len, crc = _KV_HEADER.unpack_from(data, 0)
    start = KV_HEADER_SIZE + key_len
    end = start + value_len
    if end > len(data):
        raise ValueError("header lengths exceed payload")
    if crc32(data[KV_HEADER_SIZE:end]) != crc:
        raise ValueError("KV body CRC mismatch")
    return (flags, bytes(data[KV_HEADER_SIZE:start]), bytes(data[start:end]),
            crc)


def decode_kv_payload(data: bytes):
    """Decode just the KV payload (header + key + value) of a block image.

    A slot's ``Len`` field covers only the payload (``kv_len_units``),
    not the trailing log entry, so this is what an index-path READ
    returns.  Returns ``(header, key, value)``; raises ``ValueError`` on
    torn or inconsistent data.  Code that asks whether the image holds a
    given key uses :func:`match_kv` instead.
    """
    flags, key, value, crc = _split_payload(data)
    header = KvHeader(invalid=bool(flags & FLAG_INVALID), key_len=len(key),
                      value_len=len(value), crc32=crc)
    return header, key, value


# What a KV image says about a key (the statuses of ``match_kv``).
KV_TORN = "torn"            # truncated or CRC-failed: a writer is mid-flight
KV_OTHER_KEY = "other key"  # an intact pair of another key
KV_INVALID = "invalid"      # the key's pair, invalidation-marked (§4.6)
KV_LIVE = "live"            # the key's live pair
#: "This block is the key's pair", marked or not — all a writer, recovery
#: or the loader asks of it; only a reader cares about the flag.
KV_HOLDS_KEY = (KV_INVALID, KV_LIVE)


def match_kv(image: bytes, key: bytes):
    """What the payload image a slot pointed at says about ``key``.

    The one answer to "does this block hold this key?", shared by the
    client's SEARCH and locate paths, the master's recovery and the bulk
    loader.  Returns ``(status, value)``: :data:`KV_TORN` for an image
    that does not decode (a torn write, or a reclaimed and reused
    block), :data:`KV_OTHER_KEY` for a fingerprint collision, and
    :data:`KV_INVALID` / :data:`KV_LIVE` for the key's own pair with and
    without the invalidation flag.  ``value`` is the pair's value for the
    last two and None otherwise.

    Run on every KV block a SEARCH reads, so the checks work on the image
    itself: the CRC over one slice of it, the key compared in place, and
    the value sliced out only for the key's own pair.
    """
    try:
        flags, key_len, value_len, crc = _unpack_kv_header(image)
    except struct.error:    # shorter than a header
        return KV_TORN, None
    start = KV_HEADER_SIZE + key_len
    end = start + value_len
    if end > len(image) or crc32(image[KV_HEADER_SIZE:end]) != crc:
        return KV_TORN, None
    if image[KV_HEADER_SIZE:start] != key:
        return KV_OTHER_KEY, None
    # bytes() hands a bytes slice back as it is, and copies a view's
    return ((KV_INVALID if flags & FLAG_INVALID else KV_LIVE),
            bytes(image[start:end]))


def decode_kv_block(data: bytes):
    """Decode a block image; returns ``(header, key, value, log_entry)``.

    Raises ``ValueError`` if the header is inconsistent with the data or
    the body CRC does not match (torn write / reclaimed object detection,
    the check RACE hashing performs on every data access, §4.4).
    """
    if len(data) < KV_HEADER_SIZE + LOG_ENTRY_SIZE:
        raise ValueError("block too small")
    flags, key_len, value_len, crc = _KV_HEADER.unpack_from(data, 0)
    end = KV_HEADER_SIZE + key_len + value_len
    if end > len(data) - LOG_ENTRY_SIZE:
        raise ValueError("header lengths exceed block")
    key = bytes(data[KV_HEADER_SIZE:KV_HEADER_SIZE + key_len])
    value = bytes(data[KV_HEADER_SIZE + key_len:end])
    if crc32(key + value) & 0xFFFFFFFF != crc:
        raise ValueError("KV body CRC mismatch")
    header = KvHeader(invalid=bool(flags & FLAG_INVALID),
                      key_len=key_len, value_len=value_len, crc32=crc)
    entry = decode_log_entry(data[len(data) - LOG_ENTRY_SIZE:])
    return header, key, value, entry


def log_entry_offset(block_size: int) -> int:
    """Byte offset of the embedded log entry within a block."""
    return block_size - LOG_ENTRY_SIZE


def old_value_offset(block_size: int) -> int:
    """Byte offset of the (old value, CRC) pair — the log *header* that the
    winner commits in phase 3 of Fig. 9."""
    return block_size - LOG_ENTRY_SIZE + 12


# ---------------------------------------------------------------------------
# Embedded log entries
# ---------------------------------------------------------------------------
@dataclass(slots=True, unsafe_hash=True)
class LogEntry:
    """Decoded 22-byte embedded operation log entry (§4.5)."""

    next_ptr: int
    prev_ptr: int
    old_value: int
    old_value_crc: int
    opcode: int
    used: bool

    @property
    def old_value_committed(self) -> bool:
        """True iff the old-value field was written with a matching CRC."""
        return self.old_value_crc == crc8(struct.pack(">Q", self.old_value))


def encode_log_entry(entry: LogEntry) -> bytes:
    next_ptr, prev_ptr, opcode = entry.next_ptr, entry.prev_ptr, entry.opcode
    # one test for the common case: a negative field shifts to -1
    if (next_ptr | prev_ptr) >> 48 or opcode >> 7:
        for name, ptr in (("next", next_ptr), ("prev", prev_ptr)):
            if not 0 <= ptr <= _POINTER_MASK:
                raise ValueError(f"{name} pointer {ptr:#x} exceeds 48 bits")
        raise ValueError(f"opcode {opcode} exceeds 7 bits")
    return _LOG_ENTRY.pack(next_ptr >> 32, next_ptr & 0xFFFFFFFF,
                           prev_ptr >> 32, prev_ptr & 0xFFFFFFFF,
                           entry.old_value & ((1 << 64) - 1),
                           entry.old_value_crc & 0xFF,
                           (opcode << 1) | (1 if entry.used else 0))


def decode_log_entry(data: bytes) -> LogEntry:
    if len(data) != LOG_ENTRY_SIZE:
        raise ValueError(f"log entry must be {LOG_ENTRY_SIZE}B, got {len(data)}")
    next_hi, next_lo, prev_hi, prev_lo, old_value, crc, op_used = \
        _LOG_ENTRY.unpack(data)
    return LogEntry((next_hi << 32) | next_lo, (prev_hi << 32) | prev_lo,
                    old_value, crc, op_used >> 1, bool(op_used & 1))


def committed_old_value_bytes(old_value: int) -> bytes:
    """The 9-byte (old value, CRC) image the winner writes in phase 3."""
    payload = struct.pack(">Q", old_value & ((1 << 64) - 1))
    return payload + bytes([crc8(payload)])
