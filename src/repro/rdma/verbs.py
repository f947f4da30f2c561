"""One-sided RDMA verb descriptors and completions.

Verbs address memory as ``(mn_id, offset)`` pairs — the fabric-level view.
The 48-bit global address space of §4.4 is layered on top of this in
:mod:`repro.core.addressing`.

Semantics mirror the paper's assumptions (§2.1):

* ``READ`` / ``WRITE`` move bytes; WRITE is order-preserving within a
  doorbell batch posted to the same memory node.
* ``CAS`` / ``FAA`` operate atomically on 8-byte big-endian unsigned
  integers and return the *old* value.
* Any verb posted to a crashed memory node completes with ``FAIL``.
"""

from __future__ import annotations

from typing import Union

__all__ = [
    "FAIL",
    "TIMEOUT",
    "ReadOp",
    "WriteOp",
    "CasOp",
    "FaaOp",
    "Completion",
    "Verb",
    "WORD",
    "verb_ident",
]

WORD = 8  # size of the atomic unit, bytes


class _Fail:
    """Singleton sentinel for verbs that hit a crashed memory node."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FAIL"

    def __bool__(self) -> bool:
        return False


FAIL = _Fail()


class _TimedOut:
    """Singleton sentinel for verbs whose transport retries ran out.

    Distinct from :data:`FAIL` (crashed target) so callers can tell a
    dead node from a flaky/partitioned link, but equally falsy and
    equally covered by :attr:`Completion.failed` — every existing
    failure-handling path treats both the same way.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMEOUT"

    def __bool__(self) -> bool:
        return False


TIMEOUT = _TimedOut()


# Verb descriptors are the single hottest allocation in a simulation (a
# few per RTT per client), so they are hand-written __slots__ classes
# instead of frozen dataclasses: plain attribute assignment in __init__
# is several times cheaper than dataclass-frozen object.__setattr__,
# while __eq__/__hash__/__repr__ keep the value semantics tests rely on.


class ReadOp:
    """RDMA_READ of ``length`` bytes at ``(mn_id, addr)``."""

    __slots__ = ("mn_id", "addr", "length")

    def __init__(self, mn_id: int, addr: int, length: int):
        self.mn_id = mn_id
        self.addr = addr
        self.length = length

    def __repr__(self) -> str:
        return (f"ReadOp(mn_id={self.mn_id!r}, addr={self.addr!r}, "
                f"length={self.length!r})")

    def __eq__(self, other) -> bool:
        if other.__class__ is not ReadOp:
            return NotImplemented
        return (self.mn_id == other.mn_id and self.addr == other.addr
                and self.length == other.length)

    def __hash__(self) -> int:
        return hash((ReadOp, self.mn_id, self.addr, self.length))


class WriteOp:
    """RDMA_WRITE of ``data`` at ``(mn_id, addr)``."""

    __slots__ = ("mn_id", "addr", "data")

    def __init__(self, mn_id: int, addr: int, data: bytes):
        self.mn_id = mn_id
        self.addr = addr
        self.data = data

    def __repr__(self) -> str:
        return (f"WriteOp(mn_id={self.mn_id!r}, addr={self.addr!r}, "
                f"data={self.data!r})")

    def __eq__(self, other) -> bool:
        if other.__class__ is not WriteOp:
            return NotImplemented
        return (self.mn_id == other.mn_id and self.addr == other.addr
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((WriteOp, self.mn_id, self.addr, self.data))


class CasOp:
    """8-byte RDMA compare-and-swap; returns the previous value."""

    __slots__ = ("mn_id", "addr", "expected", "swap")

    def __init__(self, mn_id: int, addr: int, expected: int, swap: int):
        self.mn_id = mn_id
        self.addr = addr
        self.expected = expected
        self.swap = swap

    def __repr__(self) -> str:
        return (f"CasOp(mn_id={self.mn_id!r}, addr={self.addr!r}, "
                f"expected={self.expected!r}, swap={self.swap!r})")

    def __eq__(self, other) -> bool:
        if other.__class__ is not CasOp:
            return NotImplemented
        return (self.mn_id == other.mn_id and self.addr == other.addr
                and self.expected == other.expected
                and self.swap == other.swap)

    def __hash__(self) -> int:
        return hash((CasOp, self.mn_id, self.addr, self.expected, self.swap))


class FaaOp:
    """8-byte RDMA fetch-and-add; returns the previous value."""

    __slots__ = ("mn_id", "addr", "delta")

    def __init__(self, mn_id: int, addr: int, delta: int):
        self.mn_id = mn_id
        self.addr = addr
        self.delta = delta

    def __repr__(self) -> str:
        return (f"FaaOp(mn_id={self.mn_id!r}, addr={self.addr!r}, "
                f"delta={self.delta!r})")

    def __eq__(self, other) -> bool:
        if other.__class__ is not FaaOp:
            return NotImplemented
        return (self.mn_id == other.mn_id and self.addr == other.addr
                and self.delta == other.delta)

    def __hash__(self) -> int:
        return hash((FaaOp, self.mn_id, self.addr, self.delta))


Verb = Union[ReadOp, WriteOp, CasOp, FaaOp]


class Completion:
    """Result of one verb.

    ``value`` is ``bytes`` for READ, ``None`` for WRITE, the old integer for
    CAS/FAA, :data:`FAIL` if the target memory node had crashed, or
    :data:`TIMEOUT` if transport retries were exhausted (fault injection).
    """

    __slots__ = ("op", "value")

    def __init__(self, op: Verb, value: object):
        self.op = op
        self.value = value

    def __repr__(self) -> str:
        return f"Completion(op={self.op!r}, value={self.value!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not Completion:
            return NotImplemented
        return self.op == other.op and self.value == other.value

    @property
    def failed(self) -> bool:
        value = self.value
        return value is FAIL or value is TIMEOUT

    def cas_succeeded(self) -> bool:
        """For a CAS completion: did the swap take effect?"""
        if not isinstance(self.op, CasOp):
            raise TypeError("cas_succeeded() on a non-CAS completion")
        return self.value == self.op.expected


def verb_ident(op: Verb) -> tuple:
    """Content identity of a verb (kind, address, operands).

    The fault layer keys its deterministic fate draws on this, so a
    fate depends on *what* is sent, not on how many unrelated draws
    happened before it — replaying a schedule replays the same faults.
    """
    if isinstance(op, ReadOp):
        return ("R", op.addr, op.length)
    if isinstance(op, WriteOp):
        return ("W", op.addr, op.data)
    if isinstance(op, CasOp):
        return ("C", op.addr, op.expected, op.swap)
    if isinstance(op, FaaOp):
        return ("F", op.addr, op.delta)
    raise TypeError(f"unknown verb {op!r}")


def op_bytes(op: Verb) -> int:
    """Payload size charged to the NIC for a verb."""
    if isinstance(op, ReadOp):
        return op.length
    if isinstance(op, WriteOp):
        return len(op.data)
    return WORD
