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

from dataclasses import dataclass, field
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


@dataclass(slots=True, unsafe_hash=True)
class ReadOp:
    """RDMA_READ of ``length`` bytes at ``(mn_id, addr)``."""

    mn_id: int
    addr: int
    length: int


@dataclass(slots=True, unsafe_hash=True)
class WriteOp:
    """RDMA_WRITE of ``data`` at ``(mn_id, addr)``."""

    mn_id: int
    addr: int
    data: bytes


@dataclass(slots=True, unsafe_hash=True)
class CasOp:
    """8-byte RDMA compare-and-swap; returns the previous value."""

    mn_id: int
    addr: int
    expected: int
    swap: int


@dataclass(slots=True, unsafe_hash=True)
class FaaOp:
    """8-byte RDMA fetch-and-add; returns the previous value."""

    mn_id: int
    addr: int
    delta: int


Verb = Union[ReadOp, WriteOp, CasOp, FaaOp]


@dataclass(slots=True, init=False)
class Completion:
    """Result of one verb.

    ``value`` is ``bytes`` for READ, ``None`` for WRITE, the old integer for
    CAS/FAA, :data:`FAIL` if the target memory node had crashed, or
    :data:`TIMEOUT` if transport retries were exhausted (fault injection).
    ``failed`` is derived from ``value`` when the completion is built,
    since callers test it per verb, and is not part of the value.
    """

    op: Verb
    value: object
    failed: bool = field(compare=False, repr=False)

    def __init__(self, op: Verb, value: object):
        self.op = op
        self.value = value
        self.failed = value is FAIL or value is TIMEOUT

    def cas_succeeded(self) -> bool:
        """For a CAS completion: did the swap take effect?"""
        if not isinstance(self.op, CasOp):
            raise TypeError("cas_succeeded() on a non-CAS completion")
        return self.value == self.op.expected


def op_bytes(op: Verb) -> int:
    """Payload size charged to the NIC for a verb."""
    if isinstance(op, ReadOp):
        return op.length
    if isinstance(op, WriteOp):
        return len(op.data)
    return WORD
