"""A memory node (MN): byte-addressable memory plus a weak CPU.

Each MN owns one flat, fixed-length buffer of registered memory — an
anonymous private mapping that the OS zero-fills page by page on first
touch, so a node costs the host what a run writes to it, not its
``capacity`` (slices of it read as ``bytes``) — plus ``num_ports``
rx/tx RNIC port pairs (each a serialisation line — see
:class:`repro.sim.NicPort`), and a small CPU pool (1-2 cores per §2.1)
that serves memory-management RPCs (ALLOC/FREE) only.  All data-path
accesses are one-sided: the CPU is never involved.

Real RNICs serve RoCE traffic over many hardware queues; ``num_ports``
models that multi-queue capacity, with the fabric hashing each client
QP onto a port (``FabricConfig.port_affinity``).  ``rpc_shards``
likewise splits the CPU pool into independent per-shard
:class:`~repro.sim.Resource`\\ s so ALLOC/metadata RPCs from different
clients stop serialising behind one server loop.  Both default to 1,
which reproduces the single-queue node byte-for-byte (same labels,
same timing).

Crash-stop failures (§5.1): after :meth:`crash`, every verb and RPC
completes with :data:`~repro.rdma.verbs.FAIL`.
"""

from __future__ import annotations

import mmap
import struct
from collections import OrderedDict
from typing import Callable, Dict, Tuple

from ..sim import Environment, NicPort, NicProfile, Resource
from .verbs import WORD, CasOp, FaaOp, ReadOp, WriteOp

__all__ = ["MemoryNode", "MASK64", "TokenCache"]

MASK64 = (1 << 64) - 1
# Tokens an MN remembers per table (verb results, RPC replies).
DEDUP_CAPACITY = 8192

_U64 = struct.Struct(">Q")

# An RPC handler maps a payload dict to (reply dict, cpu service time in us).
RpcHandler = Callable[[dict], Tuple[dict, float]]


class TokenCache(OrderedDict):
    """First replies by idempotency token, so a re-delivery is answered
    instead of re-executed.  Holds ``(reply,)``, so a None reply is still
    a hit; past ``capacity`` tokens the oldest is evicted (FIFO: a hit
    does not refresh it)."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def put(self, token: int, reply) -> None:
        self[token] = (reply,)
        if len(self) > self.capacity:
            self.popitem(last=False)


class MemoryNode:
    """One node of the disaggregated memory pool."""

    def __init__(self, env: Environment, mn_id: int, capacity: int,
                 nic_profile: NicProfile | None = None,
                 cpu_cores: int = 2,
                 rpc_service_us: float = 2.0,
                 num_ports: int = 1,
                 rpc_shards: int = 1):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(
                f"MN{mn_id}: capacity must be a positive int, "
                f"got {capacity!r}")
        if num_ports < 1:
            raise ValueError("num_ports must be >= 1")
        if rpc_shards < 1:
            raise ValueError("rpc_shards must be >= 1")
        self.env = env
        self.mn_id = mn_id
        self.capacity = capacity
        # The OS is the page table: a page exists once it is written.
        # Private (ACCESS_COPY), not the shared default: a read of a
        # never-written range then maps the kernel's zero page instead
        # of allocating one, and a fork()ed child gets its own copy.
        # Slice writes are length-preserving (mmap enforces it) and a
        # slice reads as bytes, so READ is one copy.
        self.memory = mmap.mmap(-1, capacity, access=mmap.ACCESS_COPY)
        profile = nic_profile or NicProfile()
        # Full-duplex RNIC: inbound (writes, atomics, RPC) and outbound
        # (read payloads) directions serialize independently, as on real
        # InfiniBand links.  With num_ports > 1 each direction has that
        # many independent serialisation lines (hardware queues); the
        # single-port labels keep their historical names so profiles and
        # metrics stay byte-identical at the default.
        def _label(stem: str, index: int) -> str:
            return stem if num_ports == 1 else f"{stem}.p{index}"

        self.num_ports = num_ports
        self.rx_ports = [NicPort(env, profile,
                                 label=_label(f"mn{mn_id}.nic_rx", i))
                         for i in range(num_ports)]
        self.tx_ports = [NicPort(env, profile,
                                 label=_label(f"mn{mn_id}.nic_tx", i))
                         for i in range(num_ports)]
        self.nic = self.rx_ports[0]      # port-0 aliases: single-queue view
        self.nic_tx = self.tx_ports[0]
        # RPC CPU shards: one pooled Resource at the default, else
        # rpc_shards independent serving loops splitting the cores (each
        # shard keeps at least one core, mirroring a thread-per-shard
        # server on a 1-2 core MN).
        self.rpc_shards = rpc_shards
        if rpc_shards == 1:
            self.cpus = [Resource(env, capacity=cpu_cores,
                                  label=f"mn{mn_id}.cpu")]
        else:
            per_shard = max(1, cpu_cores // rpc_shards)
            self.cpus = [Resource(env, capacity=per_shard,
                                  label=f"mn{mn_id}.cpu.s{i}")
                         for i in range(rpc_shards)]
        self.cpu = self.cpus[0]
        self.rpc_service_us = rpc_service_us
        self.crashed = False
        self._rpc_handlers: Dict[str, RpcHandler] = {}
        # simple bump allocator for carving regions at cluster-build time
        self._carve_cursor = 0
        # Transport-level idempotency (the RNIC's PSN dedup, emulated by
        # token): result caches consulted by the fault-aware fabric paths
        # so a retransmission after a lost reply is answered from the
        # cache instead of re-executing — a retried CAS/FAA can never
        # double-apply and a retried ALLOC/FREE RPC can never re-run.
        self._verb_results = TokenCache(DEDUP_CAPACITY)
        self.rpc_replies = TokenCache(DEDUP_CAPACITY)

    # -- cluster-build-time helpers ---------------------------------------
    def carve(self, nbytes: int, align: int = WORD) -> int:
        """Reserve ``nbytes`` of this node's memory; returns the offset.

        Used only while laying out the cluster (index replicas, region
        tables, ...), never on the data path.
        """
        start = (self._carve_cursor + align - 1) // align * align
        if start + nbytes > self.capacity:
            raise MemoryError(
                f"MN{self.mn_id}: carve of {nbytes} bytes exceeds capacity "
                f"({start + nbytes} > {self.capacity})")
        self._carve_cursor = start + nbytes
        return start

    # -- multi-queue helpers ------------------------------------------------
    def tx_backlog(self, now: float) -> float:
        """Queued tx service summed over all ports (µs of work).

        The quantity read-spreading ranks replicas by; identical to
        ``nic_tx.backlog(now)`` on a single-port node.
        """
        if self.num_ports == 1:
            return self.nic_tx.backlog(now)
        return sum(port.backlog(now) for port in self.tx_ports)

    def rx_backlog(self, now: float) -> float:
        """Queued rx service summed over all ports (µs of work)."""
        if self.num_ports == 1:
            return self.nic.backlog(now)
        return sum(port.backlog(now) for port in self.rx_ports)

    @property
    def cpu_capacity(self) -> int:
        """Total RPC-serving cores across all shards."""
        return sum(shard.capacity for shard in self.cpus)

    # -- failure injection --------------------------------------------------
    def crash(self) -> None:
        # The liveness flag is shared state every verb's outcome depends
        # on; footprint it so schedule exploration never prunes a
        # reordering across a crash (the fabric notes the matching read).
        self.env.note_access(("crash", self.mn_id), True)
        self.crashed = True

    def recover(self) -> None:
        """Bring the node back (used by elasticity / reconfiguration tests)."""
        self.env.note_access(("crash", self.mn_id), True)
        self.crashed = False

    # -- verb execution (called by the fabric at the serialisation point) ---
    def apply(self, op):
        """Atomically apply a verb to local memory; returns its raw result."""
        noting = self.env._access_hook is not None
        cls = op.__class__
        if cls is ReadOp:
            addr = op.addr
            length = op.length
            if addr < 0 or addr + length > self.capacity:
                self._check_range(addr, length)
            if noting:
                self._note_words(addr, length, write=False)
            return self.memory[addr:addr + length]
        if cls is WriteOp:
            addr = op.addr
            data = op.data
            nbytes = len(data)
            if addr < 0 or addr + nbytes > self.capacity:
                self._check_range(addr, nbytes)
            if noting:
                self._note_words(addr, nbytes, write=True)
            self.memory[addr:addr + nbytes] = data
            return None
        if cls is CasOp:
            self._check_range(op.addr, WORD)
            if noting:
                self._note_words(op.addr, WORD, write=True)
            old = _U64.unpack_from(self.memory, op.addr)[0]
            if old == op.expected & MASK64:
                _U64.pack_into(self.memory, op.addr, op.swap & MASK64)
            return old
        if cls is FaaOp:
            self._check_range(op.addr, WORD)
            if noting:
                self._note_words(op.addr, WORD, write=True)
            old = _U64.unpack_from(self.memory, op.addr)[0]
            _U64.pack_into(self.memory, op.addr, (old + op.delta) & MASK64)
            return old
        raise TypeError(f"unknown verb {op!r}")

    def apply_once(self, token: int, op) -> Tuple[object, bool]:
        """Apply a verb at most once per idempotency ``token``.

        Returns ``(value, deduplicated)``.  A re-delivery with a token
        already seen (a retransmission, or a fabric-duplicated request)
        returns the cached first result without touching memory — the
        PSN-dedup behaviour of a reliable-connection RNIC.
        """
        hit = self._verb_results.get(token)
        if hit is not None:
            return hit[0], True
        value = self.apply(op)
        self._verb_results.put(token, value)
        return value, False

    def _note_words(self, addr: int, length: int, write: bool) -> None:
        """Report touched 8-byte words to the schedule explorer, if any."""
        if self.env._access_hook is None or length <= 0:
            return
        note = self.env.note_access
        for word in range(addr // WORD, (addr + length - 1) // WORD + 1):
            note(("m", self.mn_id, word), write)

    def read_word(self, addr: int) -> int:
        """Debug/recovery helper: read an 8-byte word without the fabric."""
        self._check_range(addr, WORD)
        return _U64.unpack_from(self.memory, addr)[0]

    def write_word(self, addr: int, value: int) -> None:
        """Debug/bootstrap helper: write an 8-byte word without the fabric."""
        self._check_range(addr, WORD)
        _U64.pack_into(self.memory, addr, value & MASK64)

    # -- RPC plumbing ---------------------------------------------------------
    def register_rpc(self, name: str, handler: RpcHandler) -> None:
        self._rpc_handlers[name] = handler

    def rpc_handler(self, name: str) -> RpcHandler:
        return self._rpc_handlers[name]

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or addr + length > self.capacity:
            raise IndexError(
                f"MN{self.mn_id}: access [{addr}, {addr + length}) outside "
                f"capacity {self.capacity}")

    def __repr__(self) -> str:  # pragma: no cover
        state = "crashed" if self.crashed else "up"
        return f"<MemoryNode {self.mn_id} {state} {self.capacity}B>"
