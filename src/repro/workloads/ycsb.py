"""YCSB workload generation (Cooper et al., SoCC'10), as used in §6.3.

The paper: "we generate 100,000 keys with the Zipfian distribution
(θ = 0.99). We use 1024-byte KV pairs."  Workloads:

* **A** — 50% SEARCH / 50% UPDATE (write-intensive)
* **B** — 95% SEARCH /  5% UPDATE (read-intensive)
* **C** — 100% SEARCH (read-only)
* **D** — 95% SEARCH of *recent* keys / 5% INSERT (read-latest)

plus the custom SEARCH:UPDATE mixes of Fig. 15.

The Zipfian generator is the standard YCSB rejection-free construction
(Gray et al.'s "Quickly generating billion-record synthetic databases"
algorithm) with the zeta constants precomputed.
"""

from __future__ import annotations

import functools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ZipfianGenerator",
    "ScrambledZipfian",
    "LatestGenerator",
    "YcsbConfig",
    "YcsbWorkload",
    "WORKLOAD_MIXES",
    "make_value",
    "key_bytes",
]

ZIPFIAN_CONSTANT = 0.99

# op mixes: (search, update, insert) fractions
WORKLOAD_MIXES = {
    "A": (0.50, 0.50, 0.00),
    "B": (0.95, 0.05, 0.00),
    "C": (1.00, 0.00, 0.00),
    "D": (0.95, 0.00, 0.05),
}


class ZipfianGenerator:
    """Zipf-distributed integers in ``[0, n)`` with parameter theta."""

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT,
                 seed: Optional[int] = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # next() settles ranks 0 and 1 before it reads eta, so two keys or
        # fewer never use it — and at n == 2 its denominator is zero.  1.0
        # keeps the formula in range there whatever rounding does.
        self._eta = 1.0 if n <= 2 else (
            (1.0 - math.pow(2.0 / n, 1.0 - theta))
            / (1.0 - self._zeta2 / self._zetan))

    @staticmethod
    @functools.cache
    def _zeta(n: int, theta: float) -> float:
        """The n-term zeta constant: O(n), so summed once per key space,
        not once per client stream (every client of a bed shares it)."""
        return sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + math.pow(0.5, self.theta):
            return 1
        return int(self.n * math.pow(self._eta * u - self._eta + 1.0,
                                     self._alpha))

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next()


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
#: Per key space ``n``, rank -> key index: filled as ranks are first drawn
#: and shared by every stream over that key space.
_SCATTER: Dict[int, Dict[int, int]] = defaultdict(dict)


def scatter(rank: int, n: int) -> int:
    """Where a popularity rank lands in an ``n``-key space: FNV-1a of its
    eight little-endian bytes, mod ``n``.  A pure function of ``(rank, n)``
    that a Zipfian stream calls with the same few ranks over and over, so
    it is hashed once per rank of a key space, not once per draw (the byte
    loop costs more than a kernel event)."""
    table = _SCATTER[n]
    index = table.get(rank)
    if index is None:
        h = FNV_OFFSET
        value = rank
        for _ in range(8):
            h ^= value & 0xFF
            h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
            value >>= 8
        index = table[rank] = h % n
    return index


class ScrambledZipfian:
    """Zipfian ranks scattered over the key space (YCSB's scrambled mode),
    so hot keys are not clustered in the same hash-index region."""

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT,
                 seed: Optional[int] = None):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, seed)

    def next(self) -> int:
        return scatter(self._zipf.next(), self.n)


class LatestGenerator:
    """YCSB-D's read-latest distribution: recent inserts are hottest."""

    def __init__(self, initial_n: int, theta: float = ZIPFIAN_CONSTANT,
                 seed: Optional[int] = None):
        self._max = initial_n - 1
        self._zipf = ZipfianGenerator(initial_n, theta, seed)

    def observe_insert(self, key_index: int) -> None:
        self._max = max(self._max, key_index)

    def next(self) -> int:
        offset = self._zipf.next()
        return max(0, self._max - (offset % (self._max + 1)))


_KEY_BYTES_CACHE: dict = {}


def key_bytes(index: int) -> bytes:
    """YCSB-style key: 'user' + zero-padded index (24 bytes total).

    Memoised: the zipfian choosers revisit hot preloaded indices
    constantly, and formatting+encoding per op is measurable at scale.
    The cache is bounded by the preloaded key range in practice (fresh
    inserts go through the per-client namespaced format instead).
    """
    cached = _KEY_BYTES_CACHE.get(index)
    if cached is None:
        cached = f"user{index:020d}".encode()
        _KEY_BYTES_CACHE[index] = cached
    return cached


def make_value(value_size: int, salt: int = 0) -> bytes:
    """A deterministic, non-compressible-looking value of the given size."""
    if value_size == 0:
        return b""
    pattern = (salt * 0x9E3779B97F4A7C15 + 0x243F6A8885A308D3) & ((1 << 64) - 1)
    raw = pattern.to_bytes(8, "big") * (value_size // 8 + 1)
    return raw[:value_size]


@dataclass(frozen=True)
class YcsbConfig:
    """Parameters of one YCSB run (§6.3 defaults)."""

    workload: str = "A"
    n_keys: int = 100_000
    kv_size: int = 1024            # total key+value bytes (paper default)
    theta: float = ZIPFIAN_CONSTANT
    scrambled: bool = True
    # custom (search, update, insert) mix overriding `workload` (Fig. 15)
    mix: Optional[Tuple[float, float, float]] = None

    def __post_init__(self):
        if self.mix is None and self.workload not in WORKLOAD_MIXES:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.mix is not None and abs(sum(self.mix) - 1.0) > 1e-9:
            raise ValueError("mix fractions must sum to 1")
        if self.kv_size < 64:
            raise ValueError("kv_size too small for key framing")

    @property
    def fractions(self) -> Tuple[float, float, float]:
        return self.mix if self.mix is not None else WORKLOAD_MIXES[
            self.workload]

    @property
    def value_size(self) -> int:
        return self.kv_size - len(key_bytes(0))


class YcsbWorkload:
    """A per-client stream of (op, key, value) YCSB operations."""

    def __init__(self, config: YcsbConfig, seed: int = 0):
        self.config = config
        self._tag = seed & 0xFFFF  # namespaces this client's fresh inserts
        self._rng = random.Random(seed ^ 0x5DEECE66D)
        if config.workload == "D" and config.mix is None:
            self._latest = LatestGenerator(config.n_keys, config.theta,
                                           seed=seed)
            self._chooser = None
        else:
            self._latest = None
            cls = ScrambledZipfian if config.scrambled else ZipfianGenerator
            self._chooser = cls(config.n_keys, config.theta, seed=seed)
        self._next_insert = config.n_keys
        self._op_serial = 0
        # Per-op hot constants: the config properties re-derive these on
        # every access (value_size even formats a key), so copy once.
        self._fractions = config.fractions
        self._value_size = config.value_size
        self._n_keys = config.n_keys

    def load_keys(self) -> List[bytes]:
        """The keys preloaded before the measured run."""
        return [key_bytes(i) for i in range(self.config.n_keys)]

    def load_value(self, index: int) -> bytes:
        return make_value(self.config.value_size, salt=index)

    def next_op(self) -> Tuple[str, bytes, Optional[bytes]]:
        """Returns ``(op, key, value)`` with op in search/update/insert."""
        search_f, update_f, _insert_f = self._fractions
        r = self._rng.random()
        self._op_serial += 1
        if r < search_f:
            return "search", self._key(self._choose()), None
        if r < search_f + update_f:
            index = self._choose()
            value = make_value(self._value_size,
                               salt=index ^ self._op_serial)
            return "update", key_bytes(index), value
        index = self._next_insert
        self._next_insert += 1
        if self._latest is not None:
            self._latest.observe_insert(index)
        return "insert", self._key(index), self.load_value(index)

    def _key(self, index: int) -> bytes:
        """Preloaded keys are global; fresh inserts (YCSB-D) are
        namespaced per client stream so concurrent clients never collide."""
        if index < self._n_keys:
            return key_bytes(index)
        return f"user{self._tag:05d}n{index:015d}".encode()

    def _choose(self) -> int:
        if self._latest is not None:
            return self._latest.next()
        return self._chooser.next()
