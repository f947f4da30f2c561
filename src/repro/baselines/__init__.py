"""Baseline systems the paper compares against (§6.1, §3.1)."""

from .._lazy import lazy_exports
from .clover import CloverClient, CloverCluster, CloverConfig
from .common import BumpGrantAllocator, RpcServer, decode_record, encode_record
from .pdpm import PdpmClient, PdpmCluster, PdpmConfig

# The Fig. 3 replicated objects are imported when first named.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".fig3": ("ConsensusReplicatedObject", "LockReplicatedObject",
              "ReplicatedObjectBed", "SnapshotReplicatedObject"),
})

__all__ = [
    "CloverClient",
    "CloverCluster",
    "CloverConfig",
    "BumpGrantAllocator",
    "RpcServer",
    "decode_record",
    "encode_record",
    "ConsensusReplicatedObject",
    "LockReplicatedObject",
    "ReplicatedObjectBed",
    "SnapshotReplicatedObject",
    "PdpmClient",
    "PdpmCluster",
    "PdpmConfig",
]
