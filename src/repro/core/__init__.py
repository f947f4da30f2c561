"""FUSEE core: the paper's primary contribution and its metadata machinery."""

from .addressing import RegionConfig, RegionLayout, RegionMap
from .cache import AdaptiveIndexCache, CacheEntry, CacheStats
from .client import ClientConfig, ClientCrashed, CrashPoint, FuseeClient, OpResult
from .kvstore import ClusterConfig, FuseeCluster, FuseeKV
from .master import Master, RecoveredClientState, RecoveryReport
from .memory import (
    AllocationError,
    AllocResult,
    ClientAllocator,
    ClientTable,
    MnBlockAllocator,
    size_classes_for,
)
from .oplog import CrashCase, LogWalker, WalkedObject
from .race import (
    BucketView,
    IndexFullError,
    KeyMeta,
    RaceConfig,
    RaceHashing,
    SlotRef,
)
from .ring import ConsistentHashRing
from .snapshot import (
    Outcome,
    ReadResult,
    RuleDecision,
    WriteResult,
    evaluate_rules,
    sequential_write,
    snapshot_read,
    snapshot_write,
)
from .wire import (
    LogEntry,
    Slot,
    kv_block_size,
    pack_slot,
    unpack_slot,
)

__all__ = [
    "RegionConfig", "RegionLayout", "RegionMap",
    "AdaptiveIndexCache", "CacheEntry", "CacheStats",
    "ClientConfig", "ClientCrashed", "CrashPoint", "FuseeClient", "OpResult",
    "ClusterConfig", "FuseeCluster", "FuseeKV",
    "Master", "RecoveredClientState", "RecoveryReport",
    "AllocationError", "AllocResult", "ClientAllocator", "ClientTable",
    "MnBlockAllocator", "size_classes_for",
    "CrashCase", "LogWalker", "WalkedObject",
    "BucketView", "IndexFullError", "KeyMeta", "RaceConfig", "RaceHashing",
    "SlotRef",
    "ConsistentHashRing",
    "Outcome", "ReadResult", "RuleDecision", "WriteResult",
    "evaluate_rules", "sequential_write", "snapshot_read", "snapshot_write",
    "LogEntry", "Slot", "kv_block_size", "pack_slot", "unpack_slot",
]
