"""FUSEE — a fully memory-disaggregated key-value store (FAST'23).

Python reproduction on a simulated RDMA fabric.  The public surface:

* :class:`repro.FuseeKV` — synchronous single-client store for apps.
* :class:`repro.FuseeCluster` / :class:`repro.ClusterConfig` — full
  deployments with many clients, failure injection, and the master.
* :mod:`repro.obs` — per-operation tracing, metrics, and exporters
  (Chrome ``trace_event`` / JSONL / text summaries).
* :mod:`repro.workloads` — YCSB and microbenchmark generators.
* :mod:`repro.harness` — throughput/latency experiment drivers that
  regenerate every table and figure of the paper's evaluation.
* :mod:`repro.baselines` — Clover, pDPM-Direct, and the Fig. 3
  consensus/lock replication comparators.
"""

from .core import (
    ClientConfig,
    ClusterConfig,
    FuseeClient,
    FuseeCluster,
    FuseeKV,
    OpResult,
)
from ._lazy import lazy_exports
from .obs import Tracer
from .rdma import Fabric, FabricConfig, MemoryNode
from .sim import Environment

# The metrics registry (``repro.obs.metrics``) is imported when first
# named, as it is in ``repro.obs``.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".obs": ("Metrics",),
})

__version__ = "1.0.0"

__all__ = [
    "ClientConfig",
    "ClusterConfig",
    "FuseeClient",
    "FuseeCluster",
    "FuseeKV",
    "OpResult",
    "Fabric",
    "FabricConfig",
    "MemoryNode",
    "Environment",
    "Metrics",
    "Tracer",
    "__version__",
]
