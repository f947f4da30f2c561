"""Deterministic, seeded fault injection for the simulated fabric.

Layers network imperfections (loss, duplication, jitter, partitions,
gray nodes) onto the DES fabric and gives clients/master a transport
retry/backoff + idempotency-token resilience layer, so FUSEE's
availability story (§5) can be exercised beyond crash-stop failures.

See :doc:`docs/faults` and ``python -m repro faults``.
"""

from .campaign import CAMPAIGNS, CampaignReport, run_campaign
from .model import (
    CN,
    Fate,
    FaultInjector,
    FaultPlan,
    GrayNode,
    LinkFault,
    Partition,
    fate_key,
)
from .retry import NO_RETRY, RetryPolicy

__all__ = [
    "CAMPAIGNS",
    "CampaignReport",
    "CN",
    "Fate",
    "FaultInjector",
    "FaultPlan",
    "GrayNode",
    "LinkFault",
    "NO_RETRY",
    "Partition",
    "RetryPolicy",
    "fate_key",
    "run_campaign",
]
