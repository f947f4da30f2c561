"""Workload generators: YCSB (§6.3), microbenchmarks (§6.2), and
production traffic scenarios (time-varying load, multi-tenant mixes)."""

from .._lazy import lazy_exports
from .scenarios import (
    ConstantRate,
    DiurnalRate,
    FaultEvent,
    FlashCrowdRate,
    HotKeyStorm,
    RampRate,
    RateSchedule,
    SCENARIOS,
    SCENARIO_FAMILIES,
    SMOKE_TRIM,
    Scenario,
    ScenarioOp,
    ScenarioStream,
    SaturatingStream,
    SumRate,
    TenantSpec,
    WorkingSetDrift,
    get_scenario,
    tenant_report,
)
from .ycsb import (
    LatestGenerator,
    ScrambledZipfian,
    WORKLOAD_MIXES,
    YcsbConfig,
    YcsbWorkload,
    ZipfianGenerator,
    key_bytes,
    make_value,
)

# The §6.2 microbenchmark is imported when first named.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".micro": ("MicroConfig", "MicroWorkload"),
})

__all__ = [
    "MicroConfig",
    "MicroWorkload",
    "ConstantRate",
    "DiurnalRate",
    "FaultEvent",
    "FlashCrowdRate",
    "HotKeyStorm",
    "RampRate",
    "RateSchedule",
    "SCENARIOS",
    "SCENARIO_FAMILIES",
    "SMOKE_TRIM",
    "Scenario",
    "ScenarioOp",
    "ScenarioStream",
    "SaturatingStream",
    "SumRate",
    "TenantSpec",
    "WorkingSetDrift",
    "get_scenario",
    "tenant_report",
    "LatestGenerator",
    "ScrambledZipfian",
    "WORKLOAD_MIXES",
    "YcsbConfig",
    "YcsbWorkload",
    "ZipfianGenerator",
    "key_bytes",
    "make_value",
]
