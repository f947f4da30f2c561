"""Observability layer: per-operation tracing, metrics, exporters.

The paper's design is an RTT budget (§4: cached SEARCH in 1 RTT,
doorbell-batched write phases, +1 RTT per CR replica); this package makes
those budgets directly observable instead of inferring them from
end-to-end throughput.  See ``tests/test_rtt_budgets.py`` for the
paper-derived regression suite built on top of it.
"""

from .._lazy import lazy_exports
from .detect import DetectorFlag, GrayDetector, detector_verdict
from .monitor import (
    Monitor,
    MonitorConfig,
    health_fingerprint,
    load_health,
    render_health,
    write_health,
)
from .profile import (
    CATEGORIES,
    RESIDUAL,
    Profiler,
    RunProfile,
    profile_report,
    span_breakdown,
)
from .sketches import DDSketch, SpaceSaving
from .slo import KV_OPS, SloSpec, SloState
from .tracer import Span, Tracer, verb_kind
from .windows import WindowStore

# The offline analyses and exporters are imported when first named: an
# observed bed records spans, profiles and panes, it does not export them.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".critical": ("CriticalPath", "analyze_critical_path",
                  "critical_report"),
    ".export": ("chrome_trace", "jsonl_lines", "metrics_table",
                "summary_table", "write_chrome_trace", "write_jsonl"),
    ".flame": ("folded_stacks", "write_folded"),
    ".metrics": ("Counter", "Gauge", "Histogram", "Metrics", "TimeSeries",
                 "sample_fabric"),
})

__all__ = [
    "Tracer",
    "Span",
    "verb_kind",
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "sample_fabric",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
    "summary_table",
    "metrics_table",
    "CATEGORIES",
    "RESIDUAL",
    "Profiler",
    "RunProfile",
    "profile_report",
    "span_breakdown",
    "CriticalPath",
    "analyze_critical_path",
    "critical_report",
    "folded_stacks",
    "write_folded",
    "DDSketch",
    "SpaceSaving",
    "WindowStore",
    "SloSpec",
    "SloState",
    "KV_OPS",
    "GrayDetector",
    "DetectorFlag",
    "detector_verdict",
    "Monitor",
    "MonitorConfig",
    "render_health",
    "write_health",
    "load_health",
    "health_fingerprint",
]
