"""Transport-level retry/backoff policy.

The policy mirrors what a reliable-connection RNIC does in hardware:
each verb (and each RPC) gets a per-attempt timeout; a lost request or
reply triggers a retransmission after a capped exponential backoff with
jitter.  Retransmissions carry the *same* idempotency token (the PSN
analogue), so the responder deduplicates re-deliveries and a retry after
a dropped reply never double-applies — see :mod:`repro.faults.model` and
the fault-aware paths in :mod:`repro.rdma.fabric`.

All draws are externalised: :meth:`RetryPolicy.backoff_us` takes the
uniform variate ``u`` as an argument, so the schedule is a pure function
of ``(attempt, u)`` — deterministic, unit-testable, and replayable under
schedule exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "NO_RETRY", "backoff_wait"]

#: Fraction of a backoff the jitter variate may shave off.
JITTER_FRAC = 0.5


def backoff_wait(env, duration_us: float, label: str = "retry"):
    """A timeout attributed as backoff time in latency breakdowns.

    Every deliberate retry/timeout sleep (transport retransmission waits,
    client-level retry pauses, master-RPC re-sends) should yield this
    instead of a bare ``env.timeout`` so the profiler
    (:mod:`repro.obs.profile`) attributes the sleep explicitly rather
    than leaving it in the client-compute residual.  Without a profiler
    installed this is exactly ``env.timeout(duration_us)``.
    """
    return env.attributed_timeout(duration_us, "backoff", label)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-verb / per-RPC timeout and capped exponential backoff.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retries entirely (one shot, then a typed timeout), which is how the
    fault campaigns prove the injector actually injects.
    """

    max_attempts: int = 6
    verb_timeout_us: float = 12.0   # one-sided verbs: ~SLA of a clean RTT
    rpc_timeout_us: float = 60.0    # RPCs queue on the weak MN CPU
    backoff_base_us: float = 2.0
    backoff_cap_us: float = 64.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_us(self, attempt: int, u: float = 0.0) -> float:
        """Backoff before retransmitting after failed attempt ``attempt``.

        ``attempt`` is 1-based; ``u`` in [0, 1) is the jitter variate.
        Deterministic: the same ``(attempt, u)`` always yields the same
        delay, and the result never exceeds ``backoff_cap_us``.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = self.backoff_base_us * (2.0 ** (attempt - 1))
        capped = min(raw, self.backoff_cap_us)
        return capped * (1.0 - JITTER_FRAC * u)


#: One shot, no retransmissions — used to demonstrate that campaigns fail
#: without the resilience layer.
NO_RETRY = RetryPolicy(max_attempts=1)
