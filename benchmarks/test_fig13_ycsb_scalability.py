"""Fig. 13: YCSB throughput vs number of clients, three systems."""

from repro.harness import fig13_ycsb_scalability

from .conftest import run_once


def test_fig13_ycsb_scalability(benchmark, scale, record):
    result = run_once(benchmark, fig13_ycsb_scalability, scale)
    record(result)
    table = {(w, c): (f, cl, p) for w, c, f, cl, p in result.rows}
    lo, hi = min(scale.clients_sweep), max(scale.clients_sweep)
    # FUSEE scales with clients on the write-heavy workload...
    assert table[("A", hi)][0] > table[("A", lo)][0] * 1.5
    # ...and leads both baselines at full concurrency
    assert table[("A", hi)][0] > table[("A", hi)][1] * 1.5   # vs Clover
    assert table[("A", hi)][0] > table[("A", hi)][2] * 1.5   # vs pDPM
    # read-only workload: everyone scales; FUSEE competitive
    assert table[("C", hi)][0] > table[("C", lo)][0] * 1.5
    assert table[("C", hi)][0] >= table[("C", hi)][2]
