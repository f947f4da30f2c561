"""Tests for the linearizability checker itself (known histories)."""

import pytest

from repro.core.linearizability import History, Op, check_linearizable


def history(initial=0, *ops):
    h = History(initial_value=initial)
    for kind, value, inv, resp in ops:
        h.record(kind, value, inv, resp)
    return h


class TestOpValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Op("x", 1, 0, 1)

    def test_resp_before_inv_rejected(self):
        with pytest.raises(ValueError):
            Op("r", 1, 5, 4)


class TestTrivial:
    def test_empty_history(self):
        assert check_linearizable(History())

    def test_single_read_of_initial(self):
        assert check_linearizable(history(0, ("r", 0, 0, 1)))

    def test_single_read_of_wrong_initial(self):
        assert not check_linearizable(history(0, ("r", 5, 0, 1)))

    def test_write_then_read(self):
        assert check_linearizable(history(
            0, ("w", 7, 0, 1), ("r", 7, 2, 3)))

    def test_read_of_never_written_value(self):
        assert not check_linearizable(history(
            0, ("w", 7, 0, 1), ("r", 9, 2, 3)))


class TestRealTimeOrder:
    def test_stale_read_after_write_completes(self):
        """A read strictly after a write cannot return the old value."""
        assert not check_linearizable(history(
            0, ("w", 7, 0, 1), ("r", 0, 2, 3)))

    def test_concurrent_read_may_return_old_value(self):
        assert check_linearizable(history(
            0, ("w", 7, 0, 10), ("r", 0, 1, 2)))

    def test_concurrent_read_may_return_new_value(self):
        assert check_linearizable(history(
            0, ("w", 7, 0, 10), ("r", 7, 1, 2)))

    def test_two_sequential_writes_order(self):
        assert not check_linearizable(history(
            0, ("w", 1, 0, 1), ("w", 2, 2, 3), ("r", 1, 4, 5)))

    def test_concurrent_writes_any_order(self):
        assert check_linearizable(history(
            0, ("w", 1, 0, 10), ("w", 2, 0, 10), ("r", 1, 11, 12)))
        assert check_linearizable(history(
            0, ("w", 1, 0, 10), ("w", 2, 0, 10), ("r", 2, 11, 12)))

    def test_reads_must_agree_on_write_order(self):
        """Two sequential reads seeing w2-then-w1 is not linearizable."""
        assert not check_linearizable(history(
            0,
            ("w", 1, 0, 10), ("w", 2, 0, 10),
            ("r", 2, 11, 12), ("r", 1, 13, 14)))

    def test_reads_after_both_writes_agree_on_final_value(self):
        assert check_linearizable(history(
            0,
            ("w", 1, 0, 10), ("w", 2, 0, 10),
            ("r", 2, 11, 12), ("r", 2, 13, 14)))

    def test_read_concurrent_with_second_write_may_differ(self):
        """r1 overlaps w2, so it may see w1's value while r2 sees w2's."""
        assert check_linearizable(history(
            0,
            ("w", 1, 0, 10), ("w", 2, 0, 20),
            ("r", 1, 11, 12), ("r", 2, 21, 22)))


class TestNonTrivialCases:
    def test_classic_nonlinearizable_triangle(self):
        # w(1) completes; then read sees initial value again.
        assert not check_linearizable(history(
            5, ("w", 1, 0, 2), ("r", 1, 3, 4), ("r", 5, 5, 6)))

    def test_interleaved_ok(self):
        assert check_linearizable(history(
            0,
            ("w", 1, 0, 4),
            ("r", 0, 1, 2),   # linearizes before w1
            ("r", 1, 3, 6),
            ("w", 2, 5, 8),
            ("r", 2, 9, 10)))

    def test_large_history_performance(self):
        ops = []
        t = 0.0
        value = 0
        for i in range(1, 21):
            ops.append(("w", i, t, t + 1))
            ops.append(("r", i, t + 2, t + 3))
            t += 4
        assert check_linearizable(history(0, *ops))

    def test_oversized_history_rejected(self):
        h = History()
        for i in range(64):
            h.record("w", i, i, i + 0.5)
        with pytest.raises(ValueError):
            check_linearizable(h)


# --------------------------------------------------------------------------
# KV checker: quiescent-cut decomposition of long paced histories
# --------------------------------------------------------------------------
from repro.core.linearizability import KvOp, check_kv_linearizable


class TestQuiescentCutDecomposition:
    """Production traffic scenarios put thousands of paced ops on a hot
    key.  The per-key search decomposes at quiescent cuts (no op in
    flight), so the bitmask cap applies to genuine concurrent bursts,
    not run length — and the set of legally reachable states is
    threaded across each cut."""

    def _sequential(self, n):
        ops, t = [], 0.0
        for i in range(n):
            val = f"v{i}".encode()
            ops.append(KvOp("update", b"k", t, t + 1.0, ok=True,
                            wrote=val))
            ops.append(KvOp("search", b"k", t + 2.0, t + 3.0, ok=True,
                            value=val))
            t += 4.0
        return ops

    def test_long_sequential_history_checks_linearizable(self):
        # 200 ops on one key: far beyond the 63-op burst cap.
        ops = self._sequential(100)
        assert check_kv_linearizable(ops, initial={b"k": b"x"}) is None

    def test_stale_read_caught_across_a_cut(self):
        ops = self._sequential(100)
        t = ops[-1].completed + 10.0
        ops.append(KvOp("search", b"k", t, t + 1.0, ok=True,
                        value=b"v1"))
        violation = check_kv_linearizable(ops, initial={b"k": b"x"})
        assert violation is not None and violation.key == b"k"

    def test_ambiguous_burst_state_threads_across_the_cut(self):
        # Two concurrent updates; a later sequential read may observe
        # either winner — both end states must survive the cut.
        for observed in (b"a", b"b"):
            ops = [
                KvOp("update", b"k", 0.0, 10.0, ok=True, wrote=b"a"),
                KvOp("update", b"k", 0.0, 10.0, ok=True, wrote=b"b"),
                KvOp("search", b"k", 20.0, 21.0, ok=True,
                     value=observed),
            ]
            assert check_kv_linearizable(
                ops, initial={b"k": b"x"}) is None

    def test_overwritten_initial_value_is_not_readable_after_cut(self):
        ops = [
            KvOp("update", b"k", 0.0, 10.0, ok=True, wrote=b"a"),
            KvOp("update", b"k", 0.0, 10.0, ok=True, wrote=b"b"),
            KvOp("search", b"k", 20.0, 21.0, ok=True, value=b"x"),
        ]
        assert check_kv_linearizable(ops, initial={b"k": b"x"}) \
            is not None

    def test_oversized_concurrent_burst_still_rejected(self):
        # 64 genuinely overlapping ops: no cut exists, the cap trips.
        ops = [KvOp("update", b"k", 0.0, 100.0, ok=True,
                    wrote=f"v{i}".encode()) for i in range(64)]
        with pytest.raises(ValueError):
            check_kv_linearizable(ops)

    def test_pending_op_glues_its_tail_into_one_burst(self):
        # A pending update may land anywhere after invocation (or
        # never): a later read of either value is legal.
        for observed in (b"old", b"new"):
            ops = [
                KvOp("insert", b"k", 0.0, 1.0, ok=True, wrote=b"old"),
                KvOp("update", b"k", 5.0, float("inf"), wrote=b"new",
                     required=False),
                KvOp("search", b"k", 50.0, 51.0, ok=True,
                     value=observed),
            ]
            assert check_kv_linearizable(ops) is None


# --------------------------------------------------------------------------
# Differential: one search, the same verdicts as the three it replaced
# --------------------------------------------------------------------------
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.linearizability_reference import (
    reference_check_kv_linearizable, reference_check_linearizable)


def _verdict(check, *args):
    try:
        return check(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _span(rng):
    invoked = rng.randrange(13)
    return invoked, invoked + rng.randrange(7)


def _register_history(rng):
    """Reads, writes, pending writes (and pending reads, which the
    checker drops); one in ten gets a sequential tail that takes it
    over the 63-op cap."""
    h = History(initial_value=rng.randrange(3))
    for _ in range(rng.randrange(9)):
        kind = rng.choice(["r", "w", "pending-w", "pending-r"])
        invoked, completed = _span(rng)
        if kind.startswith("pending"):
            h.record_pending(kind[-1], rng.randrange(4), invoked)
        else:
            h.record(kind, rng.randrange(4), invoked, completed)
    if rng.randrange(10) == 0:
        for i in range(60):
            h.record("w", i, 100 + 2 * i, 101 + 2 * i)
    return h


def _kv_history(rng):
    """Two keys, all four kinds, lost / existed / pending ops; one in
    ten gets a concurrent burst over the 63-op cap."""
    ops = []
    for _ in range(rng.randrange(10)):
        kind = rng.choice(["search", "insert", "update", "delete"])
        invoked, completed = _span(rng)
        pending = rng.randrange(6) == 0
        ops.append(KvOp(
            kind, rng.choice([b"k1", b"k2"]), invoked,
            float("inf") if pending else completed,
            ok=rng.random() < 0.5 and not pending,
            wrote=rng.choice([b"a", b"b"])
            if kind in ("insert", "update") else None,
            value=rng.choice([None, b"a", b"b", b"x"]),
            existed=rng.random() < 0.5, lost=rng.random() < 0.3,
            required=not pending))
    if rng.randrange(10) == 0:
        ops += [KvOp("update", b"k2", 50.0, 60.0, wrote=b"%d" % i)
                for i in range(64)]
    initial = rng.choice([None, {b"k1": b"x"}, {b"k1": b"a", b"k2": b"b"}])
    return ops, initial


class TestOneSearchDifferential:
    """The register and KV checkers return the verdict (or raise the
    exception type) of the three separate searches they replaced,
    frozen in ``tests/linearizability_reference.py``.

    Hypothesis draws one seed per example and the histories are built
    from it: drawing every field through Hypothesis costs ~9 ms an
    example, the seed ~0.1 ms, and a failure still names its seed.
    Small state budgets make the ``RuntimeError`` cap trip part of the
    time, so that path is compared too."""

    @settings(max_examples=2000)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 40, 2_000_000]))
    def test_same_verdicts_as_the_three_searches(self, seed, budget):
        rng = random.Random(seed)
        h = _register_history(rng)
        assert (_verdict(check_linearizable, h, budget)
                == _verdict(reference_check_linearizable, h, budget))
        ops, initial = _kv_history(rng)
        assert (_verdict(check_kv_linearizable, ops, initial, budget)
                == _verdict(reference_check_kv_linearizable, ops, initial,
                            budget))
