"""Tests for the network-imperfection fault layer (repro.faults).

Three tiers:

* unit — the retry/backoff schedule is a deterministic pure function,
  and the idempotency-token caches on the MN and the master dedup
  retransmissions without re-executing;
* acceptance — the mixed campaign (loss + duplication + a transient
  partition) completes with zero hung ops, zero leaked blocks, and a
  KV-linearizable history; the same campaign with retries disabled
  demonstrably fails, proving the resilience layer is load-bearing;
* property — Hypothesis generates small fault plans over random op
  programs and asserts every run is *sound* (no hangs, no leaks,
  linearizable) even when individual ops fail with typed errors.

The long random sweep is marked ``campaign`` and excluded from tier-1;
run it with ``pytest -m campaign``.
"""

import hashlib
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FuseeCluster
from repro.faults import (
    CN,
    CAMPAIGNS,
    Fate,
    FaultInjector,
    FaultPlan,
    GrayNode,
    LinkFault,
    Partition,
    RetryPolicy,
    fate_key,
    run_campaign,
)
from repro.faults import retry as retry_mod
from repro.rdma import Fabric, FabricConfig
from repro.rdma.memory_node import MemoryNode
from repro.rdma.verbs import CasOp, FaaOp, ReadOp, WriteOp
from repro.sim import Environment
from tests.conftest import run, small_config


# --------------------------------------------------------------------------
# Retry / backoff policy
# --------------------------------------------------------------------------
def test_backoff_schedule_is_deterministic_and_exponential():
    policy = RetryPolicy(backoff_base_us=2.0, backoff_cap_us=64.0)
    # same (attempt, u) -> same delay, every time
    for attempt in range(1, 8):
        for u in (0.0, 0.25, 0.999):
            assert policy.backoff_us(attempt, u) == \
                policy.backoff_us(attempt, u)
    # with u=0 (no jitter taken) the schedule doubles until the cap
    undithered = [policy.backoff_us(a, 0.0) for a in range(1, 8)]
    assert undithered == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 64.0]


def test_backoff_cap_and_jitter_bounds():
    policy = RetryPolicy(backoff_base_us=3.0, backoff_cap_us=50.0)
    for attempt in range(1, 20):
        for u in (0.0, 0.1, 0.5, 0.999999):
            delay = policy.backoff_us(attempt, u)
            assert delay <= policy.backoff_cap_us
            # jitter shaves off at most JITTER_FRAC of the capped delay
            full = policy.backoff_us(attempt, 0.0)
            assert delay >= full * (1.0 - retry_mod.JITTER_FRAC)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy().backoff_us(0)


# Each primitive refuses a value that would corrupt a run, naming the field;
# the gray factor scales the clean loop's NIC service, so a bad one would
# corrupt the port state of every verb, not only the faulted ones.
@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: GrayNode(mn_id=0, factor=-2.0), "factor",
                 id="gray-negative-factor"),
    pytest.param(lambda: GrayNode(mn_id=0, factor=0.0), "factor",
                 id="gray-zero-factor"),
    pytest.param(lambda: GrayNode(mn_id=0, factor=math.nan), "factor",
                 id="gray-nan-factor"),
    pytest.param(lambda: GrayNode(mn_id=0, start_us=10.0, end_us=5.0),
                 "start_us", id="gray-window-reversed"),
    pytest.param(lambda: LinkFault(drop_p=-0.1), "drop_p",
                 id="link-negative-drop"),
    pytest.param(lambda: LinkFault(drop_p=1.5), "drop_p",
                 id="link-drop-above-one"),
    pytest.param(lambda: LinkFault(dup_p=2), "dup_p",
                 id="link-dup-above-one"),
    pytest.param(lambda: LinkFault(jitter_us=-3), "jitter_us",
                 id="link-negative-jitter"),
    pytest.param(lambda: LinkFault(start_us=10, end_us=5), "start_us",
                 id="link-window-reversed"),
    pytest.param(lambda: Partition(a=CN, b=0, start_us=10.0, end_us=5.0),
                 "start_us", id="partition-window-reversed"),
    pytest.param(lambda: RetryPolicy(verb_timeout_us=-1), "verb_timeout_us",
                 id="retry-negative-verb-timeout"),
    pytest.param(lambda: RetryPolicy(rpc_timeout_us=-1), "rpc_timeout_us",
                 id="retry-negative-rpc-timeout"),
    pytest.param(lambda: RetryPolicy(backoff_base_us=-1), "backoff_base_us",
                 id="retry-negative-backoff-base"),
    pytest.param(lambda: RetryPolicy(backoff_cap_us=-0.5), "backoff_cap_us",
                 id="retry-negative-backoff-cap"),
])
def test_fault_primitives_refuse_nonsense(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_fault_primitives_accept_their_edges():
    LinkFault(drop_p=1.0, dup_p=0.0, jitter_us=0.0, start_us=5, end_us=5)
    Partition(a=CN, b=0, start_us=3.0, end_us=3.0)
    GrayNode(mn_id=0, factor=1e-3, start_us=-math.inf, end_us=math.inf)
    RetryPolicy(verb_timeout_us=0.0, rpc_timeout_us=0.0, backoff_base_us=0.0,
                backoff_cap_us=0.0)


# --------------------------------------------------------------------------
# Idempotency tokens
# --------------------------------------------------------------------------
def _bare_mn():
    env = Environment()
    return MemoryNode(env, mn_id=0, capacity=4096)


def test_mn_verb_dedup_never_double_applies():
    mn = _bare_mn()
    faa = FaaOp(mn_id=0, addr=0, delta=5)
    value, deduped = mn.apply_once(token=101, op=faa)
    assert (value, deduped) == (0, False)
    # retransmission with the same token: cached result, memory untouched
    value, deduped = mn.apply_once(token=101, op=faa)
    assert (value, deduped) == (0, True)
    assert mn.apply(FaaOp(mn_id=0, addr=0, delta=0)) == 5  # applied exactly once
    # a *new* token is a new operation
    value, deduped = mn.apply_once(token=102, op=FaaOp(mn_id=0, addr=0, delta=5))
    assert (value, deduped) == (5, False)


def test_mn_cas_dedup_returns_first_outcome():
    mn = _bare_mn()
    cas = CasOp(mn_id=0, addr=8, expected=0, swap=7)
    old, deduped = mn.apply_once(token=7, op=cas)
    assert (old, deduped) == (0, False)
    # the re-delivery must NOT observe the new value and report failure
    old, deduped = mn.apply_once(token=7, op=cas)
    assert (old, deduped) == (0, True)


def test_mn_rpc_reply_cache_round_trip_and_eviction():
    mn = _bare_mn()
    replies = mn.rpc_replies
    assert replies.get(1) is None
    replies.put(1, {"ok": True, "block": 3})
    assert replies.get(1) == ({"ok": True, "block": 3},)
    replies.capacity = 4
    for token in range(2, 6):          # token 5 is the capacity + 1-th
        replies.put(token, {"ok": True})
    assert len(replies) == 4
    assert replies.get(1) is None      # oldest evicted
    assert replies.get(2) is not None
    for token in range(6, 10):
        replies.put(token, {"ok": True})
    assert replies.get(5) is None
    assert replies.get(9) is not None


def test_master_rpc_dedup_runs_handler_once():
    cluster = FuseeCluster(small_config())
    master = cluster.master
    calls = []

    def handler(tag):
        calls.append(tag)
        yield cluster.env.timeout(1.0)
        return f"reply-{tag}"

    assert run(cluster, master._dedup_call(500, handler("a"))) == "reply-a"
    # retransmission: cached reply, handler generator closed unentered
    assert run(cluster, master._dedup_call(500, handler("b"))) == "reply-a"
    assert calls == ["a"]
    assert master.rpc_dedup_hits == 1
    # token=None bypasses dedup entirely (fault layer not installed)
    assert run(cluster, master._dedup_call(None, handler("c"))) == "reply-c"
    assert run(cluster, master._dedup_call(None, handler("d"))) == "reply-d"
    assert calls == ["a", "c", "d"]


def _returned(gen):
    """The return value of a generator that finishes without yielding."""
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


class TestTokenCache:
    """The MN verb results, the MN RPC replies and the master's client-RPC
    results are one bounded FIFO cache each: a token within capacity is
    answered from it, the (capacity + 1)-th evicts the oldest."""

    def test_capacities(self):
        mn = _bare_mn()
        master = FuseeCluster(small_config()).master
        assert (mn._verb_results.capacity, mn.rpc_replies.capacity,
                master._rpc_results.capacity) == (8192, 8192, 4096)

    def test_mn_verb_results_evict_the_oldest_at_capacity_plus_one(self):
        mn = _bare_mn()
        capacity = mn._verb_results.capacity
        for token in range(capacity + 1):
            assert mn.apply_once(token, FaaOp(mn_id=0, addr=0, delta=1)) \
                == (token, False)
        assert len(mn._verb_results) == capacity
        # token 1 is still held: answered, memory untouched
        assert mn.apply_once(1, FaaOp(mn_id=0, addr=0, delta=1)) == (1, True)
        # token 0 was evicted: a re-delivery of it applies again
        assert mn.apply_once(0, FaaOp(mn_id=0, addr=0, delta=1)) \
            == (capacity + 1, False)

    def test_mn_rpc_retransmission_is_answered_without_rerunning(self):
        # MN 0 hears requests but its replies are lost until t=50: the
        # first attempt runs the handler, the retransmission must not
        env = Environment()
        fab = Fabric(env, FabricConfig())
        node = MemoryNode(env, 0, capacity=4096)
        fab.add_node(node)
        calls = []

        def alloc(payload):
            calls.append(payload)
            return {"ok": True, "block": len(calls)}, 1.0

        node.register_rpc("alloc", alloc)
        fab.injector = FaultInjector(FaultPlan(partitions=[
            Partition(a=CN, b=0, end_us=50.0, drop_requests=False)]))
        reply = env.run(until=fab.rpc(0, "alloc", {"size": 64}))
        assert reply == {"ok": True, "block": 1}
        assert calls == [{"size": 64}]
        assert fab.stats.rpc_retries >= 1
        assert fab.stats.rpc_dedup_hits == fab.stats.rpc_retries
        assert len(node.rpc_replies) == 1

    def test_master_results_evict_the_oldest_at_capacity_plus_one(self):
        master = FuseeCluster(small_config()).master
        calls = []

        def handler(tag):
            calls.append(tag)
            return tag
            yield   # a generator, like every master RPC handler

        capacity = master._rpc_results.capacity
        for token in range(capacity + 1):
            assert _returned(master._dedup_call(token, handler(token))) \
                == token
        assert len(master._rpc_results) == capacity
        # a retransmission within capacity: the cached result, no re-run
        assert _returned(master._dedup_call(1, handler("again"))) == 1
        assert master.rpc_dedup_hits == 1
        # token 0 was evicted: its retransmission runs the handler again
        assert _returned(master._dedup_call(0, handler("rerun"))) == "rerun"
        assert calls[-1] == "rerun" and "again" not in calls


# --------------------------------------------------------------------------
# Fault injector draws
# --------------------------------------------------------------------------
def test_fates_are_deterministic_and_window_scoped():
    plan = FaultPlan(link_faults=[
        LinkFault(drop_p=0.5, dup_p=0.3, jitter_us=1.0,
                  start_us=100.0, end_us=200.0)], seed=42)
    inj = FaultInjector(plan)
    ident = ("write", 1, 2, 3)
    inside = [inj.fate(ident, 0, attempt, 150.0) for attempt in (1, 2, 3)]
    assert inside == [inj.fate(ident, 0, a, 150.0) for a in (1, 2, 3)]
    # outside the window every delivery is clean
    clean = inj.fate(ident, 0, 1, 250.0)
    assert not (clean.drop_request or clean.drop_reply or clean.duplicate)
    # attempts draw independent fates (retries can escape a bad draw)
    assert len({(f.drop_request, f.drop_reply, f.duplicate, f.backoff_u)
                for f in inside}) > 1


def _reference_key(msg, mn_id, attempt, now):
    """The fate key, spelled out: a domain tag, the MN, the attempt and
    the instant as an IEEE double, then a verb's kind, address and
    operands at the wire width (a WRITE's body length, then its bytes),
    or any other message's ``repr``."""
    def i64(x):
        return x.to_bytes(8, "big", signed=True)

    def u64(x):
        return (x % 2 ** 64).to_bytes(8, "big")

    head = i64(mn_id) + i64(attempt) + struct.pack(">d", now)
    if isinstance(msg, ReadOp):
        return b"V" + head + b"R" + i64(msg.addr) + i64(msg.length)
    if isinstance(msg, WriteOp):
        return (b"V" + head + b"W" + i64(msg.addr) + i64(len(msg.data))
                + bytes(msg.data))
    if isinstance(msg, CasOp):
        return (b"V" + head + b"C" + i64(msg.addr) + u64(msg.expected)
                + u64(msg.swap))
    if isinstance(msg, FaaOp):
        return b"V" + head + b"F" + i64(msg.addr) + u64(msg.delta)
    return b"M" + head + repr(msg).encode()


def _reference_fate(inj, msg, mn_id, attempt, now, port=None):
    """``FaultInjector.fate`` spelled with plain ``hashlib``: per active
    link fault one BLAKE2b digest (40 bytes, keyed by the plan seed) of
    the key and the fault's 4-byte index, read as five 64-bit words;
    the backoff's digest takes index 0xFFFFFFFF."""
    key = _reference_key(msg, mn_id, attempt, now)
    seed = (inj.plan.seed % 2 ** 63).to_bytes(8, "big")

    def words(index):
        digest = hashlib.blake2b(key + index.to_bytes(4, "big"),
                                 digest_size=40, key=seed).digest()
        return [int.from_bytes(digest[k:k + 8], "big") >> 11
                for k in range(0, 40, 8)]

    drop_req, drop_rep = inj.cn_partition(mn_id, now, port)
    dup = False
    jit_req = jit_rep = 0.0
    for i, lf in inj._active_link_faults(mn_id, now, port):
        dq, dr, dp, jq, jr = (w / 2.0 ** 53 for w in words(i))
        drop_req = drop_req or dq < lf.drop_p
        drop_rep = drop_rep or dr < lf.drop_p
        dup = dup or dp < lf.dup_p
        jit_req += lf.jitter_us * jq
        jit_rep += lf.jitter_us * jr
    if not (drop_req or drop_rep or dup or jit_req or jit_rep):
        return Fate()
    return Fate(drop_request=drop_req, drop_reply=drop_rep, duplicate=dup,
                request_jitter_us=jit_req, reply_jitter_us=jit_rep,
                backoff_u=words(0xFFFFFFFF)[0] / 2.0 ** 53)


def test_fates_hash_the_packed_wire_key():
    """A fate is one keyed BLAKE2b digest per active link fault over the
    packed key of the message, plus one for the backoff: the same drops,
    dups, jitters and backoff variates as the reference spelling, for
    verbs and for RPC / master identity tuples alike."""
    plan = FaultPlan(
        link_faults=[
            LinkFault(drop_p=0.3, dup_p=0.2, jitter_us=1.5),
            LinkFault(mn_id=1, drop_p=0.5, start_us=50.0, end_us=150.0),
            LinkFault(mn_id=0, jitter_us=0.25, port=1),
            LinkFault(dup_p=0.4, start_us=100.0)],
        partitions=[Partition(a=CN, b=2, start_us=120.0, end_us=140.0)],
        seed=0xFA7E)
    inj = FaultInjector(plan)
    msgs = [WriteOp(0, 4096, bytes(range(256)) * 4),       # a 1 KB body
            WriteOp(1, 64, b"it's \"quoted\"\n\x00"), WriteOp(0, 8, b""),
            CasOp(0, 8, 0, 1 << 63), CasOp(2, 8, -1, 7), FaaOp(0, 16, -1),
            FaaOp(0, 24, 1 << 63), ("rpc", "alloc", 37),
            ("rpc", "free", (3, 7)), ("master", "fail_query", 12)]
    msgs += [ReadOp(i % 3, 64 * i, 8 + i) for i in range(40)]
    fates = {}
    for msg in msgs:
        for mn_id in (-1, 0, 1, 2):
            for attempt in (1, 2, 5):
                for now, port in ((0.0, None), (99.99999999999999, 0),
                                  (130.5, 1), (1e-07, None), (1234567.0, 1)):
                    args = (msg, mn_id, attempt, now, port)
                    fates[args] = inj.fate(*args)
                    assert fates[args] == _reference_fate(inj, *args), args
                    # a clean draw is the one clean fate, by identity
                    assert (fates[args] is inj.clean_fate) \
                        == (fates[args] == Fate()), args
    assert len(fates) == 3000
    kinds = {(f.drop_request, f.drop_reply, f.duplicate,
              f.request_jitter_us > 0.0) for f in fates.values()}
    assert len(kinds) >= 8          # every outcome is drawn, not just one
    # a partition-only fate (no link fault active) still draws its backoff
    lone = FaultInjector(FaultPlan(partitions=[
        Partition(a=CN, b=0, start_us=0.0, end_us=10.0)], seed=3))
    args = (ReadOp(0, 0, 8), 0, 1, 5.0)
    assert lone.fate(*args) == _reference_fate(lone, *args)
    assert lone.fate(*args).drop_request and lone.fate(*args).backoff_u > 0.0


class TestFateDraw:
    """Properties of the one-digest draw that the reference spelling does
    not state: calibrated and independent variates, a key that is the
    wire value and never the port, and no collisions between messages."""

    PLAN = FaultPlan(link_faults=[
        LinkFault(drop_p=0.05, dup_p=0.05, jitter_us=2.0)], seed=2024)

    def test_event_rates_match_their_probabilities(self):
        inj = FaultInjector(self.PLAN)
        n = 20000
        fates = [inj.fate(ReadOp(i % 4, 8 * i, 8 + i % 64), i % 4, 1, 10.0)
                 for i in range(n)]

        def within_4_sigma(hits, p):
            return abs(hits / n - p) <= 4 * math.sqrt(p * (1 - p) / n)

        p = 0.05
        assert within_4_sigma(sum(f.drop_request for f in fates), p)
        assert within_4_sigma(sum(f.drop_reply for f in fates), p)
        assert within_4_sigma(sum(f.duplicate for f in fates), p)
        # two words of one digest are independent: both drops at p**2
        assert within_4_sigma(
            sum(f.drop_request and f.drop_reply for f in fates), p * p)
        # jitter is uniform on [0, 2): mean 1, sd 2 / sqrt(12)
        sd_mean = 2.0 / math.sqrt(12 * n)
        for jitters in ([f.request_jitter_us for f in fates],
                        [f.reply_jitter_us for f in fates]):
            assert abs(sum(jitters) / n - 1.0) <= 4 * sd_mean
            assert all(0.0 <= j < 2.0 for j in jitters)
        assert all(0.0 <= f.backoff_u < 1.0 for f in fates)
        assert abs(sum(f.backoff_u for f in fates) / n - 0.5) \
            <= 4 / math.sqrt(12 * n)

    def test_the_port_is_not_in_the_key(self):
        inj = FaultInjector(self.PLAN)
        for op in (ReadOp(0, 64, 8), WriteOp(1, 8, b"body"),
                   CasOp(0, 8, 1, 2), ("rpc", "alloc", 5)):
            assert len({inj.fate(op, 0, 1, 3.5, port)
                        for port in (None, 0, 1)}) == 1

    def test_a_new_attempt_or_instant_draws_afresh(self):
        inj = FaultInjector(self.PLAN)
        op = WriteOp(0, 64, bytes(16))
        first = inj.fate(op, 0, 1, 3.5)
        assert first == inj.fate(op, 0, 1, 3.5)
        assert first != inj.fate(op, 0, 2, 3.5)
        assert first != inj.fate(op, 0, 1, math.nextafter(3.5, 4.0))
        assert first != inj.fate(op, 1, 1, 3.5)

    def test_fates_are_keyed_on_the_wire_value(self):
        """The MN applies CAS and FAA operands masked to 64 bits, so two
        spellings of one wire value are one message and draw one fate."""
        inj = FaultInjector(self.PLAN)
        for a, b in ((CasOp(0, 8, -1, 5), CasOp(0, 8, 2 ** 64 - 1, 5)),
                     (CasOp(0, 8, 5, -2), CasOp(0, 8, 5, 2 ** 64 - 2)),
                     (FaaOp(0, 8, -1), FaaOp(0, 8, 2 ** 64 - 1))):
            assert fate_key(a, 0, 1, 2.0) == fate_key(b, 0, 1, 2.0)
            assert inj.fate(a, 0, 1, 2.0) == inj.fate(b, 0, 1, 2.0)
        # the bitmap FAA sets bit 63: a valid unsigned word
        assert inj.fate(FaaOp(0, 8, 1 << 63), 0, 1, 2.0) \
            == _reference_fate(inj, FaaOp(0, 8, 1 << 63), 0, 1, 2.0)

    def test_the_key_tells_adversarial_pairs_apart(self):
        inj = FaultInjector(self.PLAN)
        pairs = [
            (WriteOp(0, 64, b"abcd"), WriteOp(0, 64, b"abce")),
            (WriteOp(0, 64, b"abc"), WriteOp(0, 64, b"abcd")),
            (WriteOp(0, 64, b"\x00"), WriteOp(0, 64, b"")),
            (ReadOp(0, 8, 16), ReadOp(0, 16, 8)),
            (ReadOp(0, 64, 4), WriteOp(0, 64, b"abcd")),
            (CasOp(0, 8, 1, 2), CasOp(0, 8, 2, 1)),
            (FaaOp(0, 8, 3), ReadOp(0, 8, 3)),
            (ReadOp(0, 64, 8), ("R", 64, 8)),
            (WriteOp(0, 64, b"x"), ("W", 64, b"x")),
            (("rpc", "alloc", 1), ("rpc", "alloc", 11)),
        ]
        for a, b in pairs:
            assert fate_key(a, 0, 1, 2.0) != fate_key(b, 0, 1, 2.0), (a, b)
            assert inj.fate(a, 0, 1, 2.0) != inj.fate(b, 0, 1, 2.0), (a, b)
        # the header's fields never run into each other
        assert fate_key(ReadOp(0, 8, 8), 1, 2, 3.0) \
            != fate_key(ReadOp(0, 8, 8), 2, 1, 3.0)


def test_partition_topology_queries():
    plan = FaultPlan(partitions=[
        Partition(a=CN, b=1, start_us=0.0, end_us=50.0,
                  drop_requests=True, drop_replies=False),
        Partition(a=0, b=2, start_us=0.0, end_us=50.0)], seed=0)
    inj = FaultInjector(plan)
    assert inj.cn_partition(1, 10.0) == (True, False)   # asymmetric
    assert inj.cn_partition(1, 60.0) == (False, False)  # healed
    assert inj.cn_partition(0, 10.0) == (False, False)  # other MN untouched
    assert not inj.mn_reachable(0, 2, 10.0)
    assert inj.mn_reachable(0, 2, 60.0)
    assert inj.mn_reachable(1, 2, 10.0)


def test_gray_node_service_factor():
    plan = FaultPlan(gray_nodes=[
        GrayNode(mn_id=1, factor=4.0, start_us=10.0, end_us=20.0)], seed=0)
    inj = FaultInjector(plan)
    assert inj.service_factor(1, 15.0) == 4.0
    assert inj.service_factor(1, 25.0) == 1.0
    assert inj.service_factor(0, 15.0) == 1.0


# --------------------------------------------------------------------------
# Window queries memoised per epoch
# --------------------------------------------------------------------------
_EDGES = (-math.inf, 0.0, 10.0, 10.5, 99.99999999999999, 100.0, 250.0,
          math.inf)
_EDGE = st.sampled_from(_EDGES)
_SPOT = st.one_of(_EDGE, st.floats(-20.0, 300.0, allow_nan=False))
_ENDPOINT = st.sampled_from([CN, 0, 1, 2])
_MNS = (-1, 0, 1, 2)           # -1: the clients' master link
_PORTS = (None, 0, 1)


@st.composite
def _plans_and_queries(draw):
    """Plans of every fault kind whose windows start and end on shared
    edges, at ±inf, at random instants, or at one instant (empty), and
    the ``(time, "link" | "mn")`` queries to ask them."""
    def window():
        start, end = sorted((draw(_SPOT), draw(_SPOT)))
        return dict(start_us=start, end_us=end)

    port = st.sampled_from(_PORTS)
    links = draw(st.lists(st.builds(
        lambda mn, p, drop, dup, jit, w: LinkFault(
            mn_id=mn, drop_p=drop, dup_p=dup, jitter_us=jit, port=p, **w),
        st.sampled_from([None, 0, 1, 2]), port,
        st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.0, 0.4]),
        st.sampled_from([0.0, 1.5]), st.builds(window)), max_size=3))
    parts = draw(st.lists(st.builds(
        lambda a, b, req, rep, p, w: Partition(
            a=a, b=b, drop_requests=req, drop_replies=rep, port=p, **w),
        _ENDPOINT, _ENDPOINT, st.booleans(), st.booleans(), port,
        st.builds(window)), max_size=3))
    grays = draw(st.lists(st.builds(
        lambda mn, f, p, w: GrayNode(mn_id=mn, factor=f, port=p, **w),
        st.sampled_from([0, 1, 2]), st.sampled_from([2.0, 3.5, 8.0]), port,
        st.builds(window)), max_size=2))
    plan = FaultPlan(link_faults=links, partitions=parts, gray_nodes=grays,
                     seed=draw(st.integers(0, 9)))
    # window edges exactly, their float neighbours, anything, and out of
    # order: revisiting an earlier epoch reuses its tables, and either
    # kind of query may be the first to reach an epoch
    edges = sorted({t for f in (*links, *parts, *grays)
                    for t in (f.start_us, f.end_us)} | set(_EDGES))
    near = st.sampled_from(edges).map(lambda t: math.nextafter(t, math.inf))
    queries = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(edges), near, _SPOT),
        st.sampled_from(["link", "mn"])), min_size=1, max_size=10))
    return plan, queries


def _scanned(plan, mn_id, now, port):
    """The plan scan every window query made before it was memoised."""
    def hits(fault_port):
        return fault_port is None or fault_port == port

    drop_req = drop_rep = False
    for p in plan.partitions:
        if not p.active(now) or not hits(p.port):
            continue
        if p.a == CN and p.b == mn_id:
            drop_req |= p.drop_requests
            drop_rep |= p.drop_replies
        elif p.a == mn_id and p.b == CN:
            drop_req |= p.drop_replies
            drop_rep |= p.drop_requests
    factor = 1.0
    for g in plan.gray_nodes:
        if g.mn_id == mn_id and g.active(now) and hits(g.port):
            factor *= g.factor
    active = [(i, lf) for i, lf in enumerate(plan.link_faults)
              if (lf.mn_id is None or lf.mn_id == mn_id)
              and lf.active(now) and hits(lf.port)]
    return (drop_req, drop_rep), factor, active


def _scanned_reachable(plan, src, dst, now):
    for p in plan.partitions:
        if not p.active(now) or p.port is not None:
            continue
        if p.a == src and p.b == dst and p.drop_requests:
            return False
        if p.a == dst and p.b == src and p.drop_replies:
            return False
    return True


class TestEpochMemo:
    """A `FaultInjector` resolves the plan once per epoch — the span
    between two consecutive window edges — and keeps the answers.  One
    injector asked in any order must answer every query exactly as the
    plan scan does and as a fresh injector does."""

    @given(case=_plans_and_queries())
    # an epoch's last instant, then the edge that closes it
    @example(case=(FaultPlan(gray_nodes=[GrayNode(
        mn_id=0, start_us=10.0, end_us=100.0)]), [(100.0, "link")]))
    # an edge first, then the epoch it closes
    @example(case=(FaultPlan(gray_nodes=[GrayNode(
        mn_id=0, start_us=10.0, end_us=100.0)]),
        [(10.0, "link"), (5.0, "link")]))
    # a new epoch reached first by an MN↔MN query, then the old one again
    @example(case=(FaultPlan(partitions=[Partition(
        a=0, b=1, start_us=10.0, end_us=100.0)]),
        [(5.0, "link"), (50.0, "mn"), (5.0, "mn")]))
    @settings(max_examples=150, deadline=None)
    def test_memoised_queries_answer_as_a_fresh_scan(self, case):
        plan, queries = case
        # every time is asked just below first
        queries = [(below, kind) for now, kind in queries
                   for below in (math.nextafter(now, -math.inf), now)]
        memo = FaultInjector(plan)
        ident = ("W", 64, b"\x00" * 8)
        for now, kind in queries + queries[::-1]:
            if kind == "mn":
                for src in _MNS:
                    for dst in _MNS:
                        assert memo.mn_reachable(src, dst, now) \
                            == _scanned_reachable(plan, src, dst, now) \
                            == FaultInjector(plan).mn_reachable(src, dst,
                                                                now)
                continue
            for mn_id in _MNS:
                for port in _PORTS:
                    partition, factor, active = _scanned(plan, mn_id, now,
                                                         port)
                    assert memo.cn_partition(mn_id, now, port) == partition
                    assert memo.service_factor(mn_id, now, port) == factor
                    assert list(memo._active_link_faults(
                        mn_id, now, port)) == active
                    assert memo.fate(ident, mn_id, 2, now, port) \
                        == FaultInjector(plan).fate(ident, mn_id, 2, now,
                                                    port)


# --------------------------------------------------------------------------
# Port-scoped faults on multi-queue MNs
# --------------------------------------------------------------------------
class TestPortScopedFaults:
    """A fault pinned to one NIC port of a multi-port MN must hit only
    deliveries hashed onto that port, and retries must escape it by
    re-hashing onto a live port."""

    def test_partition_scoped_to_port_misses_other_ports(self):
        plan = FaultPlan(partitions=[
            Partition(a=CN, b=1, start_us=0.0, end_us=50.0, port=2)],
            seed=0)
        inj = FaultInjector(plan)
        assert inj.cn_partition(1, 10.0, port=2) == (True, True)
        assert inj.cn_partition(1, 10.0, port=0) == (False, False)
        # a port-scoped fault never hits a port-less (single-queue) path
        assert inj.cn_partition(1, 10.0) == (False, False)
        # an unscoped partition hits every port
        whole = FaultInjector(FaultPlan(partitions=[
            Partition(a=CN, b=1, start_us=0.0, end_us=50.0)], seed=0))
        assert whole.cn_partition(1, 10.0, port=3) == (True, True)

    def test_gray_scoped_to_port_slows_only_that_port(self):
        plan = FaultPlan(gray_nodes=[
            GrayNode(mn_id=0, factor=5.0, start_us=0.0, end_us=100.0,
                     port=1)], seed=0)
        inj = FaultInjector(plan)
        assert inj.service_factor(0, 50.0, port=1) == 5.0
        assert inj.service_factor(0, 50.0, port=0) == 1.0
        assert inj.service_factor(0, 50.0) == 1.0

    def test_link_fault_scoped_to_port_draws_only_there(self):
        plan = FaultPlan(link_faults=[
            LinkFault(drop_p=1.0, start_us=0.0, end_us=100.0, port=0)],
            seed=7)
        inj = FaultInjector(plan)
        hit = inj.fate(("w", 1), 0, 1, 10.0, port=0)
        assert hit.drop_request and hit.drop_reply
        miss = inj.fate(("w", 1), 0, 1, 10.0, port=1)
        assert not (miss.drop_request or miss.drop_reply)

    def test_port_never_enters_fate_hash_keys(self):
        """Port only *scopes* faults: on an unscoped plan the drawn fate
        is identical whatever port carried the delivery, so single-port
        campaigns replay byte-identically under the multi-queue model."""
        plan = FaultPlan(link_faults=[
            LinkFault(drop_p=0.5, dup_p=0.3, jitter_us=1.0,
                      start_us=0.0, end_us=100.0)], seed=11)
        inj = FaultInjector(plan)
        for attempt in (1, 2, 3):
            fates = {inj.fate(("x", 4), 0, attempt, 20.0, port=p)
                     for p in (None, 0, 1, 2, 3)}
            assert len(fates) == 1

    def test_mn_mirror_traffic_ignores_port_scoped_partitions(self):
        plan = FaultPlan(partitions=[
            Partition(a=0, b=1, start_us=0.0, end_us=50.0, port=1)],
            seed=0)
        inj = FaultInjector(plan)
        assert inj.mn_reachable(0, 1, 10.0)

    def test_verb_retry_rehashes_to_live_port(self, no_jitter):
        """Substrate: the QP's home tx port is partitioned; the retry
        must land on a different port and succeed without exhausting
        the budget (transport retries, zero verb timeouts)."""
        from repro.rdma import Fabric, FabricConfig
        from repro.rdma.verbs import ReadOp

        env = Environment()
        fab = Fabric(env, FabricConfig())
        node = MemoryNode(env, 0, capacity=4096, num_ports=4)
        fab.add_node(node)
        qp = 5
        home = fab._port_for(node, True, qp)[0]
        fab.injector = FaultInjector(
            FaultPlan(partitions=[
                Partition(a=CN, b=0, start_us=0.0, end_us=100_000.0,
                          port=home)], seed=0),
            retry=_SHORT_RETRY)

        def proc():
            return (yield fab.post([ReadOp(0, 0, 8)], qp=qp))

        comps = env.run(until=env.process(proc()))
        assert not comps[0].failed
        assert fab.stats.transport_retries >= 1
        assert fab.stats.verb_timeouts == 0
        # the retry's port differs from the partitioned home port
        assert fab._port_for(node, True, qp, salt=1)[0] != home

    def test_rpc_retry_rehashes_to_live_port(self, no_jitter):
        from repro.rdma import Fabric, FabricConfig

        env = Environment()
        fab = Fabric(env, FabricConfig())
        node = MemoryNode(env, 0, capacity=4096, num_ports=4,
                          rpc_shards=2)
        node.register_rpc("ping", lambda payload: ({"pong": True}, 0.5))
        fab.add_node(node)
        qp = 9
        home = fab._port_for(node, False, qp)[0]
        fab.injector = FaultInjector(
            FaultPlan(partitions=[
                Partition(a=CN, b=0, start_us=0.0, end_us=100_000.0,
                          port=home)], seed=0),
            retry=_SHORT_RETRY)

        def proc():
            return (yield fab.rpc(0, "ping", {}, qp=qp))

        reply = env.run(until=env.process(proc()))
        assert reply == {"pong": True}
        assert fab.stats.rpc_retries >= 1
        assert fab.stats.rpc_timeouts == 0

    def test_single_port_partition_campaign_stays_clean(self):
        """Acceptance: partition one NIC port of a multi-port MN
        mid-campaign — every op must finish, blocks balance, and the
        history linearizes (retries escape via re-hash)."""
        start = 400.0
        plan = FaultPlan(partitions=[
            Partition(a=CN, b=1, start_us=start, end_us=start + 3000.0,
                      port=0)], seed=0)
        report = run_campaign(seed=2, plan=plan, clients=3,
                              ops_per_client=50, nic_ports=4,
                              rpc_shards=2)
        assert report.hung_ops == 0
        assert not report.exceptions
        assert report.balance_ok, report.render()
        assert report.linearizable, report.violation
        assert report.clean, report.render()

    def test_gray_port_campaign_stays_clean(self):
        plan = FaultPlan(gray_nodes=[
            GrayNode(mn_id=0, factor=6.0, start_us=300.0, end_us=2500.0,
                     port=1)], seed=0)
        report = run_campaign(seed=4, plan=plan, clients=3,
                              ops_per_client=50, nic_ports=4,
                              rpc_shards=2)
        assert report.clean, report.render()


# --------------------------------------------------------------------------
# Campaign acceptance: mixed faults, with and without the resilience layer
# --------------------------------------------------------------------------
def test_mixed_campaign_with_retries_is_clean():
    report = run_campaign("mixed", seed=0, clients=3, ops_per_client=60)
    assert report.hung_ops == 0
    assert not report.exceptions
    assert report.balance_ok, \
        f"alloc leak: {report.blocks_outstanding} != {report.blocks_owned}"
    assert report.linearizable, report.violation
    assert report.ops_failed == 0 and report.clean
    # the faults actually fired and the layer actually retried
    assert report.fabric["dropped_requests"] + \
        report.fabric["dropped_replies"] > 0
    assert report.fabric["transport_retries"] > 0


def test_mixed_campaign_without_retries_fails():
    """Negative control: the same campaign, one-shot transport."""
    report = run_campaign("mixed", seed=0, retries=False,
                          clients=3, ops_per_client=60)
    assert report.hung_ops == 0          # failures are typed, never hangs
    assert not report.exceptions
    assert not report.clean
    # without retransmission+dedup, ops fail outright and a granted-but-
    # unacknowledged ALLOC leaks a block
    assert report.ops_failed > 0 or not report.balance_ok


@pytest.mark.parametrize("clients,ops_per_client", [(0, 60), (3, 0),
                                                    (3, -3)])
def test_a_campaign_of_no_operations_is_refused(clients, ops_per_client):
    """Used to report ``ops: 0 total`` with the verdict CLEAN."""
    with pytest.raises(ValueError, match="must be >= 1"):
        run_campaign("mixed", seed=0, clients=clients,
                     ops_per_client=ops_per_client)


def test_campaign_reports_lost_batched_frees(monkeypatch):
    """The report sums every client's timed-out free FAAs
    (``ClientAllocator.stats_free_timeouts``) and prints them.  A named
    campaign flushes its frees only after the heal, so none times out
    there: here each client starts as if one already had."""
    new_client = FuseeCluster.new_client

    def with_a_lost_free(self, *args, **kwargs):
        client = new_client(self, *args, **kwargs)
        client.allocator.stats_free_timeouts = 1
        return client

    monkeypatch.setattr(FuseeCluster, "new_client", with_a_lost_free)
    report = run_campaign("loss", seed=0, clients=2, ops_per_client=10)
    assert report.free_faa_timeouts == 3     # the loader and two workers
    assert "\n  batched frees: 3 replica FAA(s) timed out\n" \
        in report.render()


@pytest.mark.parametrize("name,replication,index_replication", [
    # the paper's default bed: one index replica
    *[pytest.param(name, "snapshot", 1, id=name)
      for name in sorted(CAMPAIGNS)],
    # every strategy with its multi-replica machinery actually running:
    # FUSEE-CR's lost-CAS retries leaked staged objects under faults
    *[pytest.param(name, replication, 2, id=f"{name}-{replication}-2")
      for name in sorted(CAMPAIGNS)
      for replication in ("snapshot", "sequential", "swarm")],
])
def test_every_named_campaign_is_sound(name, replication,
                                       index_replication):
    report = run_campaign(name, seed=1, clients=2, ops_per_client=40,
                          replication=replication,
                          index_replication=index_replication)
    assert report.sound, report.render()


# --------------------------------------------------------------------------
# SWARM under faults: broadcasts, fixups, validated reads on a lossy fabric
# --------------------------------------------------------------------------
class TestSwarmCampaigns:
    """The in-place broadcast protocol must stay sound when its one-batch
    broadcast actually spans replicas (``index_replication=2``) and the
    fabric misbehaves: every campaign history linearizes, no op hangs,
    and allocation balances — the same acceptance bar as SNAPSHOT."""

    def test_partition_heal_campaign_is_sound(self):
        report = run_campaign("partition-heal", seed=3, clients=3,
                              ops_per_client=50, replication="swarm",
                              index_replication=2)
        assert report.sound, report.render()

    def test_gray_node_campaign_is_sound(self):
        report = run_campaign("gray", seed=5, clients=3,
                              ops_per_client=50, replication="swarm",
                              index_replication=2)
        assert report.sound, report.render()

    def test_duplicated_broadcast_writes_never_double_apply(self):
        """Verb-level duplication across the whole campaign window: the
        MN-side dedup layer must absorb replayed broadcast CASes (a
        re-delivered CAS(v_old→v_new) after a fixup would resurrect a
        stale round), keeping the history linearizable and *clean*."""
        plan = FaultPlan(link_faults=[
            LinkFault(dup_p=0.25, start_us=200.0, end_us=4000.0)], seed=0)
        report = run_campaign(seed=7, plan=plan, clients=3,
                              ops_per_client=50, replication="swarm",
                              index_replication=2)
        assert report.fabric.get("duplicates", 0) > 0, report.render()
        assert report.clean, report.render()

    def test_mixed_campaign_is_sound(self):
        report = run_campaign("mixed", seed=2, clients=3,
                              ops_per_client=60, replication="swarm",
                              index_replication=2)
        assert report.sound, report.render()


# --------------------------------------------------------------------------
# Read-spreading under faults: the selected replica goes dark mid-read
# --------------------------------------------------------------------------
_SHORT_RETRY = RetryPolicy(max_attempts=2, verb_timeout_us=8.0,
                           rpc_timeout_us=40.0, backoff_base_us=2.0,
                           backoff_cap_us=8.0)


@pytest.fixture
def no_jitter(monkeypatch):
    """Un-jittered backoffs: the capped exponential schedule exactly."""
    monkeypatch.setattr(retry_mod, "JITTER_FRAC", 0.0)


def _spread_cluster(read_spread):
    from repro.obs import Tracer

    tracer = Tracer()
    cluster = FuseeCluster(small_config(), tracer=tracer)
    client = cluster.new_client(read_spread=read_spread)
    return cluster, client, tracer


def _key_with_offnode_kv_primary(cluster, client):
    """A warmed key whose KV primary replica is NOT its index-bucket MN,
    plus that replica's id — partitioning the data replica then leaves
    the fallback bucket path reachable."""
    race, stats = cluster.race, cluster.fabric.stats
    for i in range(24):
        key = f"spread{i}".encode()
        assert cluster.run_op(client.insert(key, b"v0")).ok
        index_mn = race.bucket_read_ops(race.key_meta(key),
                                        replica=0)[0].mn_id
        assert cluster.run_op(client.search(key)).ok  # warm the cache
        before = dict(stats.kv_replica_reads)
        assert cluster.run_op(client.search(key)).ok
        after = stats.kv_replica_reads
        served = [mn for mn in after if after[mn] != before.get(mn, 0)]
        if served == [mn for mn in served if mn != index_mn] \
                and len(served) == 1:
            return key, served[0]
    raise AssertionError("no key with off-node KV primary found")


def test_partitioned_read_replica_retry_lands_on_another_replica(no_jitter):
    """The replica serving a key's READs gets partitioned; the retry must
    land on a different replica, the op must succeed, and the recorded
    history must stay linearizable."""
    from repro.check.history import kv_ops_from_spans
    from repro.core.linearizability import check_kv_linearizable

    cluster, client, tracer = _spread_cluster("least_loaded")
    stats = cluster.fabric.stats
    key, kv_mn = _key_with_offnode_kv_primary(cluster, client)

    start = cluster.env.now
    cluster.install_faults(FaultPlan(partitions=[
        Partition(a=CN, b=kv_mn, start_us=start, end_us=start + 2000.0,
                  drop_requests=True, drop_replies=True)], seed=0),
        retry=_SHORT_RETRY)
    before = dict(stats.kv_replica_reads)
    assert cluster.run_op(client.search(key)).ok
    after = stats.kv_replica_reads
    # the dark replica was tried first (idle least_loaded == primary) ...
    assert after.get(kv_mn, 0) - before.get(kv_mn, 0) >= 1
    # ... and the retry read a *different* replica
    assert sum(after.get(mn, 0) - before.get(mn, 0)
               for mn in after if mn != kv_mn) >= 1

    cluster.install_faults(None)  # heal, then keep operating
    assert cluster.run_op(client.update(key, b"v1")).ok
    assert cluster.run_op(client.search(key)).ok
    violation = check_kv_linearizable(kv_ops_from_spans(tracer.spans))
    assert violation is None, violation


def test_round_robin_survives_partitioned_replica(no_jitter):
    """Rotation keeps hitting the dark replica's turn; the suspect window
    must steer follow-up reads away and every search must stay ok."""
    from repro.check.history import kv_ops_from_spans
    from repro.core.linearizability import check_kv_linearizable

    cluster, client, tracer = _spread_cluster("round_robin")
    key, kv_mn = _key_with_offnode_kv_primary(cluster, client)

    start = cluster.env.now
    cluster.install_faults(FaultPlan(partitions=[
        Partition(a=CN, b=kv_mn, start_us=start, end_us=start + 2000.0,
                  drop_requests=True, drop_replies=True)], seed=0),
        retry=_SHORT_RETRY)
    for _ in range(6):
        assert cluster.run_op(client.search(key)).ok
    cluster.install_faults(None)
    violation = check_kv_linearizable(kv_ops_from_spans(tracer.spans))
    assert violation is None, violation


# --------------------------------------------------------------------------
# Property: random small fault plans over random op programs
# --------------------------------------------------------------------------
_DURATION = 3000.0


@st.composite
def fault_plans(draw):
    """Small scripted plans: loss bursts, at most one compute↔MN
    partition (requests always dropped, so a partitioned MN can never
    grant a block the client will abandon), at most one gray node."""
    links = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.floats(0.0, 0.6 * _DURATION))
        links.append(LinkFault(
            mn_id=draw(st.sampled_from([None, 0, 1, 2])),
            drop_p=draw(st.floats(0.0, 0.05)),
            dup_p=draw(st.floats(0.0, 0.02)),
            jitter_us=draw(st.floats(0.0, 2.0)),
            start_us=start,
            end_us=start + draw(st.floats(50.0, 0.4 * _DURATION))))
    partitions = []
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 0.5 * _DURATION))
        partitions.append(Partition(
            a=CN, b=draw(st.integers(0, 2)),
            start_us=start,
            end_us=start + draw(st.floats(20.0, 400.0)),
            drop_requests=True,
            drop_replies=draw(st.booleans())))
    grays = []
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 0.5 * _DURATION))
        grays.append(GrayNode(
            mn_id=draw(st.integers(0, 2)),
            factor=draw(st.floats(2.0, 6.0)),
            start_us=start,
            end_us=start + draw(st.floats(100.0, 0.5 * _DURATION))))
    return FaultPlan(link_faults=links, partitions=partitions,
                     gray_nodes=grays, seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=12, deadline=None)
@given(plan=fault_plans(), program_seed=st.integers(0, 2 ** 16))
def test_random_plans_stay_sound(plan, program_seed):
    """Every op terminates (ok or typed failure), no block leaks, and the
    observed history is KV-linearizable — for arbitrary small plans."""
    report = run_campaign(seed=program_seed, plan=plan,
                          clients=2, ops_per_client=25)
    assert report.hung_ops == 0, report.render()
    assert not report.exceptions, report.render()
    assert report.balance_ok, report.render()
    assert report.linearizable, report.render()


# --------------------------------------------------------------------------
# Long random sweep — excluded from tier-1 (run with `pytest -m campaign`)
# --------------------------------------------------------------------------
@pytest.mark.campaign
@pytest.mark.parametrize("seed", range(8))
def test_long_random_campaign(seed):
    report = run_campaign("random", seed=seed, clients=3,
                          ops_per_client=150)
    assert report.sound, report.render()


# --------------------------------------------------------------------------
# Duplicated ALLOC RPCs under packet loss (idempotency-token dedup)
# --------------------------------------------------------------------------
def test_duplicated_alloc_under_loss_keeps_balance_sound():
    """A lossy, heavily-duplicating link replays ALLOC RPCs at the MNs.
    Without the idempotency-token reply cache each replayed ALLOC would
    hand out a second block the client never adopts — a leak the
    alloc-balance audit (blocks outstanding at MNs vs owned by clients)
    would catch.  Large values force block churn so ALLOC/FREE traffic
    actually rides the faulty window."""
    plan = FaultPlan(link_faults=[LinkFault(drop_p=0.05, dup_p=0.30,
                                            start_us=50.0,
                                            end_us=8_000.0)],
                     seed=2)
    report = run_campaign(seed=2, plan=plan, clients=3,
                          ops_per_client=150, value_size=768)
    assert report.sound, report.render()
    assert report.balance_ok, \
        f"alloc leak: {report.blocks_outstanding} != {report.blocks_owned}"
    # the fault window really duplicated traffic, and dedup really hit
    assert report.fabric["duplicates"] > 0
    assert report.fabric["dedup_hits"] > 0
    assert report.fabric["rpc_dedup_hits"] > 0


def test_duplicated_alloc_balance_across_seeds():
    """The dedup guarantee is not one lucky schedule: every seed in a
    small sweep stays balanced and linearizable."""
    for seed in range(4):
        plan = FaultPlan(link_faults=[LinkFault(drop_p=0.05, dup_p=0.30,
                                                start_us=50.0,
                                                end_us=8_000.0)],
                         seed=seed)
        report = run_campaign(seed=seed, plan=plan, clients=3,
                              ops_per_client=80, value_size=768)
        assert report.sound, f"seed {seed}:\n{report.render()}"
        assert report.balance_ok, f"seed {seed}: alloc leak"
        assert report.fabric["duplicates"] > 0
