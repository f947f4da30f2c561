"""Model-based testing: FUSEE vs reference semantics under random ops.

Two modes:

* **Sequential** — Hypothesis drives random op sequences across multiple
  clients against one cluster, checking every response against a plain
  Python dict.  Sequential execution means the dict is an exact oracle.
* **Concurrent** — three clients run their op programs *overlapping*
  (simultaneous processes under a randomly seeded controlled scheduler at
  zero simulated latency), and the resulting span history is validated
  with the true-concurrency KV linearizability checker
  (:func:`repro.core.linearizability.check_kv_linearizable`) — the dict
  oracle cannot judge overlapping executions, the checker can.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.check import ControlledScheduler, kv_ops_from_spans
from repro.check.scenarios import _cluster_world
from repro.core import FuseeCluster
from repro.core.linearizability import check_kv_linearizable
from tests.conftest import small_config

KEYS = [f"mb-key-{i}".format(i).encode() for i in range(12)]
VALUES = [b"", b"a", b"x" * 17, b"y" * 100, b"z" * 300]


class FuseeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = FuseeCluster(small_config())
        self.clients = [self.cluster.new_client() for _ in range(3)]
        self.model = {}
        self.op_count = 0

    def run_op(self, generator):
        self.op_count += 1
        return self.cluster.run_op(generator)

    keys = st.sampled_from(KEYS)
    values = st.sampled_from(VALUES)
    clients = st.integers(min_value=0, max_value=2)

    @rule(key=keys, value=values, c=clients)
    def insert(self, key, value, c):
        result = self.run_op(self.clients[c].insert(key, value))
        if key in self.model:
            assert not result.ok and result.existed
        else:
            assert result.ok
            self.model[key] = value

    @rule(key=keys, value=values, c=clients)
    def update(self, key, value, c):
        result = self.run_op(self.clients[c].update(key, value))
        if key in self.model:
            assert result.ok
            self.model[key] = value
        else:
            assert not result.ok

    @rule(key=keys, c=clients)
    def delete(self, key, c):
        result = self.run_op(self.clients[c].delete(key))
        if key in self.model:
            assert result.ok
            del self.model[key]
        else:
            assert not result.ok

    @rule(key=keys, c=clients)
    def search(self, key, c):
        result = self.run_op(self.clients[c].search(key))
        if key in self.model:
            assert result.ok, f"missing {key!r}"
            assert result.value == self.model[key]
        else:
            assert not result.ok

    @rule(c=clients)
    def maintenance(self, c):
        self.run_op(self.clients[c].maintenance())

    @invariant()
    def replicas_agree_on_model_keys(self):
        # spot-check one key's slot replicas every few steps
        if self.op_count % 7 != 0 or not self.model:
            return
        key = next(iter(self.model))
        client = self.clients[0]
        result = self.cluster.run_op(client.search(key))
        assert result.ok
        entry = client.cache.peek(key)
        if entry is None:
            return
        words = {self.cluster.fabric.node(mn).read_word(addr)
                 for mn, addr in entry.slot_ref.locations()}
        assert len(words) == 1


FuseeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestFuseeModelBased = FuseeMachine.TestCase


# --------------------------------------------------------------------------
# Concurrent mode: overlapping clients + linearizability checker
# --------------------------------------------------------------------------

CONCURRENT_KEYS = [b"ck-0", b"ck-1", b"ck-2"]
CONCURRENT_VALUES = [b"v-a", b"v-bb", b"v-ccc"]

_program = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete", "search"]),
              st.integers(min_value=0, max_value=len(CONCURRENT_KEYS) - 1),
              st.integers(min_value=0, max_value=len(CONCURRENT_VALUES) - 1)),
    min_size=1, max_size=4)


def _run_concurrent_programs(seed, programs, replication_mode):
    """Three clients with genuinely overlapping ops on contended keys.

    The world runs at zero latency so every protocol step of every client
    is co-runnable, and a seeded controlled scheduler picks a random
    serialization; invocation/completion order comes from its logical
    clock.  There is no dict oracle here — overlapping ops have no single
    authoritative order — so the span history is handed to the Wing &
    Gong checker, which searches for *some* legal linearization.
    """
    sched = ControlledScheduler(rng=random.Random(seed), max_steps=200_000)
    env, tracer, cluster = _cluster_world(sched)
    clients = [cluster.new_client(replication_mode=replication_mode)
               for _ in range(3)]
    # A deterministic sequential prefix: one key present, allocators warm.
    cluster.run_op(clients[0].insert(CONCURRENT_KEYS[0], b"seed"))
    for c, warm_key in zip(clients[1:], (b"warm-1", b"warm-2")):
        cluster.run_op(c.insert(warm_key, b"x"))

    env.set_scheduler(sched)

    def run_program(client, program):
        for kind, ki, vi in program:
            key = CONCURRENT_KEYS[ki]
            value = CONCURRENT_VALUES[vi]
            if kind == "insert":
                yield from client.insert(key, value)
            elif kind == "update":
                yield from client.update(key, value)
            elif kind == "delete":
                yield from client.delete(key)
            else:
                yield from client.search(key)

    procs = [env.process(run_program(c, prog), name=f"client-{i}")
             for i, (c, prog) in enumerate(zip(clients, programs))]
    env.run(until=env.all_of(procs))

    violation = check_kv_linearizable(kv_ops_from_spans(tracer.spans))
    assert violation is None, f"history not linearizable: {violation}"


@pytest.mark.parametrize("mode", ["snapshot", "sequential", "swarm"])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       programs=st.tuples(_program, _program, _program))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_concurrent_clients_linearizable(mode, seed, programs):
    """Every registered replication strategy must keep overlapping
    multi-client histories linearizable — the cross-protocol safety
    property behind the replication shoot-out."""
    _run_concurrent_programs(seed, programs, mode)


_SEQ_PROGRAM = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete", "search"]),
              st.sampled_from(KEYS), st.sampled_from(VALUES)),
    min_size=1, max_size=40)


@given(ops=_SEQ_PROGRAM)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_protocols_agree_on_sequential_programs(ops):
    """Cross-protocol equivalence: the same single-client op program
    yields identical observable results (ok / value / existed) and an
    identical final key-value state under every replication strategy —
    replication is an availability knob, never a semantics knob."""
    outcomes = {}
    for mode in ("snapshot", "sequential", "swarm"):
        cluster = FuseeCluster(small_config())
        client = cluster.new_client(replication_mode=mode)
        observed = []
        for op, key, value in ops:
            if op == "insert":
                result = cluster.run_op(client.insert(key, value))
            elif op == "update":
                result = cluster.run_op(client.update(key, value))
            elif op == "delete":
                result = cluster.run_op(client.delete(key))
            else:
                result = cluster.run_op(client.search(key))
            observed.append((result.ok, result.value, result.existed))
        final = {}
        for key in KEYS:
            result = cluster.run_op(client.search(key))
            if result.ok:
                final[key] = result.value
        outcomes[mode] = (observed, final)
    assert outcomes["snapshot"] == outcomes["sequential"] == \
        outcomes["swarm"]


@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete", "search"]),
              st.sampled_from(KEYS), st.sampled_from(VALUES)),
    min_size=1, max_size=60))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_single_client_random_sequence(ops):
    """A lighter-weight oracle test with one client."""
    cluster = FuseeCluster(small_config())
    client = cluster.new_client()
    model = {}
    for op, key, value in ops:
        if op == "insert":
            result = cluster.run_op(client.insert(key, value))
            assert result.ok == (key not in model)
            if result.ok:
                model[key] = value
        elif op == "update":
            result = cluster.run_op(client.update(key, value))
            assert result.ok == (key in model)
            if result.ok:
                model[key] = value
        elif op == "delete":
            result = cluster.run_op(client.delete(key))
            assert result.ok == (key in model)
            model.pop(key, None)
        else:
            result = cluster.run_op(client.search(key))
            assert result.ok == (key in model)
            if result.ok:
                assert result.value == model[key]
