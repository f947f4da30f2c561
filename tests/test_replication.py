"""Tests for the pluggable replication seam (repro.core.replication).

Three layers:

* registry — every strategy is discoverable by name, config validation
  is registry-driven (an unknown mode fails listing the registered
  names), and ``create_protocol`` hands out per-client instances;
* SWARM slot semantics — the 1-RTT broadcast fast path, the
  guard-read-then-CAS fixup loop (including abandonment when a later
  round commits mid-fixup), validated-only reads, and the degraded
  survivor-read rules, all on raw replicated slots with real simulated
  latencies (mirroring tests/test_snapshot.py for SNAPSHOT);
* recovery — each protocol's ``repair_choice`` hook picks the word the
  master installs when surviving replicas disagree after an MN crash.
"""

import pytest

from repro.core.client import ClientConfig
from repro.core.linearizability import History, check_linearizable
from repro.core.race import SlotRef
from repro.core.replication import (
    REPLICATION_PROTOCOLS,
    ReplicationProtocol,
    SequentialProtocol,
    SnapshotProtocol,
    SwarmProtocol,
    create_protocol,
    register_protocol,
    registered_protocols,
    swarm_read,
    swarm_write,
    validate_replication_mode,
)
from repro.core.snapshot import Outcome
from repro.rdma import Fabric, FabricConfig, MemoryNode
from repro.sim import Environment


def make_slot(r=3):
    """A fabric with r MNs, each holding one replica of a single slot."""
    env = Environment()
    fabric = Fabric(env, FabricConfig())
    for mn in range(r):
        fabric.add_node(MemoryNode(env, mn, capacity=64))
    ref = SlotRef(subtable=0, slot_index=0,
                  placement=tuple((mn, 0) for mn in range(r)))
    return env, fabric, ref


def slot_values(fabric, ref):
    return [fabric.node(mn).read_word(addr) for mn, addr in ref.locations()]


# --------------------------------------------------------------------------
# Registry + config validation
# --------------------------------------------------------------------------
class TestRegistry:
    def test_all_three_strategies_registered(self):
        assert registered_protocols() == ["sequential", "snapshot", "swarm"]

    def test_registry_names_match_classes(self):
        for name, cls in REPLICATION_PROTOCOLS.items():
            assert cls.name == name
            assert issubclass(cls, ReplicationProtocol)

    def test_create_protocol_instantiates_per_client(self):
        assert isinstance(create_protocol("swarm"), SwarmProtocol)
        assert isinstance(create_protocol("snapshot"), SnapshotProtocol)
        assert isinstance(create_protocol("sequential"), SequentialProtocol)

    def test_unknown_mode_lists_registered_names(self):
        with pytest.raises(ValueError) as err:
            validate_replication_mode("bogus")
        message = str(err.value)
        assert "bogus" in message
        for name in registered_protocols():
            assert name in message

    def test_nameless_protocol_rejected(self):
        class Anonymous(ReplicationProtocol):
            pass

        with pytest.raises(ValueError):
            register_protocol(Anonymous)
        assert Anonymous not in REPLICATION_PROTOCOLS.values()

    def test_lose_semantics_flags(self):
        # chain replication serializes writers: a lost CAS retries the
        # op; the last-writer-wins protocols linearize before the winner
        assert SequentialProtocol.retry_on_lose
        assert not SnapshotProtocol.retry_on_lose
        assert not SwarmProtocol.retry_on_lose


class TestClientConfigValidation:
    def test_default_is_snapshot(self):
        assert ClientConfig().replication_mode == "snapshot"

    @pytest.mark.parametrize("name", ["snapshot", "sequential", "swarm"])
    def test_every_registered_mode_accepted(self, name):
        assert ClientConfig(replication_mode=name).replication_mode == name

    def test_unknown_mode_fails_with_registered_names(self):
        with pytest.raises(ValueError) as err:
            ClientConfig(replication_mode="paxos")
        message = str(err.value)
        assert "paxos" in message
        for name in registered_protocols():
            assert name in message

    def test_client_instantiates_configured_protocol(self):
        from tests.conftest import small_config
        from repro.core import FuseeCluster

        cluster = FuseeCluster(small_config())
        client = cluster.new_client(replication_mode="swarm")
        assert isinstance(client.protocol, SwarmProtocol)

    def test_swarm_cluster_round_trip(self):
        """End-to-end smoke: a swarm-mode cluster serves the full op mix."""
        from tests.conftest import small_config
        from repro.core import FuseeCluster

        cluster = FuseeCluster(small_config())
        client = cluster.new_client(replication_mode="swarm")
        assert cluster.run_op(client.insert(b"k", b"v1")).ok
        assert cluster.run_op(client.update(b"k", b"v2")).ok
        result = cluster.run_op(client.search(b"k"))
        assert result.ok and result.value == b"v2"
        assert cluster.run_op(client.delete(b"k")).ok
        assert not cluster.run_op(client.search(b"k")).ok


# --------------------------------------------------------------------------
# SWARM write: 1-RTT fast path, fixup loop, failure escalation
# --------------------------------------------------------------------------
class TestSwarmWrite:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_uncontended_write_is_one_rtt(self, r):
        env, fabric, ref = make_slot(r)

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.WIN_SWARM
        assert result.rtts == 1
        assert slot_values(fabric, ref) == [42] * r

    def test_write_requires_distinct_value(self):
        env, fabric, ref = make_slot(2)

        def writer():
            return (yield from swarm_write(fabric, ref, 5, 5))

        with pytest.raises(ValueError):
            env.run(until=env.process(writer()))

    def test_loser_returns_in_one_rtt_without_spinning(self):
        env, fabric, ref = make_slot(3)
        for mn in range(3):
            fabric.node(mn).write_word(0, 99)  # a round already committed

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42))

        start = env.now
        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.LOSE
        assert result.committed == 99
        assert result.rtts == 1
        # one broadcast round trip, no waiting rounds (SNAPSHOT losers spin)
        assert env.now - start <= 3 * fabric.config.one_way_delay_us

    def test_fixup_converges_divergent_backup(self):
        """A backup polluted by a dead same-round competitor is converged
        by the winner: guard read (primary still ours) + guarded CAS."""
        env, fabric, ref = make_slot(3)
        fabric.node(1).write_word(0, 77)  # uncommitted loser debris

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.WIN_SWARM_FIXUP
        # broadcast + one guard read + one fixup CAS batch
        assert result.rtts == 3
        assert slot_values(fabric, ref) == [42, 42, 42]

    def test_fixup_round_converges_multiple_backups_in_one_batch(self):
        env, fabric, ref = make_slot(4)
        fabric.node(1).write_word(0, 77)
        fabric.node(3).write_word(0, 88)

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.WIN_SWARM_FIXUP
        assert result.rtts == 3  # both divergent backups share one batch
        assert slot_values(fabric, ref) == [42] * 4

    def test_guard_read_abandons_fixup_after_later_round_commits(self):
        """The soundness fix: when a newer round commits before the fixup
        CAS is issued, the per-round guard read sees the primary moved
        past v_new and abandons — no CAS that could regress a replica."""
        env, fabric, ref = make_slot(3)
        fabric.node(1).write_word(0, 77)  # forces the fixup path

        def interloper():
            # A later round commits right after our broadcast lands.
            while fabric.node(0).read_word(0) != 42:
                yield env.timeout(0.05)
            fabric.node(0).write_word(0, 555)

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42))

        env.process(interloper())
        result = env.run(until=env.process(writer()))
        # We still won our round (the primary CAS succeeded) ...
        assert result.outcome is Outcome.WIN_SWARM_FIXUP
        # ... but the fixup stopped at the guard read: broadcast + guard,
        # no fixup CAS was ever posted against the stale observation.
        assert result.rtts == 2
        assert fabric.node(1).read_word(0) == 77

    def test_fixup_exhaustion_escalates(self):
        env, fabric, ref = make_slot(2)
        fabric.node(1).write_word(0, 77)

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42,
                                           max_fixup_rounds=0))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.NEED_MASTER

    def test_backup_crash_needs_master(self):
        env, fabric, ref = make_slot(3)
        fabric.node(2).crash()

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.NEED_MASTER

    def test_primary_crash_needs_master(self):
        env, fabric, ref = make_slot(2)
        fabric.node(0).crash()

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.NEED_MASTER

    def test_on_win_fires_once_after_commit(self):
        env, fabric, ref = make_slot(3)
        observed = []

        def hook(v_old):
            observed.append((v_old, slot_values(fabric, ref)))
            yield env.timeout(0.1)

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42, on_win=hook))

        result = env.run(until=env.process(writer()))
        assert result.rtts == 2  # broadcast + the hook's log commit
        assert observed == [(0, [42, 42, 42])]  # post-commit, not a barrier

    def test_on_win_not_called_for_losers(self):
        env, fabric, ref = make_slot(2)
        for mn in range(2):
            fabric.node(mn).write_word(0, 99)
        calls = []

        def hook(v_old):
            calls.append(v_old)
            yield env.timeout(0.1)

        def writer():
            return (yield from swarm_write(fabric, ref, 0, 42, on_win=hook))

        result = env.run(until=env.process(writer()))
        assert result.outcome is Outcome.LOSE
        assert calls == []


class TestSwarmConcurrentWriters:
    @pytest.mark.parametrize("r,n_writers", [
        (2, 2), (3, 2), (3, 3), (3, 8), (5, 4),
    ])
    def test_exactly_one_winner_and_convergence(self, r, n_writers):
        env, fabric, ref = make_slot(r)
        results = {}

        def writer(wid):
            yield env.timeout(wid * 0.1)  # stagger so interleavings vary
            results[wid] = yield from swarm_write(fabric, ref, 0, 100 + wid)

        for wid in range(n_writers):
            env.process(writer(wid))
        env.run()
        winners = [wid for wid, res in results.items() if res.outcome.won]
        assert len(winners) == 1
        winner_value = 100 + winners[0]
        assert slot_values(fabric, ref) == [winner_value] * r
        for wid, res in results.items():
            if not res.outcome.won:
                assert res.outcome in (Outcome.LOSE, Outcome.NEED_MASTER)
                if res.outcome is Outcome.LOSE:
                    assert res.committed == winner_value

    def test_successive_rounds(self):
        env, fabric, ref = make_slot(3)
        committed = []

        def writer(round_no, wid):
            v_old = committed[round_no - 1] if round_no else 0
            return (yield from swarm_write(fabric, ref, v_old,
                                           1000 * (round_no + 1) + wid))

        for round_no in range(4):
            procs = [env.process(writer(round_no, wid)) for wid in range(3)]
            env.run(until=env.all_of(procs))
            values = set(slot_values(fabric, ref))
            assert len(values) == 1
            committed.append(values.pop())
        assert len(set(committed)) == 4

    def test_concurrent_history_linearizes(self):
        """Writers + validated readers on one slot; swarm losers return
        without waiting out the round, so a loser whose invocation
        postdates the winner's commit records a *pending* write (its
        value is transient-or-nothing) rather than a completed one."""
        env, fabric, ref = make_slot(3)
        history = History(initial_value=0)

        def writer(wid):
            yield env.timeout(wid * 0.3)
            invoked = env.now
            result = yield from swarm_write(fabric, ref, 0, 100 + wid)
            if result.outcome.won:
                history.record("w", 100 + wid, invoked, env.now)
            else:
                history.record_pending("w", 100 + wid, invoked)

        def reader(rid):
            yield env.timeout(rid * 0.45)
            invoked = env.now
            result = yield from swarm_read(fabric, ref, rotation=rid)
            if result.value is not None:
                history.record("r", result.value, invoked, env.now)

        for wid in range(4):
            env.process(writer(wid))
        for rid in range(4):
            env.process(reader(rid))
        env.run()
        assert check_linearizable(history)


# --------------------------------------------------------------------------
# SWARM read: validated-only returns, bounded re-read, degraded mode
# --------------------------------------------------------------------------
class TestSwarmRead:
    def test_single_replica_read(self):
        env, fabric, ref = make_slot(1)
        fabric.node(0).write_word(0, 5)

        def reader():
            return (yield from swarm_read(fabric, ref))

        result = env.run(until=env.process(reader()))
        assert result.value == 5
        assert result.validated
        assert result.rtts == 1

    def test_validated_read_is_one_rtt(self):
        env, fabric, ref = make_slot(3)
        for mn in range(3):
            fabric.node(mn).write_word(0, 9)

        def reader():
            return (yield from swarm_read(fabric, ref))

        result = env.run(until=env.process(reader()))
        assert result.value == 9
        assert result.validated
        assert result.rtts == 1
        assert not result.from_backups

    def test_unvalidated_word_never_returned(self):
        """The primary alone vouching for a word is not enough — a torn
        broadcast defers to the master instead of guessing."""
        env, fabric, ref = make_slot(3)
        fabric.node(0).write_word(0, 42)  # backups still hold 0

        def reader():
            return (yield from swarm_read(fabric, ref,
                                          max_validate_rounds=3))

        result = env.run(until=env.process(reader()))
        assert result.value is None
        assert result.rtts == 3  # bounded re-reads, then defer

    def test_reread_catches_converging_broadcast(self):
        env, fabric, ref = make_slot(2)
        fabric.node(0).write_word(0, 42)

        def lagging_cas():
            # the writer's backup CAS lands one hop behind
            yield env.timeout(2.0 * fabric.config.one_way_delay_us)
            fabric.node(1).write_word(0, 42)

        def reader():
            return (yield from swarm_read(fabric, ref,
                                          max_validate_rounds=4))

        env.process(lagging_cas())
        result = env.run(until=env.process(reader()))
        assert result.value == 42
        assert result.validated
        assert result.rtts >= 2  # first round was torn

    def test_reader_never_writes_back(self):
        """Readers must not repair slots: a reader CAS would race the
        writer's own broadcast and fixup."""
        env, fabric, ref = make_slot(3)
        fabric.node(0).write_word(0, 42)

        def reader():
            return (yield from swarm_read(fabric, ref,
                                          max_validate_rounds=2))

        env.run(until=env.process(reader()))
        assert slot_values(fabric, ref) == [42, 0, 0]  # untouched

    def test_degraded_unanimous_survivors(self):
        env, fabric, ref = make_slot(3)
        for mn in range(3):
            fabric.node(mn).write_word(0, 9)
        fabric.node(0).crash()

        def reader():
            return (yield from swarm_read(fabric, ref))

        result = env.run(until=env.process(reader()))
        assert result.value == 9
        assert result.from_backups

    def test_degraded_divergent_survivors_defer(self):
        env, fabric, ref = make_slot(3)
        fabric.node(1).write_word(0, 9)
        fabric.node(2).write_word(0, 11)
        fabric.node(0).crash()

        def reader():
            return (yield from swarm_read(fabric, ref))

        result = env.run(until=env.process(reader()))
        assert result.value is None

    def test_all_replicas_crashed_defer(self):
        env, fabric, ref = make_slot(2)
        fabric.node(0).crash()
        fabric.node(1).crash()

        def reader():
            return (yield from swarm_read(fabric, ref))

        result = env.run(until=env.process(reader()))
        assert result.value is None


# --------------------------------------------------------------------------
# Recovery: the per-protocol repair_choice hook
# --------------------------------------------------------------------------
class TestRepairChoice:
    def test_snapshot_prefers_first_backup(self):
        # backups are CASed before the primary install: never older than
        # the committed primary word
        assert SnapshotProtocol.repair_choice([5, 7, 7], True) == 1

    def test_snapshot_falls_back_to_lone_survivor(self):
        assert SnapshotProtocol.repair_choice([5], True) == 0
        assert SnapshotProtocol.repair_choice([5, 7], False) == 0

    def test_sequential_inherits_snapshot_choice(self):
        assert SequentialProtocol.repair_choice([5, 7, 7], True) == 1

    def test_swarm_prefers_surviving_primary(self):
        # the primary CAS is the commit point; backups may hold a loser's
        # never-committed debris
        assert SwarmProtocol.repair_choice([5, 7, 7], True) == 0

    def test_swarm_majority_without_primary(self):
        assert SwarmProtocol.repair_choice([5, 7, 7], False) == 1
        assert SwarmProtocol.repair_choice([7, 7, 5], False) == 0

    def test_swarm_tie_takes_first_index(self):
        assert SwarmProtocol.repair_choice([5, 7], False) == 0

    def test_swarm_single_survivor(self):
        assert SwarmProtocol.repair_choice([9], False) == 0
