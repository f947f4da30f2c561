"""The schedule-exploration subsystem: replay, explore, minimize, mutate.

Four contracts (ISSUE acceptance criteria):

1. **Replay determinism** — the same decision sequence reproduces an
   identical execution (same trace, same footprints, same history),
   whether or not sleep-set state was active when it was recorded.
2. **Exploration** — the explorer enumerates genuinely different
   interleavings; sleep sets cut the schedule count without losing
   violations; clean protocols exhaust completely at the documented
   bounds.
3. **Minimization** — a failing schedule delta-debugs to a shorter
   sequence that still fails, and the rendered reproducer replays it.
4. **Mutations** — every known-bad protocol mutation is caught within
   its documented schedule budget, while the unmutated protocol passes
   the *same* exploration clean.
"""

import functools

import pytest

from repro.check import (
    MUTATION_SPECS,
    MUTATIONS,
    SCENARIOS,
    ControlledScheduler,
    Footprint,
    ScheduleExplorer,
    format_repro,
    minimize_schedule,
)
from repro.rdma import Fabric, FabricConfig, MemoryNode, ReadOp, WriteOp
from repro.sim import Environment, NicProfile

ZERO_FABRIC = FabricConfig(one_way_delay_us=0.0, post_overhead_us=0.0)
ZERO_NIC = NicProfile(op_overhead=0.0, atomic_overhead=0.0,
                      bandwidth_gbps=float("inf"), rpc_overhead=0.0)


def _two_writer_world(sched, same_word: bool):
    """Two processes writing (same or different) words, one reader."""
    env = Environment()
    env.set_scheduler(sched)
    fabric = Fabric(env, ZERO_FABRIC)
    fabric.add_node(MemoryNode(env, 0, 256, nic_profile=ZERO_NIC))
    log = []

    def writer(i):
        addr = 0 if same_word else i * 8
        yield fabric.post([WriteOp(0, addr, (42 + i).to_bytes(8, "big"))])
        log.append(("w", i))

    def reader():
        comps = yield fabric.post([ReadOp(0, 0, 8)])
        log.append(("r", int.from_bytes(comps[0].value, "big")))

    env.process(writer(0), name="w0")
    env.process(writer(1), name="w1")
    env.process(reader(), name="r")
    env.run()
    return log


@functools.lru_cache(maxsize=None)
def _explore_mutant(name):
    """Explore a mutated protocol at its documented bounds, once per
    test run: detection, replay and minimization all read this result."""
    spec = MUTATION_SPECS[name]
    with MUTATIONS[name]():
        return ScheduleExplorer(
            SCENARIOS[spec.scenario](), max_schedules=spec.max_schedules,
            max_decisions=spec.max_decisions).explore()


# --------------------------------------------------------------------------
# Footprints and branch bookkeeping
# --------------------------------------------------------------------------

class TestFootprint:
    def test_conflict_requires_a_writer(self):
        r = Footprint(reads=frozenset({("m", 0, 0)}))
        w = Footprint(writes=frozenset({("m", 0, 0)}))
        other = Footprint(writes=frozenset({("m", 0, 1)}))
        assert w.conflicts(r) and r.conflicts(w) and w.conflicts(w)
        assert not r.conflicts(r)
        assert not w.conflicts(other)

    def test_scheduler_records_word_footprints(self):
        sched = ControlledScheduler()
        _two_writer_world(sched, same_word=True)
        writes = set()
        for fp in sched.timeline:
            writes |= fp.writes
        assert ("m", 0, 0) in writes
        assert sched.branch_counts, "co-runnable events must branch"


# --------------------------------------------------------------------------
# Replay determinism
# --------------------------------------------------------------------------

class TestReplay:
    def test_same_decisions_same_execution(self):
        import random
        recorded = ControlledScheduler(rng=random.Random(7))
        log1 = _two_writer_world(recorded, same_word=True)
        replayed = ControlledScheduler(decisions=recorded.trace)
        log2 = _two_writer_world(replayed, same_word=True)
        assert log1 == log2
        assert recorded.trace == replayed.trace
        assert recorded.branch_counts == replayed.branch_counts
        assert recorded.timeline == replayed.timeline

    def test_default_run_is_all_zero_decisions(self):
        base = ControlledScheduler()
        log1 = _two_writer_world(base, same_word=True)
        zeros = ControlledScheduler(decisions=[0] * 32)
        log2 = _two_writer_world(zeros, same_word=True)
        assert log1 == log2

    @pytest.mark.parametrize("name", sorted(MUTATION_SPECS))
    def test_violating_schedule_replays_deterministically(self, name):
        """A violation found under sleep-set exploration must reproduce
        on a *plain* scheduler from its decision sequence alone."""
        factory = SCENARIOS[MUTATION_SPECS[name].scenario]
        result = _explore_mutant(name)
        assert result.found
        with MUTATIONS[name]():
            v1 = factory()(ControlledScheduler(
                decisions=result.violating_decisions))
            v2 = factory()(ControlledScheduler(
                decisions=result.violating_decisions))
        assert v1 == result.violation
        assert v1 == v2


# --------------------------------------------------------------------------
# Exploration + sleep sets
# --------------------------------------------------------------------------

class TestExplore:
    def test_explores_multiple_interleavings(self):
        orders = set()

        def scenario(sched):
            log = _two_writer_world(sched, same_word=True)
            orders.add(tuple(log))
            return None

        result = ScheduleExplorer(scenario, max_schedules=200).explore()
        assert result.complete
        assert not result.found
        assert len(orders) >= 3   # both write orders, both read positions

    def test_sleep_sets_reduce_without_losing_outcomes(self):
        """Sleep sets must preserve every *observable* outcome (read value
        and final memory state) while running far fewer schedules.  Raw
        completion-log orders are not compared: schedules differing only
        in untracked Python-side bookkeeping are genuinely equivalent and
        are exactly what the reduction removes."""
        def run(dpor):
            outcomes = set()

            def scenario(sched):
                log = _two_writer_world(sched, same_word=True)
                read = next(v for k, v in log if k == "r")
                outcomes.add(read)
                return None

            result = ScheduleExplorer(scenario, max_schedules=2000,
                                      dpor=dpor).explore()
            assert result.complete
            return outcomes, result.schedules

        full, n_full = run(dpor=False)
        reduced, n_reduced = run(dpor=True)
        assert reduced == full == {0, 42, 43}
        assert n_reduced < n_full     # fewer schedules for the same coverage

    def test_finds_planted_race(self):
        def scenario(sched):
            log = _two_writer_world(sched, same_word=True)
            final = [v for k, v in log if k == "r"]
            if final and final[0] == 43:   # writer 1 overwrote writer 0
                return "writer-1-last"
            return None

        result = ScheduleExplorer(scenario, max_schedules=200).explore()
        assert result.found
        assert result.violation == "writer-1-last"


# --------------------------------------------------------------------------
# Minimizer
# --------------------------------------------------------------------------

class TestMinimize:
    def test_minimized_schedule_still_fails_and_renders(self):
        spec = MUTATION_SPECS["reorder-replica-writes"]
        factory = SCENARIOS[spec.scenario]
        result = _explore_mutant("reorder-replica-writes")
        assert result.found
        with MUTATIONS["reorder-replica-writes"]():
            minimized = minimize_schedule(factory(),
                                          result.violating_decisions)
            assert minimized is not None
            assert len(minimized.decisions) <= len(result.violating_decisions)
            # the minimal sequence still fails...
            again = factory()(ControlledScheduler(
                decisions=minimized.decisions))
            assert again is not None
        # ...and passes without the mutation (the schedule exposes the
        # mutation, not a bug in the protocol itself)
        clean = factory()(ControlledScheduler(decisions=minimized.decisions))
        assert clean is None
        snippet = format_repro(spec.scenario, minimized,
                               mutation="reorder-replica-writes")
        assert str(minimized.decisions) in snippet
        assert "MUTATIONS['reorder-replica-writes']" in snippet

    def test_non_failing_sequence_returns_none(self):
        factory = SCENARIOS["slot-write-race"]
        assert minimize_schedule(factory(), [0, 0, 0, 0]) is None


# --------------------------------------------------------------------------
# Mutations: detection within budget, clean pass at the same bounds
# --------------------------------------------------------------------------

class TestMutations:
    @pytest.mark.parametrize("name", sorted(MUTATION_SPECS))
    def test_mutation_detected_within_budget(self, name):
        spec = MUTATION_SPECS[name]
        result = _explore_mutant(name)
        assert result.found, (
            f"{name}: no violating schedule within {spec.max_schedules} "
            f"schedules x {spec.max_decisions} decisions "
            f"({result.summary()})")

    @pytest.mark.parametrize("name", sorted(MUTATION_SPECS))
    def test_unmutated_protocol_survives_same_bounds(self, name):
        spec = MUTATION_SPECS[name]
        factory = SCENARIOS[spec.scenario]
        result = ScheduleExplorer(
            factory(), max_schedules=spec.max_schedules,
            max_decisions=spec.max_decisions).explore()
        assert not result.found, (
            f"clean {spec.scenario}: {result.violation}\n"
            f"decisions={result.violating_decisions}")
        assert result.complete, (
            f"clean {spec.scenario} did not exhaust within the documented "
            f"budget ({result.summary()})")


# --------------------------------------------------------------------------
# Every registered scenario is explored clean somewhere in tier-1
# --------------------------------------------------------------------------

# The scenarios no mutation spec (and no other test here) explores:
# (max_schedules, max_decisions, must exhaust).
UNMUTATED_SCENARIOS = {
    "cluster-swarm-race": (2000, 40, True),      # exhausts in 620
    "slot-write-race-lossy": (200, 16, False),
    "cluster-partition-heal": (100, 16, False),
}


def test_every_scenario_is_explored():
    explored = {spec.scenario for spec in MUTATION_SPECS.values()}
    explored |= set(UNMUTATED_SCENARIOS) | {"cluster-gray-expansion"}
    assert explored == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(UNMUTATED_SCENARIOS))
def test_unmutated_scenario_explores_clean(name):
    budget, depth, exhausts = UNMUTATED_SCENARIOS[name]
    result = ScheduleExplorer(SCENARIOS[name](), max_schedules=budget,
                              max_decisions=depth).explore()
    assert not result.found, (
        f"clean {name}: {result.violation}\n"
        f"decisions={result.violating_decisions}")
    assert result.complete or not exhausts, result.summary()


# --------------------------------------------------------------------------
# Compound stress: gray-slow memory node during an index expansion
# --------------------------------------------------------------------------

class TestGrayExpansionScenario:
    """A gray-slow primary MN while the master splits a subtable under
    client traffic.  The zero-latency check world renders gray slowness
    as *scheduler freedom* (a gray factor multiplies a zero service
    time, so the explorer's interleavings subsume every stretch
    factor); the injected fault still exercises the injector wiring on
    a controlled-scheduler bed.  The gray fault draws no clean-fated verb
    a process of its own, so the split racing two clients is explored
    exhaustively within the documented budget, with no violation."""

    BUDGET_SCHEDULES = 150
    BUDGET_DECISIONS = 500

    def test_registered_in_the_catalog(self):
        assert "cluster-gray-expansion" in SCENARIOS

    def test_clean_protocol_survives_exploration_budget(self):
        result = ScheduleExplorer(
            SCENARIOS["cluster-gray-expansion"](),
            max_schedules=self.BUDGET_SCHEDULES,
            max_decisions=self.BUDGET_DECISIONS).explore()
        assert not result.found, (
            f"gray expansion: {result.violation}\n"
            f"decisions={result.violating_decisions}")
        # every schedule explored, none cut short by the budget or by a
        # scenario-setup error
        assert result.complete, result
