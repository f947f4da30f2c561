"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
    kernel_mode,
)


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_start(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_empty_queue_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_reports_next_event_time(self, env):
        env.timeout(3.0)
        assert env.peek() == 3.0


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        fired = []

        def proc():
            yield env.timeout(4.5)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [4.5]

    def test_timeout_value_passthrough(self, env):
        got = []

        def proc():
            value = yield env.timeout(1.0, value="hello")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["hello"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_allowed(self, env):
        done = []

        def proc():
            yield env.timeout(0.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_timeouts_fire_in_order(self, env):
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3.0, "c"))
        env.process(proc(1.0, "a"))
        env.process(proc(2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_timeouts_fifo(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("first", "second", "third"):
            env.process(proc(tag))
        env.run()
        assert order == ["first", "second", "third"]


class TestEvent:
    def test_succeed_delivers_value(self, env):
        ev = env.event()
        got = []

        def waiter():
            got.append((yield ev))

        def trigger():
            yield env.timeout(2.0)
            ev.succeed(42)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert got == [42]

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_raises_in_waiter(self, env):
        ev = env.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def trigger():
            yield env.timeout(1.0)
            ev.fail(ValueError("boom"))

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_yield_already_processed_event(self, env):
        """A process may wait on an event that fired in the past."""
        ev = env.event()
        ev.succeed("early")
        env.run(until=1.0)
        got = []

        def late_waiter():
            got.append((yield ev))

        env.process(late_waiter())
        env.run()
        assert got == ["early"]


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def child():
            yield env.timeout(1.0)
            return "result"

        def parent():
            value = yield env.process(child())
            return value

        proc = env.process(parent())
        assert env.run(until=proc) == "result"

    def test_exception_propagates_to_parent(self, env):
        def child():
            yield env.timeout(1.0)
            raise RuntimeError("child failed")

        caught = []

        def parent():
            try:
                yield env.process(child())
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(parent())
        env.run()
        assert caught == ["child failed"]

    def test_unhandled_process_exception_surfaces_in_run(self, env):
        def bad():
            yield env.timeout(1.0)
            raise KeyError("oops")

        env.process(bad())
        with pytest.raises(KeyError):
            env.run()

    def test_is_alive(self, env):
        def child():
            yield env.timeout(5.0)

        proc = env.process(child())
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_yield_non_event_rejected(self, env):
        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_nested_processes(self, env):
        def leaf(n):
            yield env.timeout(n)
            return n

        def mid():
            a = yield env.process(leaf(1))
            b = yield env.process(leaf(2))
            return a + b

        proc = env.process(mid())
        assert env.run(until=proc) == 3
        assert env.now == 3.0

    def test_run_until_event_before_queue_drain(self, env):
        def short():
            yield env.timeout(1.0)
            return "short"

        def long():
            yield env.timeout(100.0)

        env.process(long())
        proc = env.process(short())
        assert env.run(until=proc) == "short"
        assert env.now == pytest.approx(1.0)


class TestInterrupt:
    def test_interrupt_waiting_process(self, env):
        log = []

        def sleeper():
            try:
                yield env.timeout(100.0)
                log.append("slept")
            except Interrupt as intr:
                log.append(("interrupted", intr.cause, env.now))

        proc = env.process(sleeper())

        def interrupter():
            yield env.timeout(2.0)
            proc.interrupt("wake up")

        env.process(interrupter())
        env.run()
        assert log == [("interrupted", "wake up", 2.0)]

    def test_interrupt_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1.0)

        proc = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_interrupted_process_can_continue(self, env):
        log = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        proc = env.process(sleeper())

        def interrupter():
            yield env.timeout(5.0)
            proc.interrupt()

        env.process(interrupter())
        env.run()
        assert log == [6.0]


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def proc():
            values = yield env.all_of([
                env.timeout(1.0, value="a"),
                env.timeout(3.0, value="b"),
                env.timeout(2.0, value="c"),
            ])
            return (env.now, values)

        proc_ev = env.process(proc())
        now, values = env.run(until=proc_ev)
        assert now == 3.0
        assert values == ["a", "b", "c"]

    def test_any_of_fires_on_first(self, env):
        def proc():
            value = yield env.any_of([
                env.timeout(5.0, value="slow"),
                env.timeout(1.0, value="fast"),
            ])
            return (env.now, value)

        proc_ev = env.process(proc())
        now, value = env.run(until=proc_ev)
        assert now == 1.0
        assert value == "fast"

    def test_all_of_empty_fires_immediately(self, env):
        cond = env.all_of([])
        assert cond.triggered

    def test_all_of_with_processed_children(self, env):
        t1 = env.timeout(1.0, value=1)
        t2 = env.timeout(2.0, value=2)
        env.run(until=5.0)

        def proc():
            return (yield env.all_of([t1, t2]))

        proc_ev = env.process(proc())
        assert env.run(until=proc_ev) == [1, 2]


class TestAnyOfEmpty:
    """Regression: ``AnyOf([])`` must raise, never succeed with ``[]``.

    With no children the condition could never legitimately fire, so an
    empty waiter list is always a caller bug (a dynamically-built list
    that came out empty).  Call-site audit at the time of the fix: every
    dynamic waiter list in the tree (``fabric._replicate``, the check
    scenarios, the recovery traffic tests) goes through ``all_of``,
    which stays vacuously true — no caller constructs an ``AnyOf`` from
    a possibly-empty list.
    """

    def test_empty_any_of_raises(self, env):
        with pytest.raises(SimulationError):
            env.any_of([])

    def test_empty_any_of_class_raises(self, env):
        with pytest.raises(SimulationError):
            AnyOf(env, [])

    def test_empty_all_of_still_vacuously_true(self, env):
        assert env.all_of([]).triggered


# ======================================================================
# Kernel conformance: fast path vs retained reference path
# ======================================================================
#
# The fast drain loop (free-list pooling, packed heap keys, inlined
# stepping) must be observationally identical to the reference kernel.
# These properties execute random process graphs under both modes and
# require the full execution logs to match exactly.

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Delays drawn from a small grid with duplicates, so simultaneous
# events (the interesting ordering cases) are common.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5])

_INSTR = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("signal"), st.integers(0, 3)),
    st.tuples(st.just("wait"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("anyof"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("allof"), st.integers(0, 3), st.integers(0, 3)),
)

_PROGRAM = st.lists(st.lists(_INSTR, min_size=1, max_size=6),
                    min_size=1, max_size=5)


def _execute_program(mode, program):
    """Interpret ``program`` (one instruction list per process) under the
    given kernel mode; returns the full observable execution record."""
    with kernel_mode(mode):
        env = Environment()
        shared = [env.event() for _ in range(4)]
        log = []
        procs = []

        def runner(pid, instrs):
            for idx, instr in enumerate(instrs):
                op = instr[0]
                try:
                    if op == "sleep":
                        yield env.timeout(instr[1])
                    elif op == "signal":
                        ev = shared[instr[1]]
                        if not ev.triggered:
                            ev.succeed((pid, idx))
                    elif op == "wait":
                        value = yield shared[instr[1]]
                        log.append((pid, idx, env.now, "got", value))
                    elif op == "interrupt":
                        target = instr[1] % len(procs)
                        if target != pid and procs[target].is_alive:
                            try:
                                procs[target].interrupt((pid, idx))
                            except SimulationError:
                                # not yet started: rejected by the kernel
                                log.append((pid, idx, env.now, "rejected"))
                    elif op == "anyof":
                        value = yield env.any_of(
                            [shared[instr[1]], shared[instr[2]]])
                        log.append((pid, idx, env.now, "any", value))
                    elif op == "allof":
                        values = yield env.all_of(
                            [shared[instr[1]], shared[instr[2]]])
                        log.append((pid, idx, env.now, "all", values))
                except Interrupt as exc:
                    log.append((pid, idx, env.now, "interrupted",
                                exc.args))
                log.append((pid, idx, env.now, op))
            return ("finished", pid)

        for pid, instrs in enumerate(program):
            procs.append(env.process(runner(pid, instrs), name=f"p{pid}"))
        env.run()
        outcomes = [(p.triggered, p.value if p.triggered else None)
                    for p in procs]
        return tuple(log), tuple(outcomes), env.now


class TestKernelConformance:
    @given(program=_PROGRAM)
    @settings(max_examples=60, deadline=None)
    def test_random_process_graphs_match_reference(self, program):
        assert (_execute_program("fast", program)
                == _execute_program("reference", program))

    @given(delays=st.lists(_DELAYS, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_ordering_is_time_then_insertion_stable(self, delays):
        """Timeout firings are (time, priority, insertion)-stable: equal
        deadlines resolve in creation order, under both kernels."""
        def order(mode):
            with kernel_mode(mode):
                env = Environment()
                fired = []
                timeouts = [env.timeout(d, value=i)
                            for i, d in enumerate(delays)]

                def watcher(i, ev):
                    yield ev
                    fired.append((i, env.now))

                for i, ev in enumerate(timeouts):
                    env.process(watcher(i, ev), name=f"w{i}")
                env.run()
                return fired

        expected = [(i, delays[i]) for i in
                    sorted(range(len(delays)), key=lambda i: (delays[i], i))]
        assert order("fast") == order("reference") == expected

    @given(d_sleep=_DELAYS, d_int=_DELAYS)
    @settings(max_examples=60, deadline=None)
    def test_interrupt_vs_finish_race_matches_reference(self, d_sleep,
                                                        d_int):
        """Whatever an interrupt racing the victim's own finish resolves
        to (including the d_int == d_sleep tie), both kernels agree."""
        def run_race(mode):
            with kernel_mode(mode):
                env = Environment()
                log = []

                def victim():
                    try:
                        yield env.timeout(d_sleep)
                        log.append(("done", env.now))
                    except Interrupt as exc:
                        log.append(("interrupted", env.now, exc.args))

                def attacker(victim_proc):
                    yield env.timeout(d_int)
                    if victim_proc.is_alive:
                        victim_proc.interrupt("bang")
                    log.append(("attacked", env.now))

                vp = env.process(victim(), name="victim")
                env.process(attacker(vp), name="attacker")
                env.run()
                return log

        assert run_race("fast") == run_race("reference")

    @given(pre_run=st.floats(min_value=0.0, max_value=4.0),
           child_delays=st.lists(_DELAYS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_conditions_with_pre_processed_children(self, pre_run,
                                                    child_delays):
        """AnyOf/AllOf built after some children already fired behave
        identically under both kernels."""
        def run_cond(mode):
            with kernel_mode(mode):
                env = Environment()
                children = [env.timeout(d, value=i)
                            for i, d in enumerate(child_delays)]
                if pre_run > 0.0:
                    env.run(until=pre_run)  # some children fire here
                log = []

                def wait_all():
                    values = yield env.all_of(children)
                    log.append(("all", env.now, values))

                def wait_any():
                    value = yield env.any_of(children)
                    log.append(("any", env.now, value))

                env.process(wait_any(), name="any")
                env.process(wait_all(), name="all")
                env.run()
                return log

        assert run_cond("fast") == run_cond("reference")

    @given(signal_first=st.booleans(), n_zeros=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_timeout_zero_vs_succeed_ordering(self, signal_first, n_zeros):
        """Timeout(0) wakeups and direct succeed() wakeups interleave the
        same way under both kernels (pure insertion order at t=0)."""
        def run_zero(mode):
            with kernel_mode(mode):
                env = Environment()
                ev = env.event()
                log = []

                def zero_sleeper(i):
                    yield env.timeout(0.0)
                    log.append(("t0", i, env.now))

                def ev_waiter():
                    value = yield ev
                    log.append(("ev", value, env.now))

                if signal_first:
                    ev.succeed("sig")
                for i in range(n_zeros):
                    env.process(zero_sleeper(i), name=f"z{i}")
                env.process(ev_waiter(), name="w")
                if not signal_first:
                    ev.succeed("sig")
                env.run()
                return log

        assert run_zero("fast") == run_zero("reference")

    def test_profiler_installed_mid_run_matches_reference(self):
        """A hook installed from a callback mid-run: the run must still
        end at its deadline with the log, clock and event count the
        reference kernel produces.  Only a controlled *scheduler* takes
        the single drain loop off its inlined body (at the next event);
        nothing in ``step()`` serves a profiler, so a profiled run keeps
        the pooled body."""
        from repro.obs import Profiler
        from tests.test_fabric import _HeapOrderScheduler

        def run_mid(mode, hook):
            with kernel_mode(mode):
                env = Environment()
                log, inlined = [], []

                def ticker(pid, period):
                    while True:
                        yield env.timeout(period)
                        log.append((pid, env.now))
                        inlined.append(env._fast)

                def install():
                    yield env.timeout(4.0)
                    if hook == "profiler":
                        Profiler().install(env)
                    else:
                        env.set_scheduler(_HeapOrderScheduler())
                    log.append(("installed", env.now))

                for pid, period in enumerate((1.0, 1.5, 2.5)):
                    env.process(ticker(pid, period), name=f"t{pid}")
                env.process(install(), name="install")
                env.run(until=10.25)
                return log, env.now, env._eid, inlined

        for hook in ("profiler", "scheduler"):
            fast, reference = run_mid("fast", hook), run_mid("reference", hook)
            assert fast[:3] == reference[:3]
            assert fast[1] == 10.25
            assert fast[0][-1] == (0, 10.0)
            # a scheduler really does switch bodies part-way; a profiler
            # does not
            assert fast[3][0] and fast[3][-1] == (hook == "profiler")
            assert not any(reference[3])
