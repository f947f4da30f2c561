"""Discrete-event simulation kernel.

A tiny, dependency-free event loop in the style of SimPy: an
:class:`Environment` owns a priority queue of timestamped events, and
*processes* are Python generators that yield events to wait on.  Simulated
time is a float in **microseconds** (the natural unit for RDMA-scale
systems); nothing in the kernel depends on the unit, but the rest of the
repository assumes it.

The kernel provides exactly what the FUSEE reproduction needs:

* :class:`Event` — one-shot condition with callbacks and a value.
* :class:`Timeout` — an event that fires after a delay.
* :class:`Process` — wraps a generator; itself an event that fires when the
  generator returns (value = return value) or raises (failure).
* :class:`AllOf` / :class:`AnyOf` — composite conditions.
* :class:`Interrupt` — thrown into a process by :meth:`Process.interrupt`.

Kernel modes
------------

:meth:`Environment.run` is the one drain loop; the mode (see
``docs/simulation_model.md``, "Kernel fast path & determinism contract")
selects how events are allocated and dispatched inside it:

* ``"fast"`` (the default) — while no controlled scheduler is installed
  (``env._fast``), the loop runs :meth:`Environment.step`'s body inlined
  and pools :class:`Timeout`, :class:`Initialize` and resume-proxy events
  on free lists, recycling one only when its sole remaining reference is
  the loop's own local.  Event *identity* is reused but every observable
  field is reset, the heap tie-break is a monotone insertion id, and the
  sequence of ``_schedule`` calls is unchanged — so event ordering (time,
  priority, insertion) is bit-for-bit identical to reference mode.
* ``"reference"`` — the oracle for the conformance and differential
  suites: every proxy / timeout / initialize is a fresh object and the
  loop dispatches each event through :meth:`Environment.step`.

Installing a scheduler on a ``"fast"`` environment makes it behave as
``"reference"`` (``env._fast`` goes False) until it is removed; the mode
only controls whether that is permanent.  A profiler does not: the fabric
and the resources feed it, not :meth:`Environment.step`, so a profiled
run keeps the pooled loop.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "kernel_mode",
    "default_kernel_mode",
]

#: Priority bit packed above the insertion id in heap keys.  Interrupt
#: delivery uses priority 0 (sorts first at equal time); everything else
#: priority 1.  62 bits of insertion id is ~4.6e18 events — unreachable.
_PRIO_SHIFT = 62
_PRIO_NORMAL = 1 << _PRIO_SHIFT
#: ``Environment.run``'s deadline when it has none.
_FOREVER = float("inf")

_KERNEL_MODES = ("fast", "reference")
_DEFAULT_KERNEL = "fast"


def default_kernel_mode() -> str:
    """The mode new :class:`Environment` objects are created with."""
    return _DEFAULT_KERNEL


@contextmanager
def kernel_mode(mode: str):
    """Set the default kernel mode for environments created in the block.

    ``with kernel_mode("reference"):`` makes every bed built inside the
    block run on the retained pre-optimisation code path — the oracle the
    differential suites diff the fast path against.  The mode is captured
    at :class:`Environment` construction; leaving the block does not
    change already-built environments.
    """
    global _DEFAULT_KERNEL
    if mode not in _KERNEL_MODES:
        raise SimulationError(f"unknown kernel mode {mode!r}")
    previous = _DEFAULT_KERNEL
    _DEFAULT_KERNEL = mode
    try:
        yield
    finally:
        _DEFAULT_KERNEL = previous


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* (scheduled to fire), then *processed* (its
    callbacks run).  ``succeed`` and ``fail`` trigger it with a value or an
    exception respectively.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value read before event triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now, _PRIO_NORMAL | eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now, _PRIO_NORMAL | eid, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule(self, delay)


class Initialize(Event):
    """Internal event used to start a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._triggered = True
        self._ok = True
        env._schedule(self)


class _Proxy(Event):
    """Resume-proxy for a yield on an already-processed target.

    Behaviourally identical to the plain :class:`Event` reference mode
    allocates; a distinct class only so the drain loop can recognise and
    recycle it.
    """

    __slots__ = ()


class Process(Event):
    """A running generator-based process.

    The process is itself an event: it fires when the generator finishes.
    Yield an :class:`Event` from the generator to wait for it; the ``yield``
    expression evaluates to the event's value (or raises its exception).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        if env._fast and env._init_pool:
            init = env._init_pool.pop()
            init.callbacks.append(self._resume)
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (env._now, _PRIO_NORMAL | eid, init))
        else:
            Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        if self._target is None:
            # The generator has not run its first step (its Initialize is
            # still queued): throwing into a fresh generator would kill
            # it before its body — and the queued Initialize would then
            # double-resume it.  Reject loudly, like SimPy does.
            raise SimulationError(
                "cannot interrupt a process before its first step")
        event = Event(self.env)
        event._defused = True
        event.callbacks.append(self._resume_interrupt)
        event._triggered = True
        event._ok = False
        event._value = Interrupt(cause)
        self.env._schedule(event, priority=0)

    # -- internal ----------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self._triggered:  # process finished before interrupt delivered
            return
        if (self._target is not None and self._target.callbacks is not None
                and self._resume in self._target.callbacks):
            self._target.callbacks.remove(self._resume)
        self._resume(event)     # a failed, defused event: thrown in

    def _resume(self, event: Event) -> None:
        """Run the generator to its next yield with ``event``'s outcome
        (sent as a value, or thrown if the event failed), then park it on
        the event it yielded."""
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None
        try:
            processed = target._processed
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            ) from None
        if processed:
            # Already fired: resume immediately (next scheduler step).
            if env._fast:
                pool = env._proxy_pool
                if pool:
                    proxy = pool.pop()
                    proxy._defused = False
                else:
                    proxy = _Proxy(env)
                    proxy._triggered = True
            else:
                proxy = Event(env)
                proxy._triggered = True
            proxy.callbacks.append(self._resume)
            proxy._ok = target._ok
            proxy._value = target._value
            if not target._ok:
                target._defused = True
            # Park on the proxy: an interrupt racing this resume must be
            # able to find (and detach from) the pending wakeup, or the
            # process would be resumed twice.
            self._target = proxy
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (env._now, _PRIO_NORMAL | eid, proxy))
        else:
            self._target = target
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    #: AnyOf overrides this: an empty waiter list would never fire, which
    #: silently masks bugs in callers that build the list dynamically.
    _allow_empty = True

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            if not self._allow_empty:
                raise SimulationError(
                    f"{type(self).__name__}([]) would never fire: an empty "
                    "any-of has no event that could trigger it")
            self.succeed(self._build_value())
            return
        for event in self.events:
            if event._processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _build_value(self):
        return [e._value for e in self.events if e._triggered]

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when all child events have fired; value is the list of values."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is that event's value.

    ``AnyOf([])`` raises :class:`SimulationError`: with no children the
    condition could never fire, so an empty waiter list is always a bug
    at the call site (``AllOf([])`` stays vacuously true, matching the
    usual universal/existential quantifier convention).
    """

    __slots__ = ()

    _allow_empty = False

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(event._value)


class Environment:
    """The simulation environment: clock plus event queue.

    ``kernel`` selects the execution mode (``"fast"`` or ``"reference"``,
    see the module docstring); ``None`` takes the module default, which
    :func:`kernel_mode` overrides for a block.
    """

    def __init__(self, initial_time: float = 0.0,
                 kernel: Optional[str] = None):
        self._now = float(initial_time)
        self._queue: List = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        # Controlled-schedule hooks (repro.check): both default to None so
        # the normal path costs one attribute check per step/access.
        self._scheduler = None
        self._access_hook = None
        self._uids = itertools.count()
        # Latency-attribution hook (repro.obs.profile.Profiler): resources
        # and the fabric emit typed wait/service intervals through it.
        # None keeps the unprofiled path at one attribute check per site.
        self._profiler = None
        if kernel is None:
            kernel = _DEFAULT_KERNEL
        elif kernel not in _KERNEL_MODES:
            raise SimulationError(f"unknown kernel mode {kernel!r}")
        self._kernel = kernel
        # Free lists for the fast path.  Events land here only when the
        # drain loop holds their sole remaining reference, so identity
        # reuse is unobservable from simulation code.
        self._timeout_pool: List[Timeout] = []
        self._proxy_pool: List[_Proxy] = []
        self._init_pool: List[Initialize] = []
        # The hot-path flags _update_fast keeps: _fast iff fast mode AND no
        # scheduler (the drain loop's per-event check), _hooked iff a profiler
        # or access hook is installed (NicPort.finish_time's check).
        self._fast = kernel == "fast"
        self._hooked = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def kernel(self) -> str:
        return self._kernel

    def _update_fast(self) -> None:
        self._fast = self._kernel == "fast" and self._scheduler is None
        self._hooked = (self._profiler is not None
                        or self._access_hook is not None)

    def require_fast(self) -> None:
        """Raise unless the drain loop is eligible for its inlined fast body.

        The kernel silently falls back to per-event :meth:`step` dispatch
        under a controlled scheduler, and every verb feeds an installed
        profiler or access hook.  Callers that promised a fast, unobserved
        bed (``run_op(fast=True)``, the harness sweeps) call this to surface
        either as an error instead of paying a hidden slowdown.  The
        retained reference mode (``kernel_mode("reference")``) passes:
        it is a deliberate differential-testing choice with identical
        semantics and similar speed, not an accidental hook.
        """
        if self._scheduler is not None:
            raise SimulationError(
                "fast kernel required, but a controlled scheduler is "
                "installed; pass fast=False for checked runs")
        if self._profiler is not None:
            raise SimulationError(
                "fast kernel required, but a profiler is installed; "
                "pass fast=False for profiled runs")
        if self._access_hook is not None:
            raise SimulationError(
                "fast kernel required, but an access hook is installed; "
                "pass fast=False for schedule-explored runs")

    # -- latency attribution (repro.obs.profile) ----------------------------
    @property
    def profiler(self):
        return self._profiler

    @profiler.setter
    def profiler(self, value) -> None:
        self._profiler = value
        self._update_fast()

    # -- controlled scheduling (repro.check) --------------------------------
    @property
    def scheduler(self):
        return self._scheduler

    def set_scheduler(self, scheduler) -> None:
        """Install (or remove, with ``None``) a controlled scheduler.

        A scheduler object must provide ``select(env) -> entry`` which pops
        and returns one entry from ``env._queue`` (the choice among all
        co-runnable entries at the minimum timestamp), plus
        ``begin_event(event)`` / ``end_event(event)`` bracketing hooks and
        a ``note_access(token, write)`` footprint sink.
        """
        self._scheduler = scheduler
        self._access_hook = None if scheduler is None \
            else scheduler.note_access
        self._update_fast()
        if scheduler is not None and getattr(scheduler, "env", None) is None:
            scheduler.env = self

    def note_access(self, token, write: bool) -> None:
        """Report a shared-state access of the currently running step.

        ``token`` is any hashable identity of the touched state (a memory
        word, a resource, an RPC target); used by the schedule explorer's
        sleep-set reduction to decide which event reorderings commute.
        """
        hook = self._access_hook
        if hook is not None:
            hook(token, write)

    def next_uid(self) -> int:
        """A deterministic id for shared resources (footprint tokens)."""
        return next(self._uids)

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if self._fast and self._timeout_pool:
            if delay < 0:
                raise SimulationError(f"negative delay {delay}")
            tmo = self._timeout_pool.pop()     # fired, so still triggered
            tmo.delay = delay
            tmo._value = value
            eid = self._eid
            self._eid = eid + 1
            heappush(self._queue,
                     (self._now + delay, _PRIO_NORMAL | eid, tmo))
            return tmo
        return Timeout(self, delay, value)

    def attributed_timeout(self, delay: float, category: str,
                           label: str) -> Timeout:
        """A timeout tagged for latency attribution.

        When a profiler (repro.obs.profile) is installed the sleep is
        recorded as a ``category`` interval (e.g. "backoff",
        "propagation") against the active span; otherwise this is
        exactly :meth:`timeout`.  Lives on the Environment so layers
        that cannot import each other (fabric vs. faults vs. client)
        share one implementation.
        """
        prof = self._profiler
        if prof is not None and delay > 0.0:
            prof.note(category, label, self._now, self._now + delay)
        return self.timeout(delay)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = 1) -> None:
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue,
                 (self._now + delay, (priority << _PRIO_SHIFT) | eid, event))

    def step(self) -> None:
        """Process the next scheduled event.

        With a controlled scheduler installed the choice among co-runnable
        events (all entries sharing the minimum timestamp) is delegated to
        it; otherwise the heap order (time, priority, insertion) applies.
        """
        if not self._queue:
            raise SimulationError("no more events")
        scheduler = self._scheduler
        if scheduler is None:
            when, _key, event = heappop(self._queue)
        else:
            when, _key, event = scheduler.select(self)
        self._now = when
        if scheduler is not None:
            scheduler.begin_event(event)
        try:
            callbacks, event.callbacks = event.callbacks, None
            event._processed = True
            for callback in callbacks or ():
                callback(event)
        finally:
            if scheduler is not None:
                scheduler.end_event(event)
        if event._ok is False and not event._defused:
            # Unhandled failure: surface it to the run()/step() caller.
            raise event._value

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value).

        One drain loop serves every mode.  Per event it either dispatches
        through :meth:`step` (reference mode, or a scheduler installed —
        even one installed from a callback mid-run) or, when
        ``self._fast``, runs step's uncontrolled body inlined and then
        recycles the event: no per-step method dispatch, no hook checks.
        An event is recycled only when ``getrefcount`` proves the loop's
        local is its last reference; events never expose ``__weakref__``
        (slots-only), so no observer can tell identities were reused.
        """
        stop: Optional[Event] = None
        deadline = _FOREVER
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"until={deadline} is in the past (now={self._now})")
        queue = self._queue
        tpool = self._timeout_pool
        ppool = self._proxy_pool
        ipool = self._init_pool
        getrc = getrefcount
        pop = heappop
        while True:
            if stop is not None:
                if stop._processed:
                    break
                if not queue:
                    raise SimulationError(
                        "simulation ended before awaited event fired")
            elif not queue or queue[0][0] > deadline:
                break
            if not self._fast:
                self.step()
                continue
            when, _key, event = pop(queue)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            for callback in callbacks or ():
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
            # Free-list reclamation.  Only fields that outlive a firing
            # are reset (the value, so a pooled event holds no garbage);
            # the factories set the rest on reuse, and only a proxy can
            # have been defused.
            cls = event.__class__
            if cls is Timeout:
                pool = tpool
            elif cls is _Proxy:
                pool = ppool
            elif cls is Initialize:
                pool = ipool
            else:
                continue
            if getrc(event) == 2 and callbacks is not None:
                event.callbacks = []
                event._processed = False
                event._value = None
                pool.append(event)
        if stop is None:
            if until is not None:
                self._now = deadline
            return None
        if stop._ok:
            return stop._value
        stop._defused = True
        raise stop._value
