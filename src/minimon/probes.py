"""Measurement probes in the four styles whose overhead the harness compares.

The three direct probes share one interface: ``enter()`` returns a token
and ``exit(signature, token)`` emits what the call produced, so one
monitored method with inline probe statements serves all three.

* ``DirectFullProbe`` -- FullRecords with trace metadata; its ``enter``
  is the trace registry's, one call per entry that hands out the whole
  token (the entry timestamp and the trace position, starting a trace at
  the outermost entry), and its exit calls nothing in the registry. The
  exit allocates its record with ``object.__new__`` and stores the eight
  slots itself, so building a record opens no Python frame. It skips
  ``FullRecord.__init__``'s checks because its fields hold them by
  construction: ``tout`` is read from the monotonic clock after ``tin``,
  and ``eoi`` and ``ess`` come from the registry's counters, which are
  never negative. The record equals ``FullRecord(...)``'s.
* ``DirectDurationProbe`` -- minimal DurationRecords, touching no trace
  state. Its exit reads the clock first, as the full probe's does, then
  allocates the record like the full probe and stores both slots itself,
  skipping ``DurationRecord.__init__``'s check: the duration is a
  difference of two monotonic clock readings, so it is an int that is
  never negative. The record equals ``DurationRecord(...)``'s.
* ``AggregatingProbe`` -- sums durations per signature and emits one
  AggregatedRecord per window of W invocations; its ``exit`` holds the
  one copy of the fold. An open window is the AggregatedRecord it will
  emit, allocated like the full probe's record; when emitted it holds W
  calls, or at least one at ``flush``, and a sum of clock readings.
* ``intercept`` -- a generic interception layer (per-call context
  allocation, dynamic dispatch, extra call indirection) that adapts a
  ``DirectFullProbe`` and so emits the same FullRecords; models the cost
  of aspect-weaving style instrumentation.

Durations come from a monotonic nanosecond clock, never wall-clock time.
The duration and aggregating probes' ``enter`` is that clock itself, so
entering a call costs one C call and no Python frame; the full probe's
costs one frame. No probe builds a record through its class, so each
level of a monitored call opens four Python frames with the full probe
(the method, ``enter``, ``exit`` and the queue's ``put``), three with the
duration probe (the method, ``exit`` and ``put``) and two with the
aggregating probe (the method and ``exit``; it emits once per window).
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable

from .records import AggregatedRecord, DurationRecord, FullRecord
from .trace_registry import TraceRegistry, monotonic_ns

__all__ = [
    "ProbeKind",
    "CallContext",
    "DirectFullProbe",
    "DirectDurationProbe",
    "AggregatingProbe",
    "intercept",
    "BENCH_HOSTNAME",
    "BENCH_SESSION_ID",
    "DEFAULT_AGGREGATION_WINDOW",
]

# Constant host/session identity: the benchmark is single-process, but
# FullRecord carries both so its per-record cost stays realistic.
BENCH_HOSTNAME = "bench-host"
BENCH_SESSION_ID = "s0"

DEFAULT_AGGREGATION_WINDOW = 1000

# Every probe allocates its records with this, not through the class: a
# call such as ``FullRecord(...)`` runs ``type.__call__`` and then
# ``__init__`` in a frame of its own, while this allocates the bare record,
# whose slots the probe then stores in its own frame.
_new_object = object.__new__


def _open_window(signature: str) -> AggregatedRecord:
    """An empty window: the AggregatedRecord the fold counts calls into."""
    window = _new_object(AggregatedRecord)
    window.signature = signature
    window.count = 0
    window.sum_duration = 0
    return window


class ProbeKind(Enum):
    NONE = "none"
    INTERCEPTOR_FULL = "interceptor-full"
    DIRECT_FULL = "direct-full"
    DIRECT_DURATION = "direct-duration"
    DIRECT_AGGREGATING = "direct-aggregating"


class DirectFullProbe:
    """Enter/exit probe emitting FullRecords with trace metadata from a
    trace registry of its own."""

    def __init__(self, emit: Callable):
        self._emit = emit
        self.registry = TraceRegistry()
        self.enter = self.registry.enter

    def exit(self, signature: str, token) -> None:
        tout = monotonic_ns()
        tin, state, trace_id, eoi, ess = token
        # Leave the method before emitting: a record the emit refuses must
        # not leave the thread's trace open.
        state.ess = ess
        record = _new_object(FullRecord)
        record.signature = signature
        record.tin = tin
        record.tout = tout
        record.trace_id = trace_id
        record.eoi = eoi
        record.ess = ess
        record.hostname = BENCH_HOSTNAME
        record.session_id = BENCH_SESSION_ID
        self._emit(record)


class DirectDurationProbe:
    """Enter/exit probe emitting minimal DurationRecords."""

    enter = monotonic_ns  # the entry timestamp is the whole token

    def __init__(self, emit: Callable):
        self._emit = emit

    def exit(self, signature: str, tin: int) -> None:
        duration = monotonic_ns() - tin
        record = _new_object(DurationRecord)
        record.signature = signature
        record.duration = duration
        self._emit(record)


class AggregatingProbe:
    """Enter/exit probe that aggregates durations per signature.

    State is kept per calling thread (no hot-path synchronization); call
    :meth:`flush` from each producing thread before pipeline shutdown to
    emit any residual partial window (count < W).
    """

    enter = monotonic_ns  # the entry timestamp is the whole token

    def __init__(self, emit: Callable, window: int = DEFAULT_AGGREGATION_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._emit = emit
        self.window = window
        # The local's ``__dict__`` is the calling thread's own dict: one
        # lookup gives the signature -> open window table. A full window
        # leaves it before it is emitted, and nothing touches it after.
        self._local = threading.local()

    def exit(self, signature: str, tin: int) -> None:
        try:
            window = self._local.__dict__[signature]
        except KeyError:
            window = self._local.__dict__[signature] = _open_window(signature)
        # The clock is read here, in the fold, to spare a local: the
        # duration also covers the table lookup.
        window.sum_duration += monotonic_ns() - tin
        window.count += 1
        if window.count == self.window:
            del self._local.__dict__[signature]
            self._emit(window)

    def flush(self) -> int:
        """Emit partial windows of the calling thread; returns emit count."""
        table = self._local.__dict__
        windows = list(table.values())
        table.clear()
        for window in windows:
            self._emit(window)
        return len(windows)


class CallContext:
    """Per-invocation join-point context an interceptor allocates.

    Owns the wrapped callable and its (boxed) arguments; the actual
    invocation happens through :meth:`proceed`, mirroring how weaving
    frameworks route the original call through the join point.
    """

    __slots__ = ("signature", "argument_descriptors", "_fn", "_args", "_kwargs")

    def __init__(self, signature: str, fn: Callable, args: tuple, kwargs: dict):
        self.signature = signature
        self.argument_descriptors = [repr(a) for a in args] + [
            f"{k}={v!r}" for k, v in kwargs.items()]
        self._fn = fn
        self._args = args
        self._kwargs = kwargs

    def proceed(self):
        return _invoke(self._fn, self._args, self._kwargs)


class FullRecordInterceptor:
    """Interceptor whose after-handler emits the same FullRecord a
    DirectFullProbe would."""

    def __init__(self, emit: Callable):
        self._probe = DirectFullProbe(emit)

    def before(self, context: CallContext):
        return self._probe.enter()

    def after(self, context: CallContext, token) -> None:
        self._probe.exit(context.signature, token)


def _invoke(fn: Callable, args: tuple, kwargs: dict):
    # Deliberate extra indirection level on every intercepted call.
    return fn(*args, **kwargs)


def intercept(wrapped: Callable, signature: str, emit: Callable) -> Callable:
    """Wrap ``wrapped`` in a monitoring interceptor.

    Each invocation allocates a fresh :class:`CallContext` (boxing the
    arguments), calls the interceptor's bound ``before`` and ``after``
    methods around the call, and reaches ``wrapped`` through the
    context's ``proceed`` plus one further indirect call. The wrapped
    callable's behavior is unchanged; an exception inside it still
    triggers the after-handler (record emitted at unwind time).
    """
    interceptor = FullRecordInterceptor(emit)

    def proxy(*args, **kwargs):
        context = CallContext(signature, wrapped, args, kwargs)
        token = interceptor.before(context)
        try:
            return context.proceed()
        finally:
            interceptor.after(context, token)

    return proxy
