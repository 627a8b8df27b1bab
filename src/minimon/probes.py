"""Measurement probes in the four styles whose overhead the harness compares.

The three direct probes share one interface: ``enter()`` returns a token
and ``exit(signature, token)`` emits what the call produced, so one
monitored method with inline probe statements serves all three.

* ``DirectFullProbe`` -- FullRecords with trace metadata; its token
  carries the entry timestamp and the trace position, which one registry
  call per entry hands out (starting a trace at the outermost entry).
* ``DirectDurationProbe`` -- minimal DurationRecords, touching no trace
  state.
* ``AggregatingProbe`` -- sums durations per signature and emits one
  AggregatedRecord per window of W invocations.
* ``intercept`` -- a generic interception layer (per-call context
  allocation, dynamic dispatch, extra call indirection) that adapts a
  ``DirectFullProbe`` and so emits the same FullRecords; models the cost
  of aspect-weaving style instrumentation.

Durations come from a monotonic nanosecond clock, never wall-clock time.
The duration and aggregating probes' ``enter`` is that clock itself, so
entering a call costs one C call and no Python frame.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Callable, Optional

from .records import AggregatedRecord, DurationRecord, FullRecord
from .trace_registry import TraceRegistry

__all__ = [
    "ProbeKind",
    "AggregationState",
    "CallContext",
    "DirectFullProbe",
    "DirectDurationProbe",
    "AggregatingProbe",
    "aggregate_duration",
    "intercept",
    "BENCH_HOSTNAME",
    "BENCH_SESSION_ID",
    "DEFAULT_AGGREGATION_WINDOW",
]

monotonic_ns = time.perf_counter_ns

# Constant host/session identity: the benchmark is single-process, but
# FullRecord carries both so its per-record cost stays realistic.
BENCH_HOSTNAME = "bench-host"
BENCH_SESSION_ID = "s0"

DEFAULT_AGGREGATION_WINDOW = 1000


class ProbeKind(Enum):
    NONE = "none"
    INTERCEPTOR_FULL = "interceptor-full"
    DIRECT_FULL = "direct-full"
    DIRECT_DURATION = "direct-duration"
    DIRECT_AGGREGATING = "direct-aggregating"


class AggregationState:
    """Windowed sum/count accumulator for one signature."""

    __slots__ = ("signature", "window", "counter", "sum")

    def __init__(self, signature: str, window: int = DEFAULT_AGGREGATION_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.signature = signature
        self.window = window
        self.counter = 0
        self.sum = 0

    def close_window(self) -> AggregatedRecord:
        """Record of the window so far; starts a new, empty window."""
        record = AggregatedRecord(self.signature, self.counter, self.sum)
        self.counter = 0
        self.sum = 0
        return record


def aggregate_duration(state: AggregationState, duration: int) -> Optional[AggregatedRecord]:
    """Fold one duration into the window; returns a record when it fills."""
    state.sum += duration
    state.counter += 1
    if state.counter == state.window:
        return state.close_window()
    return None


class DirectFullProbe:
    """Enter/exit probe emitting FullRecords with trace metadata from a
    trace registry of its own."""

    def __init__(self, emit: Callable):
        self._emit = emit
        self.registry = TraceRegistry()

    def enter(self):
        trace_id, eoi, ess = self.registry.enter_method()
        return monotonic_ns(), trace_id, eoi, ess

    def exit(self, signature: str, token) -> None:
        tout = monotonic_ns()
        tin, trace_id, eoi, ess = token
        self._emit(FullRecord(signature, tin, tout, trace_id, eoi, ess,
                              BENCH_HOSTNAME, BENCH_SESSION_ID))
        self.registry.exit_method()


class DirectDurationProbe:
    """Enter/exit probe emitting minimal DurationRecords."""

    enter = monotonic_ns  # the entry timestamp is the whole token

    def __init__(self, emit: Callable):
        self._emit = emit

    def exit(self, signature: str, tin: int) -> None:
        self._emit(DurationRecord(signature, monotonic_ns() - tin))


class _ThreadStates(threading.local):
    """Per-thread signature -> AggregationState table, made on first access."""

    def __init__(self):
        self.states = {}


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
        self._local = _ThreadStates()

    def exit(self, signature: str, tin: int) -> None:
        duration = monotonic_ns() - tin
        try:
            state = self._local.states[signature]
        except KeyError:
            state = self._local.states[signature] = AggregationState(signature, self.window)
        record = aggregate_duration(state, duration)
        if record is not None:
            self._emit(record)

    def flush(self) -> int:
        """Emit partial windows of the calling thread; returns emit count."""
        emitted = 0
        for state in self._local.states.values():
            if state.counter > 0:
                self._emit(state.close_window())
                emitted += 1
        return emitted


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


class Interceptor:
    """Dynamically dispatched before/after interface for intercepted calls."""

    def before(self, context: CallContext):
        raise NotImplementedError

    def after(self, context: CallContext, token) -> None:
        raise NotImplementedError


class FullRecordInterceptor(Interceptor):
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
    arguments), dispatches through the :class:`Interceptor` interface
    before and after the call, and reaches ``wrapped`` through the
    context's ``proceed`` plus one further indirect call. The wrapped
    callable's behavior is unchanged; an exception inside it still
    triggers the after-handler (record emitted at unwind time).
    """
    interceptor: Interceptor = FullRecordInterceptor(emit)

    def proxy(*args, **kwargs):
        context = CallContext(signature, wrapped, args, kwargs)
        token = interceptor.before(context)
        try:
            return context.proceed()
        finally:
            interceptor.after(context, token)

    return proxy
