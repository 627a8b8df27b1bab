"""Per-thread trace bookkeeping: trace id, execution order index, stack size.

Each thread owns one context; only the trace-id allocator is shared. An entry at
stack size 0 starts a trace (the one :meth:`TraceRegistry.begin_trace`
started, if any), and the trace ends when the stack size returns to 0.

A probe enters through :meth:`TraceRegistry.enter`, which returns the
whole token, and leaves with one store: ``state.ess = ess`` from that
token puts the stack back where the entry found it. A leave that fails
after that store (a record the sink refuses) leaves the thread's trace
state right for its next call.
"""

from __future__ import annotations

import itertools
import threading
import time

__all__ = ["TraceRegistry", "monotonic_ns"]

monotonic_ns = time.perf_counter_ns

# next() on a count is one C call under the GIL: ids never repeat across threads.
_trace_ids = itertools.count()


class _State:
    """One thread's counters: plain slots, not thread-local attributes.

    ``trace_id`` is the current trace's id while ``ess`` > 0 or ``begun``
    (a trace ``begin_trace`` started that no entry has joined yet).
    """

    __slots__ = ("trace_id", "next_eoi", "ess", "begun")

    def __init__(self):
        self.trace_id = -1
        self.next_eoi = 0
        self.ess = 0
        self.begun = False


class _Context(threading.local):
    # An attribute of a threading.local costs several times a slot, so each
    # method reads this once and then works on the thread's _State.
    def __init__(self):
        self.state = _State()


class TraceRegistry:
    """Thread-local (trace_id, eoi, ess) counters.

    Trace ids are process-globally unique and monotonically increasing
    across all registry instances.
    """

    def __init__(self):
        self._ctx = _Context()

    def begin_trace(self) -> int:
        """Start a new trace on this thread and return its id."""
        state = self._ctx.state
        if state.ess or state.begun:
            raise RuntimeError(f"trace {state.trace_id} already active")
        state.trace_id = trace_id = next(_trace_ids)
        state.begun = True
        return trace_id

    def enter(self) -> tuple:
        """Record a method entry; returns ``(tin, state, trace_id, eoi, ess)``.

        ``tin`` is the entry timestamp and ``state`` the thread's counters:
        the method's exit stores ``state.ess = ess``. An entry at stack
        size 0 starts a new trace unless ``begin_trace`` started one.
        """
        state = self._ctx.state
        ess = state.ess
        if ess:
            trace_id = state.trace_id
            eoi = state.next_eoi
        elif state.begun:
            state.begun = False
            trace_id = state.trace_id
            eoi = 0
        else:
            state.trace_id = trace_id = next(_trace_ids)
            eoi = 0
        state.next_eoi = eoi + 1
        state.ess = ess + 1
        return monotonic_ns(), state, trace_id, eoi, ess

    def enter_method(self) -> tuple[int, int, int]:
        """Record a method entry; returns (trace_id, eoi, ess) for the entry.

        Starts a new trace when none is active on this thread.
        """
        return self.enter()[2:]

    def exit_method(self) -> None:
        """Record a method exit; ends the trace when the stack empties."""
        state = self._ctx.state
        ess = state.ess - 1
        if ess < 0:
            raise RuntimeError("exit_method without matching enter_method")
        state.ess = ess
