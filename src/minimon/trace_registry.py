"""Per-thread trace bookkeeping: trace id, execution order index, stack size.

Each thread owns one context; only the trace-id allocator is shared.
A trace id of -1 means no trace is active on this thread. A trace starts
on the first :meth:`TraceRegistry.enter_method` with none active (or
explicitly via :meth:`TraceRegistry.begin_trace`) and ends automatically
when the execution stack size returns to zero.
"""

from __future__ import annotations

import itertools
import threading

__all__ = ["NO_TRACE", "TraceRegistry", "reset_trace_id_allocator"]

NO_TRACE = -1

# next() on a count is one C call under the GIL: ids never repeat across threads.
_trace_ids = itertools.count()


def reset_trace_id_allocator() -> None:
    """Reset the process-global trace id counter (test isolation only)."""
    global _trace_ids
    _trace_ids = itertools.count()


class _State:
    """One thread's counters: plain slots, not thread-local attributes."""

    __slots__ = ("trace_id", "next_eoi", "ess")

    def __init__(self):
        self.trace_id = NO_TRACE
        self.next_eoi = 0
        self.ess = 0


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

    def recall_trace_id(self) -> int:
        """Current thread's trace id, or -1 when no trace is active."""
        return self._ctx.state.trace_id

    def begin_trace(self) -> int:
        """Start a new trace on this thread and return its id."""
        state = self._ctx.state
        if state.trace_id != NO_TRACE:
            raise RuntimeError(f"trace {state.trace_id} already active")
        state.trace_id = trace_id = next(_trace_ids)
        state.next_eoi = 0
        state.ess = 0
        return trace_id

    def enter_method(self) -> tuple[int, int, int]:
        """Record a method entry; returns (trace_id, eoi, ess) for the entry.

        Starts a new trace when none is active on this thread.
        """
        state = self._ctx.state
        trace_id = state.trace_id
        if trace_id == NO_TRACE:
            # No active trace means eoi and ess are 0 already: only
            # exit_method ends a trace, and it does so at ess 0.
            state.trace_id = trace_id = next(_trace_ids)
        eoi = state.next_eoi
        ess = state.ess
        state.next_eoi = eoi + 1
        state.ess = ess + 1
        return trace_id, eoi, ess

    def exit_method(self) -> None:
        """Record a method exit; ends the trace when the stack empties."""
        state = self._ctx.state
        ess = state.ess - 1
        if ess < 0:
            raise RuntimeError("exit_method without matching enter_method")
        state.ess = ess
        if ess == 0:
            state.trace_id = NO_TRACE
            state.next_eoi = 0
