"""Per-thread trace bookkeeping: trace id, execution order index, stack size.

Each thread owns one context; only the trace-id allocator is shared.
A trace id of -1 means no trace is active on this thread. A trace starts
explicitly via :meth:`TraceRegistry.begin_trace` and ends automatically
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


class _Context(threading.local):
    def __init__(self):
        self.trace_id = NO_TRACE
        self.next_eoi = 0
        self.ess = 0


class TraceRegistry:
    """Thread-local (trace_id, eoi, ess) counters.

    Trace ids are process-globally unique and monotonically increasing
    across all registry instances.
    """

    def __init__(self):
        self._ctx = _Context()

    def recall_trace_id(self) -> int:
        """Current thread's trace id, or -1 when no trace is active."""
        return self._ctx.trace_id

    def begin_trace(self) -> int:
        """Start a new trace on this thread and return its id."""
        ctx = self._ctx
        if ctx.trace_id != NO_TRACE:
            raise RuntimeError(f"trace {ctx.trace_id} already active")
        ctx.trace_id = next(_trace_ids)
        ctx.next_eoi = 0
        ctx.ess = 0
        return ctx.trace_id

    def enter_method(self) -> tuple[int, int]:
        """Record a method entry; returns (eoi, ess) for the entry."""
        ctx = self._ctx
        eoi = ctx.next_eoi
        ess = ctx.ess
        ctx.next_eoi = eoi + 1
        ctx.ess = ess + 1
        return eoi, ess

    def exit_method(self) -> None:
        """Record a method exit; ends the trace when the stack empties."""
        ctx = self._ctx
        if ctx.ess <= 0:
            raise RuntimeError("exit_method without matching enter_method")
        ctx.ess -= 1
        if ctx.ess == 0:
            ctx.trace_id = NO_TRACE
            ctx.next_eoi = 0
