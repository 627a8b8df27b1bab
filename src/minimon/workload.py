"""Benchmark workload: a recursive call chain with a busy-waiting leaf.

One iteration calls a method recursively ``depth`` times; the leaf spins
on the monotonic clock for ``busy_ns`` nanoseconds and returns its entry
timestamp, which propagates back up the chain so the harness can consume
it (checksum) and the chain cannot be optimized away.

The monitored method comes in the paper's two shapes, chosen at
construction time. The direct probes share one method with the probe
statements inline, ``token = enter()`` on entry and
``exit(signature, token)`` on the way out. ``none`` runs the plain
method bare, and ``interceptor-full`` routes every recursion level of
that same plain method through the generic interception layer.
``CallChain.call(depth)`` is the root of that method, so a harness that
times it times the monitored chain and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .pipeline import Pipeline
from .probes import (
    AggregatingProbe,
    DirectDurationProbe,
    DirectFullProbe,
    ProbeKind,
    intercept,
)

__all__ = ["WorkloadParams", "CallChain", "DEFAULT_SIGNATURE"]

DEFAULT_SIGNATURE = "bench.CallChain.monitored_method()"

_clock = time.perf_counter_ns


@dataclass
class WorkloadParams:
    depth: int = 10
    busy_ns: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.busy_ns < 0:
            raise ValueError(f"busy_ns must be >= 0, got {self.busy_ns}")


def _flush_nothing() -> None:
    """``CallChain.flush`` of a probe that keeps no aggregation windows."""


class CallChain:
    """Monitored application stand-in: depth-d chain of probe-carrying calls.

    ``call(depth)`` is the chain's root monitored method itself and returns
    the leaf's entry timestamp; ``flush()`` emits the aggregating probe's
    residual windows and does nothing for the other probes.
    """

    def __init__(self, probe_kind: ProbeKind, pipeline: Pipeline | None,
                 params: WorkloadParams,
                 signature: str = DEFAULT_SIGNATURE):
        if probe_kind is not ProbeKind.NONE and pipeline is None:
            raise ValueError(f"probe kind {probe_kind.value} requires a pipeline")
        clock = _clock
        busy_ns = params.busy_ns
        emit = pipeline.new_monitoring_record if pipeline is not None else None
        self.flush = _flush_nothing

        if probe_kind is ProbeKind.DIRECT_FULL:
            probe = DirectFullProbe(emit)
        elif probe_kind is ProbeKind.DIRECT_DURATION:
            probe = DirectDurationProbe(emit)
        elif probe_kind is ProbeKind.DIRECT_AGGREGATING:
            probe = AggregatingProbe(emit, pipeline.config.aggregation_window)
            self.flush = probe.flush
        else:
            probe = None

        if probe is not None:
            # Source instrumentation: the probe statements are inline.
            enter = probe.enter
            exit_ = probe.exit

            def method(d):
                token = enter()
                try:
                    if d > 1:
                        return method(d - 1)
                    entry = clock()
                    while clock() - entry < busy_ns:
                        pass
                    return entry
                finally:
                    exit_(signature, token)

            self.call = method
            return

        # The plain method recurses through ``level``: itself when
        # uninstrumented, the interception proxy otherwise, so that every
        # level pays the full interception cost.
        def raw(d):
            if d > 1:
                return level(d - 1)
            entry = clock()
            while clock() - entry < busy_ns:
                pass
            return entry

        if probe_kind is ProbeKind.NONE:
            level = raw
        elif probe_kind is ProbeKind.INTERCEPTOR_FULL:
            level = intercept(raw, signature, emit)
        else:
            raise ValueError(f"unknown probe kind: {probe_kind!r}")
        self.call = level
