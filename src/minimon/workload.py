"""Benchmark workload: a recursive call chain with a busy-waiting leaf.

One iteration calls a method recursively ``depth`` times; the leaf spins
on the monotonic clock for ``busy_ns`` nanoseconds and returns its entry
timestamp, which propagates back up the chain so the harness can consume
it (checksum) and the chain cannot be optimized away.

Probe statements are chosen at construction time: direct probes are
plain inlined enter/exit calls inside the recursive method; the
interceptor variant routes every recursion level through the generic
interception layer instead.
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
from .trace_registry import TraceRegistry

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


class CallChain:
    """Monitored application stand-in: depth-d chain of probe-carrying calls."""

    def __init__(self, probe_kind: ProbeKind, pipeline: Pipeline | None,
                 params: WorkloadParams,
                 signature: str = DEFAULT_SIGNATURE,
                 registry: TraceRegistry | None = None):
        self.probe_kind = probe_kind
        self.params = params
        self.signature = signature
        self.registry = registry if registry is not None else TraceRegistry()
        self._agg_probe: AggregatingProbe | None = None
        if probe_kind is not ProbeKind.NONE and pipeline is None:
            raise ValueError(f"probe kind {probe_kind.value} requires a pipeline")
        self._call = self._build(probe_kind, pipeline, params.busy_ns)

    def call(self, depth: int | None = None) -> int:
        """Run one iteration; returns the leaf's entry timestamp."""
        if depth is None:
            depth = self.params.depth
        return self._call(depth)

    def flush(self) -> None:
        """Emit residual aggregation windows (aggregating probe only)."""
        if self._agg_probe is not None:
            self._agg_probe.flush()

    def _build(self, probe_kind: ProbeKind, pipeline: Pipeline | None, busy_ns: int):
        clock = _clock
        signature = self.signature
        emit = pipeline.new_monitoring_record if pipeline is not None else None

        if probe_kind is ProbeKind.NONE:
            def method(d):
                if d > 1:
                    return method(d - 1)
                entry = clock()
                while clock() - entry < busy_ns:
                    pass
                return entry

            return method

        if probe_kind is ProbeKind.DIRECT_FULL:
            probe = DirectFullProbe(emit, self.registry)
            enter = probe.enter
            exit_ = probe.exit

            def method(d):
                token = enter(signature)
                try:
                    if d > 1:
                        return method(d - 1)
                    entry = clock()
                    while clock() - entry < busy_ns:
                        pass
                    return entry
                finally:
                    exit_(token)

            return method

        if probe_kind is ProbeKind.INTERCEPTOR_FULL:
            # Recursion goes through the interception proxy, so every
            # level pays the full interception cost.
            def raw(d):
                if d > 1:
                    return proxied(d - 1)
                entry = clock()
                while clock() - entry < busy_ns:
                    pass
                return entry

            proxied = intercept(raw, signature, emit, self.registry)
            return proxied

        # Duration and aggregating probes share one enter/exit shape.
        if probe_kind is ProbeKind.DIRECT_DURATION:
            probe = DirectDurationProbe(emit)
        elif probe_kind is ProbeKind.DIRECT_AGGREGATING:
            probe = AggregatingProbe(emit, pipeline.config.aggregation_window)
            self._agg_probe = probe
        else:
            raise ValueError(f"unknown probe kind: {probe_kind!r}")
        enter = probe.enter
        exit_ = probe.exit

        def method(d):
            tin = enter()
            try:
                if d > 1:
                    return method(d - 1)
                entry = clock()
                while clock() - entry < busy_ns:
                    pass
                return entry
            finally:
                exit_(signature, tin)

        return method
