"""minimon: low-overhead in-process monitoring with a benchmark harness.

The library side is a probe -> bounded queue -> writer-thread pipeline
with four probe styles (interceptor, direct full, direct duration,
direct aggregating) and two queue implementations (blocking linked,
synchronized ring). The harness side measures the per-iteration overhead
of each configuration over a recursive call-chain workload and reports
comparative statistics.

Import from the submodules: the package root loads nothing, so a monitored
application does not pay for the harness.
"""

__version__ = "0.1.0"
