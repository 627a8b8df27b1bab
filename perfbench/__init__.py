"""The minimon benchmark: end-to-end workloads, a layer ledger and their checks.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/NOTES.md``.
"""
