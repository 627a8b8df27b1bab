"""Summarize result files into one trajectory point.

    python3 perfbench/summarize.py --label <name> [--out FILE]

Reads every ``perfbench/out/*-trace0.json`` result (the per-run files that
``run.py`` writes) and reports, per workload and metric, the median and
quartiles over the runs, as ``statistics.quantiles(values, n=4)`` gives
them, with the spread (Q3 - Q1) / median. Traced results (``*-trace1.json``)
contribute their per-layer medians. The host records of all runs are kept,
so that a point is only compared with points from the same kind of host.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def collect(pattern: str) -> dict:
    per_metric: dict = defaultdict(lambda: defaultdict(list))
    hosts = []
    for path in sorted(OUT.glob(pattern)):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result["violations"]:
            continue
        for name, value in result["metrics"].items():
            per_metric[result["args"]["workload"]][name].append(value)
        hosts.append(result["host"])
    return per_metric, hosts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    untraced, hosts = collect("*-trace0.json")
    traced, _ = collect("*-trace1.json")
    if not untraced:
        print(f"no results under {OUT}", file=sys.stderr)
        return 1
    point = {
        "label": args.label,
        "workloads": {wl: {name: summary(v) for name, v in metrics.items()}
                      for wl, metrics in sorted(untraced.items())},
        "per_layer": {wl: {name: statistics.median(v) for name, v in metrics.items()}
                      for wl, metrics in sorted(traced.items())},
        "hosts": hosts,
    }
    text = json.dumps(point, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
