"""Command-line interface: run benchmarks, report stats, sweep depths, plot.

Subcommands:

* ``minimon run --config FILE --out DIR [--paper-scale]``
* ``minimon report --in DIR``
* ``minimon sweep --config FILE --depths LIST --out DIR``
* ``minimon plot --in DIR --out FILE.svg``

The output directory defaults to the ``MINIMON_OUT`` environment
variable. Without ``--config``, the bundled default suite (the eight
probe/queue comparison configurations) is used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import chart, runner, stats

__all__ = ["main"]


class SuiteConfigError(ValueError):
    pass


def load_suite(path: str | None) -> runner.Suite:
    """Parse and validate a suite config file (bundled default if None)."""
    if path is None:
        text = resources.files("minimon.data").joinpath("suite-default.json").read_text(
            encoding="utf-8")
        source = "<bundled suite-default.json>"
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise SuiteConfigError(f"cannot read suite file {path}: {exc}") from exc
        source = path
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SuiteConfigError(f"{source}: invalid JSON: {exc}") from exc
    try:
        return runner.suite_from_dict(data)
    except ValueError as exc:
        raise SuiteConfigError(f"{source}: {exc}") from exc


def _resolve_out(args_out: str | None, suite: runner.Suite) -> Path:
    out = args_out or os.environ.get("MINIMON_OUT") or suite.output_dir
    if not out:
        raise SuiteConfigError(
            "no output directory: pass --out, set MINIMON_OUT, or put "
            "'output_dir' in the suite file")
    return Path(out)


def _run_suite(args, suite: runner.Suite, depths: list[int] | None) -> int:
    """Run each config at its own depth or, for a sweep, at each of ``depths``."""
    out_dir = _resolve_out(args.out, suite)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = depths is not None
    for config in suite.configs:
        at = f"depths={','.join(map(str, depths))}" if sweep else f"d={config.workload.depth}"
        print(f"{'sweeping' if sweep else 'running'} {config.config_id} "
              f"(n={config.iterations}, runs={config.runs}, {at}) ...", flush=True)
        if sweep:
            runner.sweep_depths([config], depths, out_dir, keep_monitoring_log=args.keep_logs)
        else:
            runner.run_config(config, out_dir, keep_monitoring_log=args.keep_logs)
    print(f"{'sweep results' if sweep else 'results'} written to {out_dir}")
    return 0


def cmd_run(args) -> int:
    suite = load_suite(args.config)
    if args.paper_scale:
        suite = replace(suite, configs=[
            replace(config, iterations=runner.PAPER_SCALE_ITERATIONS,
                    runs=runner.PAPER_SCALE_RUNS) for config in suite.configs])
    return _run_suite(args, suite, None)


def _load_results(in_dir: Path) -> list[tuple[str, runner.SampleSet, stats.SummaryStats]]:
    """``(label, sample_set, summary of its kept samples)`` per result directory."""
    result_dirs = runner.find_result_dirs(in_dir)
    if not result_dirs:
        raise runner.BenchmarkError(f"no benchmark results found under {in_dir}")
    results = []
    for result_dir in result_dirs:
        sample_set = runner.load_sample_set(result_dir)[0]
        results.append((result_dir.name, sample_set, stats.summarize(sample_set.kept_samples())))
    return results


def cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    results = _load_results(in_dir)
    by_depth: dict[int, list[tuple[str, stats.SummaryStats]]] = {}
    for label, sample_set, summary in results:
        by_depth.setdefault(sample_set.depth, []).append((label, summary))

    for depth in sorted(by_depth):
        group = by_depth[depth]
        print(f"\n== depth {depth} (µs per iteration) ==")
        print(stats.render_table(group))
        if len(group) > 1:
            print("\npairwise comparisons (95 % CI overlap):")
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    (name_a, sum_a), (name_b, sum_b) = group[i], group[j]
                    cmp = stats.compare(name_a, sum_a, name_b, sum_b)
                    verdict = ("indistinguishable" if not cmp.significant
                               else f"{cmp.direction.value} (ratio {cmp.ratio:.3f})")
                    print(f"  {name_a} vs {name_b}: {verdict}")

    csv_path = in_dir / "summary.csv"
    csv_path.write_text(stats.summary_csv((label, summary) for label, _, summary in results),
                        encoding="utf-8")
    print(f"\nsummary CSV written to {csv_path}")
    return 0


def cmd_sweep(args) -> int:
    suite = load_suite(args.config)
    depths = args.depths or suite.depths
    if not depths:
        raise SuiteConfigError("no depths: pass --depths or set them in the suite file")
    return _run_suite(args, suite, depths)


def cmd_plot(args) -> int:
    in_dir = Path(args.in_dir)
    keyed = {(sample_set.config_id, sample_set.depth): summary
             for _, sample_set, summary in _load_results(in_dir)}
    svg = chart.render_depth_chart(keyed)
    out_path = Path(args.out)
    out_path.write_text(svg, encoding="utf-8")
    print(f"chart written to {out_path}")
    return 0


def _parse_depths(text: str) -> list[int]:
    try:
        depths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad depth list {text!r}") from None
    if not depths or any(d < 1 for d in depths):
        raise argparse.ArgumentTypeError("depths must be integers >= 1")
    return depths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimon",
        description="Low-overhead monitoring benchmark harness and reporting.")
    sub = parser.add_subparsers(dest="command", required=True)
    suite_flags = argparse.ArgumentParser(add_help=False)  # shared by run and sweep
    suite_flags.add_argument("--config", help="suite JSON file (default: bundled suite)")
    suite_flags.add_argument("--out", help="output directory (default: $MINIMON_OUT)")
    suite_flags.add_argument("--no-keep-logs", dest="keep_logs", action="store_false",
                             help="delete monitoring logs after counting their lines")

    p_run = sub.add_parser("run", parents=[suite_flags], help="execute a benchmark suite")
    p_run.add_argument("--paper-scale", action="store_true",
                       help="use 2 000 000 iterations and 10 process starts")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="summarize persisted results")
    p_report.add_argument("--in", dest="in_dir", required=True,
                          help="directory produced by 'run' or 'sweep'")
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", parents=[suite_flags],
                             help="run a config grid over call depths")
    p_sweep.add_argument("--depths", type=_parse_depths,
                         help="comma-separated depths, e.g. 2,4,8,16")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="render the depth-overhead SVG chart")
    p_plot.add_argument("--in", dest="in_dir", required=True,
                        help="directory produced by 'sweep'")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SuiteConfigError, runner.BenchmarkError, ValueError, OSError) as exc:
        print(f"minimon: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
