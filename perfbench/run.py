"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hybrid-gsql --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Prints set-up notes, every correctness check and every metric with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 1 when a check fails and 2 when the
program under test cannot be found (``src/repro`` missing).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalog

    if args.write_manifest:
        catalog.write_manifest(ROOT / "BENCHMARK.json")
        return 0
    if args.workload not in catalog.workload_names():
        print(f"unknown workload {args.workload!r}; one of {catalog.workload_names()}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program not found: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    from perfbench import runner

    seconds = args.seconds if args.seconds is not None else float(catalog.RUN_SECONDS)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    report = runner.execute(
        args.workload, args.seed, seconds, bool(args.trace), ROOT / ".perfbench_work"
    )
    for note in report.notes:
        print(f"note  {note}")
    for check in report.checks:
        print(f"check {'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    for name, (value, unit) in report.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if not runner.finite(report):
        print("non-finite metric value", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
