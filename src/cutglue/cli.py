"""Batch front-end: run verification suites from a config, write reports.

Exit status: 0 when every selected check passes, 1 on a numerical failure,
2 on a configuration problem, which includes report files that cannot be
written (found only after the suites ran).  Report files are byte-stable
across reruns.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .reports import Report
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutglue",
        description="verification suites for cutoff regularization and "
                    "gluing on discretized manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run suites from a config file")
    run.add_argument("config", help="path to a JSON scenario config")
    run.add_argument("--suite", action="append", default=None,
                     help="run only this suite (repeatable)")
    run.add_argument("--out-dir", default="reports",
                     help="directory for CSV/JSON report files")
    run.add_argument("--max-order", type=float, default=None,
                     help="override the series truncation order")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for randomized property trials")

    sub.add_parser("list-suites", help="list available suites")
    return parser


def list_suites() -> int:
    for name in sorted(SUITES):
        description, _ = SUITES[name]
        print(f"{name}: {description}")
    return EXIT_OK


def run(args) -> int:
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        cfg = load_config(args.config, SUITES, max_order=args.max_order,
                          suites=args.suite)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out-dir: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    reports = run_suites(cfg, args.seed)
    summary = Report(cfg.name)
    for report in reports.values():
        summary.extend(report.checks)
    try:
        for name, report in reports.items():
            base = os.path.join(args.out_dir, f"{cfg.name}-{name}")
            with open(base + ".csv", "w", encoding="utf-8") as fh:
                fh.write(report.to_csv())
            with open(base + ".json", "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        with open(os.path.join(args.out_dir, f"{cfg.name}-summary.json"),
                  "w", encoding="utf-8") as fh:
            fh.write(summary.to_json())
    except OSError as exc:
        print(f"config error: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for name, report in reports.items():
        status = "pass" if report.passed else "FAIL"
        worst = report.worst
        at = "" if worst is None else f" at {worst.name}"
        print(f"{name}: {status} (max residual {report.max_residual:.3e}{at}, "
              f"{len(report.checks)} checks)")
        for c in report.checks:
            if not c.passed:
                print(f"  failed: {c.name} residual {c.residual:.3e} "
                      f"tolerance {c.tolerance:.3e}", file=sys.stderr)
    return EXIT_OK if summary.passed else EXIT_NUMERICAL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-suites":
        return list_suites()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
