"""cutglue benchmark: closed-loop `cutglue run` on one workload.

    python3 bench/run.py --workload grid-deep --seed 1 --seconds 32 --trace 0

The checkout is the parent of this directory; the program is imported from
its `src/` and nothing is installed.  One client runs one fresh
`cutglue run <config> --seed <seed>` process at a time (a closed loop).  A
new run starts only while the last run's duration still fits in --seconds,
so the loop ends within about --seconds; a first run longer than that still
completes.

--trace 0 reports the end-to-end metrics: run_s (median wall time of a run,
spawn to exit), setup_s (median over SETUP_REPS fresh processes that import
cutglue and finish load_config) and peak_rss_mb (median peak resident memory
of a run).  --trace 1 runs every run under spans.py and reports the
per-layer metrics, medians over those runs, among them trace.overhead_s, the
time the tracer spends on its own work in a run.  Every run goes through
the correctness gate (gate.py).
The last stdout line is one JSON object; an operation there is one expected
check, so failed / attempted is the check_fail_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from gate import gate, summary_rows
from spans import layer_metrics
from workloads import WORKLOADS, config_name, workload_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 15
# Every child is killed once the whole benchmark has run this long.
HARD_LIMIT_S = 170.0
SETUP_CODE = ("import sys\n"
              "from cutglue.suites import SUITES\n"
              "from cutglue.config import load_config\n"
              "load_config(sys.argv[1], SUITES)\n")


def blas_threads() -> int:
    """OpenBLAS threads for the runs: the caller's setting, capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        asked = nproc
    return max(1, min(asked, nproc))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    return env


@dataclass
class Proc:
    seconds: float
    rss_mb: float
    code: int


def launch(argv: list[str], env: dict, log_dir: Path, timeout: float) -> Proc:
    """Run argv to completion: wall time from spawn to exit, peak RSS, exit code.

    The child is killed when timeout passes; its exit code is then negative.
    stdout and stderr go to files in log_dir.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, \
            open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(seconds, usage.ru_maxrss / 1024.0, proc.returncode)


def cutglue_argv(traced: bool, config: Path, seed: int, out: Path) -> list[str]:
    cli = ["run", str(config), "--seed", str(seed), "--out-dir", str(out)]
    if traced:
        return [sys.executable, str(BENCH / "spans.py"), str(out / "spans.json")] + cli
    return [sys.executable, "-m", "cutglue"] + cli


def expected_checks(workload: str) -> tuple[dict, dict]:
    """Expected check-name counts and the recorded glued coefficients per seed."""
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    entry = reference["workloads"][workload]
    return entry["checks"], entry["glued"]


def measure(args, workdir: Path) -> tuple[dict, int, int, bool]:
    """Metric values, attempted and failed operations, and whether setup ran clean."""
    config = workload_config(args.workload, args.seed, ROOT, workdir)
    name = config_name(config)
    expected, glued_by_seed = expected_checks(args.workload)
    glued = glued_by_seed.get(str(args.seed))
    n_expected = sum(expected.values())
    env = child_env()
    deadline = time.perf_counter() + HARD_LIMIT_S

    setup, setup_ok = [], True
    if not args.trace:
        for i in range(SETUP_REPS):
            p = launch([sys.executable, "-c", SETUP_CODE, str(config)], env,
                       workdir / f"setup{i}", deadline - time.perf_counter())
            setup.append(p.seconds)
            setup_ok = setup_ok and p.code == 0

    runs, traces = [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        out = workdir / f"run{len(runs)}"
        p = launch(cutglue_argv(bool(args.trace), config, args.seed, out), env, out,
                   deadline - time.perf_counter())
        problems = gate(expected, summary_rows(out, name), p.code, glued)
        attempted += n_expected
        failed += min(len(problems), n_expected)
        for line in problems[:10]:
            print(f"run {len(runs)}: {line}", file=sys.stderr)
        runs.append(p)
        spans_file = out / "spans.json"
        if spans_file.is_file():
            traces.append(layer_metrics(json.loads(spans_file.read_text(encoding="utf-8"))))
        shutil.rmtree(out)
        elapsed = time.perf_counter() - loop_start
        if time.perf_counter() >= deadline or elapsed + p.seconds > args.seconds:
            break

    if args.trace:
        if not traces:
            raise RuntimeError("no traced run left a spans file")
        metrics = {key: statistics.median(t[key] for t in traces) for key in traces[0]}
    else:
        metrics = {
            "run_s": statistics.median(p.seconds for p in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p.rss_mb for p in runs),
        }
    print(f"{args.workload} seed {args.seed}: {len(runs)} "
          f"{'traced' if args.trace else 'untraced'} runs, OpenBLAS threads "
          f"{env['OPENBLAS_NUM_THREADS']}")
    return metrics, attempted, failed, setup_ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cutglue" / "cli.py").is_file():
        print(f"error: no cutglue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cutglue-", dir=build))
    try:
        metrics, attempted, failed, setup_ok = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           f"match BENCHMARK.json")

    print(f"check_fail_ratio {failed / attempted:g} "
          f"({failed} of {attempted} expected checks failed)")
    for key in units:
        print(f"{key} {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]}
                    for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
