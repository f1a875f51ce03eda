"""Record the gate's reference data (reference.json) from the current program.

    python3 bench/record.py

For each workload it runs `cutglue run` at DEFAULT_SEED and stores how often
each check name occurs, then runs the lambda-sweep suite at every recorded
seed and stores its `glued` coefficients.  It refuses to record a run that
exits nonzero or fails a check.  Record at a commit whose numbers are
trusted; a change that claims a speed-up must not re-record.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

from gate import summary_rows
from run import BENCH, ROOT, child_env, cutglue_argv, launch
from workloads import (DEFAULT_SEED, RECORDED_SEEDS, WORKLOADS, config_name,
                       workload_config)

TIMEOUT_S = 600.0


def passing_rows(workload: str, seed: int, workdir: Path, suites=()) -> list[dict]:
    config = workload_config(workload, seed, ROOT, workdir)
    out = workdir / f"{workload}-{seed}"
    argv = cutglue_argv(False, config, seed, out)
    for suite in suites:
        argv += ["--suite", suite]
    p = launch(argv, child_env(), out, TIMEOUT_S)
    rows = summary_rows(out, config_name(config))
    bad = [r["check"] for r in rows if r.get("passed") != "true"]
    if p.code != 0 or not rows or bad:
        raise SystemExit(f"{workload} seed {seed}: exit {p.code}, failed {bad}; "
                         f"not recording")
    return rows


def record(workdir: Path) -> dict:
    out = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        rows = passing_rows(workload, DEFAULT_SEED, workdir)
        checks = dict(sorted(Counter(r["check"] for r in rows).items()))
        glued = {}
        for seed in RECORDED_SEEDS:
            sweep = passing_rows(workload, seed, workdir, ("lambda-sweep",))
            glued[str(seed)] = {r["check"]: float(r["glued"])
                                for r in sweep if "glued" in r}
        out["workloads"][workload] = {"checks": checks, "glued": glued}
        print(f"{workload}: {sum(checks.values())} checks, "
              f"{len(glued[str(DEFAULT_SEED)])} glued coefficients per seed")
    return out


def main() -> int:
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=build))
    try:
        reference = record(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
