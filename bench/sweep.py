"""Opt-in scaling sweep: per-layer self time against problem size.

    python3 bench/sweep.py

Not part of the benchmark command.  It makes one traced `cutglue run` per
size: n x n grids for n in GRID_SIZES with the grid-deep physics and suites,
and intervals with INTERVAL_SIZES interior nodes with the interval-wide
physics and suites.  It prints the run's wall time, each layer's self time
and the layer that dominates.  A run still going after CAP_S seconds (well
above the slowest size measured, about 50 s for the 13 x 13 grid) is killed
and reported as over the cap; the sweep then skips the larger sizes of that
family, which would take longer still.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env, cutglue_argv, launch
from spans import LAYERS, layer_metrics
from workloads import DEFAULT_SEED, grid_config, interval_config, write_config

GRID_SIZES = (9, 11, 13)
INTERVAL_SIZES = (201, 401, 801)
CAP_S = 120.0


def sweep(seed: int, workdir: Path) -> None:
    print("size".ljust(14) + "run_s".rjust(8)
          + "".join(layer.rjust(13) for layer in LAYERS) + "  dominant")
    for family, sizes, make in (("grid", GRID_SIZES, grid_config),
                                ("interval", INTERVAL_SIZES, interval_config)):
        for size in sizes:
            config = write_config(make(size, seed), workdir)
            out = workdir / config.stem
            p = launch(cutglue_argv(True, config, seed, out), child_env(), out, CAP_S)
            label = f"{family} {size}".ljust(14)
            if p.code != 0:
                reason = "over the cap" if p.code < 0 else f"exit code {p.code}"
                print(f"{label}{p.seconds:8.1f}  {reason}; larger sizes skipped")
                break
            metrics = layer_metrics(json.loads((out / "spans.json").read_text(encoding="utf-8")))
            self_s = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
            print(label + f"{p.seconds:8.2f}"
                  + "".join(f"{self_s[layer]:13.3f}" for layer in LAYERS)
                  + f"  {max(self_s, key=self_s.get)}", flush=True)


def main() -> int:
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=build))
    try:
        sweep(DEFAULT_SEED, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
