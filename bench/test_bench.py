"""Tests of the benchmark's own machinery: the correctness gate and the tracer.

    python3 -m pytest -q bench

They are outside the repository's tier-1 test path on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gate import GLUED_RTOL, gate
from spans import LAYERS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
ENV = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}:{BENCH}")


def clean_run(workload: str, seed: int = DEFAULT_SEED):
    """Expected counts, recorded coefficients and the rows of a run that matches them."""
    entry = REFERENCE["workloads"][workload]
    glued = entry["glued"][str(seed)]
    rows = []
    for name, count in entry["checks"].items():
        for _ in range(count):
            row = {"check": name, "passed": "true", "residual": "0.0",
                   "tolerance": "1e-10"}
            if name in glued:
                row["glued"] = repr(glued[name])
            rows.append(row)
    return entry["checks"], glued, rows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_passes(workload):
    expected, glued, rows = clean_run(workload)
    assert glued, "every workload runs lambda-sweep"
    assert gate(expected, rows, 0, glued) == []


def test_nonzero_exit_is_a_failure():
    expected, glued, rows = clean_run("grid-deep")
    assert gate(expected, rows, 1, glued) == ["exit code 1"]


def test_missing_check_is_a_failure():
    expected, glued, rows = clean_run("interval-wide")
    skipped = next(r for r in rows if r["check"].startswith("widened-step-"))
    rows.remove(skipped)
    assert gate(expected, rows, 0, glued) == [f"missing check {skipped['check']}"]


def test_extra_check_is_a_failure():
    expected, glued, rows = clean_run("path9")
    rows.append({"check": "new-check", "passed": "true"})
    assert gate(expected, rows, 0, glued) == ["unexpected check new-check"]


def test_repeated_name_counts():
    """Names repeat once per lambda; dropping one repeat is still missing."""
    expected, glued, rows = clean_run("grid-deep")
    name = next(n for n, count in expected.items() if count > 1)
    rows.remove(next(r for r in rows if r["check"] == name))
    assert gate(expected, rows, 0, glued) == [f"missing check {name}"]


def test_failing_check_is_a_failure():
    expected, glued, rows = clean_run("grid-deep")
    rows[0]["passed"] = "false"
    problems = gate(expected, rows, 0, glued)
    assert len(problems) == 1 and problems[0].startswith("failed check")


def test_glued_coefficient_drift_is_a_failure():
    expected, glued, rows = clean_run("grid-deep")
    row = next(r for r in rows if "glued" in r and float(r["glued"]) != 0.0)
    row["glued"] = repr(float(row["glued"]) * (1 + 10 * GLUED_RTOL))
    problems = gate(expected, rows, 0, glued)
    assert len(problems) == 1 and problems[0].startswith("glued coefficient")


def test_glued_rounding_is_tolerated():
    expected, glued, rows = clean_run("grid-deep")
    for row in rows:
        if "glued" in row:
            row["glued"] = repr(float(row["glued"]) * (1 + 4e-16))
    assert gate(expected, rows, 0, glued) == []


def test_small_coefficient_rounding_is_tolerated():
    """An odd-order term of 1e-5 beside -172 at the same lambda may move by
    rounding of the large terms (here about 35 ulps of 172), far more than
    its own ulps."""
    expected, glued, rows = clean_run("interval-wide", 10)
    row = next(r for r in rows if r["check"] == "lam-0.05-order-0.5")
    assert abs(float(row["glued"])) < 1e-4
    row["glued"] = repr(float(row["glued"]) + 1e-12)
    assert gate(expected, rows, 0, glued) == []


def test_small_coefficient_drift_is_a_failure():
    expected, glued, rows = clean_run("interval-wide", 10)
    row = next(r for r in rows if r["check"] == "lam-0.05-order-0.5")
    row["glued"] = repr(float(row["glued"]) * 1.01)
    problems = gate(expected, rows, 0, glued)
    assert len(problems) == 1 and problems[0].startswith("glued coefficient")


def test_unrecorded_seed_skips_coefficients():
    expected, glued, rows = clean_run("grid-deep")
    for row in rows:
        if "glued" in row:
            row["glued"] = "1e300"
    assert gate(expected, rows, 0, None) == []


def test_no_summary_fails_every_check():
    expected, glued, _ = clean_run("path9")
    problems = gate(expected, [], 2, glued)
    assert len(problems) == 1 + sum(expected.values())


def test_self_time_excludes_children():
    trace = {
        "names": ["suites.suite_x", "gluing.glued_series",
                  "perturbation.gaussian_expectation"],
        "spans": [[0, -1, 0.0, 10.0, None], [1, 0, 1.0, 9.0, None],
                  [2, 1, 2.0, 8.0, {"region": 5}]],
        "suite_of": {"suites.suite_x": "x", "suites.suite_y": "y"},
        "overhead_s": 0.5,
    }
    m = layer_metrics(trace)
    assert m["suites.self_s"] == 2.0
    assert m["gluing.self_s"] == 2.0
    assert m["perturbation.self_s"] == 6.0
    assert m["suites.x.s"] == 10.0 and m["suites.y.s"] == 0.0
    assert m["perturbation.region_nodes.max"] == 5
    assert m["perturbation.gaussian_expectation.calls"] == 1
    assert m["trace.overhead_s"] == 0.5


def test_install_rebinds_import_time_aliases():
    code = (
        "from spans import Tracer\n"
        "Tracer().install()\n"
        "import cutglue.gluing as g, cutglue.kernels as k, cutglue.green as gr\n"
        "import cutglue.suites as s, cutglue.meshes as m\n"
        "assert g.build_mesh_kernel is k.build_mesh_kernel\n"
        "assert hasattr(g.build_mesh_kernel, '__wrapped__')\n"
        "assert g.side_bundle is gr.side_bundle and hasattr(gr.side_bundle, '__wrapped__')\n"
        "assert hasattr(s.verify_gluing_theorem, '__wrapped__')\n"
        "assert all(hasattr(fn, '__wrapped__') for _, fn in s.SUITES.values())\n"
        "assert hasattr(m.Mesh.distance_matrix, '__wrapped__')\n"
        "import cutglue.euclidean as e\n"
        "assert not hasattr(e.fundamental_solution, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True, timeout=120)


def test_traced_cli_run(tmp_path):
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(BENCH / "spans.py"), str(spans), "run",
            str(ROOT / "configs" / "path9_cubic.json"), "--suite", "gluing-theorem",
            "--suite", "kernel-properties", "--out-dir", str(tmp_path / "out")]
    subprocess.run(argv, env=ENV, check=True, timeout=120, capture_output=True)
    m = layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
    assert m["gluing.glued_series.calls"] > 0
    assert m["kernels.build_mesh_kernel.calls"] > 0
    assert m["suites.gluing-theorem.s"] > 0 and m["suites.lambda-sweep.s"] == 0
    assert all(m[f"{layer}.self_s"] >= 0 for layer in LAYERS)
    assert 0 < m["trace.overhead_s"] < 1
    # path9 has one saturated lambda (2.5) and two real ones.
    assert 0 < m["kernels.identity_share"] < 1
    assert 0 < m["green.bundle_reuse"] < 1
    assert 0 < m["kernels.kernel_reuse"] < 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "path9",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
