"""Correctness gate for one `cutglue run`: every problem is a failed operation.

A run is compared with the reference recorded at the seed commit
(reference.json, written by record.py):

- a nonzero exit code;
- a check reported with passed=false;
- a check name missing from, or added to, the expected multiset of check
  names (names repeat across lambdas, so counts matter).  This is what keeps
  a change that skips work, such as widening steps, from reading as a gain;
- at a recorded seed, a lambda-sweep `glued` coefficient that moved from the
  recorded value by more than GLUED_RTOL of its own size plus GLUED_SCALE_RTOL
  of the largest recorded coefficient at the same lambda.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

# Reordering a sum (say, an einsum contraction path) moves a coefficient by a
# few ulps of the terms summed; a changed expansion moves it by far more.
GLUED_RTOL = 1e-9
# The terms summed can be as large as the largest coefficient at that lambda,
# so a small odd-order coefficient (1e-5 beside -172) may move by rounding of
# that size.  This share of it leaves room for thousands of ulps.
GLUED_SCALE_RTOL = 1e-11


def summary_rows(out_dir: Path, name: str) -> list[dict]:
    """Check rows of the run's summary report; none if it is absent or unreadable."""
    try:
        payload = json.loads((out_dir / f"{name}-summary.json").read_text(encoding="utf-8"))
        return list(payload["checks"])
    except (OSError, ValueError, KeyError, TypeError):
        return []


def lambda_of(name: str) -> str:
    """The lambda part of a lambda-sweep check name `lam-<lambda>-order-<k>`."""
    return name.rpartition("-order-")[0]


def glued_scales(glued: dict) -> dict:
    """Largest recorded coefficient size per lambda."""
    scales = {}
    for name, ref in glued.items():
        lam = lambda_of(name)
        scales[lam] = max(scales.get(lam, 0.0), abs(ref))
    return scales


def gate(expected: dict, rows: list[dict], returncode: int,
         glued: dict | None = None) -> list[str]:
    """One line per failed operation of a run.

    expected maps check name to how often it occurs; glued maps a
    lambda-sweep check name to its recorded coefficient, or is None when
    the run's seed has no record.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    got = Counter(str(r.get("check")) for r in rows)
    want = Counter(expected)
    for name, n in sorted((want - got).items()):
        problems.extend([f"missing check {name}"] * n)
    for name, n in sorted((got - want).items()):
        problems.extend([f"unexpected check {name}"] * n)
    for r in rows:
        if r.get("passed") != "true":
            problems.append(f"failed check {r.get('check')}: residual "
                            f"{r.get('residual')} tolerance {r.get('tolerance')}")
    scales = glued_scales(glued) if glued else {}
    for r in rows:
        name = r.get("check")
        if glued and name in glued:
            ref = glued[name]
            try:
                value = float(r["glued"])
            except (KeyError, ValueError):
                value = float("nan")
            tolerance = GLUED_RTOL * abs(ref) + GLUED_SCALE_RTOL * scales[lambda_of(name)]
            if not abs(value - ref) <= tolerance:
                problems.append(f"glued coefficient {name}: {value!r} "
                                f"recorded {ref!r}")
    return problems
