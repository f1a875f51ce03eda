"""Verification records, and the one rule every residual is computed by.

A check's residual is `gap(got, want)`, the largest entrywise |got - want|:
0.0 over no entries, NaN when any entry is NaN, so a NaN always fails its
check.  `want` is a scalar or has the shape of `got`; no other pair is
compared, so a difference is never broadcast.  A `Report` gains its checks
through `Report.compare`, which takes that residual, or `Report.require`,
an exact check whose residual is 0.0 when a condition holds and 1.0 when it
does not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


def fmt(x: float) -> str:
    """Shortest round-tripping decimal form, for byte-stable report files."""
    return repr(float(x))


def gap(got, want=0.0) -> float:
    """Largest entrywise |got - want|; 0.0 over no entries, NaN if any is NaN.
    want is a scalar or has the shape of got, and any other pair raises."""
    if np.ndim(want) and np.shape(want) != np.shape(got):
        raise ValueError(f"cannot compare shapes {np.shape(got)} and {np.shape(want)}")
    diff = np.asarray(np.subtract(got, want))
    return float(np.max(np.abs(diff, out=diff), initial=0.0))


@dataclass
class Check:
    """Outcome of one identity check."""

    name: str
    residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_row(self) -> dict:
        row = {
            "check": self.name,
            "residual": fmt(self.residual),
            "tolerance": fmt(self.tolerance),
            "passed": str(self.passed).lower(),
        }
        row.update({k: str(v) for k, v in sorted(self.details.items())})
        return row


@dataclass
class Report:
    """A named collection of checks."""

    name: str
    checks: list[Check] = field(default_factory=list)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def compare(self, name: str, got, want, tolerance: float,
                details: dict | None = None) -> None:
        """A check that got matches want to tolerance, by `gap`."""
        self.add(Check(name, gap(got, want), tolerance, details or {}))

    def require(self, name: str, holds, details: dict | None = None) -> None:
        """An exact check: residual 0.0 when holds is true, 1.0 when not."""
        self.add(Check(name, 0.0 if holds else 1.0, 0.0, details or {}))

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return 0.0 if self.worst is None else self.worst.residual

    @property
    def worst(self) -> Check | None:
        """The check with the largest residual, the first one on ties.  A NaN
        residual ranks above every number, so it is never hidden."""
        return max(self.checks, key=lambda c: (math.isnan(c.residual), c.residual),
                   default=None)

    def to_csv(self) -> str:
        keys = ["check", "residual", "tolerance", "passed"]
        extra = sorted({k for c in self.checks for k in c.details})
        keys += [k for k in extra if k not in keys]
        lines = [",".join(keys)]
        for c in self.checks:
            row = c.as_row()
            lines.append(",".join(row.get(k, "") for k in keys))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "report": self.name,
            "passed": self.passed,
            "checks": [c.as_row() for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
