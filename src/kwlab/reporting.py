"""Machine-readable pass/fail reports for the verification suites, and the
JSON and CSV rendering of everything the command line writes.

A report is strict JSON: a number that is not finite is written as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field


def finite_or_none(x) -> float | None:
    """x as a float, or None when it is None or not finite."""
    return None if x is None or not math.isfinite(x) else float(x)


def json_text(payload) -> str:
    """payload as strict JSON with sorted keys; equal payloads, equal bytes."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def csv_text(rows) -> str:
    """rows as CSV text, with the csv module's defaults (CRLF line ends)."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@dataclass
class CheckResult:
    """One check: a bound on a measured metric.

    ref names the mathematical fact being checked (or 'plumbing' for
    artifact-internal checks).  Every check is a bound: its status is
    'pass' when metric <= tolerance, which a NaN metric never is, and
    'fail' otherwise.  An exact relation reports its defect against
    tolerance 0.
    """

    check_id: str
    ref: str
    metric: float
    tolerance: float
    worst_location: str | None = None

    @property
    def status(self) -> str:
        return "pass" if self.metric <= self.tolerance else "fail"

    @classmethod
    def from_bound(cls, check_id, ref, metric, tolerance, location=None):
        # + 0.0 turns a metric of -0.0 into 0.0, so no report reads "-0.0"
        return cls(check_id, ref, float(metric) + 0.0, float(tolerance), location)

    def to_dict(self):
        return {
            "check_id": self.check_id,
            "ref": self.ref,
            "status": self.status,
            "metric": finite_or_none(self.metric),
            "tolerance": finite_or_none(self.tolerance),
            "worst_location": self.worst_location,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def exit_code(self) -> int:
        return 1 if self.n_fail else 0

    def to_json(self) -> str:
        """The report as strict JSON: no timings, so identical runs give
        identical bytes."""
        return json_text({
            "suite": self.suite,
            "seed": self.seed,
            "n_checks": len(self.checks),
            "n_fail": self.n_fail,
            "checks": [c.to_dict() for c in self.checks],
        })

    def table(self) -> str:
        """A human-readable table of the checks."""
        lines = [f"suite: {self.suite} (seed {self.seed})"]
        width = max((len(c.check_id) for c in self.checks), default=10)
        for c in self.checks:
            lines.append(f"  [{c.status.upper()}] {c.check_id:<{width}s}"
                         f"  metric={c.metric:.3e} tol={c.tolerance:.1e}")
        lines.append(f"  -> {len(self.checks)} checks, {self.n_fail} failed")
        return "\n".join(lines)
