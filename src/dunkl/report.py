"""Structured results of identity checks, the one runner that makes them,
and a stable wire format.

``run_check`` is the only code that times a check and builds an
``IdentityReport``; a check hands it a function that returns the errors,
most often through one of the three error rules here, each of which keeps
a NaN.  The JSON wire format has exactly the keys
``name, params, grid, max_abs_err, max_rel_err, elapsed_s``.  Timing is
zeroed on serialization unless explicitly requested, so that report files
are byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

__all__ = [
    "IdentityReport",
    "run_check",
    "max_errs",
    "pair_errs",
    "worst_errs",
    "float_repr",
    "reports_to_json",
    "reports_from_json",
    "reports_to_csv",
]

CSV_COLUMNS = ("name", "params", "grid", "max_abs_err", "max_rel_err", "elapsed_s")


@dataclass
class IdentityReport:
    name: str
    params: dict
    grid_summary: str
    max_abs_err: float
    max_rel_err: float
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.max_abs_err < 0 or self.max_rel_err < 0:
            raise ValueError("error fields must be nonnegative")

    @property
    def tolerance(self) -> float | None:
        tol = self.params.get("tol")
        return None if tol is None else float(tol)

    def passed(self) -> bool:
        tol = self.tolerance
        if tol is None:
            return True
        return self.max_rel_err <= tol

    def to_wire(self, include_timing: bool = False) -> dict:
        return {
            "name": self.name,
            "params": _jsonable(self.params),
            "grid": self.grid_summary,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "elapsed_s": self.elapsed if include_timing else 0.0,
        }

    @classmethod
    def from_wire(cls, d: dict) -> "IdentityReport":
        return cls(
            name=d["name"],
            params=dict(d.get("params", {})),
            grid_summary=d.get("grid", ""),
            max_abs_err=float(d["max_abs_err"]),
            max_rel_err=float(d["max_rel_err"]),
            elapsed=float(d.get("elapsed_s", 0.0)),
        )


def run_check(name: str, params: dict, grid: Optional[str], compute: Callable, *args) -> IdentityReport:
    """Time ``compute(*args)`` and report the ``(max_abs_err, max_rel_err)``
    it returns.  Where the grid summary depends on the computation, compute
    returns it as a third item, and ``grid`` is None."""
    start = time.perf_counter()
    abs_err, rel_err, *summary = compute(*args)
    elapsed = time.perf_counter() - start
    return IdentityReport(name, params, summary[0] if summary else grid, abs_err, rel_err, elapsed)


def max_errs(reference, candidate) -> tuple[float, float]:
    """Largest |candidate - reference|, and that relative to the largest
    |reference|."""
    reference = np.atleast_1d(np.asarray(reference))
    candidate = np.atleast_1d(np.asarray(candidate))
    abs_err = float(np.max(np.abs(candidate - reference)))
    scale = float(np.max(np.abs(reference)))
    return abs_err, abs_err / max(scale, 1e-300)


def pair_errs(lhs: float, rhs: float) -> tuple[float, float]:
    """|lhs - rhs| of a scalar identity, and that relative to
    max(|lhs|, |rhs|)."""
    abs_err = abs(lhs - rhs)
    return abs_err, abs_err / max(abs(lhs), abs(rhs), 1e-300)


def worst_errs(rel_errs) -> tuple[float, float]:
    """The largest per-case relative error, as both errors: NaN if any case is, 0 with none."""
    worst = float(np.max([*rel_errs], initial=0.0))
    return worst, worst


def _jsonable(obj: Any):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "item"):
        return obj.item()
    return obj


def float_repr(x: float) -> str:
    """A float with 17 significant digits, so a double round-trips."""
    return format(float(x), ".17g")


def reports_to_json(reports: Iterable[IdentityReport], include_timing: bool = False) -> str:
    return json.dumps([r.to_wire(include_timing) for r in reports], indent=2, sort_keys=True)


def reports_from_json(text: str) -> list[IdentityReport]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("report file must contain a JSON array")
    reports = []
    for i, entry in enumerate(data):
        try:
            reports.append(IdentityReport.from_wire(entry))
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"entry {i} is not a report: {exc!r}") from None
    return reports


def reports_to_csv(reports: Iterable[IdentityReport], include_timing: bool = False) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        wire = r.to_wire(include_timing)
        params = json.dumps(wire["params"], sort_keys=True).replace('"', "'")
        lines.append(
            ",".join(
                [
                    wire["name"],
                    f'"{params}"',
                    f'"{wire["grid"]}"',
                    float_repr(wire["max_abs_err"]),
                    float_repr(wire["max_rel_err"]),
                    float_repr(wire["elapsed_s"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"
