"""Scripted verification campaigns: strip filling, hyperplane separation,
and percolation-time sweeps with quadratic least-squares fits.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .constructions import build_construction, level_set
from .dynamics import run
from .extremal import BudgetExceededError
from .lattice import LatticeSpec, levels
from .witness import StripContext

SWEEP_CONSTRUCTIONS = ("hyperplanes", "shifted", "boundary")

# cap on n**d for a single sweep run; large d=5 campaigns must raise it explicitly
DEFAULT_CELL_BUDGET = 1 << 23


def verify_strip_fill(d: int, n: int, s: int) -> bool:
    """Does seeding the two bounding hyperplanes of strip ``s`` fill the strip?

    For the lowest valid strip index the lower hyperplane is empty and the
    check extends downward: every level from d up to s*n - 1 must fill.
    """
    ctx = StripContext(d, n, s)  # validates the (d, n, s) combination
    seeds = level_set(d, n, ctx.lower_level) | level_set(d, n, ctx.upper_level)
    times = np.asarray(run(LatticeSpec(d, n, "grid", d), seeds).times)
    lowest_strip = -(-d // n)
    first_level = d if s == lowest_strip else ctx.lower_level + 1
    level = levels(d, n)
    return bool((times[(level >= first_level) & (level < ctx.upper_level)] >= 0).all())


class LevelFill(NamedTuple):
    """How much of one level the closure reached; ``required`` levels must stay partial."""

    level: int
    total: int
    infected: int
    required: bool


@dataclass
class SeparationReport:
    """Outcome of seeding two hyperplanes one level too far apart.

    ``holds`` means the closure is not the full lattice and every nonempty
    level lying more than one level away from both seeds kept at least one
    healthy cell.  Truthiness follows ``holds``.
    """

    d: int
    n: int
    seed_levels: tuple[int, int]
    percolates: bool
    holds: bool
    levels: list[LevelFill] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "seed_levels": list(self.seed_levels),
            "percolates": self.percolates,
            "holds": self.holds,
            "levels": [lv._asdict() for lv in self.levels],
        }


def verify_separation(d: int, n: int) -> SeparationReport:
    """Seed two hyperplanes at level distance n+1 and report what stays healthy."""
    if d < 2:
        raise ValueError("separation check needs d >= 2")
    low = d  # smallest nonempty level
    high = low + n + 1
    if high > d * n:
        raise ValueError(f"no valid seed levels: {high} exceeds the top level {d * n}")
    seeds = level_set(d, n, low) | level_set(d, n, high)
    record = run(LatticeSpec(d, n, "grid", d), seeds)
    level = levels(d, n)
    totals = np.bincount(level, minlength=high + 1).tolist()
    infected = np.bincount(level[np.asarray(record.times) >= 0], minlength=high + 1).tolist()

    fills = [
        LevelFill(lv, totals[lv], infected[lv], totals[lv] > 0 and lv - low > 1 and high - lv > 1)
        for lv in range(low + 1, high)
    ]
    return SeparationReport(
        d=d,
        n=n,
        seed_levels=(low, high),
        percolates=record.percolates,
        holds=not record.percolates and all(f.infected < f.total for f in fills if f.required),
        levels=fills,
    )


@dataclass
class SweepRow:
    n: int
    T: int
    percolates: bool
    cells: int  # initially infected cells
    runtime_s: float
    within_bound: bool  # T <= (d+2)*n**2 + n

    def to_json_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "n": self.n,
            "T": self.T,
            "percolates": self.percolates,
            "cells": self.cells,
            "within_bound": self.within_bound,
        }
        if include_runtime:
            out["runtime_s"] = self.runtime_s
        return out


@dataclass
class SweepTable:
    """One engine run per n for a fixed construction, plus an optional quadratic fit.

    The fit (ordinary least squares of T against a2*n^2 + a1*n + a0) is
    computed only when at least four percolating rows exist; non-percolating
    rows stay in the table but are excluded from the fit.
    """

    d: int
    construction: str
    rows: list[SweepRow]
    fit: dict | None = None

    def to_json_dict(self, include_runtime: bool = False) -> dict:
        return {
            "d": self.d,
            "construction": self.construction,
            "rows": [row.to_json_dict(include_runtime) for row in self.rows],
            "fit": self.fit,
        }

    def to_csv(self) -> str:
        lines = ["d,construction,n,T,percolates,cells"]
        for row in self.rows:
            lines.append(
                f"{self.d},{self.construction},{row.n},{row.T},"
                f"{str(row.percolates).lower()},{row.cells}"
            )
        return "\n".join(lines)


def _sweep_row(d: int, n: int, construction: str) -> SweepRow:
    initial = build_construction(construction, d, n)
    spec = LatticeSpec(d, n, "grid", d)
    start = time.perf_counter()
    record = run(spec, initial)
    elapsed = time.perf_counter() - start
    return SweepRow(
        n=n,
        T=record.T,
        percolates=record.percolates,
        cells=len(initial),
        runtime_s=elapsed,
        within_bound=record.T <= (d + 2) * n * n + n,
    )


def _quadratic_fit(rows: list[SweepRow]) -> dict | None:
    fitted = [row for row in rows if row.percolates]
    if len(fitted) < 4:
        return None
    xs = np.array([row.n for row in fitted], dtype=float)
    ys = np.array([row.T for row in fitted], dtype=float)
    a2, a1, a0 = np.polyfit(xs, ys, 2)
    residuals = ys - (a2 * xs**2 + a1 * xs + a0)
    return {
        "a2": float(a2),
        "a1": float(a1),
        "a0": float(a0),
        "residuals": [float(x) for x in residuals],
    }


def sweep_time(
    d: int,
    n_values: Iterable[int],
    construction: str,
    *,
    parallelism: int = 1,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> SweepTable:
    """Run the given construction once per n and tabulate percolation times."""
    if construction not in SWEEP_CONSTRUCTIONS:
        raise ValueError(f"unknown sweep construction {construction!r} (choose from {SWEEP_CONSTRUCTIONS})")
    ns = sorted(set(n_values))
    if not ns:
        raise ValueError("empty n range")
    for n in ns:
        if n**d > cell_budget:
            raise BudgetExceededError(
                f"n={n} needs {n**d} cells, over the cell budget of {cell_budget}"
            )
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(_sweep_row, [d] * len(ns), ns, [construction] * len(ns)))
    else:
        rows = [_sweep_row(d, n, construction) for n in ns]
    return SweepTable(d=d, construction=construction, rows=rows, fit=_quadratic_fit(rows))
