"""Scripted verification campaigns: strip filling, hyperplane separation,
and percolation-time sweeps with quadratic least-squares fits.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .constructions import SWEEP_CONSTRUCTIONS, build_construction
from .dynamics import CellSet, _infect, ordered_results, run
from .lattice import BudgetExceededError, LatticeSpec, face_codes, levels

# cap on n**d for a single sweep run; large d=5 campaigns must raise it explicitly
DEFAULT_CELL_BUDGET = 1 << 23
# cap on the cells of one box of stacked sweep lattices (about 2 MB of engine state)
_BATCH_CELLS = 1 << 18


def verify_strip_fill(d: int, n: int, s: int) -> bool:
    """Does seeding the two bounding hyperplanes of strip ``s`` fill the strip?

    For the lowest valid strip index the lower hyperplane lies below level d
    and is empty, so the check extends downward: every level from d up to
    s*n - 1 must fill.
    """
    from .witness import StripContext  # imported here: no other campaign reads strips

    ctx = StripContext(d, n, s)  # validates the (d, n, s) combination
    level = levels(d, n)
    seeds = CellSet._from_mask(d, n, (level == ctx.lower_level) | (level == ctx.upper_level))
    times = run(LatticeSpec(d, n, "grid", d), seeds).times_array
    return bool((times[(level > ctx.lower_level) & (level < ctx.upper_level)] >= 0).all())


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
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "seed_levels": list(self.seed_levels),
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
    level = levels(d, n)
    seeds = CellSet._from_mask(d, n, (level == low) | (level == high))
    record = run(LatticeSpec(d, n, "grid", d), seeds)
    totals = np.bincount(level, minlength=high + 1).tolist()
    infected = np.bincount(level[record.times_array >= 0], minlength=high + 1).tolist()

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
    within_bound: bool  # T <= (d+2)*n**2 + n


@dataclass
class SweepTable:
    """The percolation time per n of a fixed construction, plus an optional quadratic fit.

    The fit (ordinary least squares of T against a2*n^2 + a1*n + a0) is
    computed only when at least four percolating rows exist; non-percolating
    rows stay in the table but are excluded from the fit.
    """

    d: int
    construction: str
    rows: list[SweepRow]
    fit: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        lines = ["d,construction,n,T,percolates,cells"]
        for row in self.rows:
            lines.append(
                f"{self.d},{self.construction},{row.n},{row.T},"
                f"{str(row.percolates).lower()},{row.cells}"
            )
        return "\n".join(lines)


def _batches(d: int, ns: Iterable[int], cap: int) -> Iterator[list[int]]:
    """Ascending ``ns`` in consecutive groups whose :func:`_sweep_batch` box
    has at most ``cap`` cells; a lattice over ``cap`` forms a group alone."""
    batch: list[int] = []
    for n in ns:
        if batch and (sum(batch) + n) * n ** (d - 1) > cap:
            yield batch
            batch = []
        batch.append(n)
    if batch:
        yield batch


def _sweep_batch(d: int, ns: list[int], construction: str) -> list[SweepRow]:
    """The rows of the ascending sides ``ns``, from one engine run.

    The lattices [n]^d are stacked as slabs along axis 0 of a box of shape
    (sum(ns), N, ..., N), N = max(ns), with the strides of [N]^d.  Each
    slab holds its lattice's seeds and face codes in its corner, so every
    step off a lattice's face leads back to the cell (see
    :func:`neighbor_rows`) and no row reaches the padding or another slab.
    One lattice is the box itself, run on its own face codes.
    """
    initials = [build_construction(construction, d, n) for n in ns]
    shape = (sum(ns),) + (ns[-1],) * (d - 1)
    starts = np.cumsum([0, *ns]).tolist()
    slabs = [(slice(a, a + n),) + (slice(n),) * (d - 1) for a, n in zip(starts, ns)]
    if len(ns) == 1:
        codes, seeds = None, np.flatnonzero(initials[0]._mask())
    else:
        codes = np.zeros(shape, dtype=face_codes(d, ns[0]).dtype)
        seeded = np.zeros(shape, dtype=bool)
        for n, slab, initial in zip(ns, slabs, initials):
            codes[slab] = face_codes(d, n).reshape((n,) * d)
            seeded[slab] = initial._mask().reshape((n,) * d)
        codes, seeds = codes.ravel(), np.flatnonzero(seeded)
        del seeded
    times = _infect(LatticeSpec(d, ns[-1], "grid", d), seeds, codes)[0].reshape(shape)
    rows = []
    for n, slab, initial in zip(ns, slabs, initials):
        T = max(int(times[slab].max()), 0)  # an empty seed set has T = 0
        rows.append(SweepRow(n, T, bool(times[slab].min() >= 0), len(initial), T <= (d + 2) * n * n + n))
    return rows


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
    """Run the given construction once per n and tabulate percolation times.

    Consecutive n are run together by :func:`_sweep_batch` in boxes of at
    most ``min(_BATCH_CELLS, cell_budget)`` cells; with ``parallelism > 1``
    the batches run in a process pool.  The rows are those of one
    :func:`run` per n.
    """
    if construction not in SWEEP_CONSTRUCTIONS:
        raise ValueError(f"unknown sweep construction {construction!r} (choose from {SWEEP_CONSTRUCTIONS})")
    # an ascending range is already sorted and distinct, so it is never built
    ns = n_values if isinstance(n_values, range) and n_values.step > 0 else sorted(set(n_values))
    if not ns:
        raise ValueError("empty n range")
    if ns[0] < 1:
        raise ValueError(f"invalid shape d={d}, n={ns[0]}")
    # n**d grows with n: the smallest n over the budget is the first value from
    # `top`, the least n over it; no step takes a len(), which may overflow on a range
    lo, top = 0, cell_budget + 1  # lo**d <= cell_budget < top**d
    while top - lo > 1:
        mid = (lo + top) // 2
        lo, top = (lo, mid) if mid**d > cell_budget else (mid, top)
    if isinstance(ns, range):
        first = max(0, -((ns.start - top) // ns.step))
    else:
        first = bisect.bisect_left(ns, top)
    for n in ns[first:first + 1]:
        raise BudgetExceededError(f"n={n} needs {n**d} cells, over the cell budget of {cell_budget}")
    calls = ((d, batch, construction) for batch in _batches(d, ns, min(_BATCH_CELLS, cell_budget)))
    rows = list(chain.from_iterable(ordered_results(_sweep_batch, calls, parallelism)))
    return SweepTable(d=d, construction=construction, rows=rows, fit=_quadratic_fit(rows))
