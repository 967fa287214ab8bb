"""Scripted verification campaigns: strip filling, hyperplane separation,
and percolation-time sweeps on coordinate-permutation orbits with quadratic
least-squares fits.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from math import comb
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .constructions import SWEEP_CONSTRUCTIONS, build_construction
from .dynamics import CellSet, ordered_results, run
from .lattice import BudgetExceededError, LatticeSpec, levels

# cap on n**d for a single sweep run; large d=5 campaigns must raise it explicitly
DEFAULT_CELL_BUDGET = 1 << 23
# cap on the int32 entries (2d per orbit) of one batch's orbit table: 1 MB
_BATCH_ENTRIES = 1 << 18


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
    """Ascending ``ns`` in consecutive groups of at most ``cap`` orbits
    together; a lattice over ``cap`` forms a group alone."""
    batch: list[int] = []
    for n in ns:
        if batch and sum(comb(m + d - 1, d) for m in (*batch, n)) > cap:
            yield batch
            batch = []
        batch.append(n)
    if batch:
        yield batch


def _sweep_batch(d: int, ns: list[int], construction: str) -> list[SweepRow]:
    """The rows of the ascending sides ``ns``, from one orbit engine run."""
    initials = [build_construction(construction, d, n) for n in ns]
    rows = []
    for n, initial, times in zip(ns, initials, _orbit_times(initials, d)):
        T = max(int(times.max()), 0)  # an empty seed set has T = 0
        rows.append(SweepRow(n, T, bool(times.min() >= 0), len(initial), T <= (d + 2) * n * n + n))
    return rows


def _orbits(d: int, n: int) -> np.ndarray:
    """The non-decreasing 0-based coordinate tuples y of [n]^d in colex
    order (rank sum_i comb(y_i + i, i + 1)), in the smallest signed dtype
    that holds n + d.  The tuples of length i that end in t are the first
    comb(t + i - 1, i - 1) of length i - 1, each followed by t."""
    y = np.empty((1, 0), dtype=np.min_scalar_type(-(n + d)))
    for i in range(1, d + 1):
        counts = [comb(t + i - 1, i - 1) for t in range(n)]
        y = np.column_stack((np.concatenate([y[:count] for count in counts]),
                             np.repeat(np.arange(n, dtype=y.dtype), counts)))
    return y


def _orbit_rows(y: np.ndarray, n: int, rows: np.ndarray, start: int) -> None:
    """Fill ``rows``, ``_BATCH_ENTRIES`` entries at a time, with ``start`` plus
    the orbit ranks of the 2d grid neighbours of each :func:`_orbits` tuple;
    off the grid, the tuple's own.  With z_i = y_i + i, raising y_a raises
    the last entry p of its run of equal values, so the rank gains comb(z_p,
    p); lowering it lowers the run's first entry q, so the rank loses
    comb(z_q - 1, q).  Inside a run a column copies its neighbour's."""
    d = y.shape[1]
    binom = np.array([[comb(m, i) for i in range(d)] for m in range(n + d - 1)], dtype=np.int32)
    chunk = _BATCH_ENTRIES // (2 * d)
    for low in range(0, len(y), chunk):
        part, out = y[low : low + chunk], rows[low : low + chunk]
        rank = np.arange(start + low, start + low + len(part), dtype=np.int32)
        for a in range(d):
            # binom's row -1 is read only where y_a == 0, which takes the rank instead
            step = np.where(part[:, a] > 0, rank - binom[part[:, a] + (a - 1), a], rank)
            out[:, 2 * a] = step if a == 0 else np.where(part[:, a] == part[:, a - 1], out[:, 2 * a - 2], step)
        for a in reversed(range(d)):
            step = np.where(part[:, a] < n - 1, rank + binom[part[:, a] + a, a], rank)
            out[:, 2 * a + 1] = step if a == d - 1 else np.where(part[:, a] == part[:, a + 1], out[:, 2 * a + 3], step)


def _orbit_times(initials: list[CellSet], r: int) -> list[np.ndarray]:
    """Per grid run under threshold ``r`` from each of ``initials`` (of one
    d), the infection round of every orbit of :func:`_orbits`, -1 for never.

    Every cell of an orbit of an invariant seed has its representative's
    time; a seed that a transposition of adjacent axes changes is refused.
    One loop runs the :func:`_orbit_rows` tables stacked with rank offsets.
    Each round, the healthy orbits in the rows of the last round's, sorted
    and deduplicated, count their infected entries.
    """
    d = initials[0].d
    ends = np.cumsum([comb(initial.n + d - 1, d) for initial in initials]).tolist()
    times = np.full(ends[-1], -1, dtype=np.int32)
    rows = np.empty((ends[-1], 2 * d), dtype=np.int32)
    for initial, start, end in zip(initials, [0, *ends], ends):
        n = initial.n
        mask = initial._mask().reshape((n,) * d)
        if not all(np.array_equal(mask, np.swapaxes(mask, a, a + 1)) for a in range(d - 1)):
            raise ValueError(f"the initial set of [{n}]^{d} is not invariant under permuting the coordinates")
        y = _orbits(d, n)
        times[start:end][mask[tuple(y.T)]] = 0
        del mask  # the table is built after the mask has gone
        _orbit_rows(y, n, rows[start:end], start)
    frontier, ones, t = np.flatnonzero(times == 0), np.ones(2 * d, dtype=np.uint8), 0
    # on these short arrays take, compress and put cost a quarter to a third
    # less per round than the subscripts that spell them
    while len(frontier):
        hits = rows.take(frontier, axis=0).ravel()
        hits = hits.compress(times.take(hits) < 0)
        hits.sort()
        candidates = hits.compress(np.concatenate((hits[:1] >= 0, hits[1:] != hits[:-1])))  # each first of a run
        # a product with ones counts a row's entries many times faster than sum(axis=1)
        frontier = candidates.compress((times.take(rows.take(candidates, axis=0)) >= 0).view(np.uint8) @ ones >= r)
        t += 1
        times.put(frontier, t)
    return np.split(times, ends[:-1])


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

    Consecutive n are run together by :func:`_sweep_batch` in batches of
    at most ``min(_BATCH_ENTRIES // 2d, cell_budget)`` orbits; with
    ``parallelism > 1`` the batches run in a process pool.  The rows are those of one
    :func:`run` per n, and the cell budget still caps each n**d.
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
    cap = min(_BATCH_ENTRIES // (2 * d), cell_budget)
    calls = ((d, batch, construction) for batch in _batches(d, ns, cap))
    rows = list(chain.from_iterable(ordered_results(_sweep_batch, calls, parallelism)))
    return SweepTable(d=d, construction=construction, rows=rows, fit=_quadratic_fit(rows))
