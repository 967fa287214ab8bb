"""Exhaustive searches for extremal quantities: smallest percolating sets,
minimum percolation time over sets of a fixed size, and minimality checks.

Candidates are enumerated in colexicographic order over the linear indices
(ascending maximum element, then colex on the rest), which both fixes the
returned witness deterministically and lets the work be partitioned across
processes by maximum element without changing any result.  Every search is
budgeted: instead of silently running forever, an infeasible request raises
``BudgetExceededError`` up front.

The inner percolation tests run on integer bitmasks for speed; every
returned witness is re-validated with an independent engine run before the
result is handed back.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import comb
from typing import Iterator

from .dynamics import CellSet, run
from .lattice import LATTICE_CACHE_SIZE, LatticeSpec, cell_at, cell_index, neighbor_masks

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """A search would exceed (or exceeded) its candidate budget."""

    def __init__(self, message: str, examined: int = 0):
        super().__init__(message)
        self.examined = examined


class NoPercolatingSetError(ValueError):
    """No percolating set exists under the stated constraint (a domain negative)."""


@dataclass
class SearchResult:
    """Outcome of one exhaustive search, with the achieving witness."""

    kind: str  # "min_size" | "min_time"
    optimum: int | None
    witness: CellSet | None
    instances_examined: int
    exhaustive: bool
    symmetry_pruned: bool = False

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "optimum": self.optimum,
            "witness": None if self.witness is None else self.witness.to_coord_lists(),
            "instances_examined": self.instances_examined,
            "exhaustive": self.exhaustive,
            "symmetry_pruned": self.symmetry_pruned,
        }


def colex_combinations(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(n) as ascending tuples, in colexicographic order.

    Colex compares subsets by their largest element first, then recurses on
    the remainder: (0,1), (0,2), (1,2), (0,3), ...
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield ()
        return
    a = list(range(k))
    while True:
        yield tuple(a)
        i = 0
        while i < k:
            bumped = a[i] + 1
            ceiling = a[i + 1] if i + 1 < k else n
            if bumped < ceiling:
                a[i] = bumped
                for j in range(i):
                    a[j] = j
                break
            i += 1
        else:
            return


# -- fast bitmask percolation tests ----------------------------------------


def closure_bits(masks: list[int], seed_bits: int, r: int) -> int:
    """Final infected set as a bitmask, given :func:`neighbor_masks` of the lattice.

    Order-free: infections are applied as soon as they are found, which
    reaches the same closure as synchronous rounds in fewer sweeps.
    """
    cur = seed_bits
    healthy = [i for i in range(len(masks)) if not seed_bits >> i & 1]
    while healthy:
        rest = []
        for i in healthy:
            if (cur & masks[i]).bit_count() >= r:
                cur |= 1 << i
            else:
                rest.append(i)
        if len(rest) == len(healthy):
            break
        healthy = rest
    return cur


def _sync_time(masks: list[int], size: int, seed_bits: int, r: int, abort_at: int | None) -> int | None:
    """Synchronous round count to full infection; None if it stalls.

    ``abort_at``: give up once the running round count reaches a value that
    cannot improve on an already-known optimum.
    """
    cur = seed_bits
    healthy = [i for i in range(size) if not seed_bits >> i & 1]
    t = 0
    while healthy:
        newly = [i for i in healthy if (cur & masks[i]).bit_count() >= r]
        if not newly:
            return None
        t += 1
        if abort_at is not None and t >= abort_at:
            return None
        for i in newly:
            cur |= 1 << i
        healthy = [i for i in healthy if not cur >> i & 1]
    return t


# -- symmetry pruning --------------------------------------------------------


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def symmetry_index_maps(spec: LatticeSpec) -> tuple[tuple[int, ...], ...]:
    """Index permutations of the lattice symmetries used for pruning.

    Grid: the full hyperoctahedral group (axis permutations x reflections,
    2^d * d! elements).  Torus: the n^d coordinate translations.  The
    identity is included; canonicality tests use strict comparison.
    """
    d, n, size = spec.d, spec.n, spec.size
    cells = [cell_at(i, d, n) for i in range(size)]
    maps = []
    if spec.topology == "grid":
        for axes in permutations(range(d)):
            for flips in product((False, True), repeat=d):
                table = []
                for cell in cells:
                    image = tuple(
                        n + 1 - cell[axes[j]] if flips[j] else cell[axes[j]] for j in range(d)
                    )
                    table.append(cell_index(image, d, n))
                maps.append(tuple(table))
    else:
        for shifts in product(range(n), repeat=d):
            table = []
            for cell in cells:
                image = tuple((cell[j] - 1 + shifts[j]) % n + 1 for j in range(d))
                table.append(cell_index(image, d, n))
            maps.append(tuple(table))
    return tuple(maps)


def _is_canonical(candidate: tuple[int, ...], bits: int, maps: tuple[tuple[int, ...], ...]) -> bool:
    for table in maps:
        image = 0
        for i in candidate:
            image |= 1 << table[i]
        if image < bits:
            return False
    return True


# -- searches ----------------------------------------------------------------


def _resolve_budget(budget: int | None) -> int:
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget


def _revalidate_percolation(spec: LatticeSpec, witness: CellSet, expect_time: int | None = None) -> None:
    # independent engine pass over the winning candidate; a failure here
    # means the bitmask fast path and the engine disagree
    record = run(spec, witness)
    if not record.percolates:
        raise RuntimeError(f"internal check failed: witness {witness.cells()} does not percolate")
    if expect_time is not None and record.T != expect_time:
        raise RuntimeError(
            f"internal check failed: witness time {record.T} != search result {expect_time}"
        )


def _scan_size_chunk(
    spec: LatticeSpec, k: int, max_elem_range: range, symmetry: bool
) -> tuple[tuple[int, ...] | None, int]:
    """First percolating k-subset whose maximum lies in the given range.

    Returns (hit, candidates whose percolation was actually tested).  The
    enumeration inside one maximum element follows colex order, so scanning
    maxima in ascending order reproduces global colex order exactly.
    """
    masks = neighbor_masks(spec)
    full, r = (1 << spec.size) - 1, spec.r
    maps = symmetry_index_maps(spec) if symmetry else None
    examined = 0
    for m in max_elem_range:
        high_bit = 1 << m
        for rest in colex_combinations(m, k - 1):
            candidate = rest + (m,)
            bits = high_bit
            for i in rest:
                bits |= 1 << i
            if maps is not None and not _is_canonical(candidate, bits, maps):
                continue
            examined += 1
            if closure_bits(masks, bits, r) == full:
                return candidate, examined
    return None, examined


def min_percolating_size(
    spec: LatticeSpec,
    max_size: int,
    *,
    budget: int | None = None,
    symmetry: bool = False,
    parallelism: int = 1,
) -> SearchResult:
    """Smallest k <= max_size for which some k-set percolates, with a witness.

    Sizes are tried in increasing order; within a size, candidates follow
    colex order and the first percolating one wins.  With ``symmetry=True``
    only candidates that are minimal in their symmetry orbit are tested
    (same optimum, possibly different witness, flagged on the result).
    """
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    max_size = min(max_size, spec.size)
    budget = _resolve_budget(budget)
    total = sum(comb(spec.size, k) for k in range(1, max_size + 1))
    if total > budget:
        raise BudgetExceededError(
            f"search over {total} candidate sets exceeds the budget of {budget}; "
            f"raise the budget or lower max_size",
            examined=0,
        )
    examined = 0
    for k in range(1, max_size + 1):
        if parallelism > 1:
            hit, count = _parallel_size_scan(spec, k, symmetry, parallelism)
        else:
            hit, count = _scan_size_chunk(spec, k, range(k - 1, spec.size), symmetry)
        examined += count
        if hit is not None:
            witness = CellSet.from_indices(spec.d, spec.n, hit)
            _revalidate_percolation(spec, witness)
            return SearchResult("min_size", k, witness, examined, True, symmetry)
    return SearchResult("min_size", None, None, examined, True, symmetry)


def _parallel_size_scan(
    spec: LatticeSpec, k: int, symmetry: bool, parallelism: int
) -> tuple[tuple[int, ...] | None, int]:
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        futures = [
            pool.submit(_scan_size_chunk, spec, k, range(m, m + 1), symmetry)
            for m in range(k - 1, spec.size)
        ]
        results = [f.result() for f in futures]
    examined = 0
    for hit, count in results:
        examined += count
        if hit is not None:
            return hit, examined
    return None, examined


def _scan_time_chunk(
    spec: LatticeSpec, size: int, max_elem_range: range
) -> tuple[int | None, tuple[int, ...] | None, int]:
    """Best synchronous time over percolating size-subsets with max in range.

    Returns (best time, first witness achieving it, candidates examined).
    Stops early once the unbeatable minimum (1, or 0 for the full lattice)
    is reached.
    """
    masks = neighbor_masks(spec)
    cells, r = spec.size, spec.r
    floor_time = 0 if size == cells else 1
    best: int | None = None
    best_witness: tuple[int, ...] | None = None
    examined = 0
    for m in max_elem_range:
        high_bit = 1 << m
        for rest in colex_combinations(m, size - 1):
            bits = high_bit
            for i in rest:
                bits |= 1 << i
            examined += 1
            t = _sync_time(masks, cells, bits, r, abort_at=best)
            if t is not None and (best is None or t < best):
                best = t
                best_witness = rest + (m,)
                if best == floor_time:
                    return best, best_witness, examined
    return best, best_witness, examined


def min_percolation_time(
    spec: LatticeSpec,
    size: int,
    *,
    budget: int | None = None,
    parallelism: int = 1,
) -> SearchResult:
    """Minimum stabilisation time over percolating sets of exactly ``size`` cells.

    Raises :class:`NoPercolatingSetError` when no set of that size
    percolates.  The witness is the first achiever in colex order.
    """
    if not 0 <= size <= spec.size:
        raise ValueError(f"size must lie in [0, {spec.size}], got {size}")
    budget = _resolve_budget(budget)
    total = comb(spec.size, size)
    if total > budget:
        raise BudgetExceededError(
            f"search over {total} candidate sets exceeds the budget of {budget}",
            examined=0,
        )
    if size == 0:
        # the empty set never percolates a nonempty lattice
        raise NoPercolatingSetError(f"no percolating set of size 0 on {spec.size} cells")
    if parallelism > 1:
        best, witness_idx, examined = _parallel_time_scan(spec, size, parallelism)
    else:
        best, witness_idx, examined = _scan_time_chunk(spec, size, range(size - 1, spec.size))
    if best is None:
        raise NoPercolatingSetError(
            f"no percolating set of size {size} in [{spec.n}]^{spec.d} ({spec.topology}, r={spec.r})"
        )
    witness = CellSet.from_indices(spec.d, spec.n, witness_idx)
    _revalidate_percolation(spec, witness, expect_time=best)
    return SearchResult("min_time", best, witness, examined, True)


def _parallel_time_scan(
    spec: LatticeSpec, size: int, parallelism: int
) -> tuple[int | None, tuple[int, ...] | None, int]:
    floor_time = 0 if size == spec.size else 1
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        futures = [
            pool.submit(_scan_time_chunk, spec, size, range(m, m + 1))
            for m in range(size - 1, spec.size)
        ]
        results = [f.result() for f in futures]
    best: int | None = None
    best_witness: tuple[int, ...] | None = None
    examined = 0
    for local_best, local_witness, count in results:
        examined += count
        if local_best is not None and (best is None or local_best < best):
            best = local_best
            best_witness = local_witness
            if best == floor_time:
                break
    return best, best_witness, examined


def is_minimal(spec: LatticeSpec, cells: CellSet) -> bool:
    """True iff the set percolates and no single-cell removal still percolates.

    Because infection is monotone, surviving every single removal is
    equivalent to no proper subset percolating at all.  Non-percolating
    input is a domain error.
    """
    if (cells.d, cells.n) != (spec.d, spec.n):
        raise ValueError(
            f"set shape ({cells.d}, {cells.n}) does not match spec ({spec.d}, {spec.n})"
        )
    masks = neighbor_masks(spec)
    full = (1 << spec.size) - 1
    if closure_bits(masks, cells.bits, spec.r) != full:
        raise ValueError("set does not percolate; minimality is undefined")
    for i in cells.indices():
        if closure_bits(masks, cells.bits & ~(1 << i), spec.r) == full:
            return False
    return True
