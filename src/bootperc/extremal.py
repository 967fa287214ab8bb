"""Exhaustive searches for extremal quantities: smallest percolating sets,
minimum percolation time over sets of a fixed size, and minimality checks.

Candidates are enumerated in colexicographic order over the linear indices
(ascending maximum element, then colex on the rest), which fixes the
returned witness deterministically.  The enumeration is cut into ranges of
at most ``_CHUNK`` colex ranks, and whoever tests a range (this process or
a pool worker) unranks its chunk of candidates itself, so chunks can be
tested in any process as long as their results are read back in order.
Every search is budgeted: it scans only the leading sizes whose candidates
fit in the budget together, and raises ``BudgetExceededError`` up front
when not even the first size fits, or after the scan when no scanned size
percolates but a larger one was left out.

A chunk is tested in one batch, transposed: row ``i`` of a ``uint64``
array holds cell ``i``'s state in every candidate of the chunk, one bit per
candidate, and one synchronous round of the rule is a handful of numpy
operations over those rows.  Every returned witness is re-validated with an
independent engine run before the result is handed back.
"""

from __future__ import annotations

from collections import deque
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .dynamics import CellSet, _check_compatible, _index_array, run
from .lattice import LATTICE_CACHE_SIZE, LatticeSpec, neighbor_table

DEFAULT_BUDGET = 10**8

# Candidates tested in one batch, at most.
_CHUNK = 2**15
# Cap on cells x candidates in one chunk.  The seed grid takes that many
# bytes and each state plane an eighth of it, so a chunk needs a few MB on
# any lattice; lattices under 128 cells keep the full _CHUNK.
_CHUNK_CELLS = 2**22


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


# -- colex chunks -------------------------------------------------------------


def _rank_ranges(size: int, k: int) -> Iterator[tuple[int, int, int]]:
    """Work units (k, start, stop) whose colex rank ranges cover the
    k-subsets of range(size) in order.  All but the last span ``_CHUNK``
    ranks, or fewer where that would take a chunk's seed grid over
    ``_CHUNK_CELLS``."""
    total, step = comb(size, k), max(1, min(_CHUNK, _CHUNK_CELLS // (size + 1)))
    for start in range(0, total, step):
        yield k, start, min(start + step, total)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _binomials(size: int, k: int) -> list[np.ndarray]:
    """comb(m, i) for m in [i-1, size-k+i-1], the range of c_i in a k-subset
    of range(size), for i = 1..k; every chunk of a search unranks by them."""
    # a binomial past int64 exceeds every rank, so clipping it keeps the
    # tables sorted and the unranking exact
    cap = np.iinfo(np.int64).max
    return [
        np.array([min(comb(m, i), cap) for m in range(i - 1, size - k + i)], dtype=np.int64)
        for i in range(1, k + 1)
    ]


def _colex_chunk(size: int, k: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, k) index array: rows ``start:stop`` of
    ``colex_combinations(size, k)``.

    The k-set c_1 < ... < c_k has colex rank sum_i comb(c_i, i), so each
    rank is unranked largest element first: c_i is the greatest m with
    comb(m, i) <= the rank still left.  Entries use the smallest unsigned
    dtype that holds ``size - 1``, which keeps chunks small in memory.
    """
    rank = np.arange(start, stop, dtype=np.int64)
    chunk = np.empty((len(rank), k), dtype=np.min_scalar_type(max(size - 1, 0)))
    for i, table in reversed(list(enumerate(_binomials(size, k)))):
        m = np.searchsorted(table, rank, side="right") - 1
        rank -= table[m]
        chunk[:, i] = m + i
    return chunk


# -- the batch kernel -----------------------------------------------------------


def _seed_planes(size: int, chunk: np.ndarray) -> np.ndarray:
    """Transposed seed state of a chunk: (size + 1, W) ``uint64``, bit c of
    row i set when candidate c contains cell i.  Row ``size`` stays zero; the
    -1 entries of ``neighbor_table`` read it as a missing, healthy neighbour.
    """
    count = len(chunk)
    words = -(-count // 64)
    grid = np.zeros((size + 1, 64 * words), dtype=bool)
    flat, candidates = grid.reshape(-1), np.arange(count)
    for cells in chunk.T:
        flat[cells.astype(np.intp) * (64 * words) + candidates] = True
    return np.packbits(grid, axis=1, bitorder="little").view("<u8")


def _rounds(spec: LatticeSpec, planes: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the state after round 0 (the seeds), 1, 2, ... until no
    candidate changes; the last state yielded is every candidate's closure.
    """
    size, r = spec.size, spec.r
    columns = neighbor_table(spec).T
    while True:
        yield planes
        # at[c]: cells with at least c+1 infected neighbours among the
        # columns seen so far (a bit-sliced saturating counter)
        at: list[np.ndarray] = []
        for column in columns:
            p = planes[column]
            levels = len(at)
            if 0 < levels < r:
                at.append(at[-1] & p)
            for c in range(levels - 1, 0, -1):
                at[c] |= at[c - 1] & p
            if levels:
                at[0] |= p
            else:
                at.append(p)
        grown = planes.copy()
        grown[:size] |= at[r - 1]
        if np.array_equal(grown, planes):
            return
        planes = grown


def _full(planes: np.ndarray, count: int) -> np.ndarray:
    """Bool mask of the first ``count`` candidates whose every cell is infected."""
    every = np.bitwise_and.reduce(planes[:-1], axis=0)
    return np.unpackbits(every.view(np.uint8), bitorder="little")[:count].astype(bool)


def _percolating(spec: LatticeSpec, chunk: np.ndarray) -> np.ndarray:
    """Bool mask of the chunk's candidates that percolate."""
    for planes in _rounds(spec, _seed_planes(spec.size, chunk)):
        pass
    return _full(planes, len(chunk))


# -- symmetry pruning --------------------------------------------------------


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def symmetry_index_maps(spec: LatticeSpec) -> np.ndarray:
    """Index permutations of the lattice symmetries used for pruning.

    A read-only (maps, size) array, in the dtype of the search chunks, that
    sends each linear index to that of its image.  Grid: the full
    hyperoctahedral group (axis permutations x reflections, 2^d * d!
    elements), each the index grid flipped and transposed.  Torus: the n^d
    coordinate translations, each a roll of the grid.  Row 0 is the
    identity; canonicality tests use strict comparison.
    """
    d, n = spec.d, spec.n
    grid = np.arange(spec.size, dtype=np.min_scalar_type(spec.size - 1)).reshape((n,) * d)
    if spec.topology == "grid":
        maps = [
            np.flip(grid, [j for j in range(d) if flips[j]]).transpose(np.argsort(axes))
            for axes in permutations(range(d))
            for flips in product((False, True), repeat=d)
        ]
    else:
        maps = [np.roll(grid, [-s for s in shifts], range(d)) for shifts in product(range(n), repeat=d)]
    table = np.stack(maps).reshape(len(maps), spec.size)
    table.flags.writeable = False
    return table


def _canonical(spec: LatticeSpec, chunk: np.ndarray) -> np.ndarray:
    """The candidates that no symmetry maps to a smaller bitmask.

    Two equal-size sets compare as bitmasks exactly as their elements,
    sorted descending, compare lexicographically.  Each symmetry is tried
    only on the candidates that survived the ones before it, so the work
    shrinks with every map instead of being paid in full for each.
    """
    for table in symmetry_index_maps(spec)[1:]:  # all but the identity
        own = chunk[:, ::-1]
        image = np.sort(table[chunk], axis=1)[:, ::-1]
        first = (image != own).argmax(axis=1)
        rows = np.arange(len(chunk))
        chunk = chunk[image[rows, first] >= own[rows, first]]
    return chunk


# -- searches ----------------------------------------------------------------


def _sizes_within_budget(cells: int, sizes: Iterable[int], budget: int | None) -> list[int]:
    """The leading ``sizes``, in scan order, whose candidate sets among
    ``cells`` cells fit in ``budget`` (default ``DEFAULT_BUDGET``) together;
    raises :class:`BudgetExceededError` before any work when the first does not."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    within, total = [], 0
    for k in sizes:
        total += comb(cells, k)
        if total > budget:
            if not within:
                raise BudgetExceededError(
                    f"search over {total} candidate sets exceeds the budget of {budget}", examined=0
                )
            break
        within.append(k)
    return within


def _revalidate_percolation(spec: LatticeSpec, witness: CellSet, expect_time: int | None = None) -> None:
    # independent engine pass over the winning candidate; a failure here
    # means the batch kernel and the engine disagree
    record = run(spec, witness)
    if not record.percolates:
        raise RuntimeError(f"internal check failed: witness {witness.cells()} does not percolate")
    if expect_time is not None and record.T != expect_time:
        raise RuntimeError(
            f"internal check failed: witness time {record.T} != search result {expect_time}"
        )


def ordered_results(work: Callable, calls: Iterable[tuple], parallelism: int) -> Iterator:
    """``work(*call)`` for every call, yielded in call order.

    ``calls`` is read lazily, one call as it is submitted, so a generator
    may build later calls from the results consumed so far.  With
    ``parallelism > 1`` calls run in a process pool with a bounded number
    in flight; closing the generator (the caller found what it wanted)
    cancels pending calls and shuts the pool down.
    """
    if parallelism <= 1:
        for call in calls:
            yield work(*call)
        return
    # imported here so that a process which starts no pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=parallelism)
    try:
        in_flight: deque = deque()
        for call in calls:
            in_flight.append(pool.submit(work, *call))
            if len(in_flight) > 2 * parallelism:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _size_chunk(
    spec: LatticeSpec, symmetry: bool, k: int, start: int, stop: int
) -> tuple[tuple[int, ...] | None, int]:
    """First percolating candidate among the k-sets of colex ranks
    ``start:stop``, and the candidates tested up to and including it (all
    of them when none percolates).  With ``symmetry`` only canonical
    candidates are tested.
    """
    chunk = _colex_chunk(spec.size, k, start, stop)
    if symmetry:
        chunk = _canonical(spec, chunk)
    hits = np.flatnonzero(_percolating(spec, chunk))
    if len(hits):
        return tuple(chunk[hits[0]].tolist()), int(hits[0]) + 1
    return None, len(chunk)


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
    Only the leading sizes whose candidates fit in the budget together are
    scanned; when none of them percolates and a size was left out, the
    search raises :class:`BudgetExceededError` with the candidates tested.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    max_size = min(max_size, spec.size)
    sizes = _sizes_within_budget(spec.size, range(1, max_size + 1), budget)
    units = (unit for k in sizes for unit in _rank_ranges(spec.size, k))
    results = ordered_results(_size_chunk, ((spec, symmetry, *unit) for unit in units), parallelism)
    examined = 0
    with closing(results):
        for hit, count in results:
            examined += count
            if hit is not None:
                witness = CellSet.from_indices(spec.d, spec.n, hit)
                _revalidate_percolation(spec, witness)
                return SearchResult("min_size", len(hit), witness, examined, True, symmetry)
    if len(sizes) < max_size:
        raise BudgetExceededError(
            f"no set of size <= {len(sizes)} percolates and size {len(sizes) + 1} would exceed "
            f"the budget; raise the budget or lower max_size",
            examined=examined,
        )
    return SearchResult("min_size", None, None, examined, True, symmetry)


def _time_chunk(
    spec: LatticeSpec, limit: int | None, k: int, start: int, stop: int
) -> tuple[int | None, tuple[int, ...] | None, int, int]:
    """Least full-infection time below ``limit`` among the k-sets of colex
    ranks ``start:stop``.

    Returns (time, its first achiever, the achiever's position + 1, chunk
    length); time and achiever are None when no candidate beats ``limit``.
    """
    chunk = _colex_chunk(spec.size, k, start, stop)
    for t, planes in enumerate(_rounds(spec, _seed_planes(spec.size, chunk))):
        if limit is not None and t >= limit:
            break
        full = _full(planes, len(chunk))
        if full.any():
            i = int(full.argmax())
            return t, tuple(chunk[i].tolist()), i + 1, len(chunk)
    return None, None, len(chunk), len(chunk)


def min_percolation_time(
    spec: LatticeSpec,
    size: int,
    *,
    budget: int | None = None,
    parallelism: int = 1,
) -> SearchResult:
    """Minimum stabilisation time over percolating sets of exactly ``size`` cells.

    Raises :class:`NoPercolatingSetError` when no set of that size
    percolates.  The witness is the first achiever in colex order.  The
    scan stops early once the unbeatable minimum (1, or 0 for the full
    lattice) is reached.
    """
    if not 0 <= size <= spec.size:
        raise ValueError(f"size must lie in [0, {spec.size}], got {size}")
    _sizes_within_budget(spec.size, [size], budget)
    if size == 0:
        # the empty set never percolates a nonempty lattice
        raise NoPercolatingSetError(f"no percolating set of size 0 on {spec.size} cells")
    floor_time = 0 if size == spec.size else 1
    best: int | None = None
    best_witness: tuple[int, ...] | None = None
    examined = 0
    # the generator reads ``best`` as each call is submitted, so the limit
    # tightens with the results consumed so far
    calls = ((spec, best, *unit) for unit in _rank_ranges(spec.size, size))
    results = ordered_results(_time_chunk, calls, parallelism)
    with closing(results):
        for t, witness_idx, position, count in results:
            if t is not None and (best is None or t < best):
                best, best_witness = t, witness_idx
                if best == floor_time:
                    examined += position
                    break
            examined += count
    if best is None:
        raise NoPercolatingSetError(
            f"no percolating set of size {size} in [{spec.n}]^{spec.d} ({spec.topology}, r={spec.r})"
        )
    witness = CellSet.from_indices(spec.d, spec.n, best_witness)
    _revalidate_percolation(spec, witness, expect_time=best)
    return SearchResult("min_time", best, witness, examined, True)


def is_minimal(spec: LatticeSpec, cells: CellSet) -> bool:
    """True iff the set percolates and no single-cell removal still percolates.

    Because infection is monotone, surviving every single removal is
    equivalent to no proper subset percolating at all.  Non-percolating
    input is a domain error.
    """
    _check_compatible(spec, cells)
    members = _index_array(cells)
    if not _percolating(spec, members[None, :])[0]:
        raise ValueError("set does not percolate; minimality is undefined")
    m = len(members)
    removals = np.broadcast_to(members, (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    return not _percolating(spec, removals).any()
