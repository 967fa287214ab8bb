"""Exhaustive searches for extremal quantities: smallest percolating sets,
minimum percolation time over sets of a fixed size, and minimality checks.

Candidates are enumerated in colexicographic order over the linear indices
(ascending maximum element, then colex on the rest), which fixes the
returned witness deterministically.  Every search is budgeted: it scans
only the leading sizes whose candidates fit in the budget together, and
raises ``BudgetExceededError`` up front when not even the first size fits,
or after the scan when no scanned size percolates but a larger one was left
out.

Candidates are tested in batches, transposed: row ``i`` of a ``uint64``
array holds cell ``i``'s state in every candidate of the batch, one bit per
candidate, and one synchronous round of the rule is a handful of numpy
operations over those rows.  The batches are work units of colex blocks
copied from a per-process table (see :mod:`bootperc.colex`), never
unranked one candidate at a time; the symmetry-pruned search gathers the
units' index rows instead and filters them first.  Whoever tests a unit
(this process or a pool worker) copies it itself, so units can be tested
in any process as long as their results are read back in order.  Every
returned witness is re-validated with an independent engine run before the
result is handed back.
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

from .colex import _Unit, _units
from .dynamics import CellSet, _check_compatible, _index_array, run
from .lattice import LATTICE_CACHE_SIZE, LatticeSpec, neighbor_table

DEFAULT_BUDGET = 10**8

# Searches whose candidates times cells fall below this run in this process
# whatever their parallelism: starting a pool costs more than they take.
# Kernel work grows with both, and so does the crossover measured with two
# workers on two cores: the pool lost at 25-51 M candidate cells ([4]^3 and
# [8]^2 at size 4, [5]^2 at sizes 8 and 9) and won at 60 M and more ([3]^3
# at size 8, [6]^2 at size 6, [13]^2 at size 3).
_POOL_MIN_CELLS = 2**26


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


@lru_cache(maxsize=1)
def _scratch(size: int, words: int, r: int) -> np.ndarray:
    """Working arrays of :func:`_rounds` for ``words``-word planes."""
    return np.empty((r + 3, size, words), dtype=np.uint64)


def _rounds(spec: LatticeSpec, planes: np.ndarray) -> Iterator[np.ndarray]:
    """Update ``planes`` in place by synchronous rounds, yielding it after
    round 0 (the seeds), 1, 2, ... until no candidate changes; the last
    state yielded is every candidate's closure.  Calls share their working
    arrays, so a call must be done with (exhausted or dropped) before the
    next one starts.
    """
    size, r = spec.size, spec.r
    columns = neighbor_table(spec).T
    words = planes.shape[1]
    # past 128 KB (glibc's mmap threshold) fresh arrays come from new
    # zero-filled pages, which doubled the rounds' time on lattices of a few
    # hundred cells, so such planes reuse arrays kept from call to call.
    # Smaller planes take fresh ones: kept, they outlive the call and raised
    # the peak RSS of a search-min-set run on [6]^2 with --symmetry from
    # 32.8 to 33.5 MB (the next chunk's canonicality test ran beside them)
    if planes.nbytes > 2**17:
        work = _scratch(size, words, r)
    else:
        work = np.empty((r + 3, size, words), np.uint64)
    # at[c]: cells with at least c+1 infected neighbours among the columns
    # seen so far (a bit-sliced saturating counter)
    at, p, both, grown = work[:r], work[r], work[r + 1], work[r + 2]
    while True:
        yield planes
        for i, column in enumerate(columns):
            levels = min(i, r)
            # -1 wraps to row ``size``: a missing, healthy neighbour
            np.take(planes, column, axis=0, out=p if levels else at[0], mode="wrap")
            if 0 < levels < r:
                np.bitwise_and(at[levels - 1], p, out=at[levels])
            for c in range(levels - 1, 0, -1):
                np.bitwise_and(at[c - 1], p, out=both)
                at[c] |= both
            if levels:
                at[0] |= p
        np.bitwise_or(planes[:size], at[r - 1], out=grown)
        if np.array_equal(grown, planes[:size]):
            return
        planes[:size] = grown


def _every(planes: np.ndarray) -> np.ndarray:
    """One word per word of the planes: the bits of candidates whose every
    cell is infected."""
    return np.bitwise_and.reduce(planes[:-1], axis=0)


def _percolating(spec: LatticeSpec, chunk: np.ndarray) -> np.ndarray:
    """Bool mask of the chunk's candidates that percolate."""
    for planes in _rounds(spec, _seed_planes(spec.size, chunk)):
        pass
    return np.unpackbits(_every(planes).view(np.uint8), bitorder="little")[: len(chunk)].astype(bool)


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


def _search_parallelism(spec: LatticeSpec, candidates: int, parallelism: int) -> int:
    """``parallelism``, or 1 for a search too small to pay for a pool."""
    return parallelism if candidates * spec.size >= _POOL_MIN_CELLS else 1


def _size_chunk(spec: LatticeSpec, symmetry: bool, *bounds: int) -> tuple[tuple[int, ...] | None, int]:
    """First percolating candidate of the work unit with these bounds, and
    the candidates tested up to and including it (all of them when none
    percolates).  With ``symmetry`` only canonical candidates are tested.
    """
    unit = _Unit(spec.size, *bounds)
    if symmetry:
        chunk = _canonical(spec, unit.indices())
        hits = np.flatnonzero(_percolating(spec, chunk))
        if len(hits):
            return tuple(chunk[hits[0]].tolist()), int(hits[0]) + 1
        return None, len(chunk)
    for planes in _rounds(spec, unit.planes()):
        pass
    return unit.first(_every(planes) & unit.valid)


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
    parallelism = _search_parallelism(spec, sum(comb(spec.size, k) for k in sizes), parallelism)
    units = (unit for k in sizes for unit in _units(spec.size, k))
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
    spec: LatticeSpec, limit: int | None, *bounds: int
) -> tuple[int | None, tuple[int, ...] | None, int, int]:
    """Least full-infection time below ``limit`` in the work unit with these
    bounds.

    Returns (time, its first achiever, the achiever's position + 1, unit
    length); time and achiever are None when no candidate beats ``limit``.
    """
    unit = _Unit(spec.size, *bounds)
    for t, planes in enumerate(_rounds(spec, unit.planes())):
        if limit is not None and t >= limit:
            break
        hit, position = unit.first(_every(planes) & unit.valid)
        if hit is not None:
            return t, hit, position, unit.count
    return None, None, unit.count, unit.count


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
    calls = ((spec, best, *unit) for unit in _units(spec.size, size))
    results = ordered_results(_time_chunk, calls, _search_parallelism(spec, comb(spec.size, size), parallelism))
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
