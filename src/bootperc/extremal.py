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
unranked one candidate at a time.  Whoever tests a unit (this process or a
pool worker) copies it itself, so units can be tested in any process as
long as their results are read back in order.  Every search reads the
kernel the same way: each candidate's percolation time, or -1 when it does
not percolate below a limit.  Whoever tests a unit reduces its times to a
summary of a few ints (:func:`_unit_summary`), and searches read only the
summaries: the first percolating position (smallest size), or the least
time and its first position (least time); minimality asks whether any
single removal percolates.  On a grid with r >= d the perimeter bound
decides most candidates before the kernel (:func:`_perimeter_floor`): no
set of fewer than n^(d-1) cells percolates, so those sizes are counted and
not run, and at n^(d-1) cells only the candidates with no two neighbouring
cells are, each other one getting the -1 that the kernel would give it.
Every returned witness is re-validated with an independent engine run
before the result is handed back.  A search up to symmetry runs the same
units and only counts its candidates differently: Burnside's lemma for the
sizes below the hit, a bit-sliced canonicality test on the seed planes at
it, each unit's count made where it is tested.
"""

from __future__ import annotations

from collections import Counter
from contextlib import closing
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import chain, islice, permutations, product, takewhile
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .colex import _seed_planes, _Unit, _units
from .dynamics import CellSet, _check_compatible, _index_array, ordered_results, run
from .lattice import LATTICE_CACHE_SIZE, BudgetExceededError, LatticeSpec, NoPercolatingSetError, neighbor_table

DEFAULT_BUDGET = 10**8

# Searches whose candidates times cells (the kernel's work, counted over the
# sizes it runs) fall below this run in this process whatever their
# parallelism: starting a pool costs more than they take.  Measured in
# process on min-time searches before the perimeter bound, two workers on
# two cores, the pool lost up to 51 M candidate cells.  As CLI jobs on that
# host, one process / two workers, medians of 10 interleaved runs, it loses
# past this on searches that stop at the perimeter floor, where the bound
# leaves the kernel little work: min-time on [6]^2 at size 6 (70.1 M) 0.33 /
# 0.44 s, min-size on [6]^2 up to 6 (70.1 M) 0.28 / 0.37 s and on [3]^3 up
# to 9 (126.5 M) 0.28 / 0.37 s.
_POOL_MIN_CELLS = 2**26


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
        witness = None if self.witness is None else self.witness.to_coord_lists()
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"witness": witness}


# -- the batch kernel -----------------------------------------------------------


@lru_cache(maxsize=2)
def _kept(*shape: int) -> np.ndarray:
    """A ``uint64`` array of this shape kept for the process, for the last
    two shapes asked for: a search unit's planes (with a second slab for
    the words that :func:`_unpaired_times` packs), and the buffer whose
    leading entries hold the working arrays of the rounds that
    :func:`_times` reads off them, at whatever width the rounds narrowed to.

    Past 128 KB (glibc's mmap threshold) fresh arrays come from new
    zero-filled pages: a fresh 320 KB planes array per unit made
    search-min-set on [200]^2 take 79 K minor page faults and 0.52 s of CPU
    instead of 1.4 K and 0.39 s (in process, 2-core host), and fresh
    working arrays doubled the rounds' time on lattices of a few hundred
    cells.  Whoever takes one writes it before reading it.  The times that
    :func:`_times` returns are fresh arrays: they outlive the call.
    """
    return np.empty(shape, dtype=np.uint64)


def _rounds(spec: LatticeSpec, planes: np.ndarray) -> Iterator[np.ndarray]:
    """Update ``planes`` in place by synchronous rounds, yielding it after
    round 0 (the seeds), 1, 2, ... until no candidate changes; the last
    state yielded is every candidate's closure.  Its one reader is
    :func:`_times`.  A word in which no candidate changed holds its 64
    closures: once at most half of the words changed, the rounds run on
    those alone, packed, and write them back into ``planes`` (packing on
    any settled word was slower).  Calls share their working arrays (see
    :func:`_kept`), so a call must be done with (exhausted or dropped)
    before the next one starts; every round writes them before it reads them.
    """
    r, columns = spec.r, neighbor_table(spec).T
    buffer = _kept(r + 4, *planes.shape).reshape(-1)
    # state: the words of planes at the indices active, the only ones still changing
    state, active = planes, np.arange(planes.shape[1])
    while True:
        yield planes
        work = buffer[: (r + 4) * state.size].reshape(r + 4, *state.shape)
        # at[c]: cells with at least c+1 infected neighbours among the columns
        # seen so far (a bit-sliced saturating counter)
        at, p, both, grown = work[:r], work[r], work[r + 1], work[r + 2]
        for i, column in enumerate(columns):
            # levels below dead can no longer reach r in the columns left
            levels, dead = min(i, r), r - len(columns) + i
            # self entries read a grid cell's own bit, 0 while healthy; "clip" is unbuffered
            state.take(column, axis=0, out=p if levels else at[0], mode="clip")
            if 0 < levels < r:
                np.bitwise_and(at[levels - 1], p, out=at[levels])
            for c in range(levels - 1, max(dead, 1) - 1, -1):
                np.bitwise_and(at[c - 1], p, out=both)
                at[c] |= both
            if levels and dead <= 0:
                at[0] |= p
        np.bitwise_or(state, at[r - 1], out=grown)
        changed = _nonzero_words(np.bitwise_xor(grown, state, out=both))
        count = int(np.count_nonzero(changed))
        if not count:
            return
        state[...] = grown
        if state is not planes:
            planes[:, active] = grown
        if 2 * count <= len(changed):
            # pack the words still changing into the last slab of work arrays
            # at most half as wide: it starts past the end of grown
            active = active[changed]
            slab = buffer[(r + 3) * len(planes) * count : (r + 4) * len(planes) * count]
            state = np.compress(changed, grown, axis=1, out=slab.reshape(len(planes), count))


def _nonzero_words(rows: np.ndarray) -> np.ndarray:
    """One ``bool`` per word of a (rows, words) ``uint64`` array, which it
    overwrites: whether any row of that word is nonzero.  The rows of
    several words are first folded in halves down to 64: numpy reduces a
    tall array of few words one row at a time, 0.25 ms on 14,400 x 4."""
    while len(rows) > 64 and rows.shape[1] > 1:
        half = len(rows) // 2
        rows[:half] |= rows[len(rows) - half :]
        rows = rows[: len(rows) - half]
    return np.bitwise_or.reduce(rows, axis=0) != 0


def _every(planes: np.ndarray) -> np.ndarray:
    """One word per word of the planes: the bits of candidates whose every
    cell is infected."""
    return np.bitwise_and.reduce(planes, axis=0)


def _bits(words: np.ndarray) -> np.ndarray:
    """One ``bool`` per bit of a ``uint64`` array, lowest bit first."""
    return np.unpackbits(words.view(np.uint8), bitorder="little").astype(bool)


def _times(spec: LatticeSpec, planes: np.ndarray, limit: int | None = None) -> np.ndarray:
    """One ``int32`` per bit of ``planes``: the first round in which every
    cell of that candidate is infected, or -1 when that round is not below
    ``limit``.  The rounds run to the closure for a limit of ``None``, and
    to round ``limit - 1`` at most otherwise; the planes are updated in
    place."""
    times = np.full(64 * planes.shape[1], -1, dtype=np.int32)
    full = np.zeros(planes.shape[1], dtype=np.uint64)
    for t, state in enumerate(islice(_rounds(spec, planes), limit)):
        # a full candidate stays full, so the bits that changed are new
        now = _every(state)
        new = now ^ full
        if new.any():
            times[_bits(new)] = t
            full = now
    return times


def _unit_summary(spec: LatticeSpec, limit: int | None, *bounds: int) -> tuple:
    """The :func:`_times` of the work unit with these bounds, reduced where
    the unit is tested: ``(bounds, candidates, first, least, at)``, with
    ``first`` the colex position of the first entry >= 0, ``least`` the
    least entry >= 0 and ``at`` the first position holding it, each -1
    when no entry is >= 0."""
    unit = _Unit(spec.size, *bounds)
    # the unit's planes, and room for the words that the perimeter bound leaves
    kept = _kept(2, spec.size, len(unit.valid))
    planes = unit.planes(kept[0])
    if bounds[0] == _perimeter_floor(spec):
        times = _unpaired_times(spec, planes, unit.valid, limit, kept[1])
    else:
        times = _times(spec, planes, limit)
    times = times[_bits(unit.valid)]
    percolating = times >= 0
    if not percolating.any():
        return bounds, len(times), -1, -1, -1
    # as unsigned, -1 is the largest entry: argmin is the first least time
    at = int(np.argmin(times.view(np.uint32)))
    return bounds, len(times), int(np.argmax(percolating)), int(times[at]), at


def _perimeter_floor(spec: LatticeSpec) -> int:
    """n^(d-1) on a grid with r >= d, and 0 otherwise: there, no set of
    fewer cells percolates, and no set of exactly n^(d-1) cells that holds
    two neighbouring cells.

    The perimeter argument: a cell infected by at least d of its 2d
    neighbours takes at least d edges out of the perimeter and adds at most
    d, so the perimeter never grows, and the full grid's is 2d n^(d-1).  A
    set of k cells with e edges between them has perimeter 2dk - 2e, so a
    percolating one has e <= d(k - n^(d-1)).
    """
    return spec.n ** (spec.d - 1) if spec.topology == "grid" and spec.r >= spec.d else 0


def _unpaired_times(spec: LatticeSpec, planes: np.ndarray, valid: np.ndarray, limit: int | None,
                    spare: np.ndarray) -> np.ndarray:
    """:func:`_times` of the candidates of ``planes`` (the bits of ``valid``)
    on a grid whose :func:`_perimeter_floor` is their size: -1 for every
    candidate that holds two neighbouring cells, which no round is run for.
    The pairs are one AND of neighbouring slabs of the planes, viewed as
    ``(n,) * d + (words,)``, per axis; the words with a candidate left are
    packed into ``spare``, a (size, words) array as wide as the planes."""
    view, alive, flat = planes.reshape((spec.n,) * spec.d + (-1,)), valid.copy(), spare.reshape(-1)
    for axis in range(spec.d):
        slabs = np.moveaxis(view, axis, 0)
        pairs = np.bitwise_and(slabs[1:], slabs[:-1], out=flat[: slabs[1:].size].reshape(slabs[1:].shape))
        alive &= ~np.bitwise_or.reduce(pairs, axis=tuple(range(spec.d)))
    words = np.flatnonzero(alive)
    times = np.full(64 * len(valid), -1, dtype=np.int32)
    if len(words):
        # unbuffered into spare, unlike mode="raise"
        packed = np.take(planes, words, axis=1, out=flat[: spec.size * len(words)].reshape(spec.size, -1), mode="clip")
        packed &= alive[words]  # a cleared candidate is the empty set, which never percolates
        times.reshape(-1, 64)[words] = _times(spec, packed, limit).reshape(-1, 64)
    return times


# -- counting up to symmetry -------------------------------------------------

# Maps that _canonical_flags applies between two looks at the candidates
# left; with 8, the 7 maps of a square grid never stop for one.
_COMPACT_EVERY = 8


def _symmetries(spec: LatticeSpec) -> Iterator[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The lattice symmetries that searches count up to, identity first, as
    functions ``g(a, out)`` that write the image of ``a`` into ``out`` and
    return it: arrays with a row per cell (bit planes, or the index range),
    viewed as ``(n,) * d + (words,)``.  Grid: the 2^d * d! maps that
    transpose the axes, then flip some of them.  Torus: the n^d
    translations, each a roll copied block by block, with no temporary."""
    d, n = spec.d, spec.n
    shape = (n,) * d + (-1,)
    if spec.topology == "grid":
        for axes in permutations(range(d)):
            for flips in product((slice(None), slice(None, None, -1)), repeat=d):
                yield partial(_copy_blocks, shape, (*axes, d), [(..., flips)])
    else:
        # per shift s, the destination and the source slices of a roll by -s along one axis
        to = [[slice(0, n - s), slice(n - s, n)][: 1 + (s > 0)] for s in range(n)]
        source = [[slice(s, n), slice(0, s)][: 1 + (s > 0)] for s in range(n)]
        for shifts in product(range(n), repeat=d):
            blocks = zip(product(*[to[s] for s in shifts]), product(*[source[s] for s in shifts]))
            yield partial(_copy_blocks, shape, tuple(range(d + 1)), list(blocks))


def _copy_blocks(shape: tuple, order: tuple, blocks: list, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[to] = a[source]`` for each (to, source) block, both viewed as ``shape``, ``a`` transposed to ``order``."""
    a, view = a.reshape(shape).transpose(order), out.reshape(shape)
    for to, source in blocks:
        view[to] = a[source]
    return out


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def symmetry_index_maps(spec: LatticeSpec) -> np.ndarray:
    """The maps of :func:`_symmetries` applied to the index range, stacked:
    a read-only (maps, size) table that sends each index to that of its
    image, row 0 the identity.  The reference that tests check the
    symmetries against; no search reads it (n^(2d) entries on a torus)."""
    cells = np.arange(spec.size, dtype=np.min_scalar_type(spec.size - 1))
    table = np.stack([g(cells, np.empty_like(cells)) for g in _symmetries(spec)])
    table.flags.writeable = False
    return table


def _orbit_counts(spec: LatticeSpec, top: int) -> list[int]:
    """Orbits of the k-subsets of the lattice under :func:`_symmetries`,
    for k = 0..top.

    Burnside's lemma: the mean over the maps g of the k-sets that g fixes,
    which is the x^k coefficient of the product over the cycles c of g of
    (1 + x^|c|).  A fixed k-set is a union of cycles, so only cycles of
    length at most top count, found from the cells that g, g^2, ..., g^top
    fix.  Each map is read from its image of the index range, one map at a
    time, and the sums are exact integers.
    """
    cells, image = np.arange(spec.size), np.empty(spec.size, dtype=np.intp)
    types: Counter = Counter()  # cycles of each length 1..top -> maps with them
    for maps, g in enumerate(_symmetries(spec), 1):
        power = perm = g(cells, image)
        cycles: list[int] = []
        for t in range(1, top + 1):
            # g^t fixes the cells on cycles of every length that divides t
            fixed = int(np.count_nonzero(power == cells))
            cycles.append((fixed - sum(length * c for length, c in enumerate(cycles, 1) if t % length == 0)) // t)
            if t < top:
                power = perm[power]  # g^(t + 1)
        types[tuple(cycles)] += 1
    totals = [0] * (top + 1)
    for cycle_type, count in types.items():
        fixed_sets = [1] + [0] * top  # k-sets fixed by one map of this type
        for length, number in enumerate(cycle_type, 1):
            fixed_sets = [sum(comb(number, j) * fixed_sets[k - j * length] for j in range(k // length + 1))
                          for k in range(top + 1)]
        totals = [total + count * f for total, f in zip(totals, fixed_sets)]
    if any(total % maps for total in totals):
        raise RuntimeError(f"internal check failed: Burnside sums {totals} not divisible by {maps}")
    return [total // maps for total in totals]


def _canonical_flags(spec: LatticeSpec, *bounds: int) -> np.ndarray:
    """One ``uint8`` per candidate of the work unit with these bounds, in
    colex order: 1 when the candidate is canonical, the colex-least set of
    its orbit under :func:`_symmetries`.

    Colex order on k-sets is the order of their bitmasks, so an image is
    smaller when the highest row set in exactly one of the two is set in
    the candidate.  A map applied to the planes gives the image planes
    under its inverse; the maps form a group, so together they give every
    image.  Before every ``_COMPACT_EVERY`` maps, the candidates not yet
    beaten are packed into fewer words when they fill at most half the
    bits, so the work shrinks as they are beaten: on [3]^4 with r = 2 (384
    maps) this took a search from 18 to 3 s.
    """
    unit = _Unit(spec.size, *bounds)
    own, alive = unit.planes(_kept(spec.size, len(unit.valid))), unit.valid.copy()
    where = np.arange(64 * len(alive))  # position in the unit of each bit held
    for done, g in enumerate(islice(_symmetries(spec), 1, None)):  # all but the identity
        if done % _COMPACT_EVERY == 0:
            bits = _bits(alive)
            count = int(np.count_nonzero(bits))
            if not count:
                break
            if 2 * count <= len(bits):
                words = -(-count // 64)
                unpacked = np.zeros((spec.size, 64 * words), dtype=np.uint8)
                unpacked[:, :count] = np.unpackbits(own.view(np.uint8), axis=1, bitorder="little")[:, bits]
                own = np.packbits(unpacked, axis=1, bitorder="little").view(np.uint64)
                where = where[bits[: len(where)]]  # bits past where's end were never set
                alive = np.packbits(np.arange(64 * words) < count, bitorder="little").view(np.uint64)
            # working arrays made once: past 128 KB fresh ones page-fault every map
            work, seen = np.empty_like(own), np.zeros((spec.size + 1, own.shape[1]), dtype=np.uint64)
        g(own, work)
        # seen[i]: bits differing in a row from row i up to the top one, a
        # suffix OR by doubling shifts; seen[size] stays clear
        differ = np.bitwise_xor(work, own, out=seen[:-1])
        shift = 1
        while shift < spec.size:
            differ[:-shift] |= differ[shift:]
            shift *= 2
        # each bit's highest differing row
        np.bitwise_xor(differ, seen[1:], out=work)
        work &= own
        alive &= ~np.bitwise_or.reduce(work, axis=0)
    flags = np.zeros(64 * len(unit.valid), dtype=np.uint8)
    flags[where[_bits(alive)[: len(where)]]] = 1
    return flags[_bits(unit.valid)]


def _canonical_count(spec: LatticeSpec, stop: int | None, *bounds: int) -> int:
    """Canonical candidates among the first ``stop`` (all for ``None``) of
    the work unit with these bounds."""
    return int(_canonical_flags(spec, *bounds)[:stop].sum())


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


def _search_parallelism(spec: LatticeSpec, candidates: int, parallelism: int) -> int:
    """``parallelism``, or 1 for a search too small to pay for a pool."""
    return parallelism if candidates * spec.size >= _POOL_MIN_CELLS else 1


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
    colex order and the first percolating one wins.  Only the leading sizes
    whose candidates fit in the budget together are scanned; when none of
    them percolates and a size was left out, the search raises
    :class:`BudgetExceededError` with the candidates examined.

    ``symmetry=True`` runs the same search, and the witness is the same:
    every image of a percolating set percolates, so the colex-first one is
    the colex-least of its orbit.  It changes only ``instances_examined``
    (and the flag on the result): it counts orbit representatives, the
    candidates that no symmetry maps to a colex-smaller set.  Each scanned
    size below the hit (each scanned size when none percolates) adds its
    number of orbits, by Burnside's lemma; the hit size adds the canonical
    candidates up to the witness.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    max_size = min(max_size, spec.size)
    sizes = _sizes_within_budget(spec.size, range(1, max_size + 1), budget)
    # no set below the perimeter floor percolates: those sizes are counted, not run
    floor = _perimeter_floor(spec)
    tested = [k for k in sizes if k >= floor]
    parallelism = _search_parallelism(spec, sum(comb(spec.size, k) for k in tested), parallelism)
    calls = ((spec, None, *unit) for k in tested for unit in _units(spec.size, k))
    results = ordered_results(_unit_summary, calls, parallelism)
    examined, hit = sum(comb(spec.size, k) for k in sizes if k < floor), None
    with closing(results):
        for bounds, candidates, first, _, _ in results:
            if first >= 0:
                examined += first + 1
                hit = _Unit(spec.size, *bounds).cells(first)
                break
            examined += candidates
    below = len(sizes) if hit is None else len(hit) - 1  # sizes scanned in full
    if symmetry:
        examined = sum(_orbit_counts(spec, below)[1:])
        if hit is not None:
            # the hit size: the units before the hit's, then its own up to the witness
            units = takewhile(lambda unit: unit != bounds, _units(spec.size, len(hit)))
            calls = chain(((spec, None, *unit) for unit in units), [(spec, first + 1, *bounds)])
            examined += sum(ordered_results(_canonical_count, calls, parallelism))
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
    none = f"no percolating set of size {size} in [{spec.n}]^{spec.d} ({spec.topology}, r={spec.r})"
    if size < _perimeter_floor(spec):
        raise NoPercolatingSetError(none)
    floor_time = 0 if size == spec.size else 1
    best: int | None = None
    best_witness: tuple[int, ...] | None = None
    examined = 0
    # the generator reads ``best`` as each call is submitted, so the limit
    # tightens with the results consumed so far
    calls = ((spec, best, *unit) for unit in _units(spec.size, size))
    results = ordered_results(_unit_summary, calls, _search_parallelism(spec, comb(spec.size, size), parallelism))
    with closing(results):
        for bounds, candidates, _, least, at in results:
            if least >= 0 and (best is None or least < best):
                best, best_witness = least, _Unit(spec.size, *bounds).cells(at)
                if best == floor_time:
                    examined += at + 1
                    break
            examined += candidates
    if best is None:
        raise NoPercolatingSetError(none)
    witness = CellSet.from_indices(spec.d, spec.n, best_witness)
    _revalidate_percolation(spec, witness, expect_time=best)
    return SearchResult("min_time", best, witness, examined, True)


def is_minimal(spec: LatticeSpec, cells: CellSet) -> bool:
    """True iff the set percolates and no single-cell removal still percolates.

    Because infection is monotone, surviving every single removal is
    equivalent to no proper subset percolating at all.  A percolating set
    of :func:`_perimeter_floor` cells is minimal with no removal tested.
    Non-percolating input is a domain error.
    """
    _check_compatible(spec, cells)
    members = _index_array(cells)
    if _times(spec, _seed_planes(spec.size, members[None, :]))[0] < 0:
        raise ValueError("set does not percolate; minimality is undefined")
    m = len(members)
    if m == _perimeter_floor(spec):
        return True  # every removal falls below the floor
    removals = np.broadcast_to(members, (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    # the padding bits are empty sets, which never percolate
    return not (_times(spec, _seed_planes(spec.size, removals)) >= 0).any()
