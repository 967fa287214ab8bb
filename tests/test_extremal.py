import itertools
import math
import multiprocessing
import pickle
import random
import re
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bootperc import colex, extremal
from bootperc.colex import (
    _colex_chunk,
    _low_size,
    _low_table,
    _seed_planes,
    _Unit,
    _units,
)
from bootperc.constructions import diagonal, hyperplane_union
from bootperc.dynamics import CellSet, closure, ordered_results, perimeter, run
from bootperc.extremal import (
    BudgetExceededError,
    NoPercolatingSetError,
    SearchResult,
    _every,
    _rounds,
    is_minimal,
    min_percolating_size,
    min_percolation_time,
    symmetry_index_maps,
)
from bootperc.lattice import LatticeSpec, neighbor_table


# -- enumeration ---------------------------------------------------------------


def _colex(n, k):
    """Reference colex order: the k-subsets of range(n) as ascending tuples,
    compared largest element first."""
    return sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])


def _chunk(n, k):
    """Every row of ``_colex_chunk(n, k)`` as a tuple."""
    return [tuple(row) for row in _colex_chunk(n, k, 0, comb(n, k)).tolist()]


def test_colex_order_prefix():
    assert _chunk(4, 2) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_colex_counts_and_strict_order():
    def rank_key(t):
        return tuple(reversed(t))  # colex = lex on reversed descending tuples

    for n, k in [(6, 3), (7, 1), (5, 5), (5, 0)]:
        seq = _chunk(n, k)
        assert len(seq) == comb(n, k)
        assert len(set(seq)) == len(seq)
        assert all(rank_key(a) < rank_key(b) for a, b in zip(seq, seq[1:]))
        assert seq == _colex(n, k)


def test_colex_degenerate():
    assert _chunk(3, 0) == [()]
    assert _chunk(3, 4) == []


def _indices(u):
    """(count, k) index array of a work unit's candidates, block by block:
    the j-sets of colex ranks lo:hi below each top part."""
    return np.vstack([
        np.hstack([_colex_chunk(u.size, u.j, lo, hi), np.broadcast_to(top, (hi - lo, len(top)))])
        for top, lo, hi in zip(u.tops, u.lo.tolist(), u.hi.tolist())
    ])


def _unit_rows(size, unit):
    """A work unit's candidates read off its seed planes (the valid bits'
    columns) as a (count, k) index array; checks that they equal the unit's
    index rows, that the padding bits are clear, that every bit of the
    ``out`` array is written, and that the first and the last candidate of
    each block, unranked alone by ``_Unit.cells``, equal their rows."""
    k = unit[0]
    u = _Unit(size, *unit)
    assert len(u.valid) <= max(1, min(colex._CHUNK_WORDS, colex._CHUNK_CELLS // (64 * max(size, 1))))
    planes = u.planes(np.zeros((size, len(u.valid)), dtype=np.uint64))
    assert not (planes & ~u.valid).any()
    out = np.full_like(planes, ~np.uint64(0))
    assert u.planes(out) is out and np.array_equal(out, planes)
    valid = np.unpackbits(u.valid.view(np.uint8), bitorder="little").astype(bool)
    cells = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little")[:, valid]
    assert (cells.sum(axis=0) == k).all()
    rows = np.nonzero(cells.T)[1].reshape(int(valid.sum()), k)
    assert rows.tolist() == _indices(u).tolist()
    ends = np.cumsum(u.hi - u.lo)
    for p in {*(ends - (u.hi - u.lo)).tolist(), *(ends - 1).tolist()}:
        assert u.cells(p) == tuple(rows[p].tolist()), (size, unit, p)
    return rows


def _rows(size, k):
    return [_unit_rows(size, unit) for unit in _units(size, k)]


@pytest.mark.parametrize("words", [1, 5, 17, 64])
def test_colex_chunks_concatenate_to_colex_order(monkeypatch, words):
    # small caps give blocks on small lattices: under 2**12 cells x
    # candidates (12, 5) has j = 3 (while (12, 2) and (12, 3) have j = k),
    # under 2**10 (9, 4) has j = 2, and under 2**9 every k >= 1 from size 8
    # on has j = 1, whose identity table is never stored
    monkeypatch.setattr(colex, "_CHUNK_WORDS", words)
    for cells in (2**9, 2**10, 2**12, colex._CHUNK_CELLS):
        monkeypatch.setattr(colex, "_CHUNK_CELLS", cells)
        for size, k in [(12, 0), (12, 2), (12, 3), (12, 5), (12, 12), (6, 3), (9, 4), (10, 1), (7, 7)]:
            parts = _rows(size, k)
            assert all(len(part) for part in parts)
            assert np.vstack(parts).tolist() == [list(c) for c in _colex(size, k)]
        assert list(_units(3, 4)) == []
    # one-word units start mid-block, so _unit_rows unranked cut blocks too
    assert words > 1 or any(first for _, _, first, _, _ in _units(12, 5))


def test_low_size_and_table_bounds():
    # j < k, j = k (the whole table fits), and j = 1 past 2048 cells, where
    # even T_1 would not fit but needs no table
    assert [_low_size(27, k) for k in (0, 3, 5, 9, 25)] == [0, 3, 5, 5, 25]
    assert (_low_size(36, 6), _low_size(1300, 2), _low_size(1200, 1199)) == (4, 1, 1199)
    assert (_low_size(2049, 2), _low_size(40000, 1), _low_size(40000, 0)) == (1, 1, 0)
    assert _low_table.cache_info().maxsize is not None
    for size, j in [(27, 5), (36, 4), (1300, 1)]:
        planes, rows = _low_table(size, j), np.array(_colex(size, j))
        assert planes.shape == (size, -(-comb(size, j) // 64))
        assert 64 * planes.size <= colex._CHUNK_CELLS
        assert _colex_chunk(size, j, 0, len(rows)).tolist() == rows.tolist()
        bits = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little")
        assert np.nonzero(bits.T)[1].reshape(rows.shape).tolist() == rows.tolist()


def _scattered_planes(size, rows):
    """Reference for ``_seed_planes``: a bool grid set one cell of one
    candidate at a time, packed into words."""
    grid = np.zeros((size, 64 * -(-len(rows) // 64)), dtype=bool)
    for m, row in enumerate(rows.tolist()):
        grid[row, m] = True
    return np.packbits(grid, axis=1, bitorder="little").view("<u8")


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 4097])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_seed_planes_match_a_bool_scatter(count, dtype):
    # rows of any cells of the lattice: column 3 repeats column 2 in every
    # other row, column 4 is cell 7 in every candidate of every word, and
    # row 0 names the last cell, ``size - 1``
    size, rng = 90, np.random.default_rng(count)
    rows = rng.integers(0, size, size=(count, 5)).astype(dtype)
    rows[::2, 3] = rows[::2, 2]
    rows[:, 4] = 7
    rows[:1, 0] = size - 1
    for width in (5, 1, 0):
        planes = _seed_planes(size, rows[:, :width])
        assert planes.dtype == np.uint64 and planes.shape == (size, -(-count // 64))
        assert np.array_equal(planes, _scattered_planes(size, rows[:, :width]))


def test_colex_chunks_on_large_lattices(monkeypatch):
    # past 128 cells a unit spans fewer words than _CHUNK_WORDS; the order
    # stays exact
    units = list(_units(1300, 2))
    parts = [_Unit(1300, *unit) for unit in units]
    assert max(len(part.valid) for part in parts) == colex._CHUNK_CELLS // (64 * 1300) < colex._CHUNK_WORDS
    rows = np.vstack([_indices(part) for part in parts])
    assert rows.tolist() == [list(c) for c in _colex(1300, 2)]
    # the planes of the first and the last unit hold the same rows
    first, last = _unit_rows(1300, units[0]), _unit_rows(1300, units[-1])
    assert first.tolist() == rows[: len(first)].tolist()
    assert last.tolist() == rows[-len(last) :].tolist()
    # no depth of recursion grows with k: the (size - 1)-subsets over many
    # units, where row i leaves out cell size - 1 - i
    monkeypatch.setattr(colex, "_CHUNK_WORDS", 1)
    size = 1200
    rows = np.vstack(_rows(size, size - 1))
    assert len(list(_units(size, size - 1))) == 19
    assert (np.diff(rows.astype(np.int64), axis=1) > 0).all()
    missing = size * (size - 1) // 2 - rows.sum(axis=1, dtype=np.int64)
    assert missing.tolist() == list(range(size - 1, -1, -1))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_colex_chunk_is_any_slice_of_colex_order(data):
    size = data.draw(st.integers(min_value=0, max_value=16))
    k = data.draw(st.integers(min_value=0, max_value=size))
    # a cap 0 to 3 words per cell below T_k's: at 0 the whole T_k fits
    # (j = k, as under the shipped cap) and units are slices of its one
    # block; below it, when T_k has more than one word per cell it
    # overflows the cap, so units are colex blocks below top parts (j < k),
    # and from 3 words on a unit of 2 or more words spans several blocks
    below = data.draw(st.integers(min_value=0, max_value=3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colex, "_CHUNK_CELLS", 64 * max(size, 1) * max(1, -(-comb(size, k) // 64) - below))
        patch.setattr(colex, "_CHUNK_WORDS", data.draw(st.integers(min_value=1, max_value=4)))
        # every unit is read (and its blocks unranked by _Unit.cells), the slice compared
        units = [_unit_rows(size, unit) for unit in _units(size, k)]
    a = data.draw(st.integers(min_value=0, max_value=len(units)))
    b = data.draw(st.integers(min_value=a, max_value=len(units)))
    start = sum(map(len, units[:a]))
    rows = [tuple(row) for unit in units[a:b] for row in unit.tolist()]
    assert rows == _colex(size, k)[start : start + len(rows)]
    assert b < len(units) or start + len(rows) == comb(size, k)


def test_min_size_on_a_lattice_of_40000_cells():
    res = min_percolating_size(LatticeSpec(2, 200, r=1), 1)
    assert (res.optimum, res.instances_examined, res.witness.cells()) == (1, 1, [(1, 1)])


# -- batch kernel vs engine (dual route) ----------------------------------------


def _batch_closures_and_times(spec, chunk):
    """Per candidate: the closure bitmask, and the first round with every
    cell infected (None if never), both read off the batch kernel."""
    times = [None] * len(chunk)
    for t, planes in enumerate(_rounds(spec, _seed_planes(spec.size, chunk))):
        cells = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little")
        for c in np.flatnonzero(cells[:, : len(chunk)].all(axis=0)):
            if times[c] is None:
                times[c] = t
    closures = [
        CellSet.from_indices(spec.d, spec.n, np.flatnonzero(cells[:, c]).tolist()).bits
        for c in range(len(chunk))
    ]
    return closures, times


def _random_chunk(rng, size, k, count):
    rows = [sorted(rng.sample(range(size), k)) for _ in range(count)]
    return np.array(rows, dtype=np.intp).reshape(count, k)


def _assert_kernel_matches_engine(spec, chunk):
    # the planes read round by round, and extremal._times, against run:
    # the time where the set percolates, -1 where it does not, and -1 for
    # every time that is not below a limit
    closures, times = _batch_closures_and_times(spec, chunk)
    expected = []
    for row, bits, t in zip(chunk.tolist(), closures, times):
        record = run(spec, CellSet.from_indices(spec.d, spec.n, row))
        assert bits == record.closure().bits, (spec, row)
        assert t == (record.T if record.percolates else None), (spec, row)
        expected.append(record.T if record.percolates else -1)
    planes = _seed_planes(spec.size, chunk)
    assert extremal._times(spec, planes.copy())[: len(chunk)].tolist() == expected, spec
    limit = max(0, *expected)  # drops the slowest sets; 0 drops every one
    limited = extremal._times(spec, planes, limit)[: len(chunk)].tolist()
    assert limited == [t if t < limit else -1 for t in expected], spec


def test_bitmask_closure_matches_engine():
    rng = random.Random(42)
    for spec in (LatticeSpec(2, 4), LatticeSpec(3, 2), LatticeSpec(2, 4, "torus"), LatticeSpec(2, 5, r=3)):
        for _ in range(30):
            k = rng.randint(0, spec.size)
            seed = CellSet.from_indices(spec.d, spec.n, rng.sample(range(spec.size), k))
            chunk = np.fromiter(seed.indices(), dtype=np.intp).reshape(1, k)
            closures, _ = _batch_closures_and_times(spec, chunk)
            assert closures == [closure(spec, seed).bits]


@pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3)])
@pytest.mark.parametrize("topology", ["grid", "torus"])
def test_batch_kernel_matches_engine_for_every_threshold(d, n, topology):
    # chunk lengths straddle the 64-candidate word: 1, 63, 65 and 100
    rng = random.Random(d * 100 + n)
    for r in range(1, 2 * d + 1):
        spec = LatticeSpec(d, n, topology, r)
        for count in (1, 63, 65, 100):
            k = rng.randint(0, spec.size)
            _assert_kernel_matches_engine(spec, _random_chunk(rng, spec.size, k, count))


@pytest.mark.parametrize(
    "spec", [LatticeSpec(2, 9), LatticeSpec(3, 5, "torus"), LatticeSpec(4, 3), LatticeSpec(4, 3, r=2)]
)
def test_batch_kernel_matches_engine_over_64_cells(spec):
    rng = random.Random(spec.size)
    for k in (1, 3, spec.n ** (spec.d - 1), spec.size // 2):
        _assert_kernel_matches_engine(spec, _random_chunk(rng, spec.size, k, 70))


def _closure_planes(spec, chunk):
    for planes in _rounds(spec, _seed_planes(spec.size, chunk)):
        pass
    return planes


@pytest.mark.parametrize("topology", ["grid", "torus"])
def test_kernel_past_128_kb_matches_small_batches(topology):
    # the kernel keeps its working arrays from call to call (extremal._kept):
    # consecutive calls alternate r and plane widths on either side of
    # 128 KB, the working arrays are filled with ones before each whole
    # chunk, and every chunk must close exactly as its candidates 512 at a
    # time
    rng = random.Random(9)
    cases = [
        (LatticeSpec(2, 9, topology, r), _random_chunk(rng, 81, rng.randint(5, 30), count))
        for r in (1, 4, 2, 3)
        for count in (64 * 256, 64 * 8 + 3)
    ]
    assert _seed_planes(81, cases[0][1]).nbytes > 2**17 > _seed_planes(81, cases[1][1]).nbytes
    for spec, chunk in cases:
        parts = [_closure_planes(spec, chunk[i : i + 512]) for i in range(0, len(chunk), 512)]
        extremal._kept(spec.r + 4, spec.size, -(-len(chunk) // 64)).fill(~np.uint64(0))
        assert np.array_equal(_closure_planes(spec, chunk), np.hstack(parts))


def _settling_unit(rng, spec, words):
    """Seeds of ``64 * words`` random candidates, as a (size, candidates)
    bool array, and their runs.  The candidates are sorted by their last
    round, so that each word holds candidates that settle together, and
    the words are shuffled: the words of the unit settle in many rounds,
    in no order."""
    seeds = rng.random((64 * words, spec.size)) < rng.random((64 * words, 1))
    records = [run(spec, CellSet._from_mask(spec.d, spec.n, seed)) for seed in seeds]
    order = np.argsort([record.T for record in records], kind="stable").reshape(words, 64)
    order = order[rng.permutation(words)].ravel()
    return np.ascontiguousarray(seeds[order].T), [records[c] for c in order]


def test_nonzero_words_match_any_over_rows():
    # one nonzero entry at a time, in the first, the middle and the last
    # row, and in each word; the rows of several words are folded in halves
    for rows, words in itertools.product([1, 2, 63, 64, 65, 129, 14400], [1, 2, 5]):
        for row, word in itertools.product({0, rows // 2, rows - 1}, range(words)):
            a = np.zeros((rows, words), dtype=np.uint64)
            a[row, word] = np.uint64(1) << np.uint64(63 * (row % 2))
            expected = a.any(axis=0)
            assert extremal._nonzero_words(a).tolist() == expected.tolist(), (rows, words, row, word)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 3)])
@pytest.mark.parametrize("topology", ["grid", "torus"])
def test_rounds_on_settling_words_match_the_engine(d, n, topology):
    # units of 40 words whose words settle in different rounds, so the
    # rounds narrow to the words still changing several times: every
    # state that _rounds yields, and _times with and without a limit,
    # against one run per candidate
    rng = np.random.default_rng(10 * d + n)
    for r in range(1, 2 * d + 1):
        spec = LatticeSpec(d, n, topology, r)
        seeds, records = _settling_unit(rng, spec, 40)
        infected = np.stack([record.times_array for record in records], axis=1)
        last = np.array([record.T for record in records])
        assert len(set(last.reshape(40, 64).max(axis=1).tolist())) >= min(3, len(set(last.tolist()))), spec
        planes = np.packbits(seeds, axis=1, bitorder="little").view(np.uint64)
        for t, state in enumerate(_rounds(spec, planes.copy())):
            cells = np.unpackbits(state.view(np.uint8), axis=1, bitorder="little").astype(bool)
            assert np.array_equal(cells, (infected >= 0) & (infected <= t)), (spec, t)
        assert t == last.max(), spec
        times = np.array([record.T if record.percolates else -1 for record in records])
        for limit in (None, 0, 1, int(np.median(last)), int(last.max())):
            expected = times if limit is None else np.where(times < limit, times, -1)
            assert np.array_equal(extremal._times(spec, planes.copy(), limit), expected), (spec, limit)


def _percolating_count(spec, k):
    """The k-sets of the lattice and those that percolate, read off the
    units' closures with no valid-bit mask; checks that the padding bits,
    empty sets, stay clear after every round."""
    total = found = 0
    for unit in _units(spec.size, k):
        u = _Unit(spec.size, *unit)
        for planes in _rounds(spec, u.planes(np.empty((spec.size, len(u.valid)), dtype=np.uint64))):
            assert not (planes & ~u.valid).any()
        total += int(np.unpackbits(u.valid.view(np.uint8)).sum())
        found += int(np.unpackbits(_every(planes).view(np.uint8)).sum())
    return total, found


def test_percolating_nine_subsets_of_the_cube():
    # pinned regression value: exactly 116 of the C(27, 9) nine-subsets of
    # [3]^3 percolate under the 3-neighbour rule
    assert _percolating_count(LatticeSpec(3, 3), 9) == (comb(27, 9), 116)
    # every nonempty set percolates with r = 1, no six-set with r = 2d
    for topology in ("grid", "torus"):
        assert _percolating_count(LatticeSpec(3, 3, topology, 1), 6) == (comb(27, 6), comb(27, 6))
        assert _percolating_count(LatticeSpec(3, 3, topology, 6), 6) == (comb(27, 6), 0)


def _reduced_times(spec, unit, limit):
    """``extremal._unit_summary`` recomputed in Python from the
    ``extremal._times`` of the unit's planes, one entry per valid bit."""
    u = _Unit(spec.size, *unit)
    times = extremal._times(spec, u.planes(np.empty((spec.size, len(u.valid)), dtype=np.uint64)), limit)
    valid = np.unpackbits(u.valid.view(np.uint8), bitorder="little").astype(bool)
    times = times[valid].tolist()
    percolating = [p for p, t in enumerate(times) if t >= 0]
    if not percolating:
        return unit, len(times), -1, -1, -1
    least = min(times[p] for p in percolating)
    return unit, len(times), percolating[0], least, times.index(least)


@pytest.mark.parametrize("topology", ["grid", "torus"])
def test_unit_summary_matches_a_reduction_of_times(topology):
    # random units of every size, several r, with and without a limit; the
    # draws include units where nothing percolates and units whose first
    # percolating candidate is not their first least one
    rng = random.Random(14)
    specs = [LatticeSpec(2, 5, topology, r) for r in (1, 2, 3, 4)] + [LatticeSpec(3, 3, topology, r) for r in (2, 3)]
    kinds = set()
    for spec in specs:
        for k in rng.sample(range(1, spec.size + 1), 4):
            units = list(_units(spec.size, k))
            for unit in rng.sample(units, min(2, len(units))):
                limit = rng.choice([None, None, 0, 1, 3, 6])
                summary = extremal._unit_summary(spec, limit, *unit)
                assert summary == _reduced_times(spec, unit, limit), (spec, unit, limit)
                _, _, first, _, at = summary
                kinds.add("none" if first < 0 else "first is least" if first == at else "later least")
    assert kinds == {"none", "first is least", "later least"}


# -- the perimeter bound ------------------------------------------------------------


def _percolating_sets(spec, k, step=2**16):
    """Every percolating k-set of the lattice, as rows of ascending indices,
    found by the plain ``extremal._times`` over ``_seed_planes``."""
    found = []
    for first in range(0, comb(spec.size, k), step):
        rows = _colex_chunk(spec.size, k, first, min(first + step, comb(spec.size, k)))
        times = extremal._times(spec, _seed_planes(spec.size, rows))[: len(rows)]
        found.append(rows[times >= 0])
    return np.concatenate(found)


@pytest.mark.parametrize(
    "spec,top",
    [
        (LatticeSpec(2, 4), 5), (LatticeSpec(2, 4, r=3), 16), (LatticeSpec(2, 5), 5), (LatticeSpec(2, 5, r=3), 7),
        (LatticeSpec(3, 2), 8), (LatticeSpec(3, 2, r=4), 8), (LatticeSpec(3, 3), 9), (LatticeSpec(3, 3, r=4), 8),
        (LatticeSpec(4, 2), 16),
    ],
    ids=str,
)
def test_percolating_sets_keep_the_perimeter_floor(spec, top):
    # the perimeter argument behind the searches' floor, checked with no
    # search: with r >= d the perimeter never grows and the full grid's is
    # 2d n^(d-1), so every percolating set of up to top cells has at least
    # that perimeter, and none has fewer than n^(d-1) cells
    d, n = spec.d, spec.n
    perimeters = {}
    for k in range(1, top + 1):
        sets = [CellSet.from_indices(d, n, row.tolist()) for row in _percolating_sets(spec, k)]
        perimeters[k] = [perimeter(spec, cells) for cells in sets]
        assert all(p >= 2 * d * n ** (d - 1) for p in perimeters[k]), (spec, k)
    assert not any(perimeters[k] for k in range(1, n ** (d - 1)))
    if spec == LatticeSpec(3, 3):
        # the 116 percolating nine-sets hold no two neighbouring cells: each
        # member pays for all of its 2d faces
        assert perimeters[9] == [2 * d * 9] * 116


def test_perimeter_floor_only_on_grids_with_r_at_least_d():
    grids = [(1, 7, 1), (1, 7, 2), (2, 5, 2), (2, 5, 4), (3, 3, 3), (3, 3, 6)]
    assert [extremal._perimeter_floor(LatticeSpec(d, n, r=r)) for d, n, r in grids] == [1, 1, 5, 5, 9, 9]
    assert extremal._perimeter_floor(LatticeSpec(2, 5, r=1)) == extremal._perimeter_floor(LatticeSpec(3, 3, r=2)) == 0
    assert all(extremal._perimeter_floor(LatticeSpec(2, 5, "torus", r)) == 0 for r in range(1, 5))


def _outcome(search):
    """A search's result, or the type, message and count of what it raised."""
    try:
        return search()
    except (BudgetExceededError, NoPercolatingSetError) as error:
        return type(error), str(error), getattr(error, "examined", None)


def _floor_searches(spec):
    """Min-size searches with and without symmetry that hit, find nothing
    or are refused by the budget, and min-time searches at sizes around the
    perimeter floor."""
    floor = spec.n ** (spec.d - 1)
    below = max(1, sum(comb(spec.size, k) for k in range(1, floor)))
    searches = [
        lambda symmetry=symmetry, budget=budget: min_percolating_size(spec, spec.size, symmetry=symmetry, budget=budget)
        for symmetry in (False, True) for budget in (None, below)
    ]
    searches += [lambda: min_percolating_size(spec, floor - 1, symmetry=True),
                 lambda: min_percolating_size(spec, floor)]
    sizes = range(1, min(floor + 2, spec.size) + 1)
    searches += [lambda size=size: min_percolation_time(spec, size) for size in sizes]
    return searches


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, 7, r=r) for r in (1, 2)] + [LatticeSpec(2, 4, r=r) for r in (2, 3, 4)]
    + [LatticeSpec(3, 2, r=r) for r in range(3, 7)] + [LatticeSpec(4, 2, r=r) for r in range(4, 9)]
    + [LatticeSpec(2, 5)],
    ids=str,
)
def test_perimeter_prune_matches_the_unpruned_search(monkeypatch, spec):
    # the floor skips sizes and clears sets with a neighbouring pair at it;
    # with the floor at 0 every candidate runs through the kernel.  Results,
    # witnesses, counts and errors agree
    pruned = [_outcome(search) for search in _floor_searches(spec)]
    monkeypatch.setattr(extremal, "_perimeter_floor", lambda spec: 0)
    assert [_outcome(search) for search in _floor_searches(spec)] == pruned
    if spec == LatticeSpec(2, 4):
        kinds = {type(outcome) if isinstance(outcome, SearchResult) else outcome[0] for outcome in pruned}
        assert kinds == {SearchResult, BudgetExceededError, NoPercolatingSetError}


# -- min_percolating_size --------------------------------------------------------


def test_min_size_squares():
    assert min_percolating_size(LatticeSpec(2, 2), 4).optimum == 2
    assert min_percolating_size(LatticeSpec(2, 3), 9).optimum == 3
    assert min_percolating_size(LatticeSpec(2, 4), 16).optimum == 4


def test_min_size_cube():
    res = min_percolating_size(LatticeSpec(3, 2), 8)
    assert res.optimum == 4
    assert res.exhaustive and not res.symmetry_pruned
    assert run(LatticeSpec(3, 2), res.witness).percolates


def test_min_size_torus():
    assert min_percolating_size(LatticeSpec(2, 3, "torus"), 9).optimum == 2


def test_min_size_none_below_extremal_size():
    # refutation side: nothing smaller than n^(d-1) percolates
    res = min_percolating_size(LatticeSpec(2, 3), 2)
    assert res.optimum is None and res.witness is None
    assert res.instances_examined == 9 + 36
    res = min_percolating_size(LatticeSpec(3, 2), 3)
    assert res.optimum is None


def test_min_size_witness_is_colex_first():
    res = min_percolating_size(LatticeSpec(2, 2), 4)
    # pairs over indices 0..3 arrive as (0,1), (0,2), (1,2), ...; the first
    # two are adjacent pairs that stall, so the anti-diagonal (1,2) wins
    assert res.witness.cells() == [(1, 2), (2, 1)]


def test_min_size_budget_refusal():
    # sizes are charged one at a time: the 25 + 300 sets of sizes 1 and 2
    # fit in the budget and none percolates; size 3 would take it to 2625
    with pytest.raises(BudgetExceededError) as info:
        min_percolating_size(LatticeSpec(2, 5), 12, budget=1000)
    assert info.value.examined == 325
    # not even the 25 one-cell sets fit: refused before any work
    with pytest.raises(BudgetExceededError) as info:
        min_percolating_size(LatticeSpec(2, 5), 12, budget=10)
    assert info.value.examined == 0


def test_min_size_symmetry_cross_check():
    # every image of a percolating set percolates, so the colex-first
    # percolating set is the colex minimum of its orbit: canonical, and found
    # by both searches
    cases = [(LatticeSpec(2, 2), 4), (LatticeSpec(3, 2), 8), (LatticeSpec(2, 3, "torus"), 9),
             (LatticeSpec(2, 4), 16), (LatticeSpec(2, 6), 6)]
    for spec, max_size in cases:
        plain = min_percolating_size(spec, max_size)
        pruned = min_percolating_size(spec, max_size, symmetry=True)
        assert pruned.optimum == plain.optimum
        assert pruned.witness == plain.witness
        assert pruned.symmetry_pruned and not plain.symmetry_pruned
        assert pruned.instances_examined <= plain.instances_examined
        assert run(spec, pruned.witness).percolates


def _orbit_representatives(spec, max_size):
    """Oracle for ``instances_examined`` with ``symmetry=True``: walks the
    k-sets in colex order, size by size, keeps those that no map sends to a
    colex-smaller set (equal-size sets compare in colex order as their
    cells, sorted descending, compare as lists), and counts them up to and
    including the first that percolates.  Returns the count and that set."""
    maps = symmetry_index_maps(spec).tolist()
    count = 0
    for k in range(1, max_size + 1):
        for cells in _colex(spec.size, k):
            key = sorted(cells, reverse=True)
            if any(sorted((g[c] for c in cells), reverse=True) < key for g in maps):
                continue
            count += 1
            if run(spec, CellSet.from_indices(spec.d, spec.n, cells)).percolates:
                return count, cells
    return count, None


@pytest.mark.parametrize(
    "spec,max_size",
    [
        (LatticeSpec(2, 4), 16),
        (LatticeSpec(3, 2), 8),
        (LatticeSpec(2, 4, "torus"), 16),
        (LatticeSpec(2, 5, "torus"), 25),
        (LatticeSpec(3, 3, r=2), 9),
        (LatticeSpec(2, 4, r=1), 4),  # a hit at size 1: no size below it
        (LatticeSpec(2, 4), 3),  # no hit: every scanned size adds its orbits
        (LatticeSpec(3, 3, "torus"), 1),
    ],
)
def test_symmetric_count_matches_orbit_oracle(spec, max_size):
    res = min_percolating_size(spec, max_size, symmetry=True)
    examined, hit = _orbit_representatives(spec, max_size)
    assert res.instances_examined == examined
    assert (res.witness is None) == (hit is None)
    if hit is not None:
        assert sorted(res.witness.indices()) == list(hit)


def test_symmetric_budget_refusal_counts_orbits():
    # sizes 1 and 2 of [5]^2 fit in the budget and none percolates: 6 orbits
    # of cells and 49 of pairs
    with pytest.raises(BudgetExceededError) as info:
        min_percolating_size(LatticeSpec(2, 5), 12, budget=1000, symmetry=True)
    assert info.value.examined == _orbit_representatives(LatticeSpec(2, 5), 2)[0] == 6 + 49


@pytest.mark.parametrize("spec,max_size,examined", [(LatticeSpec(2, 6), 6, 254391), (LatticeSpec(3, 3), 9, 176083)])
def test_symmetric_count_pinned(spec, max_size, examined):
    # the canonical candidates tested up to the witness by the search that
    # filtered every candidate before the kernel
    res = min_percolating_size(spec, max_size, symmetry=True)
    assert res.instances_examined == examined
    assert res.witness == min_percolating_size(spec, max_size).witness


def _orbit_minima(spec):
    """Every subset of the lattice as a bitmask: the least bitmask of its
    orbit, found by applying every map, and its number of cells."""
    masks = np.arange(2**spec.size, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(spec.size)) & 1
    least = np.min([(bits << g.astype(np.int64)).sum(axis=1) for g in symmetry_index_maps(spec)], axis=0)
    return least, bits.sum(axis=1)


# translations of odd and even n have several cycle types
_SMALL_GROUPS = [LatticeSpec(3, 2), LatticeSpec(2, 3), LatticeSpec(2, 4), LatticeSpec(2, 3, "torus"),
                 LatticeSpec(2, 4, "torus")]


@pytest.mark.parametrize("spec", _SMALL_GROUPS)
def test_burnside_orbit_counts_match_brute_force(spec):
    least, sizes = _orbit_minima(spec)
    counts = extremal._orbit_counts(spec, spec.size)
    assert counts == np.bincount(sizes[least == np.arange(len(least))], minlength=spec.size + 1).tolist()
    assert sum(counts) == len(np.unique(least))
    # truncated at a smaller size, the leading counts stay
    assert extremal._orbit_counts(spec, 2) == counts[:3]


@pytest.mark.parametrize("spec", _SMALL_GROUPS)
def test_canonical_flags_match_brute_force(monkeypatch, spec):
    # k-sets in colex order are their bitmasks in increasing order, so the
    # canonical flags of all of size k, unit after unit, are the brute-force
    # orbit minima among the bitmasks with k bits
    monkeypatch.setattr(colex, "_CHUNK_WORDS", 1)
    least, sizes = _orbit_minima(spec)
    canonical = least == np.arange(len(least))
    for k in range(spec.size + 1):
        flags = [extremal._canonical_flags(spec, *unit) for unit in _units(spec.size, k)]
        assert np.concatenate(flags).tolist() == canonical[sizes == k].tolist()


def _torus_orbit_counts(d, n, top):
    """Orbits of the k-sets of the [n]^d torus under translation, k = 0..top,
    by Burnside's lemma without any map: every cycle of the translation by s
    has length L(s) = lcm_i n / gcd(s_i, n), so s fixes C(n^d / L, k / L)
    k-sets when L divides k and none otherwise."""
    totals = [0] * (top + 1)
    for shifts in itertools.product(range(n), repeat=d):
        length = math.lcm(*(n // math.gcd(s, n) for s in shifts))
        for k in range(0, top + 1, length):
            totals[k] += comb(n**d // length, k // length)
    assert all(total % n**d == 0 for total in totals)
    return [total // n**d for total in totals]


@pytest.mark.parametrize("d,n,top", [(2, 5, 8), (2, 6, 8), (2, 8, 8), (3, 4, 8), (3, 6, 6), (1, 12, 12)])
def test_torus_orbit_counts_match_closed_form(d, n, top):
    assert extremal._orbit_counts(LatticeSpec(d, n, "torus"), top) == _torus_orbit_counts(d, n, top)


def test_torus_orbit_closed_form_pinned():
    assert _torus_orbit_counts(2, 5, 4) == [1, 1, 12, 92, 506]


def _canonical_reference(spec, k):
    """Per k-set in colex order: True when no row of the index table sends
    it to a set of smaller colex rank (sum_i comb(c_i, i + 1) over its
    cells in ascending order)."""
    sets = np.array(_colex(spec.size, k), dtype=np.int64)
    binomials = np.array([[comb(c, i + 1) for i in range(k)] for c in range(spec.size)], dtype=np.int64)

    def ranks(cells):
        return binomials[np.sort(cells, axis=1), np.arange(k)].sum(axis=1)

    own = ranks(sets)
    assert own.tolist() == list(range(len(sets)))
    least = own.copy()
    for g in symmetry_index_maps(spec):
        np.minimum(least, ranks(g.astype(np.int64)[sets]), out=least)
    return least == own


@pytest.mark.parametrize("spec,k", [(LatticeSpec(3, 3), 3), (LatticeSpec(2, 5, "torus"), 3),
                                    (LatticeSpec(4, 3, r=2), 2)])
def test_canonical_flags_match_index_table(monkeypatch, spec, k):
    # lattices too large for the bitmask brute force; [3]^4 has 384 maps, so
    # the survivors of each one-word unit are packed between maps
    monkeypatch.setattr(colex, "_CHUNK_WORDS", 1)
    flags = [extremal._canonical_flags(spec, *unit) for unit in _units(spec.size, k)]
    assert np.concatenate(flags).astype(bool).tolist() == _canonical_reference(spec, k).tolist()


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(1, 5), LatticeSpec(2, 3), LatticeSpec(3, 2), LatticeSpec(4, 2), LatticeSpec(1, 4, "torus"),
     LatticeSpec(2, 5, "torus"), LatticeSpec(3, 3, "torus")],
)
def test_symmetries_move_planes_as_the_table_moves_cells(spec):
    # planes of several words move row by row as the table moves the index range
    planes = np.random.default_rng(spec.size).integers(0, 2**63, size=(spec.size, 3), dtype=np.uint64)
    image = np.empty_like(planes)
    maps = list(extremal._symmetries(spec))
    assert len(maps) == len(symmetry_index_maps(spec))
    for g, row in zip(maps, symmetry_index_maps(spec)):
        assert g(planes, image) is image
        assert np.array_equal(image, planes[row])


@pytest.mark.parametrize("spec", [LatticeSpec(2, 60, "torus"), LatticeSpec(3, 16, "torus")])
def test_symmetric_torus_search_holds_no_map_table(spec):
    # an index table of all n^d translations would hold n^(2d) uint16
    # entries: 26 MB on the 60^2 torus and 34 MB on the 16^3 torus
    tracemalloc.start()
    try:
        res = min_percolating_size(spec, 1, symmetry=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.optimum is None and res.instances_examined == 1  # one orbit of cells
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "spec,max_size,examined,witness",
    [
        (LatticeSpec(2, 4), 16, 1200, [(1, 2), (1, 4), (2, 1), (4, 1)]),
        (LatticeSpec(3, 3), 9, 4972271,
         [(1, 1, 3), (1, 2, 2), (1, 3, 1), (1, 3, 3), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 3), (3, 3, 1)]),
        (LatticeSpec(2, 5, "torus"), 25, 4005, [(1, 2), (1, 4), (2, 1), (4, 1)]),
        (LatticeSpec(3, 3, r=2), 9, 6385, [(1, 1, 1), (1, 1, 3), (1, 3, 1), (3, 1, 1)]),
        # above the floor of 4 a percolating set may hold neighbouring cells
        (LatticeSpec(2, 4, r=3), 16, 54983,
         [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 4), (3, 3), (4, 1), (4, 2), (4, 4)]),
    ],
)
def test_min_size_examines_every_smaller_set_and_the_witness_colex_rank(spec, max_size, examined, witness):
    # candidates counted are the valid ones only: every set of each smaller
    # size, then the witness's colex rank plus one; padding would add to it
    res = min_percolating_size(spec, max_size)
    rank = sum(comb(c, i + 1) for i, c in enumerate(sorted(res.witness.indices())))
    smaller = sum(comb(spec.size, k) for k in range(1, res.optimum))
    assert res.instances_examined == smaller + rank + 1 == examined
    assert res.witness.cells() == witness


def test_symmetry_maps_group_sizes():
    import math

    grid = LatticeSpec(2, 3)
    assert len(symmetry_index_maps(grid)) == 2**2 * math.factorial(2)
    torus = LatticeSpec(2, 3, "torus")
    assert len(symmetry_index_maps(torus)) == 9
    # every map is a permutation of the index range
    for table in symmetry_index_maps(grid):
        assert sorted(table) == list(range(9))


def test_min_size_parallel_matches_serial():
    spec = LatticeSpec(2, 3)
    serial = min_percolating_size(spec, 9)
    parallel = min_percolating_size(spec, 9, parallelism=2)
    assert serial == parallel


def test_two_neighbour_minimum_closed_form():
    # Balogh-Bollobas (PTRF 2006): the smallest 2-neighbour percolating set
    # of [n]^d has ceil(d(n-1)/2) + 1 cells
    for d, n in [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]:
        expected = -(-d * (n - 1) // 2) + 1
        assert min_percolating_size(LatticeSpec(d, n, r=2), expected).optimum == expected, (d, n)


def test_three_neighbour_hypercube_minimum_closed_form():
    # Morrison-Noel (JCTA 2018): the smallest 3-neighbour percolating set of
    # the hypercube Q_d = [2]^d has ceil(d(d+3)/6) + 1 cells, for d >= 3
    for d, expected in [(3, 4), (4, 6), (5, 8)]:
        assert -(-d * (d + 3) // 6) + 1 == expected
        assert min_percolating_size(LatticeSpec(d, 2, r=3), expected).optimum == expected, d


def test_one_neighbour_minimum_is_one():
    for spec in (LatticeSpec(1, 4, r=1), LatticeSpec(2, 5, r=1), LatticeSpec(3, 3, r=1),
                 LatticeSpec(2, 4, "torus", 1), LatticeSpec(3, 3, "torus", 1)):
        res = min_percolating_size(spec, 1)
        assert res.optimum == 1 and res.instances_examined == 1


@pytest.mark.parametrize(
    "search",
    [
        lambda p: min_percolating_size(LatticeSpec(2, 3), 9, parallelism=p),  # hit at k=3
        lambda p: min_percolating_size(LatticeSpec(2, 4), 3, parallelism=p),  # no hit
        lambda p: min_percolating_size(LatticeSpec(2, 4), 4, symmetry=True, parallelism=p),
        # the canonical candidates of size 3 up to the witness are counted
        # over 7 one-word units
        lambda p: min_percolating_size(LatticeSpec(2, 4, "torus"), 16, symmetry=True, parallelism=p),
        lambda p: min_percolating_size(LatticeSpec(2, 4), 3, symmetry=True, parallelism=p),  # no hit
        lambda p: min_percolation_time(LatticeSpec(2, 4), 4, parallelism=p),
        lambda p: min_percolation_time(LatticeSpec(3, 2), 4, parallelism=p),  # floor-time hit
        lambda p: min_percolating_size(LatticeSpec(2, 4), 16, budget=700, parallelism=p),
        lambda p: min_percolation_time(LatticeSpec(3, 2, r=4), 4, parallelism=p),  # none at the floor
    ],
    ids=["size-hit", "size-no-hit", "size-symmetry", "size-symmetry-torus", "size-symmetry-no-hit", "time",
         "time-floor-hit", "size-budget", "time-none"],
)
def test_parallel_search_over_many_chunks_matches_serial(monkeypatch, search):
    # one-word units, blocks on [4]^2 from k = 3, and a pool however small
    # the search; with the perimeter floor at 0 the pool runs every
    # candidate through the kernel, and gives the same outcome
    monkeypatch.setattr(colex, "_CHUNK_WORDS", 1)
    monkeypatch.setattr(colex, "_CHUNK_CELLS", 2**12)
    monkeypatch.setattr(extremal, "_POOL_MIN_CELLS", 0)
    pooled = _outcome(lambda: search(2))
    assert _outcome(lambda: search(1)) == pooled
    monkeypatch.setattr(extremal, "_perimeter_floor", lambda spec: 0)
    assert _outcome(lambda: search(2)) == pooled
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "search,works",
    [
        (lambda: min_percolating_size(LatticeSpec(3, 3), 9), 1),
        (lambda: min_percolation_time(LatticeSpec(2, 5), 6), 1),
        (lambda: min_percolating_size(LatticeSpec(2, 6), 6, symmetry=True), 2),
    ],
    ids=["size", "time", "size-symmetry"],
)
def test_search_units_send_back_a_few_ints(monkeypatch, search, works):
    # each result handed through the pool is a unit's summary or count,
    # never per-candidate arrays (one [3]^3 unit of 9-sets holds 13,603
    # candidates); the units are the default size
    names, sizes = set(), []

    def recorded(work, calls, parallelism):
        names.add(work.__name__)
        for result in ordered_results(work, calls, parallelism):
            sizes.append(len(pickle.dumps(result)))
            yield result

    monkeypatch.setattr(extremal, "ordered_results", recorded)
    search()
    assert len(names) == works and len(sizes) > 1
    assert max(sizes) < 256


# -- min_percolation_time --------------------------------------------------------


def test_min_time_one_dimensional_true_values():
    # a seed at either central cell reaches both ends in floor(n/2) rounds;
    # exhaustive search over all single seeds confirms the floor, not the
    # ceiling (see the odd cases: a centre seed beats ceil(n/2))
    for n in range(2, 10):
        res = min_percolation_time(LatticeSpec(1, n), 1)
        assert res.optimum == n // 2
        assert res.witness.cells() == [((n + 1) // 2,)]


def test_min_time_squares():
    assert min_percolation_time(LatticeSpec(2, 3), 3).optimum == 2
    assert min_percolation_time(LatticeSpec(2, 4), 4).optimum == 3


def test_min_time_cube_single_round():
    res = min_percolation_time(LatticeSpec(3, 2), 4)
    assert res.optimum == 1
    assert set(res.witness.cells()) == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)}


def test_min_time_full_lattice_is_zero():
    res = min_percolation_time(LatticeSpec(2, 2), 4)
    assert res.optimum == 0


def test_min_time_no_percolating_set():
    with pytest.raises(NoPercolatingSetError):
        min_percolation_time(LatticeSpec(2, 3), 1)
    with pytest.raises(NoPercolatingSetError):
        min_percolation_time(LatticeSpec(2, 3), 0)


def test_min_time_budget_refusal():
    with pytest.raises(BudgetExceededError):
        min_percolation_time(LatticeSpec(2, 5), 12, budget=100)


def test_min_time_size_validation():
    with pytest.raises(ValueError):
        min_percolation_time(LatticeSpec(2, 2), 5)


def test_search_argument_validation():
    spec = LatticeSpec(2, 3)
    with pytest.raises(ValueError, match="^budget must be positive, got 0$"):
        min_percolating_size(spec, 3, budget=0)
    with pytest.raises(ValueError, match="^budget must be positive, got 0$"):
        min_percolation_time(spec, 3, budget=0)
    with pytest.raises(ValueError, match="^max_size must be >= 0, got -1$"):
        min_percolating_size(spec, -1)


def test_witness_revalidation_catches_an_engine_that_disagrees(monkeypatch):
    spec = LatticeSpec(2, 3)
    engine = extremal.run
    monkeypatch.setattr(extremal, "run", lambda spec, cells: engine(spec, CellSet(spec.d, spec.n)))
    message = "internal check failed: witness [(1, 1), (1, 3), (3, 1)] does not percolate"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        min_percolating_size(spec, 3)
    monkeypatch.setattr(extremal, "run", lambda spec, cells: engine(spec, CellSet.full(spec.d, spec.n)))
    with pytest.raises(RuntimeError, match="^internal check failed: witness time 0 != search result 2$"):
        min_percolation_time(spec, 3)


def test_min_time_parallel_matches_serial():
    spec = LatticeSpec(2, 3)
    assert min_percolation_time(spec, 3) == min_percolation_time(spec, 3, parallelism=2)


@pytest.mark.parametrize(
    "spec,size,optimum,examined,witness",
    [
        (LatticeSpec(2, 5), 6, 4, 177100, [(1, 1), (1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]),
        (LatticeSpec(2, 4), 4, 3, 1820, [(1, 4), (2, 3), (3, 2), (4, 1)]),
        (LatticeSpec(3, 2), 4, 1, 29, [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]),
        (LatticeSpec(2, 6), 6, 5, 1947792, [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1)]),
        (LatticeSpec(3, 3), 9, 3, 4686825,
         [(1, 1, 3), (1, 2, 1), (1, 3, 2), (2, 1, 1), (2, 2, 2), (2, 3, 3), (3, 1, 2), (3, 2, 3), (3, 3, 1)]),
    ],
)
def test_min_time_pinned_results(spec, size, optimum, examined, witness):
    res = min_percolation_time(spec, size)
    assert (res.optimum, res.instances_examined, res.witness.cells()) == (optimum, examined, witness)


def test_min_time_matches_engine_on_witness():
    res = min_percolation_time(LatticeSpec(2, 4), 4)
    assert run(LatticeSpec(2, 4), res.witness).T == res.optimum


# -- is_minimal -------------------------------------------------------------------


def test_hyperplane_union_is_minimal_on_small_squares():
    assert is_minimal(LatticeSpec(2, 3), hyperplane_union(2, 3)) is True


def test_a_percolating_set_at_the_perimeter_floor_is_minimal_unchecked(monkeypatch):
    # every removal falls below n^(d-1): only the set itself is run
    calls = []
    times = extremal._times
    monkeypatch.setattr(extremal, "_times", lambda *args: calls.append(args[1].shape) or times(*args))
    assert is_minimal(LatticeSpec(3, 3), hyperplane_union(3, 3)) is True
    assert calls == [(27, 1)]
    # above the floor the removals are run too
    assert is_minimal(LatticeSpec(2, 4, r=3), CellSet.full(2, 4)) is False
    assert len(calls) == 3


def test_single_removal_failure_example():
    # dropping (3,3) from A_2 on [3]^2 stalls at the four low cells
    spec = LatticeSpec(2, 3)
    broken = hyperplane_union(2, 3) - CellSet.from_cells(2, 3, [(3, 3)])
    closed = closure(spec, broken)
    assert set(closed) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_full_lattice_is_not_minimal():
    assert is_minimal(LatticeSpec(2, 3), CellSet.full(2, 3)) is False


@pytest.mark.parametrize("n", range(2, 7))
def test_diagonal_is_minimal(n):
    assert is_minimal(LatticeSpec(2, n), diagonal(n)) is True


def test_is_minimal_rejects_non_percolating_input():
    with pytest.raises(ValueError):
        is_minimal(LatticeSpec(2, 3), CellSet.from_cells(2, 3, [(1, 1)]))


# -- determinism -------------------------------------------------------------------


def test_searches_are_deterministic():
    spec = LatticeSpec(2, 3)
    a = min_percolating_size(spec, 9)
    b = min_percolating_size(spec, 9)
    assert a == b
    assert min_percolation_time(spec, 3) == min_percolation_time(spec, 3)


def test_search_on_int32_table_matches_int64(monkeypatch):
    spec = LatticeSpec(3, 3)
    assert neighbor_table(spec).dtype == np.int32
    narrow = min_percolating_size(spec, 9)
    monkeypatch.setattr(extremal, "neighbor_table", lambda s: neighbor_table(s).astype(np.int64))
    wide = min_percolating_size(spec, 9)
    assert wide.to_json_dict() == narrow.to_json_dict()
    assert narrow.optimum == 9
