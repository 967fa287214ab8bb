import multiprocessing
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bootperc import extremal
from bootperc.constructions import diagonal, hyperplane_union
from bootperc.dynamics import CellSet, closure, run
from bootperc.extremal import (
    BudgetExceededError,
    NoPercolatingSetError,
    _colex_chunk,
    _percolating,
    _rank_ranges,
    _rounds,
    _seed_planes,
    colex_combinations,
    is_minimal,
    min_percolating_size,
    min_percolation_time,
    symmetry_index_maps,
)
from bootperc.lattice import LatticeSpec


# -- enumeration ---------------------------------------------------------------


def test_colex_order_prefix():
    got = list(colex_combinations(4, 2))
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_colex_counts_and_strict_order():
    from math import comb

    def rank_key(t):
        return tuple(reversed(t))  # colex = lex on reversed descending tuples

    for n, k in [(6, 3), (7, 1), (5, 5), (5, 0)]:
        seq = list(colex_combinations(n, k))
        assert len(seq) == comb(n, k)
        assert len(set(seq)) == len(seq)
        assert all(rank_key(a) < rank_key(b) for a, b in zip(seq, seq[1:]))


def test_colex_degenerate():
    assert list(colex_combinations(3, 0)) == [()]
    assert list(colex_combinations(3, 4)) == []


def _chunks(size, k):
    return [_colex_chunk(size, *unit) for unit in _rank_ranges(size, k)]


@pytest.mark.parametrize("chunk", [1, 5, 17, 64])
def test_colex_chunks_concatenate_to_colex_order(monkeypatch, chunk):
    monkeypatch.setattr(extremal, "_CHUNK", chunk)
    for t, j in [(6, 3), (9, 4), (10, 1), (7, 7), (5, 0), (12, 5)]:
        parts = _chunks(t, j)
        assert all(0 < len(part) <= chunk for part in parts)
        assert np.vstack(parts).tolist() == [list(c) for c in colex_combinations(t, j)]
    assert list(_rank_ranges(3, 4)) == []


def test_colex_chunks_on_large_lattices(monkeypatch):
    # past 127 cells a chunk holds fewer than _CHUNK candidates; the order
    # stays exact
    parts = _chunks(1300, 2)
    assert max(map(len, parts)) == extremal._CHUNK_CELLS // 1301 < extremal._CHUNK
    assert np.vstack(parts).tolist() == [list(c) for c in colex_combinations(1300, 2)]
    # no depth of recursion grows with k: the (size - 1)-subsets over many
    # chunks, where row i leaves out cell size - 1 - i
    monkeypatch.setattr(extremal, "_CHUNK", 64)
    size = 1200
    rows = np.vstack(_chunks(size, size - 1))
    assert (np.diff(rows.astype(np.int64), axis=1) > 0).all()
    missing = size * (size - 1) // 2 - rows.sum(axis=1, dtype=np.int64)
    assert missing.tolist() == list(range(size - 1, -1, -1))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_colex_chunk_is_any_slice_of_colex_order(data):
    size = data.draw(st.integers(min_value=0, max_value=12))
    k = data.draw(st.integers(min_value=0, max_value=size))
    total = comb(size, k)
    start = data.draw(st.integers(min_value=0, max_value=total))
    stop = data.draw(st.integers(min_value=start, max_value=total))
    chunk = _colex_chunk(size, k, start, stop)
    assert chunk.shape == (stop - start, k)
    assert [tuple(row) for row in chunk.tolist()] == list(colex_combinations(size, k))[start:stop]


def test_min_size_on_a_lattice_of_40000_cells():
    res = min_percolating_size(LatticeSpec(2, 200, r=1), 1)
    assert (res.optimum, res.instances_examined, res.witness.cells()) == (1, 1, [(1, 1)])


# -- batch kernel vs engine (dual route) ----------------------------------------


def _batch_closures_and_times(spec, chunk):
    """Per candidate: the closure bitmask, and the first round with every
    cell infected (None if never), both read off the batch kernel."""
    times = [None] * len(chunk)
    for t, planes in enumerate(_rounds(spec, _seed_planes(spec.size, chunk))):
        cells = np.unpackbits(planes[:-1].view(np.uint8), axis=1, bitorder="little")
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
    closures, times = _batch_closures_and_times(spec, chunk)
    for row, bits, t in zip(chunk.tolist(), closures, times):
        record = run(spec, CellSet.from_indices(spec.d, spec.n, row))
        assert bits == record.closure().bits, (spec, row)
        assert t == (record.T if record.percolates else None), (spec, row)


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


def test_percolating_nine_subsets_of_the_cube():
    # pinned regression value: exactly 116 of the C(27, 9) nine-subsets of
    # [3]^3 percolate under the 3-neighbour rule
    spec = LatticeSpec(3, 3)
    total = found = 0
    for unit in _rank_ranges(spec.size, 9):
        chunk = _colex_chunk(spec.size, *unit)
        total += len(chunk)
        found += int(_percolating(spec, chunk).sum())
    assert total == comb(27, 9)
    assert found == 116


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
        lambda p: min_percolation_time(LatticeSpec(2, 4), 4, parallelism=p),
        lambda p: min_percolation_time(LatticeSpec(3, 2), 4, parallelism=p),  # floor-time hit
    ],
    ids=["size-hit", "size-no-hit", "size-symmetry", "time", "time-floor-hit"],
)
def test_parallel_search_over_many_chunks_matches_serial(monkeypatch, search):
    monkeypatch.setattr(extremal, "_CHUNK", 16)
    assert search(2) == search(1)
    assert multiprocessing.active_children() == []


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


def test_min_time_parallel_matches_serial():
    spec = LatticeSpec(2, 3)
    assert min_percolation_time(spec, 3) == min_percolation_time(spec, 3, parallelism=2)


def test_min_time_matches_engine_on_witness():
    res = min_percolation_time(LatticeSpec(2, 4), 4)
    assert run(LatticeSpec(2, 4), res.witness).T == res.optimum


# -- is_minimal -------------------------------------------------------------------


def test_hyperplane_union_is_minimal_on_small_squares():
    assert is_minimal(LatticeSpec(2, 3), hyperplane_union(2, 3)) is True


def test_single_removal_failure_example():
    # dropping (3,3) from A_2 on [3]^2 stalls at the four low cells
    spec = LatticeSpec(2, 3)
    broken = hyperplane_union(2, 3).remove_cell((3, 3))
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
