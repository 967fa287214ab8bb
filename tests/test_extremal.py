import pytest

from bootperc.constructions import diagonal, hyperplane_union
from bootperc.dynamics import CellSet, closure, run
from bootperc.extremal import (
    BudgetExceededError,
    NoPercolatingSetError,
    closure_bits,
    colex_combinations,
    is_minimal,
    min_percolating_size,
    min_percolation_time,
    symmetry_index_maps,
)
from bootperc.lattice import LatticeSpec, neighbor_masks


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


# -- fast closure vs engine (dual route) ----------------------------------------


def test_bitmask_closure_matches_engine():
    import random

    rng = random.Random(42)
    for spec in (LatticeSpec(2, 4), LatticeSpec(3, 2), LatticeSpec(2, 4, "torus"), LatticeSpec(2, 5, r=3)):
        for _ in range(30):
            k = rng.randint(0, spec.size)
            seed = CellSet.from_indices(spec.d, spec.n, rng.sample(range(spec.size), k))
            assert closure_bits(neighbor_masks(spec), seed.bits, spec.r) == closure(spec, seed).bits


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
    with pytest.raises(BudgetExceededError) as info:
        min_percolating_size(LatticeSpec(2, 5), 12, budget=1000)
    assert info.value.examined == 0


def test_min_size_symmetry_cross_check():
    for spec in (LatticeSpec(2, 2), LatticeSpec(3, 2), LatticeSpec(2, 3, "torus")):
        plain = min_percolating_size(spec, spec.size)
        pruned = min_percolating_size(spec, spec.size, symmetry=True)
        assert pruned.optimum == plain.optimum
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
