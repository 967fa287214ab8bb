import pytest

from bootperc import experiments
from bootperc.constructions import (
    boundary,
    build_construction,
    diagonal,
    hyperplane_union,
    level_set,
    shifted_union,
    torus3_seed,
)
from bootperc.dynamics import CellSet, perimeter, run
from bootperc.extremal import is_minimal, min_percolating_size
from bootperc.lattice import LatticeSpec, cell_at, levels


def test_level_set_singletons():
    assert level_set(3, 5, 3).cells() == [(1, 1, 1)]
    assert level_set(3, 5, 15).cells() == [(5, 5, 5)]


def test_level_set_out_of_range_is_empty():
    assert len(level_set(3, 5, 2)) == 0
    assert len(level_set(3, 5, 16)) == 0
    assert len(level_set(2, 4, -1)) == 0


def test_level_set_middle_level():
    cells = set(level_set(3, 5, 5))
    expected = {(3, 1, 1), (1, 3, 1), (1, 1, 3), (2, 2, 1), (2, 1, 2), (1, 2, 2)}
    assert cells == expected


def test_hyperplane_union_small_cases():
    assert set(hyperplane_union(2, 3)) == {(1, 2), (2, 1), (3, 3)}
    assert len(hyperplane_union(3, 6)) == 36
    assert hyperplane_union(1, 7).cells() == [(7,)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 11))
def test_hyperplane_union_cardinality(d, n):
    assert len(hyperplane_union(d, n)) == n ** (d - 1)


def test_hyperplane_union_matches_filter_oracle():
    from itertools import product

    d, n = 3, 4
    expected = {
        cell
        for cell in product(range(1, n + 1), repeat=d)
        if sum(cell) % n == 0
    }
    assert set(hyperplane_union(d, n)) == expected


@pytest.mark.parametrize("d,n", [(1, 4), (2, 5), (2, 8), (3, 4), (3, 7), (4, 5)])
def test_hyperplane_union_percolates(d, n):
    rec = run(LatticeSpec(d, n), hyperplane_union(d, n))
    assert rec.percolates


def test_shifted_union_small_cases():
    assert set(shifted_union(2, 4)) == {(1, 1), (2, 4), (3, 3), (4, 2)}
    assert shifted_union(1, 5).cells() == [(3,)]


@pytest.mark.parametrize("d,n", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_shifted_union_cardinality_bound(d, n):
    assert len(shifted_union(d, n)) <= n ** (d - 1)


def test_shifted_union_behaviour_is_empirical():
    # percolation is checked over a range of n, not promised: see the residue class test below
    rec = run(LatticeSpec(2, 4), shifted_union(2, 4))
    assert rec.percolates and rec.T == 5
    rec = run(LatticeSpec(3, 6), shifted_union(3, 6))
    assert len(shifted_union(3, 6)) <= 36
    assert rec.percolates


@pytest.mark.parametrize("d,max_n", [(1, 20), (2, 24), (3, 30), (4, 14), (5, 8)])
def test_level_residue_classes_are_smallest_percolating_sets(d, max_n):
    # R_a, the cells whose coordinate sum is a mod n, has n^(d-1) cells, no
    # two adjacent (perimeter 2d n^(d-1)); by the perimeter bound no smaller
    # set percolates under r = d, so each class that percolates is smallest.
    # The classes of one n run together on the orbit engine.  The reflection
    # x -> (n + 1) - x maps R_a to R_((d - a) mod n), so the two share T.
    # hyperplane_union is R_0 and shifted_union R_(-floor(n/2))
    for n in range(1, max_n + 1):
        spec = LatticeSpec(d, n)
        residues = levels(d, n) % n
        classes = [CellSet._from_mask(d, n, residues == a) for a in range(n)]
        for a, cells in enumerate(classes):
            assert len(cells) == n ** (d - 1), (n, a)
            assert perimeter(spec, cells) == 2 * d * n ** (d - 1), (n, a)
        times = experiments._orbit_times(classes, d)
        assert all(t.min() >= 0 for t in times), n
        T = [int(t.max()) for t in times]
        assert all(T[a] == T[(d - a) % n] for a in range(n)), (n, T)
        assert hyperplane_union(d, n) == classes[0]
        assert shifted_union(d, n) == classes[-(n // 2) % n]


def test_diagonal():
    assert diagonal(3).cells() == [(1, 1), (2, 2), (3, 3)]
    rec = run(LatticeSpec(2, 5), diagonal(5))
    assert rec.percolates and rec.T == 4


def test_boundary_cardinality_by_inclusion_exclusion():
    for d, n in [(1, 5), (2, 4), (3, 4), (3, 8), (4, 3)]:
        expected = n**d - max(n - 2, 0) ** d
        got = boundary(d, n)
        assert len(got) == expected
        assert expected <= 2 * d * n ** (d - 1)
        assert all(1 in cell or n in cell for cell in got)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", range(2, 9))
def test_boundary_percolates(d, n):
    assert run(LatticeSpec(d, n), boundary(d, n)).percolates


def test_torus3_seed_counts_and_percolation():
    for n in range(3, 9):
        seed = torus3_seed(n)
        assert len(seed) == (n - 1) ** 2 + 3
        rec = run(LatticeSpec(3, n, "torus"), seed)
        assert rec.percolates
    assert len(torus3_seed(4)) == 12 < 16


def test_torus3_seed_is_not_smallest_and_not_always_minimal():
    spec = LatticeSpec(3, 3, "torus")
    assert len(torus3_seed(3)) == 7
    assert min_percolating_size(spec, 7).optimum == 6
    minimal = {n: is_minimal(LatticeSpec(3, n, "torus"), torus3_seed(n)) for n in (3, 4, 5, 6)}
    assert minimal == {3: True, 4: False, 5: True, 6: True}


def test_torus3_extra_seed_placement():
    seed = torus3_seed(5)
    for cell in [(1, 1, 5), (1, 5, 1), (5, 1, 1)]:
        assert cell in seed
    # everything else stays inside the embedded subcube
    assert all(max(cell) <= 4 for cell in seed if 5 not in cell)


def test_named_set_dispatch_and_errors():
    assert build_construction("diagonal2d", 2, 3).cells() == diagonal(3).cells()
    assert build_construction("boundary", 3, 4) == boundary(3, 4)
    assert build_construction("torus3", 3, 4) == torus3_seed(4)
    with pytest.raises(ValueError, match="^diagonal2d requires d = 2$"):
        build_construction("diagonal2d", 3, 3)
    with pytest.raises(ValueError):
        build_construction("torus3", 3, 2)
    with pytest.raises(ValueError, match="^torus3 requires d = 3$"):
        build_construction("torus3", 2, 4)
    with pytest.raises(ValueError):
        build_construction("klein", 2, 4)


def test_build_construction_covers_all_names():
    assert build_construction("hyperplanes", 2, 3) == hyperplane_union(2, 3)
    assert build_construction("shifted", 2, 4) == shifted_union(2, 4)
    assert build_construction("diagonal2d", 2, 3) == diagonal(3)
    assert build_construction("boundary", 2, 4) == boundary(2, 4)
    assert build_construction("torus3", 3, 4) == torus3_seed(4)
    with pytest.raises(ValueError):
        build_construction("spiral", 2, 4)


def test_constructions_reject_invalid_shapes():
    with pytest.raises(ValueError, match="^invalid side 0$"):
        diagonal(0)
    with pytest.raises(ValueError, match="^invalid shape d=0, n=3$"):
        boundary(0, 3)


def test_constructions_are_deterministic():
    assert hyperplane_union(3, 5) == hyperplane_union(3, 5)
    assert torus3_seed(6) == torus3_seed(6)


def _filtered(d, n, keep):
    return CellSet.from_indices(d, n, [i for i in range(n**d) if keep(cell_at(i, d, n))])


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("n", range(1, 7))
def test_constructions_match_brute_force_filters(d, n):
    for k in range(0, d * n + 2):
        assert level_set(d, n, k) == _filtered(d, n, lambda c: sum(c) == k)
    hyperplanes = {i * n for i in range(1, d + 1)}
    assert hyperplane_union(d, n) == _filtered(d, n, lambda c: sum(c) in hyperplanes)
    shifted = {i * n - n // 2 for i in range(1, d + 1)}
    assert shifted_union(d, n) == _filtered(d, n, lambda c: sum(c) in shifted)
    assert boundary(d, n) == _filtered(d, n, lambda c: 1 in c or n in c)


@pytest.mark.parametrize("n", range(3, 7))
def test_torus3_seed_matches_brute_force_filter(n):
    extra = {(1, 1, n), (1, n, 1), (n, 1, 1)}
    embedded = {i * (n - 1) for i in (1, 2, 3)}
    assert torus3_seed(n) == _filtered(
        3, n, lambda c: c in extra or (max(c) < n and sum(c) in embedded)
    )


@pytest.mark.parametrize("n", range(3, 13))
def test_torus3_seed_matches_cell_list_construction(n):
    # the seed as once built: the hyperplane union of the embedded (n-1)-cube
    # as a list of cells, plus one cell per wraparound slab
    cells = list(hyperplane_union(3, n - 1)) + [(1, 1, n), (1, n, 1), (n, 1, 1)]
    assert torus3_seed(n) == CellSet.from_cells(3, n, cells)
