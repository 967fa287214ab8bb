import itertools
import math

import numpy as np
import pytest

from bootperc.experiments import sweep_time
from bootperc.extremal import symmetry_index_maps
from bootperc.lattice import (
    LatticeSpec,
    cell_at,
    cell_to_index,
    index_dtype,
    index_to_cell,
    iter_level_cells,
    level_of,
    levels,
    neighbor_lists,
    neighbor_masks,
    neighbor_table,
    neighbors,
)
from bootperc.witness import StripContext, iter_strip_cells


def test_spec_defaults_threshold_to_d():
    assert LatticeSpec(3, 5).r == 3
    assert LatticeSpec(3, 5, "grid", 5).r == 5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=0, n=3),
        dict(d=2, n=0),
        dict(d=2, n=3, topology="moebius"),
        dict(d=2, n=2, topology="torus"),
        dict(d=2, n=3, r=0),
        dict(d=2, n=3, r=5),  # r > 2d
        dict(d=9, n=100),  # 100^9 cells is over the limit
    ],
)
def test_spec_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        LatticeSpec(**kwargs)


def test_index_and_level_guards():
    with pytest.raises(ValueError, match=r"^index 9 outside \[0, 9\)$"):
        cell_at(9, 2, 3)
    with pytest.raises(ValueError, match="^invalid shape d=0, n=3$"):
        levels(0, 3)


def test_row_major_rule():
    spec = LatticeSpec(2, 3)
    assert [cell_to_index((v1, v2), spec) for v1 in (1, 2, 3) for v2 in (1, 2, 3)] == list(range(9))
    assert index_to_cell(5, spec) == (2, 3)


@pytest.mark.parametrize("d,n", [(1, 7), (2, 9), (3, 4), (4, 3), (6, 2), (3, 50)])
def test_index_round_trip(d, n):
    spec = LatticeSpec(d, n)
    for i in range(spec.size):
        assert cell_to_index(index_to_cell(i, spec), spec) == i


def test_neighbors_corner_interior_wraparound():
    grid = LatticeSpec(2, 3)
    assert set(neighbors((1, 1), grid)) == {(2, 1), (1, 2)}
    assert set(neighbors((2, 2), grid)) == {(1, 2), (3, 2), (2, 1), (2, 3)}
    torus = LatticeSpec(2, 3, "torus")
    assert set(neighbors((1, 1), torus)) == {(2, 1), (3, 1), (1, 2), (1, 3)}


def test_neighbors_fixed_iteration_order():
    spec = LatticeSpec(2, 3)
    # dimension 1..d, minus before plus
    assert neighbors((2, 2), spec) == [(1, 2), (3, 2), (2, 1), (2, 3)]
    assert neighbors((1, 1), spec) == [(2, 1), (1, 2)]


def test_neighbors_rejects_bad_cells():
    spec = LatticeSpec(2, 3)
    with pytest.raises(ValueError):
        neighbors((0, 1), spec)
    with pytest.raises(ValueError):
        neighbors((1, 1, 1), spec)


@pytest.mark.parametrize("spec", [LatticeSpec(2, 4), LatticeSpec(3, 3), LatticeSpec(2, 5, "torus")])
def test_adjacency_is_symmetric(spec):
    for i in range(spec.size):
        u = index_to_cell(i, spec)
        for v in neighbors(u, spec):
            assert u in neighbors(v, spec)


def test_grid_degree_formula():
    spec = LatticeSpec(3, 4)
    for i in range(spec.size):
        cell = index_to_cell(i, spec)
        at_wall = sum(1 for v in cell if v in (1, spec.n))
        assert len(neighbors(cell, spec)) == 2 * spec.d - at_wall


def test_torus_degree_always_2d():
    spec = LatticeSpec(3, 3, "torus")
    for i in range(spec.size):
        nbrs = neighbors(index_to_cell(i, spec), spec)
        assert len(nbrs) == len(set(nbrs)) == 6


def test_degenerate_side_one():
    spec = LatticeSpec(3, 1)
    assert neighbors((1, 1, 1), spec) == []


def test_level_of():
    assert level_of((1, 1, 1)) == 3
    assert level_of((4, 2, 2)) == 8
    assert level_of((5, 5, 5)) == 15


@pytest.mark.parametrize("d,n", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_level_sets_partition_the_lattice(d, n):
    total = 0
    for k in range(0, d * n + 2):
        cells = list(iter_level_cells(d, n, k))
        assert len(set(cells)) == len(cells)
        if d <= k <= d * n:
            assert cells, f"level {k} should be nonempty"
        else:
            assert not cells
        for cell in cells:
            assert level_of(cell) == k
        total += len(cells)
    assert total == n**d


def test_level_enumeration_matches_filter_oracle():
    # unsorted: the enumeration follows ascending index order, which is the
    # order of itertools.product over the coordinates
    for d, n in [(1, 4), (2, 3), (3, 3), (4, 2)]:
        lattice = list(itertools.product(range(1, n + 1), repeat=d))
        for k in range(0, d * n + 2):
            assert list(iter_level_cells(d, n, k)) == [c for c in lattice if sum(c) == k]
        for s in range(-(-d // n), d + 1):
            ctx = StripContext(d, n, s)
            inside = [c for c in lattice if ctx.lower_level < sum(c) < ctx.upper_level]
            assert list(iter_strip_cells(ctx)) == sorted(inside, key=sum)
    assert len(list(iter_level_cells(3, 5, 5))) == 6  # permutations of (3,1,1) and (2,2,1)


def test_neighbor_lists_match_neighbors():
    for spec in (LatticeSpec(2, 4), LatticeSpec(3, 3, "torus")):
        lists = neighbor_lists(spec)
        for i in range(spec.size):
            expected = [cell_to_index(v, spec) for v in neighbors(index_to_cell(i, spec), spec)]
            assert lists[i] == expected


def _table_specs():
    for d in range(1, 5):
        for n in (1, 2, 3, 5) if d <= 2 else (1, 2, 3):
            yield LatticeSpec(d, n)
        for n in (3, 4):
            yield LatticeSpec(d, n, "torus")


@pytest.mark.parametrize("spec", list(_table_specs()), ids=str)
def test_neighbor_table_rows_match_neighbors(spec):
    # neighbors() omits missing grid neighbours; the table keeps their
    # column and writes -1 there
    table = neighbor_table(spec)
    assert table.shape == (spec.size, 2 * spec.d)
    for i, row in enumerate(table.tolist()):
        cell = index_to_cell(i, spec)
        listed = iter(neighbors(cell, spec))
        expected = []
        for j in range(spec.d):
            for edge in (1, spec.n):
                missing = spec.topology == "grid" and cell[j] == edge
                expected.append(-1 if missing else cell_to_index(next(listed, None), spec))
        assert next(listed, None) is None
        assert row == expected


def test_index_dtype_is_int32_up_to_2_31_cells():
    # the largest int32 index is 2^31 - 1, the last cell of 2^31
    assert index_dtype(2**31) == np.int32
    assert index_dtype(2**31 + 1) == np.int64
    for spec in _table_specs():
        assert neighbor_table(spec).dtype == np.int32


def test_sweep_holds_one_neighbour_table():
    sweep_time(3, range(3, 9), "hyperplanes")
    assert neighbor_table.cache_info().currsize == 1


def _check_automorphisms(spec, maps):
    assert not maps.flags.writeable
    rows = [tuple(row) for row in maps.tolist()]
    assert len(set(rows)) == len(rows)
    edges = {
        (i, cell_to_index(v, spec))
        for i in range(spec.size)
        for v in neighbors(index_to_cell(i, spec), spec)
    }
    for row in rows:
        assert sorted(row) == list(range(spec.size))
        assert all((row[a], row[b]) in edges for a, b in edges)
    return rows


@pytest.mark.parametrize("d,n", [(1, 2), (1, 5), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_grid_symmetry_maps_are_distinct_automorphisms(d, n):
    spec = LatticeSpec(d, n)
    rows = _check_automorphisms(spec, symmetry_index_maps(spec))
    assert len(rows) == 2**d * math.factorial(d)


@pytest.mark.parametrize("d,n", [(1, 3), (1, 5), (2, 3), (2, 4), (3, 3)])
def test_torus_symmetry_maps_are_the_translations(d, n):
    spec = LatticeSpec(d, n, "torus")
    rows = _check_automorphisms(spec, symmetry_index_maps(spec))
    assert len(rows) == n**d
    for row in rows:
        shifts = {
            tuple((a - b) % n for a, b in zip(index_to_cell(row[i], spec), index_to_cell(i, spec)))
            for i in range(spec.size)
        }
        assert len(shifts) == 1


def test_neighbor_masks_match_lists():
    spec = LatticeSpec(2, 4)
    lists = neighbor_lists(spec)
    masks = neighbor_masks(spec)
    for i in range(spec.size):
        m = 0
        for j in lists[i]:
            m |= 1 << j
        assert masks[i] == m


def test_lattice_caches_stay_bounded():
    for cached in (neighbor_table, neighbor_lists, neighbor_masks, symmetry_index_maps):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, maxsize + 3):
            cached(LatticeSpec(2, n))
        assert cached.cache_info().currsize <= maxsize
