import math
import multiprocessing

import numpy as np
import pytest

from bootperc import experiments
from bootperc.experiments import (
    SWEEP_CONSTRUCTIONS,
    SweepRow,
    sweep_time,
    verify_separation,
    verify_strip_fill,
)
from bootperc.constructions import build_construction, hyperplane_union, level_set
from bootperc.dynamics import CellSet, run, run_naive
from bootperc.extremal import BudgetExceededError
from bootperc.lattice import LatticeSpec, cell_at, levels, neighbor_rows


# -- strip fill ---------------------------------------------------------------


def test_strip_fill_reference_cases():
    assert verify_strip_fill(3, 5, 2) is True
    assert verify_strip_fill(3, 2, 2) is True  # lowest strip, empty lower hyperplane
    assert verify_strip_fill(1, 5, 1) is True


def test_strip_fill_rejects_bad_strip_index():
    with pytest.raises(ValueError):
        verify_strip_fill(3, 5, 4)
    with pytest.raises(ValueError):
        verify_strip_fill(3, 2, 1)


def test_strip_fill_small_sweep():
    # full d<=4, n<=8 sweep runs in the acceptance suite; keep a fast slice here
    for d in (1, 2, 3):
        for n in (2, 4, 5):
            for s in range(-(-d // n), d + 1):
                assert verify_strip_fill(d, n, s) is True


# -- separation ---------------------------------------------------------------


def test_separation_hand_checked_square():
    report = verify_separation(2, 4)
    assert report.holds and bool(report)
    assert not report.percolates
    assert report.seed_levels == (2, 7)
    # frozen closure of {(1,1)} + {(3,4),(4,3)}: only (4,4) and (3,3) join
    fills = {lv.level: (lv.infected, lv.total, lv.required) for lv in report.levels}
    assert fills[3] == (0, 2, False)
    assert fills[4] == (0, 3, True)
    assert fills[5] == (0, 4, True)
    assert fills[6] == (1, 3, False)  # (3,3) got infected, level one below the top seed


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", range(4, 9))
def test_separation_holds(d, n):
    assert verify_separation(d, n).holds


@pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_separation_level_counts_match_brute_force(d, n):
    report = verify_separation(d, n)
    low, high = report.seed_levels
    times = run_naive(LatticeSpec(d, n), level_set(d, n, low) | level_set(d, n, high)).times
    assert [lv.level for lv in report.levels] == list(range(low + 1, high))
    for lv in report.levels:
        cells = [i for i in range(n**d) if sum(cell_at(i, d, n)) == lv.level]
        assert (lv.total, lv.infected) == (len(cells), sum(1 for i in cells if times[i] >= 0))
        assert type(lv.total) is int and type(lv.infected) is int


def test_separation_validation():
    with pytest.raises(ValueError):
        verify_separation(1, 5)
    with pytest.raises(ValueError):
        verify_separation(2, 2)  # top seed level would exceed d*n


def test_separation_json_round_trip():
    import json

    doc = json.loads(json.dumps(verify_separation(2, 5).to_json_dict()))
    assert doc["holds"] is True
    assert all({"level", "total", "infected", "required"} <= set(lv) for lv in doc["levels"])


# -- sweeps ---------------------------------------------------------------------


def test_sweep_single_row_reproduces_reference_time():
    table = sweep_time(3, [6], "hyperplanes")
    (row,) = table.rows
    assert row.n == 6 and row.T == 14 and row.percolates
    assert row.cells == 36
    assert row.within_bound
    assert table.fit is None  # fewer than four rows


def test_sweep_rows_sorted_and_deduplicated():
    table = sweep_time(2, [5, 3, 4, 3], "hyperplanes")
    assert [row.n for row in table.rows] == [3, 4, 5]


def test_sweep_2d_is_linear():
    table = sweep_time(2, range(3, 11), "hyperplanes")
    assert all(row.percolates and row.within_bound for row in table.rows)
    assert abs(table.fit["a2"]) < 0.05
    assert len(table.fit["residuals"]) == 8


def test_sweep_3d_band_small():
    table = sweep_time(3, range(10, 18), "hyperplanes")
    for row in table.rows:
        assert abs(row.T - (row.n**2 / 2 - row.n)) <= 5


def test_sweep_5d_band_spot_check():
    # five dimensions stay close to n^2 - 3n (engine-exact: 77 and 94)
    table = sweep_time(5, [10, 11], "hyperplanes")
    assert [row.T for row in table.rows] == [77, 94]
    for row in table.rows:
        assert row.percolates and row.within_bound
        assert abs(row.T - (row.n**2 - 3 * row.n)) <= 10


def test_sweep_boundary_and_shifted_constructions():
    table = sweep_time(2, range(3, 7), "boundary")
    assert all(row.percolates for row in table.rows)
    table = sweep_time(2, range(3, 7), "shifted")
    assert [row.cells for row in table.rows] == [n for n in range(3, 7)]


def test_sweep_rejects_unknown_construction_and_empty_range():
    with pytest.raises(ValueError):
        sweep_time(2, [4], "diagonal2d")
    with pytest.raises(ValueError):
        sweep_time(2, [], "hyperplanes")
    assert "diagonal2d" not in SWEEP_CONSTRUCTIONS


def test_sweep_cell_budget():
    with pytest.raises(BudgetExceededError):
        sweep_time(3, [50], "hyperplanes", cell_budget=10**4)


@pytest.mark.parametrize(
    "d, n_values, smallest",
    [
        (3, [60, 3, 50, 22], 22),
        (3, range(1, 10**5), 22),
        (3, range(3, 100, 4), 23),
        (3, range(99, 0, -4), 23),
        (1, range(1, 10**5), 10**4 + 1),
    ],
)
def test_sweep_cell_budget_names_the_smallest_n_over_it(d, n_values, smallest):
    # ranges are checked without building them, lists after sorting
    with pytest.raises(BudgetExceededError) as exc:
        sweep_time(d, n_values, "hyperplanes", cell_budget=10**4)
    assert str(exc.value) == f"n={smallest} needs {smallest**d} cells, over the cell budget of 10000"


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "n_values, smallest",
    [([-200, 3, 4], -200), ([-5, 3, 101], -5), (range(0, 10**5), 0), (range(-10**20, 5), -10**20)],
)
def test_sweep_refuses_a_value_below_1_before_the_budget(d, n_values, smallest):
    # the same shape error for every d, whether or not smallest**d is over the budget
    with pytest.raises(ValueError, match=f"^invalid shape d={d}, n={smallest}$"):
        sweep_time(d, n_values, "hyperplanes", cell_budget=10**4)


def test_sweep_cell_budget_above_sys_maxsize():
    # the least n over the budget is found without a range of budget + 1 values
    assert [row.n for row in sweep_time(2, [3], "hyperplanes", cell_budget=2**64).rows] == [3]
    with pytest.raises(BudgetExceededError, match=f"^n={2**64 + 1} needs {2**64 + 1} cells, over"):
        sweep_time(1, range(1, 10**20), "hyperplanes", cell_budget=2**64)


def test_sweep_parallel_matches_serial(monkeypatch):
    # a table of 1,800 entries (300 orbits at d = 3) spreads the lattices
    # over the pool in batches of 5, 2 and 1
    monkeypatch.setattr(experiments, "_BATCH_ENTRIES", 1800)
    assert list(map(len, experiments._batches(3, range(3, 15), 300))) == [5, 2, 1, 1, 1, 1, 1]
    serial = sweep_time(3, range(3, 15), "hyperplanes")
    parallel = sweep_time(3, range(3, 15), "hyperplanes", parallelism=2)
    assert serial == parallel
    assert multiprocessing.active_children() == []


def test_sweep_serialization():
    table = sweep_time(2, range(3, 7), "hyperplanes")
    csv = table.to_csv().splitlines()
    assert csv[0] == "d,construction,n,T,percolates,cells"
    assert csv[1] == "2,hyperplanes,3,3,true,3"
    doc = table.to_json_dict()
    assert doc["d"] == 2 and doc["construction"] == "hyperplanes"
    # the rows' fields only: no timing field reaches the document
    assert set(doc["rows"][0]) == {"n", "T", "percolates", "cells", "within_bound"}


# -- batched sweeps on orbits ---------------------------------------------------

_BATCH_NS = {1: [9, 1, 30, 4, 2, 2, 17, 12, 5], 2: [7, 1, 12, 3, 3, 9, 2], 3: [6, 2, 9, 3, 1, 6, 4],
             4: [4, 1, 6, 2, 3, 3], 5: [3, 1, 4, 2, 2]}


def _orbit_count(d, n):
    return math.comb(n + d - 1, d)


def _reference_row(d, n, construction):
    initial = build_construction(construction, d, n)
    record = run(LatticeSpec(d, n), initial)
    return SweepRow(n, record.T, record.percolates, len(initial), record.T <= (d + 2) * n * n + n)


@pytest.mark.parametrize(
    "d, construction", [pytest.param(d, c, id=f"{d}-{c}") for d in sorted(_BATCH_NS) for c in SWEEP_CONSTRUCTIONS]
)
def test_batched_sweep_matches_one_run_per_n(monkeypatch, d, construction):
    # twice the orbits of the second largest lattice: the lists split into a
    # batch of several lattices and lone lattices, from d = 2 one over the cap
    ns = sorted(set(_BATCH_NS[d]))
    cap = 2 * _orbit_count(d, ns[-2])
    batches = list(experiments._batches(d, ns, cap))
    assert len(batches) > 1 and max(map(len, batches)) > 2
    monkeypatch.setattr(experiments, "_BATCH_ENTRIES", 2 * d * cap)
    table = sweep_time(d, _BATCH_NS[d], construction)
    reference = [_reference_row(d, n, construction) for n in ns]
    assert table.rows == reference
    assert table.fit == experiments._quadratic_fit(reference)


def _cell_orbits(d, n):
    """Each cell's orbit, by linear index: the colex rank sum_i comb(y_i + i, i + 1)
    of its sorted 0-based coordinates y."""
    y = np.sort(np.indices((n,) * d).reshape(d, -1).T, axis=1)
    return np.array([sum(math.comb(v + i, i + 1) for i, v in enumerate(row)) for row in y.tolist()], dtype=np.intp)


def _level_residue_classes(d, n):
    residues = levels(d, n) % n
    return [CellSet._from_mask(d, n, residues == a) for a in range(n)]


_ORBIT_SIDES = {1: 9, 2: 8, 3: 7, 4: 5, 5: 4}


@pytest.mark.parametrize("d", sorted(_ORBIT_SIDES))
def test_orbit_times_match_the_engine_on_every_cell(d):
    # every level residue class, the boundary and the empty set, each
    # threshold around d, all lattices of one n and r in one stacked run;
    # an orbit's time, read through each cell's sorted coordinates, is the
    # cell's time in run
    for n in range(1, _ORBIT_SIDES[d] + 1):
        seeds = [*_level_residue_classes(d, n), build_construction("boundary", d, n), CellSet(d, n)]
        orbit_of = _cell_orbits(d, n)
        assert sorted(set(orbit_of.tolist())) == list(range(_orbit_count(d, n)))
        for r in sorted({1, d - 1, d, d + 1, 2 * d} - {0}):
            for seed, times in zip(seeds, experiments._orbit_times(seeds, r), strict=True):
                expected = run(LatticeSpec(d, n, "grid", r), seed).times_array
                assert np.array_equal(times[orbit_of], expected), (n, r, seed.cells())


@pytest.mark.parametrize("d, n", [(1, 1), (1, 6), (2, 5), (3, 4), (4, 3), (5, 3)])
def test_orbit_rows_are_the_sorted_neighbours(monkeypatch, d, n):
    # the table's row of each orbit lists the orbits of its representative's
    # grid neighbours, the orbit itself where the grid has none
    y = experiments._orbits(d, n)
    orbit_of = _cell_orbits(d, n)
    cells = (y * n ** np.arange(d - 1, -1, -1)).sum(axis=1)
    assert np.array_equal(orbit_of[cells], np.arange(len(y)))
    rows = np.empty((len(y), 2 * d), dtype=np.int32)
    experiments._orbit_rows(y, n, rows, 0)
    assert np.array_equal(rows, orbit_of[neighbor_rows(LatticeSpec(d, n), cells)])
    # from the middle on, offset: the rows of a stacked lattice built in parts
    half = len(y) // 2
    experiments._orbit_rows(y[half:], n, rows[half:], half + 7)
    assert np.array_equal(rows[half:], orbit_of[neighbor_rows(LatticeSpec(d, n), cells[half:])] + 7)
    # a lattice over the batch cap: its table built three orbits at a time
    monkeypatch.setattr(experiments, "_BATCH_ENTRIES", 6 * d)
    chunked = np.empty_like(rows)
    experiments._orbit_rows(y, n, chunked, 0)
    assert np.array_equal(chunked[half:], rows[half:] - 7) and np.array_equal(chunked[:half], rows[:half])


def test_orbit_engine_refuses_a_seed_that_a_transposition_changes():
    # (1, 2, 3) and (2, 1, 3) swap axes 1 and 2, but not axes 2 and 3
    seed = CellSet.from_cells(3, 3, [(1, 2, 3), (2, 1, 3)])
    with pytest.raises(ValueError, match=r"^the initial set of \[3\]\^3 is not invariant under permuting the coordinates$"):
        experiments._orbit_times([hyperplane_union(3, 3), seed], 3)
    assert len(experiments._orbit_times([CellSet.from_cells(1, 4, [(2,)])], 1)[0]) == 4  # any seed of [n]^1


def test_stacked_lattices_run_as_if_alone():
    # the rows of each lattice stay in its own rank range, so a batch's
    # lattices never reach each other, whatever their sizes and times
    # (test_orbit_rows_are_the_sorted_neighbours pins each table's rows)
    seeds = [build_construction(c, 3, n) for c, n in (("boundary", 3), ("hyperplanes", 8), ("shifted", 5),
                                                       ("boundary", 1), ("hyperplanes", 6))]
    stacked = experiments._orbit_times(seeds, 3)
    alone = [experiments._orbit_times([seed], 3)[0] for seed in seeds]
    assert [t.tolist() for t in stacked] == [t.tolist() for t in alone]


def _spy_on_the_engine(monkeypatch):
    """The orbit counts of every ``_orbit_times`` call of a sweep, per lattice."""
    calls = []

    def recorded(initials, r):
        calls.append([_orbit_count(initial.d, initial.n) for initial in initials])
        return orbit_times(initials, r)

    orbit_times = experiments._orbit_times
    monkeypatch.setattr(experiments, "_orbit_times", recorded)
    return calls


@pytest.mark.parametrize(
    "d, ns, batch_orbits, cell_budget",
    [(3, range(2, 20), 400, experiments.DEFAULT_CELL_BUDGET), (2, range(2, 51), None, 2500),
     (4, range(2, 7), 100, 1500)],
)
def test_no_batch_exceeds_its_orbit_cap(monkeypatch, d, ns, batch_orbits, cell_budget):
    if batch_orbits is not None:
        monkeypatch.setattr(experiments, "_BATCH_ENTRIES", 2 * d * batch_orbits)
    calls = _spy_on_the_engine(monkeypatch)
    cap = min(experiments._BATCH_ENTRIES // (2 * d), cell_budget)
    table = sweep_time(d, ns, "hyperplanes", cell_budget=cell_budget)
    assert [row.n for row in table.rows] == list(ns)
    # only a lattice alone in its batch goes over the cap
    assert all(sum(call) <= cap for call in calls if len(call) > 1)
    assert any(len(call) > 1 for call in calls)
    # the batches cover ns in order, each as large as the cap allows
    batches = list(experiments._batches(d, ns, cap))
    assert [n for batch in batches for n in batch] == list(ns)
    assert list(map(len, calls)) == list(map(len, batches))
    for batch, after in zip(batches, batches[1:]):
        assert sum(_orbit_count(d, n) for n in batch) + _orbit_count(d, after[0]) > cap


def test_huge_range_is_refused_before_any_batch(monkeypatch):
    def refuse(*call):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(experiments, "_sweep_batch", refuse)
    with pytest.raises(BudgetExceededError):
        sweep_time(3, range(1, 10**20), "hyperplanes")
    with pytest.raises(BudgetExceededError):
        sweep_time(1, range(1, 10**20), "hyperplanes", cell_budget=2**64)
