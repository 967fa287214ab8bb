import multiprocessing

import numpy as np
import pytest

from bootperc import dynamics, experiments
from bootperc.experiments import (
    SWEEP_CONSTRUCTIONS,
    SweepRow,
    sweep_time,
    verify_separation,
    verify_strip_fill,
)
from bootperc.constructions import build_construction, level_set
from bootperc.dynamics import _infect, run, run_naive
from bootperc.extremal import BudgetExceededError
from bootperc.lattice import LatticeSpec, cell_at


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
    # a small box spreads the lattices over the pool in batches of 5, 2 and 1
    monkeypatch.setattr(experiments, "_BATCH_CELLS", 2000)
    assert list(map(len, experiments._batches(3, range(3, 14), 2000))) == [5, 2, 1, 1, 1, 1]
    serial = sweep_time(3, range(3, 14), "hyperplanes")
    parallel = sweep_time(3, range(3, 14), "hyperplanes", parallelism=2)
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


# -- batched sweeps --------------------------------------------------------------

_BATCH_NS = {1: [9, 1, 30, 4, 2, 2, 17, 12, 5], 2: [7, 1, 12, 3, 3, 9, 2], 3: [6, 2, 9, 3, 1, 6, 4],
             4: [4, 1, 6, 2, 3, 3], 5: [3, 1, 4, 2, 2]}


def _reference_row(d, n, construction):
    initial = build_construction(construction, d, n)
    record = run(LatticeSpec(d, n), initial)
    return SweepRow(n, record.T, record.percolates, len(initial), record.T <= (d + 2) * n * n + n)


@pytest.mark.parametrize(
    "d, construction, round_cells",
    [pytest.param(d, c, dynamics._ROUND_CELLS, id=f"{d}-{c}") for d in sorted(_BATCH_NS) for c in SWEEP_CONSTRUCTIONS]
    + [pytest.param(3, "hyperplanes", 3, id="3-hyperplanes-blocks-of-3")],
)
def test_batched_sweep_matches_one_run_per_n(monkeypatch, d, construction, round_cells):
    # a few of the largest lattices fit one box, so the lists split into
    # several batches of several lattices, and a lone lattice over the cap;
    # blocks of three frontier cells split a box's rounds across its slabs
    monkeypatch.setattr(dynamics, "_ROUND_CELLS", round_cells)
    ns = sorted(set(_BATCH_NS[d]))
    cap = 2 * max(ns) ** d
    batches = list(experiments._batches(d, ns, cap))
    assert len(batches) > 1 and max(map(len, batches)) > 2
    monkeypatch.setattr(experiments, "_BATCH_CELLS", cap)
    table = sweep_time(d, _BATCH_NS[d], construction)
    reference = [_reference_row(d, n, construction) for n in ns]
    assert table.rows == reference
    assert table.fit == experiments._quadratic_fit(reference)


def _spy_on_the_engine(monkeypatch):
    """Every ``_infect`` call of a sweep, as (box codes, times, counts)."""
    calls = []

    def recorded(spec, seeds, codes=None):
        times, counts, T = _infect(spec, seeds, codes)
        calls.append((codes, times, counts))
        return times, counts, T

    monkeypatch.setattr(experiments, "_infect", recorded)
    return calls


def test_batch_leaves_the_padding_healthy_and_uncounted(monkeypatch):
    calls = _spy_on_the_engine(monkeypatch)
    ns = [3, 5, 6, 8]
    sweep_time(3, ns, "boundary")
    ((codes, times, counts),) = calls
    padding = np.ones((sum(ns), 8, 8), dtype=bool)
    for start, n in zip(np.cumsum([0, *ns]), ns):
        padding[start : start + n, :n, :n] = False
    padding = padding.ravel()
    assert len(codes) == len(times) == padding.size
    assert (times[padding] == -1).all() and (counts[padding] == 0).all()
    assert (times[~padding] >= 0).all()  # every lattice percolates


@pytest.mark.parametrize(
    "d, ns, batch_cells, cell_budget",
    [(3, range(2, 20), 5000, experiments.DEFAULT_CELL_BUDGET), (3, range(2, 15), None, 3000),
     (4, range(2, 7), 2000, 1500)],
)
def test_no_batch_box_exceeds_its_cap(monkeypatch, d, ns, batch_cells, cell_budget):
    if batch_cells is not None:
        monkeypatch.setattr(experiments, "_BATCH_CELLS", batch_cells)
    calls = _spy_on_the_engine(monkeypatch)
    cap = min(experiments._BATCH_CELLS, cell_budget)
    table = sweep_time(d, ns, "hyperplanes", cell_budget=cell_budget)
    assert [row.n for row in table.rows] == list(ns)
    boxes = [len(codes) for codes, _, _ in calls if codes is not None]
    assert boxes and max(boxes) <= cap
    # the batches cover ns in order, each as large as the cap allows
    batches = list(experiments._batches(d, ns, cap))
    assert [n for batch in batches for n in batch] == list(ns)
    assert len(calls) == len(batches)
    for batch, after in zip(batches, batches[1:]):
        assert (sum(batch) + after[0]) * after[0] ** (d - 1) > cap


def test_huge_range_is_refused_before_any_batch(monkeypatch):
    def refuse(*call):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(experiments, "_sweep_batch", refuse)
    with pytest.raises(BudgetExceededError):
        sweep_time(3, range(1, 10**20), "hyperplanes")
    with pytest.raises(BudgetExceededError):
        sweep_time(1, range(1, 10**20), "hyperplanes", cell_budget=2**64)
