import multiprocessing

import pytest

from bootperc.experiments import (
    SWEEP_CONSTRUCTIONS,
    sweep_time,
    verify_separation,
    verify_strip_fill,
)
from bootperc.constructions import level_set
from bootperc.dynamics import run_naive
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
        (2, [-200, 3, 4], -200),
        (2, [-5, 3, 101], 101),
        (1, range(1, 10**5), 10**4 + 1),
    ],
)
def test_sweep_cell_budget_names_the_smallest_n_over_it(d, n_values, smallest):
    # ranges are checked without building them, lists after sorting
    with pytest.raises(BudgetExceededError) as exc:
        sweep_time(d, n_values, "hyperplanes", cell_budget=10**4)
    assert str(exc.value) == f"n={smallest} needs {smallest**d} cells, over the cell budget of 10000"


def test_sweep_cell_budget_above_sys_maxsize():
    # the least n over the budget is found without a range of budget + 1 values
    assert [row.n for row in sweep_time(2, [3], "hyperplanes", cell_budget=2**64).rows] == [3]
    with pytest.raises(BudgetExceededError, match=f"^n={2**64 + 1} needs {2**64 + 1} cells, over"):
        sweep_time(1, range(1, 10**20), "hyperplanes", cell_budget=2**64)


def test_sweep_parallel_matches_serial():
    serial = sweep_time(2, range(3, 7), "hyperplanes")
    parallel = sweep_time(2, range(3, 7), "hyperplanes", parallelism=2)
    assert serial.to_json_dict() == parallel.to_json_dict()  # runtime is not serialised
    assert multiprocessing.active_children() == []


def test_sweep_serialization():
    table = sweep_time(2, range(3, 7), "hyperplanes")
    csv = table.to_csv().splitlines()
    assert csv[0] == "d,construction,n,T,percolates,cells"
    assert csv[1] == "2,hyperplanes,3,3,true,3"
    doc = table.to_json_dict()
    assert doc["d"] == 2 and doc["construction"] == "hyperplanes"
    assert "runtime_s" not in doc["rows"][0]
    assert table.rows[0].runtime_s >= 0
