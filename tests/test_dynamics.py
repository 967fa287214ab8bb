import io
import json
import random
import re

import numpy as np
import pytest

from bootperc import dynamics, lattice
from bootperc.constructions import hyperplane_union
from bootperc.dynamics import CellSet, closure, perimeter, run, run_naive, write_record_json
from bootperc.lattice import LatticeSpec, neighbor_table


def cellset(d, n, *cells):
    return CellSet.from_cells(d, n, cells)


# -- CellSet basics ----------------------------------------------------------


def test_cellset_algebra_and_iteration():
    a = cellset(2, 3, (1, 1), (2, 2))
    b = cellset(2, 3, (2, 2), (3, 3))
    assert len(a | b) == 3
    assert (a & b).cells() == [(2, 2)]
    assert (a - b).cells() == [(1, 1)]
    assert a.issubset(a | b)
    assert (1, 1) in a and (3, 3) not in a
    assert a.remove_cell((1, 1)).cells() == [(2, 2)]


@pytest.mark.parametrize("d,n", [(1, 1), (1, 7), (2, 3), (1, 9), (2, 8), (1, 65), (3, 5), (2, 11)])
def test_cellset_index_round_trip(d, n):
    size = n**d
    rng = random.Random(size)
    some = CellSet.from_indices(d, n, rng.sample(range(size), size // 3))
    for cells in (CellSet.empty(d, n), CellSet.full(d, n), some):
        idx = list(cells.indices())
        assert all(type(i) is int for i in idx)
        assert idx == [i for i in range(size) if cells.bits >> i & 1]
        assert CellSet.from_indices(d, n, idx) == cells
        assert CellSet.from_indices(d, n, np.array(idx[::-1] + idx, dtype=np.int64)) == cells
        assert CellSet.from_cells(d, n, cells.cells()) == cells
        assert json.loads(json.dumps(cells.to_coord_lists())) == [list(c) for c in cells]
    assert len(CellSet.full(d, n)) == size and not list(CellSet.empty(d, n).indices())


@pytest.mark.parametrize("bad", [-1, 9, 2**70, -(2**70)])
def test_from_indices_rejects_bad_indices(bad):
    with pytest.raises(ValueError, match=f"index {bad} outside"):
        CellSet.from_indices(2, 3, [0, bad, 4])


def test_cellset_guards():
    with pytest.raises(ValueError, match="^invalid shape d=0, n=3$"):
        CellSet(0, 3)
    with pytest.raises(ValueError, match="^bitset has indices outside the cell universe$"):
        CellSet(1, 3, 8)
    assert CellSet.empty(2, 3).to_text() == ""


def test_run_record_equality_with_another_type():
    record = run(LatticeSpec(2, 3), CellSet.full(2, 3))
    assert record.__eq__(record.to_json_dict()) is NotImplemented
    assert record != record.to_json_dict()


def test_cellset_shape_mismatch():
    with pytest.raises(ValueError):
        cellset(2, 3, (1, 1)) | cellset(2, 4, (1, 1))


def test_cellset_text_round_trip():
    a = cellset(3, 4, (1, 2, 3), (4, 4, 4))
    assert CellSet.from_text(a.to_text(), 3, 4) == a
    assert a.to_text() == "1 2 3\n4 4 4"


# full messages, as the per-line parser wrote them before the table parse
PARSE_ERRORS = [
    ("1 1\nx y\n", "line 2: not a coordinate list: 'x y'"),
    ("1 1 1\n", "line 1: expected 2 coordinates, got 3"),
    ("0 1\n", "coordinate 0 of cell (0, 1) lies outside [1, 3]"),
    ("1 1\n2 3\n3 4\n", "coordinate 4 of cell (3, 4) lies outside [1, 3]"),
    (
        "1 1\n99999999999999999999999 1\n",
        "coordinate 99999999999999999999999 of cell (99999999999999999999999, 1) lies outside [1, 3]",
    ),
    (
        "-9223372036854775808 1\n",
        "coordinate -9223372036854775808 of cell (-9223372036854775808, 1) lies outside [1, 3]",
    ),
    # a bad token on a later line is reported before a range error on line 1
    ("4 1\n1 1\n1 z\n", "line 3: not a coordinate list: '1 z'"),
]


def test_cellset_from_text_rejects_garbage():
    for text, message in PARSE_ERRORS:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CellSet.from_text(text, 2, 3)


def test_cellset_from_empty_text():
    assert len(CellSet.from_text("", 2, 3)) == 0


# -- run: frozen hand simulations ---------------------------------------------


def test_run_nine_cell_instance():
    # A_2 on [3]^2: hand-simulated and cross-checked against the naive stepper
    spec = LatticeSpec(2, 3)
    initial = cellset(2, 3, (1, 2), (2, 1), (3, 3))
    rec = run(spec, initial)
    assert rec.percolates and rec.T == 3
    assert rec.newly_infected(1) == [(1, 1), (2, 2)]
    assert rec.newly_infected(2) == [(2, 3), (3, 2)]
    assert rec.newly_infected(3) == [(1, 3), (3, 1)]
    assert rec == run_naive(spec, initial)


def test_run_empty_initial_set():
    spec = LatticeSpec(2, 2)
    rec = run(spec, CellSet.empty(2, 2))
    assert not rec.percolates and rec.T == 0
    assert rec.times == [-1, -1, -1, -1]


def test_run_full_initial_set_is_fixed_point():
    spec = LatticeSpec(2, 3)
    rec = run(spec, CellSet.full(2, 3))
    assert rec.percolates and rec.T == 0


def test_closed_set_has_time_zero():
    spec = LatticeSpec(2, 4)
    closed = closure(spec, cellset(2, 4, (1, 1), (2, 2)))
    rec = run(spec, closed)
    assert rec.T == 0
    assert rec.closure() == closed


def test_run_shape_mismatch():
    with pytest.raises(ValueError):
        run(LatticeSpec(2, 3), CellSet.empty(2, 4))


def test_trace_refused_on_torus():
    spec = LatticeSpec(2, 3, "torus")
    with pytest.raises(ValueError):
        run(spec, CellSet.empty(2, 3), record_trace=True)
    with pytest.raises(ValueError):
        perimeter(spec, CellSet.empty(2, 3))


def test_times_respect_threshold_semantics():
    spec = LatticeSpec(2, 4)
    rec = run(spec, cellset(2, 4, (1, 1), (1, 3), (3, 1), (4, 4), (2, 2)))
    from bootperc.lattice import index_to_cell, neighbors

    for i, t in enumerate(rec.times):
        if t <= 0:
            continue
        earlier = [rec.time_of(u) for u in neighbors(index_to_cell(i, spec), spec)]
        assert sum(1 for x in earlier if x is not None and x < t) >= spec.r
        assert sum(1 for x in earlier if x is not None and x < t - 1) < spec.r


# -- perimeter ----------------------------------------------------------------


def test_perimeter_values():
    spec = LatticeSpec(2, 3)
    assert perimeter(spec, cellset(2, 3, (2, 2))) == 4
    assert perimeter(spec, CellSet.full(2, 3)) == 12
    assert perimeter(spec, cellset(2, 3, (1, 2), (2, 1), (3, 3))) == 12


def test_perimeter_counts_off_grid_edges():
    # a corner cell still pays for its two missing off-grid neighbours
    spec = LatticeSpec(2, 3)
    assert perimeter(spec, cellset(2, 3, (1, 1))) == 4


def test_incremental_trace_matches_full_recomputation():
    spec = LatticeSpec(2, 5)
    rng = random.Random(7)
    for _ in range(20):
        seed = CellSet.from_indices(2, 5, rng.sample(range(25), 6))
        rec = run(spec, seed, record_trace=True)
        recomputed = []
        for t in range(rec.T + 1):
            bits = 0
            for i, ti in enumerate(rec.times):
                if 0 <= ti <= t:
                    bits |= 1 << i
            recomputed.append(perimeter(spec, CellSet(2, 5, bits)))
        assert rec.perimeter_trace == recomputed


def test_trace_non_increasing_at_threshold_d():
    rng = random.Random(11)
    for spec in (LatticeSpec(2, 5), LatticeSpec(3, 3)):
        for _ in range(15):
            count = rng.randint(1, spec.size // 2)
            seed = CellSet.from_indices(spec.d, spec.n, rng.sample(range(spec.size), count))
            trace = run(spec, seed, record_trace=True).perimeter_trace
            assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_exact_conservation_from_hyperplane_union():
    for d, n in [(1, 5), (2, 4), (2, 7), (3, 4), (3, 6)]:
        spec = LatticeSpec(d, n)
        initial = hyperplane_union(d, n)
        rec = run(spec, initial, record_trace=True, audit=True)
        assert rec.percolates
        assert set(rec.perimeter_trace) == {2 * d * n ** (d - 1)}
        assert all(ev.infected_neighbors == d for ev in rec.audit)
        # no two cells infected in the same step are adjacent, nor initial ones
        from bootperc.lattice import neighbors

        for step in range(0, rec.T + 1):
            batch = set(rec.newly_infected(step))
            for cell in batch:
                assert not batch.intersection(neighbors(cell, spec))


# percolation time of the hyperplane union, conjectured closed forms fitted
# by exact interpolation and checked by computation (not proved)
HYPERPLANE_TIMES = {
    2: (range(2, 61), lambda n: 2 * n - 3),
    3: (range(4, 41), lambda n: n * n // 2 - n + 2),
    4: (range(4, 17), lambda n: -(-2 * n * (n - 1) // 3)),
    5: (range(4, 13), lambda n: n * n - 3 * n + 6 + (n % 2 == 0)),
}


@pytest.mark.parametrize("d", sorted(HYPERPLANE_TIMES))
def test_hyperplane_union_times_match_closed_forms(d):
    # up to [12]^5 (248,832 cells), far past what run_naive can check
    ns, form = HYPERPLANE_TIMES[d]
    got = {n: run(LatticeSpec(d, n), hyperplane_union(d, n)) for n in ns}
    assert all(record.percolates for record in got.values())
    assert {n: record.T for n, record in got.items()} == {n: form(n) for n in ns}


def test_monotonicity_spot_checks():
    spec = LatticeSpec(2, 4)
    rng = random.Random(3)
    for _ in range(25):
        small = rng.sample(range(16), 4)
        extra = rng.sample(range(16), 3)
        a = CellSet.from_indices(2, 4, small)
        b = CellSet.from_indices(2, 4, small + extra)
        assert closure(spec, a).issubset(closure(spec, b))


# -- audit and record serialization -------------------------------------------


def test_audit_records_match_between_engines():
    spec = LatticeSpec(2, 4, r=2)
    seed = cellset(2, 4, (1, 1), (2, 2), (4, 3))
    a = run(spec, seed, audit=True, record_trace=True)
    b = run_naive(spec, seed, audit=True, record_trace=True)
    assert a == b
    assert all(ev.step >= 1 for ev in a.audit)


def test_record_json_shape():
    spec = LatticeSpec(2, 3)
    rec = run(spec, cellset(2, 3, (1, 2), (2, 1), (3, 3)), record_trace=True, audit=True)
    doc = json.loads(json.dumps(rec.to_json_dict()))
    assert doc["d"] == 2 and doc["n"] == 3 and doc["topology"] == "grid" and doc["r"] == 2
    assert doc["T"] == 3 and doc["percolates"] is True
    assert doc["initial"] == [[1, 2], [2, 1], [3, 3]]
    assert len(doc["times"]) == 9 and all(t >= 0 for t in doc["times"])
    assert doc["perimeter_trace"] == [12, 12, 12, 12]
    assert {ev["step"] for ev in doc["audit"]} == {1, 2, 3}


def test_never_infected_serializes_as_minus_one():
    spec = LatticeSpec(2, 3)
    rec = run(spec, cellset(2, 3, (1, 1)))
    doc = rec.to_json_dict()
    assert doc["percolates"] is False
    assert doc["times"].count(-1) == 8


# -- engine equivalence (small targeted cases; bulk randomized in acceptance) --


def test_engines_agree_on_torus():
    spec = LatticeSpec(2, 4, "torus")
    seed = cellset(2, 4, (1, 1), (2, 2), (3, 3))
    assert run(spec, seed, audit=True) == run_naive(spec, seed, audit=True)


def test_engines_agree_on_threshold_one():
    spec = LatticeSpec(2, 5, r=1)
    seed = cellset(2, 5, (3, 3))
    a = run(spec, seed, record_trace=True)
    assert a == run_naive(spec, seed, record_trace=True)
    assert a.T == 4  # L1 eccentricity of the centre


def test_oracle_does_not_read_the_neighbour_table(monkeypatch):
    spec = LatticeSpec(2, 6, r=1)
    seed = CellSet.from_cells(2, 6, [(2, 3)])
    reference = run(spec, seed, audit=True)
    # every row now lists the neighbours of the previous cell
    corrupted = np.roll(neighbor_table(spec), 1, axis=0)
    for module in (dynamics, lattice):
        monkeypatch.setattr(module, "neighbor_table", lambda _spec: corrupted)
    assert run(spec, seed, audit=True) != reference
    assert run_naive(spec, seed, audit=True) == reference


def _int64_table_cases():
    for d, n in ((1, 7), (2, 5), (3, 4), (4, 3)):
        for topology in ("grid", "torus"):
            yield d, n, topology


@pytest.mark.parametrize("d,n,topology", list(_int64_table_cases()))
def test_int32_table_gives_the_int64_results(monkeypatch, d, n, topology):
    """The engine reads the same records from the int32 table as from an int64 copy."""
    original = lattice.neighbor_table
    assert original(LatticeSpec(d, n, topology)).dtype == np.int32
    rng = random.Random(f"{d}-{n}-{topology}")
    size = n**d
    for r in range(1, 2 * d + 1):
        spec = LatticeSpec(d, n, topology, r)
        trace = topology == "grid"
        for _ in range(3):
            seed = CellSet.from_indices(d, n, rng.sample(range(size), rng.randrange(1, size // 2 + 1)))
            narrow = run(spec, seed, audit=True, record_trace=trace)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "neighbor_table", lambda s: original(s).astype(np.int64))
                wide = run(spec, seed, audit=True, record_trace=trace)
            assert np.array_equal(narrow.times_array, wide.times_array)
            assert np.array_equal(narrow.audit_array, wide.audit_array)
            assert narrow.perimeter_trace == wide.perimeter_trace


def _equivalence_cases():
    for d in (4, 5):
        for n in (1, 2, 3, 4):
            for topology in ("grid", "torus") if n >= 3 else ("grid",):
                for r in sorted({1, d, 2 * d}):
                    for initial in ("empty", "full", "random"):
                        yield d, n, topology, r, initial


@pytest.mark.parametrize("d,n,topology,r,initial", list(_equivalence_cases()))
def test_engines_agree_in_four_and_five_dimensions(d, n, topology, r, initial):
    spec = LatticeSpec(d, n, topology, r)
    if initial == "empty":
        seed = CellSet.empty(d, n)
    elif initial == "full":
        seed = CellSet.full(d, n)
    else:
        # density r/(2d+1): sparse enough to leave rounds to run at every threshold
        rng = random.Random(f"{d}-{n}-{topology}-{r}")
        count = max(1, spec.size * r // (2 * d + 1))
        seed = CellSet.from_indices(d, n, rng.sample(range(spec.size), count))
    trace = topology == "grid"
    assert run(spec, seed, audit=True, record_trace=trace) == run_naive(
        spec, seed, audit=True, record_trace=trace
    )


# -- the columnar record and its indent-2 writer --------------------------------


def _written(rec):
    out = io.StringIO()
    write_record_json(rec, out)
    return out.getvalue()


@pytest.mark.parametrize("spec", [LatticeSpec(1, 7), LatticeSpec(3, 3), LatticeSpec(4, 3, "torus")])
@pytest.mark.parametrize("initial", ["empty", "full"])
def test_writer_on_closed_initial_sets(spec, initial):
    seed = CellSet.empty(spec.d, spec.n) if initial == "empty" else CellSet.full(spec.d, spec.n)
    rec = run(spec, seed, audit=True, record_trace=spec.topology == "grid")
    assert rec.T == 0 and rec.audit == []
    text = _written(rec)
    assert text == json.dumps(rec.to_json_dict(), indent=2)
    assert '"audit": []' in text and ('"initial": []' in text) == (initial == "empty")


def test_writer_splits_lists_into_blocks(monkeypatch):
    spec = LatticeSpec(3, 4)
    rec = run(spec, hyperplane_union(3, 4), audit=True, record_trace=True)
    whole = _written(rec)
    for rows in (1, 2, 5):
        monkeypatch.setattr(dynamics, "_WRITE_ROWS", rows)
        assert _written(rec) == whole == json.dumps(rec.to_json_dict(), indent=2)


def test_audit_columns_read_as_the_oracles_events():
    for spec, seed in [
        (LatticeSpec(3, 4), hyperplane_union(3, 4)),
        (LatticeSpec(2, 5, "torus"), cellset(2, 5, (1, 1), (2, 3), (4, 4), (5, 2))),
        (LatticeSpec(4, 3, r=2), cellset(4, 3, (1, 1, 1, 1), (3, 3, 3, 3))),
    ]:
        rec = run(spec, seed, audit=True)
        assert rec.audit == run_naive(spec, seed, audit=True).audit
        assert rec.audit_array.dtype == np.int64 and rec.audit_array.shape == (len(rec.audit), 3)
        d, n = spec.d, spec.n
        index, step, count = rec.audit_array.T.tolist()
        assert [ev.cell for ev in rec.audit] == [lattice.cell_at(i, d, n) for i in index]
        assert step == [rec.times[i] for i in index]
        assert [ev.infected_neighbors for ev in rec.audit] == count


def test_times_are_one_int64_column_with_a_list_view():
    spec = LatticeSpec(2, 4)
    rec = run(spec, cellset(2, 4, (1, 1), (4, 4)))
    assert rec.times_array.dtype == np.int64 and rec.times_array.shape == (16,)
    assert rec.times == rec.times_array.tolist() and type(rec.times[0]) is int
    assert rec == run_naive(spec, cellset(2, 4, (1, 1), (4, 4)))
