import json
import random

import pytest

from bootperc.constructions import hyperplane_union
from bootperc.dynamics import CellSet, closure, perimeter, run, run_naive
from bootperc.lattice import LatticeSpec


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


def test_cellset_shape_mismatch():
    with pytest.raises(ValueError):
        cellset(2, 3, (1, 1)) | cellset(2, 4, (1, 1))


def test_cellset_text_round_trip():
    a = cellset(3, 4, (1, 2, 3), (4, 4, 4))
    assert CellSet.from_text(a.to_text(), 3, 4) == a
    assert a.to_text() == "1 2 3\n4 4 4"


def test_cellset_from_text_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        CellSet.from_text("1 1\nx y\n", 2, 3)
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        CellSet.from_text("1 1 1\n", 2, 3)
    with pytest.raises(ValueError):
        CellSet.from_text("0 1\n", 2, 3)  # coordinate out of range


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
