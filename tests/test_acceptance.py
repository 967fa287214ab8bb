"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; without ``-s`` pytest shows the captured output for failures only.
"""

import random
import time
from functools import lru_cache

import pytest

from bootperc.constructions import hyperplane_union, torus3_seed
from bootperc.dynamics import CellSet, run, run_naive
from bootperc.extremal import is_minimal, min_percolating_size, min_percolation_time
from bootperc.experiments import sweep_time, verify_separation, verify_strip_fill
from bootperc.lattice import LatticeSpec, cell_index, neighbors
from bootperc.witness import (
    StripContext,
    build_witness,
    infectors,
    iter_strip_cells,
    max_depth_bound,
)


def _report(num: int, label: str, passed: bool) -> None:
    print(f"[acceptance] criterion {num:02d} ({label}): {'PASS' if passed else 'FAIL'}")


HYPERPLANE_CASES = [(d, n) for d in (1, 2, 3, 4) for n in range(2, 9)]


@lru_cache(maxsize=None)
def _hyperplane_run(d: int, n: int):
    return run(LatticeSpec(d, n), hyperplane_union(d, n), audit=True, record_trace=True)


@lru_cache(maxsize=None)
def _sweep_d3():
    return sweep_time(3, range(10, 41), "hyperplanes")


@lru_cache(maxsize=None)
def _sweep_d4():
    return sweep_time(4, range(8, 21), "hyperplanes")


def test_criterion_01_figure1_reproduction():
    passed = False
    try:
        start = time.perf_counter()
        record = run(LatticeSpec(3, 6), hyperplane_union(3, 6))
        elapsed = time.perf_counter() - start
        assert record.percolates
        assert record.T == 14
        assert elapsed < 1.0
        passed = True
    finally:
        _report(1, "A_3 percolates [6]^3 at exactly T=14", passed)


def test_criterion_02_extremal_construction():
    passed = False
    try:
        start = time.perf_counter()
        for d, n in HYPERPLANE_CASES:
            initial = hyperplane_union(d, n)
            assert len(initial) == n ** (d - 1), (d, n)
            assert _hyperplane_run(d, n).percolates, (d, n)
        assert time.perf_counter() - start < 60.0
        passed = True
    finally:
        _report(2, "hyperplane union has n^(d-1) cells and percolates", passed)


def test_criterion_03_extremal_optimality():
    passed = False
    try:
        start = time.perf_counter()
        for d, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
            result = min_percolating_size(LatticeSpec(d, n), n ** (d - 1))
            assert result.optimum == n ** (d - 1), (d, n, result.optimum)
            assert result.exhaustive
        assert time.perf_counter() - start < 600.0
        passed = True
    finally:
        _report(3, "exhaustive search confirms minimum size n^(d-1)", passed)


def test_criterion_04_perimeter_conservation():
    passed = False
    try:
        for d, n in HYPERPLANE_CASES:
            record = _hyperplane_run(d, n)
            spec = record.spec
            assert set(record.perimeter_trace) == {2 * d * n ** (d - 1)}, (d, n)
            assert all(ev.infected_neighbors == d for ev in record.audit), (d, n)
            for step in range(0, record.T + 1):
                batch = set(record.newly_infected(step))
                for cell in batch:
                    assert not batch.intersection(neighbors(cell, spec)), (d, n, step)
        passed = True
    finally:
        _report(4, "perimeter constant at 2d*n^(d-1), every infection exactly d-fed", passed)


def test_criterion_05_minimality():
    passed = False
    try:
        for d in (2, 3):
            for n in range(3, 7):
                assert is_minimal(LatticeSpec(d, n), hyperplane_union(d, n)), (d, n)
        passed = True
    finally:
        _report(5, "no single-cell removal of the hyperplane union percolates", passed)


def test_criterion_06_minimum_time_closed_forms():
    # stated closed forms: floor(n/2) for d=1, n in 2..9; n-1 for d=2, n in {3,4}.
    # On [n] with r=1 a single seed at p infects q at round |q-p|, so
    # T = max(p-1, n-p) >= floor(n/2), and a central seed attains it.
    passed = False
    mismatches = []
    try:
        start = time.perf_counter()
        for n in range(2, 10):
            got = min_percolation_time(LatticeSpec(1, n), 1).optimum
            expected = n // 2
            if got != expected:
                mismatches.append((1, n, expected, got))
        for n in (3, 4):
            got = min_percolation_time(LatticeSpec(2, n), n).optimum
            expected = n - 1
            if got != expected:
                mismatches.append((2, n, expected, got))
        assert time.perf_counter() - start < 60.0
        assert not mismatches, (
            "stated closed form disagrees with exhaustive search "
            "(d, n, stated, computed): " + repr(mismatches)
        )
        passed = True
    finally:
        _report(6, "minimum percolation time matches the stated closed forms", passed)


def test_criterion_07_witness_machinery():
    passed = False
    try:
        ctx = StripContext(3, 5, 2)
        assert infectors((4, 2, 2), ctx) == {(3, 2, 2), (4, 3, 2), (4, 2, 3)}
        assert infectors((2, 2, 2), ctx) == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
        assert infectors((3, 3, 3), ctx) == {(4, 3, 3), (3, 4, 3), (3, 3, 4)}
        dag = build_witness((4, 2, 2), ctx)
        assert dag.depth == 4
        assert {sum(u) for u in dag.leaf_labels()} == {5, 10}
        assert {tuple(sorted(u, reverse=True)) for u in set(dag.nodes) - set(dag.leaf_labels())} == {
            (4, 2, 2), (3, 2, 2), (2, 2, 2), (3, 3, 2), (4, 3, 2), (3, 3, 3),
        }
        # exhaustive scan, d=3, n <= 6: builds are acyclic by construction
        # (a cycle raises), depth obeys the quadratic bound, and the engine
        # never needs more rounds than the certificate depth
        from bootperc.constructions import level_set

        for n in range(2, 7):
            for s in range(-(-3 // n), 4):
                sctx = StripContext(3, n, s)
                bound = max_depth_bound(sctx)
                seeds = level_set(3, n, sctx.lower_level) | level_set(3, n, sctx.upper_level)
                record = run(LatticeSpec(3, n), seeds)
                for v in iter_strip_cells(sctx):
                    w = build_witness(v, sctx)
                    assert w.depth <= bound, (n, s, v)
                    assert 0 <= record.times_array[cell_index(v, 3, n)] <= w.depth, (n, s, v)
        passed = True
    finally:
        _report(7, "certificate DAGs: reference structure, acyclic, depth-bounded", passed)


def test_criterion_08_time_growth():
    passed = False
    try:
        start = time.perf_counter()
        for row in _sweep_d3().rows:
            assert row.percolates
            assert abs(row.T - (row.n**2 / 2 - row.n)) <= 5, (row.n, row.T)
        fit = _sweep_d4().fit
        assert fit is not None
        assert 0.6 <= fit["a2"] <= 0.73, fit["a2"]
        assert time.perf_counter() - start < 300.0
        passed = True
    finally:
        _report(8, "quadratic time growth: d=3 band, d=4 leading coefficient", passed)


def test_criterion_09_time_upper_bound():
    passed = False
    try:
        for d, n in HYPERPLANE_CASES:
            assert _hyperplane_run(d, n).T <= (d + 2) * n * n + n, (d, n)
        for table in (_sweep_d3(), _sweep_d4()):
            assert all(row.within_bound for row in table.rows)
        passed = True
    finally:
        _report(9, "every hyperplane-union run obeys T <= (d+2)n^2 + n", passed)


def test_criterion_10_torus():
    passed = False
    try:
        for n in range(3, 9):
            seed = torus3_seed(n)
            assert len(seed) == (n - 1) ** 2 + 3, n
            assert run(LatticeSpec(3, n, "torus"), seed).percolates, n
        assert min_percolating_size(LatticeSpec(2, 3, "torus"), 9).optimum == 2
        passed = True
    finally:
        _report(10, "3-torus seed of (n-1)^2+3 cells percolates; 2-torus minimum is n-1", passed)


def test_criterion_11_separation():
    passed = False
    try:
        for d in (2, 3):
            for n in range(4, 9):
                assert verify_separation(d, n).holds, (d, n)
        passed = True
    finally:
        _report(11, "hyperplanes at distance n+1 stay separated", passed)


def test_criterion_12_engine_equivalence():
    passed = False
    try:
        rng = random.Random(20260810)
        cases = 0
        while cases < 200:
            d = rng.choice((1, 2, 3))
            max_n = {1: 4096, 2: 64, 3: 16}[d]
            n = rng.randint(3 if d == 1 else 2, min(max_n, 40 if d == 1 else max_n))
            topology = rng.choice(("grid", "torus")) if n >= 3 else "grid"
            r = rng.randint(1, 2 * d)
            spec = LatticeSpec(d, n, topology, r)
            count = rng.randint(0, max(1, spec.size // 3))
            seed = CellSet.from_indices(spec.d, spec.n, rng.sample(range(spec.size), count))
            trace = topology == "grid"
            fast = run(spec, seed, audit=True, record_trace=trace)
            slow = run_naive(spec, seed, audit=True, record_trace=trace)
            assert fast == slow, (spec, seed.cells())
            cases += 1
        passed = True
    finally:
        _report(12, "frontier and naive engines produce bit-identical records", passed)


def test_strip_fill_exhaustive_supplement():
    # supporting sweep used by the verification harness: all valid strips fill
    passed = False
    try:
        for d in range(1, 5):
            for n in range(1, 9):
                for s in range(-(-d // n), d + 1):
                    assert verify_strip_fill(d, n, s), (d, n, s)
        passed = True
    finally:
        _report(0, "supplement: every valid strip fills from its hyperplanes", passed)
