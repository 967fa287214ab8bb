"""The benchmark's workloads: lists of `bootperc` CLI jobs, each with its output check.

Every pinned value below is the CLI's output when this benchmark was
written.  The only input that depends on the workload seed is the random
initial set of the `record` workload; its cell count never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: check.Check


RANDOM_D, RANDOM_N, RANDOM_DENSITY = 3, 60, 0.2

WORKLOAD_NAMES = ("search", "sweep", "record")

_SWEEP_D3 = "470843ecd397d0cc19b9055c01178232fcf034cfd673d84de7d439fe41099aa7"
_SWEEP_D4 = "d20e8800b459bc9d27918703c201ffcf3ec1cabc78e262040037d8bb7a29f4f1"
_SWEEP_D5 = "80dc60997811eb00c98aaf9cdd42c657d5aee692c4b9d98ea635e47c5e99ba60"
_SWEEP_D3_SMALL = "be7fae30ae06000dfd76d6637ac26d2a8a2d005295c473af87c6a5e229b6e981"


def random_initial(seed: int, d: int, n: int, density: float) -> np.ndarray:
    """Sorted linear indices of round(density * n**d) distinct cells drawn from ``seed``."""
    size = n**d
    rng = np.random.default_rng(abs(seed))  # numpy seeds must not be negative
    return np.sort(rng.choice(size, size=round(density * size), replace=False))


def write_cells(path: Path, indices: np.ndarray, d: int, n: int) -> None:
    """Write cells in the CLI's one-cell-per-line format."""
    coords = np.stack(np.unravel_index(indices, (n,) * d), axis=1) + 1
    np.savetxt(path, coords, fmt="%d")


def _sim_text(d: int, n: int, topology: str, initial: int, T: int) -> str:
    return (
        f"d={d} n={n} topology={topology} r={d}\ninitial cells: {initial}\n"
        f"percolates: True\nT: {T}\ninfected: {n**d} / {n**d}\n"
    )


def _cli(*args: object) -> tuple[str, ...]:
    return tuple(str(a) for a in args)


def search_jobs() -> list[Job]:
    return [
        Job(
            "min_set_d3n3",
            _cli("search-min-set", "--d", 3, "--n", 3, "--max-size", 9),
            check.search_json(3, 3, 9, witness=[
                [1, 1, 3], [1, 2, 2], [1, 3, 1], [1, 3, 3], [2, 1, 2],
                [2, 2, 1], [3, 1, 1], [3, 1, 3], [3, 3, 1],
            ]),
        ),
        Job(
            "min_time_d2n5",
            _cli("search-min-time", "--d", 2, "--n", 5, "--size", 6, "--parallelism", 2),
            check.search_json(2, 5, 4, witness=[[1, 1], [1, 5], [2, 4], [3, 3], [4, 2], [5, 1]], rounds=4),
        ),
        Job(
            "min_set_sym_d2n6",
            _cli("search-min-set", "--d", 2, "--n", 6, "--max-size", 6, "--symmetry"),
            check.search_json(2, 6, 6, symmetry_pruned=True),
        ),
    ]


def sweep_jobs() -> list[Job]:
    return [
        Job("sweep_d3", _cli("sweep", "--construction", "hyperplanes", "--d", 3, "--n-range", "10:40"),
            check.sha256(_SWEEP_D3)),
        Job("sweep_d4", _cli("sweep", "--construction", "hyperplanes", "--d", 4, "--n-range", "8:20"),
            check.sha256(_SWEEP_D4)),
        Job("sweep_d5", _cli("sweep", "--construction", "hyperplanes", "--d", 5, "--n-range", "8:12"),
            check.sha256(_SWEEP_D5)),
        Job("strip_fill_d3n40", _cli("verify", "--check", "strip-fill", "--d", 3, "--n", 40, "--s", 2),
            check.first_line("strip-fill d=3 n=40 s=2: OK")),
        Job("separation_d4n12", _cli("verify", "--check", "separation", "--d", 4, "--n", 12),
            check.first_line("separation d=4 n=12 seeds at levels 4 and 17: OK")),
        Job("sim_d5n12", _cli("simulate", "--format", "text", "--construction", "hyperplanes", "--d", 5, "--n", 12),
            check.text(_sim_text(5, 12, "grid", 20736, 115))),
        Job("sim_torus3_d3n60",
            _cli("simulate", "--format", "text", "--construction", "torus3", "--d", 3, "--n", 60,
                 "--topology", "torus"),
            check.text(_sim_text(3, 60, "torus", 3484, 1771))),
    ]


def record_jobs(workdir: Path, seed: int) -> list[Job]:
    initial = random_initial(seed, RANDOM_D, RANDOM_N, RANDOM_DENSITY)
    path = workdir / f"initial-{seed}.txt"
    write_cells(path, initial, RANDOM_D, RANDOM_N)
    full = ("--trace", "--audit", "--format", "json")
    return [
        Job("trace_d4n20", _cli("simulate", *full, "--construction", "hyperplanes", "--d", 4, "--n", 20),
            check.simulate_json(4, 20, check.hyperplane_indices(4, 20))),
        Job("trace_random_d3n60", _cli("simulate", *full, "--initial", path, "--d", 3, "--n", 60),
            check.simulate_json(3, 60, initial)),
        Job("snapshot_d3n40",
            _cli("simulate", "--snapshot", "every=1", "--construction", "hyperplanes", "--d", 3, "--n", 40),
            check.snapshots(3, 40, check.hyperplane_indices(3, 40))),
        Job("witness_d4n20", _cli("witness", "--d", 4, "--n", 20, "--s", 3, "--cell", "15,15,10,9", "--format", "json"),
            check.witness_json(4, 20, 3, (15, 15, 10, 9))),
    ]


def workload_jobs(name: str, workdir: Path, seed: int) -> list[Job]:
    if name == "search":
        return search_jobs()
    if name == "sweep":
        return sweep_jobs()
    if name == "record":
        return record_jobs(workdir, seed)
    raise ValueError(f"unknown workload {name!r} (choose from {WORKLOAD_NAMES})")


def smoke_jobs(workdir: Path, seed: int) -> list[Job]:
    """Reduced inputs exercising every job kind and every check, in a few seconds."""
    initial = random_initial(seed, 3, 8, RANDOM_DENSITY)
    path = workdir / f"initial-smoke-{seed}.txt"
    write_cells(path, initial, 3, 8)
    full = ("--trace", "--audit", "--format", "json")
    return [
        Job("min_set_d2n3", _cli("search-min-set", "--d", 2, "--n", 3, "--max-size", 3),
            check.search_json(2, 3, 3, witness=[[1, 1], [1, 3], [3, 1]])),
        Job("min_time_d2n3", _cli("search-min-time", "--d", 2, "--n", 3, "--size", 3, "--parallelism", 2),
            check.search_json(2, 3, 2, witness=[[1, 3], [2, 2], [3, 1]], rounds=2)),
        Job("min_set_sym_d2n4", _cli("search-min-set", "--d", 2, "--n", 4, "--max-size", 4, "--symmetry"),
            check.search_json(2, 4, 4, symmetry_pruned=True)),
        Job("sweep_d3_small", _cli("sweep", "--construction", "hyperplanes", "--d", 3, "--n-range", "3:6"),
            check.sha256(_SWEEP_D3_SMALL)),
        Job("strip_fill_d3n6", _cli("verify", "--check", "strip-fill", "--d", 3, "--n", 6, "--s", 2),
            check.first_line("strip-fill d=3 n=6 s=2: OK")),
        Job("sim_torus3_d3n5",
            _cli("simulate", "--format", "text", "--construction", "torus3", "--d", 3, "--n", 5,
                 "--topology", "torus"),
            check.text(_sim_text(3, 5, "torus", 19, 11))),
        Job("trace_d3n6", _cli("simulate", *full, "--construction", "hyperplanes", "--d", 3, "--n", 6),
            check.simulate_json(3, 6, check.hyperplane_indices(3, 6))),
        Job("trace_random_d3n8", _cli("simulate", *full, "--initial", path, "--d", 3, "--n", 8),
            check.simulate_json(3, 8, initial)),
        Job("snapshot_d3n5", _cli("simulate", "--snapshot", "every=1", "--construction", "hyperplanes",
                                  "--d", 3, "--n", 5),
            check.snapshots(3, 5, check.hyperplane_indices(3, 5))),
        Job("witness_d3n6", _cli("witness", "--d", 3, "--n", 6, "--s", 2, "--cell", "4,4,3", "--format", "json"),
            check.witness_json(3, 6, 2, (4, 4, 3))),
    ]
