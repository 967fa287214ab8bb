"""Smoke test of the benchmark on reduced inputs.

Run from the checkout root with ``python3 -m pytest perfbench``.  It runs
every job kind once through the same runner and checks as the benchmark,
then shows that the checks are not vacuous: each corrupted output must be
rejected and so raise the error rate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import jobs
import run

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture(scope="module")
def smoke():
    workdir = ROOT / ".bench_work" / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(ROOT, workdir)
    job_list = jobs.smoke_jobs(workdir, seed=1)
    results = [samples[0] for samples in run.run_workload(runner, job_list, seconds=0)]
    outputs = {job.name: (workdir / f"{job.name}.out").read_bytes() for job in job_list}
    return runner, {job.name: job for job in job_list}, results, outputs


def test_smoke_pass_is_correct(smoke):
    _, _, results, _ = smoke
    assert [r.error for r in results] == [None] * len(results)
    assert run.error_rate(results) == 0
    metrics = run.end_to_end_metrics([[r] for r in results], setup=[0.2, 0.3, 0.25])
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())


def test_second_seed_is_correct():
    workdir = ROOT / ".bench_work" / "smoke-seed2"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(ROOT, workdir)
    record = [job for job in jobs.smoke_jobs(workdir, seed=2) if job.name == "trace_random_d3n8"]
    ((result,),) = run.run_workload(runner, record, seconds=0)
    assert result.error is None


def test_seed_sets_only_the_random_cells():
    a, b = jobs.random_initial(1, 3, 60, 0.2), jobs.random_initial(2, 3, 60, 0.2)
    assert len(a) == len(b) == 43200
    assert not (a == b).all()
    assert (jobs.random_initial(1, 3, 60, 0.2) == a).all()


def _json_edit(edit):
    def corrupt(out: bytes) -> bytes:
        doc = json.loads(out)
        edit(doc)
        return (json.dumps(doc, indent=2) + "\n").encode()

    return corrupt


def _flip_time(doc):
    i = next(i for i, t in enumerate(doc["times"]) if t >= 1)
    doc["times"][i] += 1


def _move_snapshot_cell(out: bytes) -> bytes:
    lines = [json.loads(line) for line in out.decode().splitlines()]
    lines[2]["cells"].append(lines[1]["cells"].pop())
    return ("\n".join(json.dumps(line) for line in lines) + "\n").encode()


def _wrong_child(doc):
    node = next(node for node in doc["nodes"] if node["children"])
    node["children"][0][0] += 1


CORRUPTIONS = {
    "flipped infection time": ("trace_d3n6", _json_edit(_flip_time)),
    "random-set time flipped": ("trace_random_d3n8", _json_edit(_flip_time)),
    "perimeter off by two": ("trace_d3n6", _json_edit(lambda d: d["perimeter_trace"].__setitem__(-1, d["perimeter_trace"][-1] + 2))),
    "audit count wrong": ("trace_d3n6", _json_edit(lambda d: d["audit"][0].__setitem__("infected_neighbors", 9))),
    "snapshot cell a round late": ("snapshot_d3n5", _move_snapshot_cell),
    "wrong witness infector": ("witness_d3n6", _json_edit(_wrong_child)),
    "witness depth too large": ("witness_d3n6", _json_edit(lambda d: d.__setitem__("depth", d["depth"] + 1))),
    "search witness not colex-first": ("min_set_d2n3", _json_edit(lambda d: d.__setitem__("witness", [[1, 1], [2, 2], [3, 3]]))),
    "search witness does not percolate": ("min_set_sym_d2n4", _json_edit(lambda d: d["witness"].__setitem__(0, d["witness"][1]))),
    "min time wrong": ("min_time_d2n3", _json_edit(lambda d: d.__setitem__("optimum", 3))),
    "sweep row changed": ("sweep_d3_small", lambda out: out.replace(b",14,", b",15,")),
    "verify failed": ("strip_fill_d3n6", lambda out: out.replace(b"OK", b"FAILED")),
    "text T changed": ("sim_torus3_d3n5", lambda out: out.replace(b"T: 11", b"T: 12")),
    "truncated output": ("trace_d3n6", lambda out: out[: len(out) // 2]),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_raises_error_rate(smoke, case):
    runner, by_name, _, outputs = smoke
    name, corrupt = CORRUPTIONS[case]
    bad = corrupt(outputs[name])
    assert bad != outputs[name]
    error = runner.verify(by_name[name], bad)
    assert error is not None
    results = [run.JobResult(name, 1.0, 1.0, 1.0, error), run.JobResult(name, 1.0, 1.0, 1.0, None)]
    assert run.error_rate(results) == 0.5


def test_certificate_rejects_early_infection():
    times = check.np.array([0, 1, 1, 0])  # a 2x2 grid, r=2: (1,2) and (2,1) have 2 seeded neighbours
    check.certify_times(times, 2, 2, 2, False)
    with pytest.raises(check.CheckError):
        check.certify_times(check.np.array([0, 1, 2, 0]), 2, 2, 2, False)


def test_tracer_links_parents_and_parses_import_times():
    import layers

    tracer = layers.Tracer()
    with tracer.span("outer", "w/job"):
        with tracer.span("inner", "w/job") as attrs:
            attrs["cells"] = 3
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.attrs) == (None, 0, {"cells": 3})
    assert outer.start <= inner.start <= inner.end <= outer.end
    report = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        900 |   numpy\n"
        "import time:        50 |       1000 | bootperc\n"
        "import time:        20 |         30 | bootperc.cli\n"
    )
    assert layers._bootperc_import_us(report) == 1030


def test_refuses_to_run_without_source_tree():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
