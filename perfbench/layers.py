"""Traced in-process run: the public functions of every bootperc module, under spans.

The spans are the benchmark's own: each records name, start, end, parent
span and job id, plus counts taken at the same boundary.  They stay in
memory and are written out once at the end.  Every per-layer metric is then
derived from the span list alone (see ``per_layer_metrics``).

Job ids are ``<workload>/<job>``; each mirrors one CLI job of that workload
(or, for ``record/witness_strip_d3n10`` and ``cli/import``, a layer probe),
and starts with the lattice caches cleared, as a fresh CLI process would.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

import check
import jobs
from bootperc import constructions, dynamics, experiments, extremal, lattice, witness
from bootperc.lattice import LatticeSpec

MB = 1 << 20
IMPORT_REPEATS = 5
CALIBRATION_SPANS = 20000

SWEEPS = (("sweep_d3", 3, range(10, 41)), ("sweep_d4", 4, range(8, 21)), ("sweep_d5", 5, range(8, 13)))
LATTICE_CACHES = (lattice.neighbor_table, lattice.neighbor_lists, lattice.neighbor_masks)


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str) -> Iterator[dict]:
        """Record one span; the yielded dict takes counts for it."""
        s = Span(name, job, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s.attrs
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump([{"id": i, **asdict(s)} for i, s in enumerate(self.spans)], fh)


def clear_caches() -> None:
    for cached in LATTICE_CACHES:
        cached.cache_clear()
    extremal.symmetry_index_maps.cache_clear()
    gc.collect()


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB


def _cli_json(doc: dict) -> bytes:
    # the bytes `bootperc` prints for a JSON document: indent=2, one newline
    return (json.dumps(doc, indent=2) + "\n").encode()


class Suite:
    """Calls every layer once, in the order search, sweep, record, CLI import."""

    def __init__(self, runner, workdir: Path, seed: int):
        self.runner = runner
        self.tracer = Tracer()
        self.span = self.tracer.span
        self.errors: dict[str, str] = {}
        self.attempted = 0
        self.jobs = {
            f"{w}/{job.name}": job for w in jobs.WORKLOAD_NAMES for job in jobs.workload_jobs(w, workdir, seed)
        }
        self.random_text = (workdir / f"initial-{seed}.txt").read_text()

    def run_all(self) -> None:
        self.calibrate()
        self.search()
        self.sweep()
        self.record()
        self.cli_import()

    # -- bookkeeping --------------------------------------------------------

    def _verify(self, job: str, out: bytes) -> None:
        self.attempted += 1
        error = self.runner.verify(self.jobs[job], out)
        if error is not None:
            self.errors[job] = error

    def _certify(self, job: str, spec: LatticeSpec, initial, record) -> None:
        self.attempted += 1
        try:
            check.check_run(
                np.asarray(record.times, dtype=np.int64), np.fromiter(initial.indices(), dtype=np.int64),
                record.T, record.percolates, spec.d, spec.n, spec.r, spec.topology == "torus",
            )
        except check.CheckError as exc:
            self.errors[job] = str(exc)

    @contextmanager
    def interposed(self, module, attr: str, span_name: str, job: str) -> Iterator[None]:
        """Record a span around every call ``module`` makes to its global ``attr``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(span_name, job):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def calibrate(self) -> None:
        """Time empty spans on a separate tracer: the cost tracing adds per span."""
        probe = Tracer()
        start = time.perf_counter()
        for _ in range(CALIBRATION_SPANS):
            with probe.span("trace.empty", "calibrate"):
                pass
        per_span = (time.perf_counter() - start) / CALIBRATION_SPANS
        with self.span("trace.calibrate", "trace/calibrate") as a:
            a["per_span_s"] = per_span

    # -- shared steps -------------------------------------------------------

    def adjacency(self, job: str, specs: list[LatticeSpec]) -> None:
        """Build each lattice's adjacency on cleared caches; record time and RSS growth."""
        clear_caches()
        with self.span("lattice.adjacency_job", job) as a:
            before = rss_mb()
            for spec in specs:
                with self.span("lattice.adjacency", job) as b:
                    lattice.neighbor_lists(spec)
                    b["cells"] = spec.size
            a["rss_growth_mb"] = rss_mb() - before

    def construct(self, job: str, name: str, spec: LatticeSpec):
        with self.span("constructions.build", job) as a:
            initial = constructions.build_construction(name, spec.d, spec.n)
            a["cells"] = len(initial)
        return initial

    def plain_run(self, job: str, spec: LatticeSpec, initial):
        with self.span("dynamics.run", job) as a:
            record = dynamics.run(spec, initial)
            a["rounds"] = record.T
            a["cells"] = spec.size
        return record

    def full_record(self, job: str, spec: LatticeSpec, initial) -> bytes:
        """The trace-and-audit run and its serialisation, as `simulate --trace --audit --format json`."""
        with self.span("dynamics.run_record", job) as a:
            record = dynamics.run(spec, initial, audit=True, record_trace=True)
            a["audit_events"] = len(record.audit)
        with self.span("dynamics.to_json", job):
            doc = record.to_json_dict()
        return self.dumps(job, doc)

    def dumps(self, job: str, doc: dict) -> bytes:
        with self.span("cli.json_dumps", job) as a:
            out = _cli_json(doc)
            a["stdout_bytes"] = len(out)
        return out

    # -- workloads ----------------------------------------------------------

    def search(self) -> None:
        job = "search/min_set_d3n3"
        clear_caches()
        with self.span("extremal.min_percolating_size", job) as a:
            result = extremal.min_percolating_size(LatticeSpec(3, 3), 9)
            a["candidates"] = result.instances_examined
        self._verify(job, _cli_json(result.to_json_dict()))

        job = "search/min_time_d2n5"
        for parallelism in (1, 2):
            clear_caches()
            with self.span("extremal.min_percolation_time", job) as a:
                result = extremal.min_percolation_time(LatticeSpec(2, 5), 6, parallelism=parallelism)
                a["candidates"] = result.instances_examined
                a["parallelism"] = parallelism
            self._verify(job, _cli_json(result.to_json_dict()))

        job = "search/min_set_sym_d2n6"
        clear_caches()
        with self.span("extremal.min_percolating_size", job) as a:
            result = extremal.min_percolating_size(LatticeSpec(2, 6), 6, symmetry=True)
            a["candidates"] = result.instances_examined
        self._verify(job, _cli_json(result.to_json_dict()))

    def sweep(self) -> None:
        for name, d, ns in SWEEPS:
            job = f"sweep/{name}"
            specs = [LatticeSpec(d, n) for n in ns]
            self.adjacency(job, specs)
            for spec in specs:
                self.plain_run(job, spec, self.construct(job, "hyperplanes", spec))
            clear_caches()
            # the rows' construction and run calls become child spans, so the
            # sweep's self time is what experiments adds around them
            with self.interposed(experiments, "build_construction", "experiments.row_build", job), \
                    self.interposed(experiments, "run", "experiments.row_run", job), \
                    self.span("experiments.sweep_time", job):
                table = experiments.sweep_time(d, ns, "hyperplanes")
            with self.span("lattice.cache_info", job) as a:
                infos = [cached.cache_info() for cached in LATTICE_CACHES]
                a["entries"] = sum(info.currsize for info in infos)
                a["hits"] = sum(info.hits for info in infos)
            self._verify(job, (table.to_csv() + "\n").encode())

        for job, d, n, verify in (
            ("sweep/strip_fill_d3n40", 3, 40, lambda: experiments.verify_strip_fill(3, 40, 2)),
            ("sweep/separation_d4n12", 4, 12, lambda: bool(experiments.verify_separation(4, 12))),
        ):
            self.adjacency(job, [LatticeSpec(d, n)])
            clear_caches()
            with self.span("experiments.verify", job):
                ok = verify()
            self.attempted += 1
            if not ok:
                self.errors[job] = "verification returned False"

        for job, spec, name in (
            ("sweep/sim_d5n12", LatticeSpec(5, 12), "hyperplanes"),
            ("sweep/sim_torus3_d3n60", LatticeSpec(3, 60, "torus"), "torus3"),
        ):
            self.adjacency(job, [spec])
            initial = self.construct(job, name, spec)
            self._certify(job, spec, initial, self.plain_run(job, spec, initial))
        clear_caches()

    def record(self) -> None:
        job = "record/trace_d4n20"
        spec = LatticeSpec(4, 20)
        self.adjacency(job, [spec])
        self._verify(job, self.full_record(job, spec, self.construct(job, "hyperplanes", spec)))

        job = "record/trace_random_d3n60"
        spec = LatticeSpec(jobs.RANDOM_D, jobs.RANDOM_N)
        with self.span("dynamics.parse", job) as a:
            initial = dynamics.CellSet.from_text(self.random_text, spec.d, spec.n)
            a["cells"] = len(initial)
        self.adjacency(job, [spec])
        self._verify(job, self.full_record(job, spec, initial))

        job = "record/snapshot_d3n40"
        spec = LatticeSpec(3, 40)
        self.adjacency(job, [spec])
        record = self.plain_run(job, spec, self.construct(job, "hyperplanes", spec))
        with self.span("dynamics.snapshot", job) as a:
            steps = [record.newly_infected(step) for step in range(record.T + 1)]
            a["steps"] = len(steps)
        with self.span("cli.snapshot_lines", job) as a:
            lines = [json.dumps({"step": step, "cells": [list(c) for c in cells]}) for step, cells in enumerate(steps)]
            lines.append(json.dumps({"T": record.T, "percolates": record.percolates}))
            out = ("\n".join(lines) + "\n").encode()
            a["stdout_bytes"] = len(out)
        self._verify(job, out)
        clear_caches()

        job = "record/witness_d4n20"
        with self.span("witness.build", job) as a:
            dag = witness.build_witness((15, 15, 10, 9), witness.StripContext(4, 20, 3))
            a["nodes"] = len(dag.nodes)
        with self.span("witness.to_json", job):
            doc = dag.to_json_dict()
        self._verify(job, self.dumps(job, doc))

        job = "record/witness_strip_d3n10"
        ctx = witness.StripContext(3, 10, 2)
        with self.span("witness.build_strip", job) as a:
            cells = nodes = 0
            for cell in witness.iter_strip_cells(ctx):
                nodes += len(witness.build_witness(cell, ctx).nodes)
                cells += 1
            a["cells"] = cells
            a["nodes"] = nodes

    def cli_import(self) -> None:
        """Fresh-process import time of bootperc.cli, as `python -X importtime` reports it."""
        workdir = self.runner.workdir
        argv = [sys.executable, "-X", "importtime", "-c", "import bootperc.cli"]
        for _ in range(IMPORT_REPEATS):
            with self.span("cli.import", "cli/import") as a:
                _, code, _ = self.runner.spawn(argv, workdir / "importtime.out", workdir / "importtime.err")
                a["import_us"] = _bootperc_import_us((workdir / "importtime.err").read_text())
            self.attempted += 1
            if code != 0:
                self.errors["cli/import"] = f"exit code {code}"


def _bootperc_import_us(report: str) -> int:
    """Sum the cumulative import time of the top-level bootperc entries."""
    total = 0
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2][1:]  # one space after the bar; nested imports are indented further
        if name.startswith("bootperc"):
            total += int(parts[1])
    return total


# -- metrics ------------------------------------------------------------------------


def per_layer_metrics(spans: list[Span], workload: str) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the spans alone; ``workload`` selects trace.overhead_s."""

    def pick(name: str, job: str = "") -> list[Span]:
        return [s for s in spans if s.name == name and s.job.startswith(job)]

    def seconds(name: str, job: str = "") -> float:
        return sum(s.seconds for s in pick(name, job))

    def count(name: str, key: str, job: str = "") -> int:
        return sum(s.attrs[key] for s in pick(name, job))

    def one(name: str, job: str, **attrs) -> Span:
        (s,) = [s for s in pick(name, job) if all(s.attrs.get(k) == v for k, v in attrs.items())]
        return s

    min_set = one("extremal.min_percolating_size", "search/min_set_d3n3")
    serial = one("extremal.min_percolation_time", "search/min_time_d2n5", parallelism=1)
    parallel = one("extremal.min_percolation_time", "search/min_time_d2n5", parallelism=2)
    symmetric = one("extremal.min_percolating_size", "search/min_set_sym_d2n6")
    strip = one("witness.build_strip", "record/witness_strip")
    sweeps = {i for i, s in enumerate(spans) if s.name == "experiments.sweep_time"}
    sweep_rows = sum(s.seconds for s in spans if s.parent in sweeps)
    run_s = seconds("dynamics.run")
    per_span = one("trace.calibrate", "trace/").attrs["per_span_s"]
    traced = [s for s in spans if s.job.startswith(workload + "/")]

    return {
        "lattice.adjacency_s": (seconds("lattice.adjacency"), "s"),
        "lattice.adjacency_mb": (max(s.attrs["rss_growth_mb"] for s in pick("lattice.adjacency_job")), "MB"),
        "lattice.cache_entries": (count("lattice.cache_info", "entries"), "count"),
        "lattice.cache_hits": (count("lattice.cache_info", "hits"), "count"),
        "constructions.build_s": (seconds("constructions.build", "sweep/"), "s"),
        "constructions.cells": (count("constructions.build", "cells", "sweep/"), "count"),
        "dynamics.run_s": (run_s, "s"),
        "dynamics.cells_per_s": (count("dynamics.run", "cells") / run_s, "cells/s"),
        "dynamics.rounds": (count("dynamics.run", "rounds"), "count"),
        "dynamics.record_s": (seconds("dynamics.run_record"), "s"),
        "dynamics.audit_events": (count("dynamics.run_record", "audit_events"), "count"),
        "dynamics.to_json_s": (seconds("dynamics.to_json"), "s"),
        "dynamics.snapshot_s": (seconds("dynamics.snapshot"), "s"),
        "dynamics.parse_s": (seconds("dynamics.parse"), "s"),
        "cli.json_dumps_s": (seconds("cli.json_dumps"), "s"),
        "cli.stdout_mb": (sum(s.attrs.get("stdout_bytes", 0) for s in spans if s.job.startswith("record/")) / MB, "MB"),
        "cli.import_s": (statistics.median(s.attrs["import_us"] for s in pick("cli.import")) / 1e6, "s"),
        "extremal.candidates.min_set_d3n3": (min_set.attrs["candidates"], "count"),
        "extremal.candidates.min_time_d2n5": (parallel.attrs["candidates"], "count"),
        "extremal.candidates.min_set_sym_d2n6": (symmetric.attrs["candidates"], "count"),
        "extremal.us_per_candidate": (1e6 * min_set.seconds / min_set.attrs["candidates"], "us"),
        "extremal.time_us_per_candidate": (1e6 * serial.seconds / serial.attrs["candidates"], "us"),
        "extremal.parallel_speedup": (serial.seconds / parallel.seconds, "x"),
        "extremal.symmetry_us_per_candidate": (1e6 * symmetric.seconds / symmetric.attrs["candidates"], "us"),
        "witness.build_s": (strip.seconds, "s"),
        "witness.nodes": (strip.attrs["nodes"], "count"),
        "witness.us_per_node": (1e6 * strip.seconds / strip.attrs["nodes"], "us"),
        "experiments.sweep_s": (seconds("experiments.sweep_time"), "s"),
        "experiments.sweep_self_s": (seconds("experiments.sweep_time") - sweep_rows, "s"),
        "experiments.verify_s": (seconds("experiments.verify"), "s"),
        # the only work tracing adds is the tracer's own bookkeeping, timed per span
        "trace.overhead_s": (len(traced) * per_span, "s"),
    }
