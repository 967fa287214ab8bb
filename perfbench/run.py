"""bootperc benchmark: end-to-end CLI workloads and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search|sweep|record|all --seed N --seconds S --trace 0|1

With ``--trace 0`` one client runs the workload's job list closed loop, each
job a fresh ``bootperc`` CLI process started only after the previous one
ended, for about ``--seconds`` (see ``run_workload``).  Outputs are checked
after each job, outside the timed region.  With ``--trace 1`` the
public functions of every module are called in process under the
benchmark's own spans (see ``layers.py``) and the per-layer metrics are
derived from those spans.  Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import check
import jobs

# fresh `import bootperc.cli` processes timed per run; setup_s is their median
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_geomean_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class JobResult:
    job: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None


class Runner:
    """Runs CLI jobs as child processes of one checkout and checks their output."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.pop("BOOTPERC_BUDGET", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["TMPDIR"] = str(tmp)
        self.env = env
        self._verified: dict[str, bytes] = {}

    def spawn(self, argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, os.struct_rusage]:
        # wait4 gives this child's own rusage, including the pool workers it
        # reaped, unlike the RUSAGE_CHILDREN high-water mark of this process
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def run_job(self, job: jobs.Job) -> JobResult:
        out_path = self.workdir / f"{job.name}.out"
        err_path = self.workdir / f"{job.name}.err"
        argv = [sys.executable, "-m", "bootperc.cli", *job.argv]
        wall, code, usage = self.spawn(argv, out_path, err_path)
        if code != 0:
            tail = err_path.read_text(errors="replace")[-500:]
            error = f"exit code {code}: {tail}"
        else:
            error = self.verify(job, out_path.read_bytes())
        return JobResult(job.name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, error)

    def verify(self, job: jobs.Job, out: bytes) -> str | None:
        """Check one output; bytes equal to an output of this job already verified pass unchecked."""
        if self._verified.get(job.name) == out:
            return None
        try:
            job.check(out)
        except (check.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        self._verified[job.name] = out
        return None

    def import_seconds(self) -> float:
        """Wall time of one fresh process that imports bootperc.cli."""
        argv = [sys.executable, "-c", "import bootperc.cli"]
        wall, code, _ = self.spawn(argv, self.workdir / "import.out", self.workdir / "import.err")
        if code != 0:
            raise RuntimeError(f"import bootperc.cli failed: {(self.workdir / 'import.err').read_text()[-500:]}")
        return wall


def run_workload(runner: Runner, job_list: list[jobs.Job], seconds: float) -> list[list[JobResult]]:
    """Closed loop, one client; returns each job's samples.

    Runs rounds over the job list.  A job stays in the rounds until its
    samples add up to ``seconds / len(job_list)``, so every job runs at least
    once and a short job, whose single time is noisiest, runs several times.
    """
    share = seconds / len(job_list)
    samples: dict[str, list[JobResult]] = {job.name: [] for job in job_list}
    pending = list(job_list)
    while pending:
        for job in pending:
            samples[job.name].append(runner.run_job(job))
        pending = [job for job in pending if sum(r.wall_s for r in samples[job.name]) < share]
    return [samples[job.name] for job in job_list]


def end_to_end_metrics(per_job: list[list[JobResult]], setup: list[float]) -> dict[str, float]:
    """Each job's median sample, combined over the job list."""
    wall = [statistics.median(r.wall_s for r in samples) for samples in per_job]
    return {
        "wall_s": sum(wall),
        "job_geomean_s": math.exp(statistics.fmean(math.log(w) for w in wall)),
        "cpu_s": sum(statistics.median(r.cpu_s for r in samples) for samples in per_job),
        "peak_rss_mb": max(statistics.median(r.peak_rss_mb for r in samples) for samples in per_job),
        "setup_s": statistics.median(setup),
    }


def error_rate(results: list[JobResult]) -> float:
    return sum(r.error is not None for r in results) / len(results)


def measure(root: Path, workdir: Path, workload: str, seed: int, seconds: float) -> dict:
    runner = Runner(root, workdir)
    job_list = jobs.workload_jobs(workload, workdir, seed)
    setup = [runner.import_seconds() for _ in range(SETUP_REPEATS)]
    per_job = run_workload(runner, job_list, seconds)
    results = [r for samples in per_job for r in samples]
    with open(workdir / f"jobs-{workload}-{seed}.json", "w") as fh:
        json.dump({"setup_s": setup, "jobs": [[asdict(r) for r in samples] for samples in per_job]}, fh)
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED {workload}/{r.job}: {r.error}", file=sys.stderr)
    metrics = end_to_end_metrics(per_job, setup)
    for name, value in metrics.items():
        print(f"{workload:<7} {name:<14} {value:14.6f} {END_TO_END_UNITS[name]}")
    print(f"{workload:<7} {'error_rate':<14} {error_rate(results):14.6f} 1"
          f"  ({len(failed)} of {len(results)} job runs)")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def trace(root: Path, workdir: Path, workload: str, seed: int) -> dict:
    """One traced in-process run of every layer; ``workload`` selects trace.overhead_s."""
    sys.path.insert(0, str(root / "src"))
    import layers

    suite = layers.Suite(Runner(root, workdir), workdir, seed)
    suite.run_all()
    suite.tracer.dump(workdir / f"spans-{workload}-{seed}.json")
    for job, error in suite.errors.items():
        print(f"FAILED {job}: {error}", file=sys.stderr)
    metrics = layers.per_layer_metrics(suite.tracer.spans, workload)
    for name, (value, unit) in metrics.items():
        print(f"{workload:<7} {name:<40} {value:16.6f} {unit}")
    return {
        "correct": not suite.errors,
        "attempted": suite.attempted,
        "failed": len(suite.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*jobs.WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace and args.workload == "all":
        parser.error("--trace 1 takes one workload")

    root = Path.cwd()
    if not (root / "src" / "bootperc" / "cli.py").is_file():
        print(f"error: {root} holds no bootperc source tree (src/bootperc); run from a checkout root",
              file=sys.stderr)
        return 2
    workdir = root / ".bench_work"
    workdir.mkdir(exist_ok=True)

    if args.trace:
        result = trace(root, workdir, args.workload, args.seed)
    elif args.workload != "all":
        result = measure(root, workdir, args.workload, args.seed, args.seconds)
    else:
        results = {name: measure(root, workdir, name, args.seed, args.seconds) for name in jobs.WORKLOAD_NAMES}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
