"""Record a baseline: repeated runs of every workload plus one traced run.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each run uses another seed.  For every end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  The output also holds the machine context and the map from
each per-layer metric to the end-to-end metrics and workloads it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# layer metric -> (end-to-end metrics it should move, workloads where it should,
# workloads where it should not)
PREDICTIONS = {
    "lattice.adjacency_s": (["wall_s"], ["sweep", "record"], ["search"]),
    "lattice.adjacency_mb": (["peak_rss_mb"], ["sweep", "record"], ["search"]),
    "lattice.cache_entries": (["peak_rss_mb"], ["sweep"], []),
    "lattice.cache_hits": (["peak_rss_mb"], ["sweep"], []),
    "constructions.build_s": (["wall_s"], ["sweep"], []),
    "constructions.cells": (["wall_s"], ["sweep"], []),
    "dynamics.run_s": (["wall_s"], ["sweep"], ["search"]),
    "dynamics.cells_per_s": (["wall_s"], ["sweep"], ["search"]),
    "dynamics.rounds": (["wall_s"], ["sweep"], ["search"]),
    "dynamics.record_s": (["wall_s", "peak_rss_mb"], ["record"], []),
    "dynamics.audit_events": (["wall_s", "peak_rss_mb"], ["record"], []),
    "dynamics.to_json_s": (["wall_s", "peak_rss_mb"], ["record"], []),
    "dynamics.snapshot_s": (["wall_s", "peak_rss_mb"], ["record"], []),
    "dynamics.parse_s": (["wall_s", "peak_rss_mb"], ["record"], []),
    "cli.json_dumps_s": (["wall_s"], ["record"], []),
    "cli.stdout_mb": (["wall_s"], ["record"], []),
    "cli.import_s": (["setup_s"], ["search", "sweep", "record"], []),
    "extremal.candidates.min_set_d3n3": (["wall_s", "job_geomean_s"], ["search"], ["sweep", "record"]),
    "extremal.candidates.min_time_d2n5": (["wall_s", "job_geomean_s"], ["search"], ["sweep", "record"]),
    "extremal.candidates.min_set_sym_d2n6": (["wall_s", "job_geomean_s"], ["search"], ["sweep", "record"]),
    "extremal.us_per_candidate": (["wall_s", "job_geomean_s"], ["search"], ["sweep", "record"]),
    "extremal.time_us_per_candidate": (["wall_s", "job_geomean_s"], ["search"], ["sweep", "record"]),
    "extremal.parallel_speedup": (["wall_s", "cpu_s"], ["search"], ["sweep", "record"]),
    "extremal.symmetry_us_per_candidate": (["wall_s", "job_geomean_s"], ["search"], ["sweep", "record"]),
    "witness.build_s": (["wall_s"], ["record"], []),
    "witness.nodes": (["wall_s"], ["record"], []),
    "witness.us_per_node": (["wall_s"], ["record"], []),
    "experiments.sweep_s": (["wall_s"], ["sweep"], []),
    "experiments.sweep_self_s": (["wall_s"], ["sweep"], []),
    "experiments.verify_s": (["wall_s"], ["sweep"], []),
    "trace.overhead_s": ([], [], ["search", "sweep", "record"]),
}


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    workloads = ("search", "sweep", "record")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    end_to_end: dict[str, dict] = {}
    for workload in workloads:
        runs = [_bench("--workload", workload, "--seed", str(s), "--seconds", seconds, "--trace", "0") for s in seeds]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: incorrect output in some run", file=sys.stderr)
            return 1
        end_to_end[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            end_to_end[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values,
            }
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- over a third of the bound"
            print(f"{workload:<7} {name:<14} median {median:12.6f}  spread {spread:.4f}  bound {bound}{flag}")

    traced = _bench("--workload", workloads[0], "--seed", str(args.first_seed), "--trace", "1")
    doc = {
        "machine": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "end_to_end": end_to_end,
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "predictions": {
            k: {"moves": moves, "on": on, "not_on": off} for k, (moves, on, off) in PREDICTIONS.items()
        },
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
