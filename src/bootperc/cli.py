"""Command-line frontend.

Exit codes: 0 success, 1 domain negative (a check came back false, or
--expect-percolates was not met), 2 usage or input error, 3 resource budget
exceeded or out of memory, 141 stdout closed by its reader (a broken pipe).
The environment variable BOOTPERC_BUDGET overrides the default search budget
when --budget is not given.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# One BLAS thread, set before numpy loads: the only LAPACK call is a
# 3-coefficient polyfit, and a worker thread costs startup time in every
# process and pool worker.  A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# Only the modules every command runs load here; each command imports the
# rest where it runs, so a simulation never compiles the searches.
from .constructions import CONSTRUCTIONS, SWEEP_CONSTRUCTIONS, build_construction
from .dynamics import CellSet, RunRecord, run, write_record_json
from .lattice import BudgetExceededError, LatticeSpec, NoPercolatingSetError, coordinates

BUDGET_ENV_VAR = "BOOTPERC_BUDGET"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _parse_every(text: str) -> int:
    if not text.startswith("every="):
        raise argparse.ArgumentTypeError("expected the form every=K")
    try:
        every = int(text[len("every="):])
    except ValueError:
        raise argparse.ArgumentTypeError("expected the form every=K with integer K")
    if every < 1:
        raise argparse.ArgumentTypeError("snapshot interval must be >= 1")
    return every


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) not in (2, 3) or not all(p.lstrip("-").isdigit() for p in parts):
        raise argparse.ArgumentTypeError(f"expected LO:HI or LO:HI:STEP, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return range(lo, hi + 1, step)


def _parse_cell(text: str) -> tuple[int, ...]:
    toks = text.replace(",", " ").split()
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a coordinate tuple: {text!r}")


def _resolve_budget(args: argparse.Namespace) -> int | None:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}")
    return None


def _spec_from(args: argparse.Namespace) -> LatticeSpec:
    return LatticeSpec(args.d, args.n, args.topology, args.r)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    sys.stdout.flush()


# -- commands ----------------------------------------------------------------


def _load_initial(args: argparse.Namespace) -> CellSet:
    if args.construction is not None:
        return build_construction(args.construction, args.d, args.n)
    with open(args.initial, "r", encoding="utf-8") as fh:
        return CellSet.from_text(fh.read(), args.d, args.n)


def _stream_snapshots(record: RunRecord, every: int) -> None:
    # one stable sort groups the cells of every emitted step, each group in
    # ascending index order as newly_infected would list them.  A K above T
    # emits step 0 alone, as K = T + 1 does, so K is clamped to T + 1: the
    # modulo would raise on a K that does not fit the times' dtype
    every = min(every, record.T + 1)
    times = record.times_array
    emitted = np.flatnonzero((times >= 0) & (times % every == 0))
    emitted = emitted[np.argsort(times[emitted], kind="stable")]
    steps = range(0, record.T + 1, every)
    bounds = np.searchsorted(times[emitted], [*steps, record.T + 1]).tolist()
    cells = coordinates(emitted, record.spec.d, record.spec.n).tolist()
    for k, step in enumerate(steps):
        _emit(json.dumps({"step": step, "cells": cells[bounds[k]:bounds[k + 1]]}))
    _emit(json.dumps({"T": record.T, "percolates": record.percolates}))


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    initial = _load_initial(args)
    record = run(spec, initial, audit=args.audit, record_trace=args.trace)
    if args.snapshot is not None:
        _stream_snapshots(record, args.snapshot)
    elif args.format == "json":
        write_record_json(record, sys.stdout)
        _emit("\n")
    else:
        _emit(
            f"d={spec.d} n={spec.n} topology={spec.topology} r={spec.r}\n"
            f"initial cells: {len(initial)}\n"
            f"percolates: {record.percolates}\n"
            f"T: {record.T}\n"
            f"infected: {np.count_nonzero(record.times_array >= 0)} / {spec.size}"
        )
    if args.expect_percolates and not record.percolates:
        return 1
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    cells = build_construction(args.construction, args.d, args.n)
    if args.format == "json":
        _emit(json.dumps(cells.to_coord_lists()))
    else:
        _emit(cells.to_text())
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    from .witness import StripContext, build_witness, write_witness_json

    ctx = StripContext(args.d, args.n, args.s)
    dag = build_witness(args.cell, ctx)
    if args.format == "json":
        write_witness_json(dag, sys.stdout)
        _emit("\n")
    elif args.format == "dot":
        _emit(dag.to_edge_list())
    else:
        _emit(
            f"root: {dag.root}\nstrip: {ctx.s} (levels {ctx.lower_level}..{ctx.upper_level})\n"
            f"nodes: {len(dag.nodes)} ({len(dag.leaf_labels())} leaves)\ndepth: {dag.depth}"
        )
    return 0


def cmd_search_min_set(args: argparse.Namespace) -> int:
    from .extremal import min_percolating_size

    spec = _spec_from(args)
    max_size = args.max_size if args.max_size is not None else spec.size
    result = min_percolating_size(
        spec,
        max_size,
        budget=_resolve_budget(args),
        symmetry=args.symmetry,
        parallelism=args.parallelism,
    )
    if args.format == "json":
        _emit(json.dumps(result.to_json_dict(), indent=2))
    elif result.optimum is None:
        _emit(f"no percolating set of size <= {max_size}")
    else:
        _emit(f"optimum: {result.optimum}\nwitness:\n{result.witness.to_text()}")
    return 0 if result.optimum is not None else 1


def cmd_search_min_time(args: argparse.Namespace) -> int:
    from .extremal import min_percolation_time

    spec = _spec_from(args)
    result = min_percolation_time(
        spec, args.size, budget=_resolve_budget(args), parallelism=args.parallelism
    )
    if args.format == "json":
        _emit(json.dumps(result.to_json_dict(), indent=2))
    else:
        _emit(f"optimum: {result.optimum}\nwitness:\n{result.witness.to_text()}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import sweep_time

    table = sweep_time(args.d, args.n_range, args.construction, parallelism=args.parallelism)
    if args.format == "json":
        _emit(json.dumps(table.to_json_dict(), indent=2))
    else:
        _emit(table.to_csv())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .experiments import verify_separation, verify_strip_fill

    if args.check == "strip-fill":
        if args.s is None:
            raise ValueError("verify --check strip-fill requires --s")
        ok = verify_strip_fill(args.d, args.n, args.s)
        _emit(f"strip-fill d={args.d} n={args.n} s={args.s}: {'OK' if ok else 'FAILED'}")
        return 0 if ok else 1
    report = verify_separation(args.d, args.n)
    lines = [
        f"separation d={args.d} n={args.n} seeds at levels "
        f"{report.seed_levels[0]} and {report.seed_levels[1]}: "
        f"{'OK' if report.holds else 'FAILED'}",
        f"closure percolates: {report.percolates}",
    ]
    for lv in report.levels:
        marker = " (must stay partial)" if lv.required else ""
        lines.append(f"level {lv.level}: {lv.infected}/{lv.total} infected{marker}")
    _emit("\n".join(lines))
    return 0 if report.holds else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="d-neighbour bootstrap percolation: simulate, construct, certify, search, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lattice_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=_positive_int, required=True, help="number of dimensions")
        p.add_argument("--n", type=_positive_int, required=True, help="side length")
        p.add_argument("--r", type=_positive_int, default=None, help="infection threshold (default: d)")
        p.add_argument("--topology", choices=("grid", "torus"), default="grid")

    p = sub.add_parser("simulate", help="run one percolation process to stabilisation")
    add_lattice_args(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--construction", choices=CONSTRUCTIONS, help="named initial set")
    source.add_argument("--initial", help="file with one cell per line (d space-separated coordinates)")
    p.add_argument("--audit", action="store_true", help="record per-infection neighbour counts")
    p.add_argument("--trace", action="store_true", help="record the perimeter after every step (grid only)")
    p.add_argument("--snapshot", type=_parse_every, default=None, metavar="every=K",
                   help="stream newly infected cells every K steps as JSON lines")
    p.add_argument("--expect-percolates", action="store_true",
                   help="exit 1 if the process does not percolate")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("construct", help="print a named initial set")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--construction", choices=CONSTRUCTIONS, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("witness", help="build the infection certificate DAG of one cell")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--s", type=_positive_int, required=True, help="strip index")
    p.add_argument("--cell", type=_parse_cell, required=True, help="cell coordinates, e.g. 4,2,2")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("search-min-set", help="smallest percolating set by exhaustive search")
    add_lattice_args(p)
    p.add_argument("--max-size", type=_positive_int, default=None,
                   help="largest size to try (default: the whole lattice)")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help=f"max candidate sets to examine (default 10^8, env {BUDGET_ENV_VAR})")
    p.add_argument("--symmetry", action="store_true",
                   help="count candidates up to the lattice symmetries (same search and witness)")
    p.add_argument("--parallelism", type=_positive_int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_search_min_set)

    p = sub.add_parser("search-min-time", help="minimum percolation time over sets of a fixed size")
    add_lattice_args(p)
    p.add_argument("--size", type=_positive_int, required=True, help="exact size of the initial sets")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--parallelism", type=_positive_int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_search_min_time)

    p = sub.add_parser("sweep", help="percolation time of a construction over a range of n")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--construction", choices=SWEEP_CONSTRUCTIONS, required=True)
    p.add_argument("--n-range", type=_parse_range, required=True, metavar="LO:HI[:STEP]")
    p.add_argument("--parallelism", type=_positive_int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="strip-fill and separation checks")
    p.add_argument("--check", choices=("strip-fill", "separation"), required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--s", type=_positive_int, default=None, help="strip index (strip-fill only)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("; ".join(filter(None, ["error: out of memory", str(exc)])), file=sys.stderr)
        return 3
    except NoPercolatingSetError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`).  stdout's descriptor now
        # leads to os.devnull, so the interpreter's final flush of what is
        # left writes nowhere and prints nothing, and the code is the one a
        # shell reports for a process that SIGPIPE ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    # The objects that the imports made (numpy's and the loaded modules',
    # about 22,000) live until the process ends.  Frozen, they are left out
    # of every later full collection, interpreter teardown's included.
    # Only this entry point freezes: a library caller or an in-process
    # main() keeps the usual collector.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    console_main()
