"""Mutation checks: small faults in ``src/`` that named tests must catch.

Run from anywhere in a source checkout (stdlib and pytest only)::

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME ... # the named ones

The runner first runs the union of the mutants' selections on an unmutated
copy of ``src/``, which must pass.  Then, for each mutant, it copies
``src/`` to a temporary directory, replaces the mutant's old text (which
must occur exactly once in its file) by the new text, and runs the
mutant's pytest selection against the copy with ``-x -p no:cacheprovider``;
the selection must fail.  It prints one line per mutant and exits 1 when a
mutant survives, when an old text does not occur exactly once, or when the
unmutated run fails.

The file is not named ``test_*.py``, so the test suite does not collect it.
A change that rewrites a mutant's code rewrites or retires the mutant with
it; a mutant that survives is a finding to report, not one to drop.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/
    old: str  # must occur exactly once in the file
    new: str
    selection: tuple[str, ...]  # pytest arguments that must fail on the mutant
    source: str  # where the mutation was first tried


_EXTREMAL = "tests/test_extremal.py::"

MUTANTS = [
    Mutant(
        "cells-block-offset", "bootperc/colex.py",
        "low = int(self.hi[b] - (ends[b] - position))", "low = int(self.lo[b] + position)",
        (_EXTREMAL + "test_colex_chunks_concatenate_to_colex_order",),
        "CHANGES.md, the one reading of the search kernel (_Unit.cells)",
    ),
    Mutant(
        "cells-searchsorted-left", "bootperc/colex.py",
        'np.searchsorted(ends, position, side="right")', 'np.searchsorted(ends, position, side="left")',
        (_EXTREMAL + "test_colex_chunks_concatenate_to_colex_order",),
        "CHANGES.md, the one reading of the search kernel (_Unit.cells)",
    ),
    Mutant(
        "times-wrong-round", "bootperc/extremal.py",
        "times[_bits(new)] = t\n", "times[_bits(new)] = t + 1\n",
        (_EXTREMAL + "test_batch_kernel_matches_engine_for_every_threshold",),
        "CHANGES.md, the one reading of the search kernel (_times)",
    ),
    Mutant(
        "times-round-past-limit", "bootperc/extremal.py",
        "islice(_rounds(spec, planes), limit)", "islice(_rounds(spec, planes), None if limit is None else limit + 1)",
        (_EXTREMAL + "test_batch_kernel_matches_engine_for_every_threshold",),
        "CHANGES.md, the one reading of the search kernel (_times)",
    ),
    Mutant(
        "summary-signed-argmin", "bootperc/extremal.py",
        "np.argmin(times.view(np.uint32))", "np.argmin(times)",
        (_EXTREMAL + "test_unit_summary_matches_a_reduction_of_times",),
        "CHANGES.md, search units reduced where they are tested (_unit_summary)",
    ),
    Mutant(
        "min-size-drops-the-hit", "bootperc/extremal.py",
        "examined += first + 1", "examined += first",
        (_EXTREMAL + "test_min_size_examines_every_smaller_set_and_the_witness_colex_rank",),
        "CHANGES.md, search units reduced where they are tested (min_percolating_size)",
    ),
    Mutant(
        "min-time-drops-the-hit", "bootperc/extremal.py",
        "examined += at + 1", "examined += at",
        (_EXTREMAL + "test_min_time_pinned_results",),
        "CHANGES.md, search units reduced where they are tested (min_percolation_time)",
    ),
    Mutant(
        "symmetric-witness-uncounted", "bootperc/extremal.py",
        "[(spec, first + 1, *bounds)]", "[(spec, first, *bounds)]",
        (_EXTREMAL + "test_symmetric_count_matches_orbit_oracle",),
        "CHANGES.md, search units reduced where they are tested (the canonical count at the hit size)",
    ),
    Mutant(
        "oracle-threshold", "bootperc/dynamics.py",
        "if cnt >= r:", "if cnt > r:",
        ("tests/test_dynamics.py::test_run_nine_cell_instance",),
        "ROADMAP item 15 (an oracle that disagrees with the engine)",
    ),
]


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, selection: tuple[str, ...]) -> int:
    """pytest's exit code for ``selection`` run against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _check(mutant: Mutant) -> str:
    """'killed', or why the mutant does not count as killed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        path = src / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times, not once"
        path.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(src, mutant.selection)
    # 1: tests failed; anything else (2 interrupted, 4 usage, 5 none collected) is no kill
    return "killed" if code == 1 else f"survived (pytest exit {code})"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    union = tuple(dict.fromkeys(arg for m in mutants for arg in m.selection))
    with tempfile.TemporaryDirectory() as tmp:
        code = _pytest(_copy_src(Path(tmp)), union)
    print(f"{'unmutated':32} {'passed' if code == 0 else f'failed (pytest exit {code})'}", flush=True)
    failures = code != 0
    for mutant in mutants:
        start = time.perf_counter()
        verdict = _check(mutant)
        failures |= verdict != "killed"
        print(f"{mutant.name:32} {verdict} in {time.perf_counter() - start:.1f} s by {' '.join(mutant.selection)}",
              flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
