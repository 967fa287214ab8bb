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
        "rounds-no-write-back", "bootperc/extremal.py",
        "            planes[:, active] = grown\n", "            pass\n",
        (_EXTREMAL + "test_rounds_on_settling_words_match_the_engine",),
        "CHANGES.md, search rounds skip settled words (_rounds)",
    ),
    Mutant(
        "rounds-active-renumbered", "bootperc/extremal.py",
        "active = active[changed]", "active = np.flatnonzero(changed)",
        (_EXTREMAL + "test_rounds_on_settling_words_match_the_engine",),
        "CHANGES.md, search rounds skip settled words (_rounds)",
    ),
    Mutant(
        "nonzero-words-drops-the-last-row", "bootperc/extremal.py",
        "rows[:half] |= rows[len(rows) - half :]", "rows[:half] |= rows[half : 2 * half]",
        (_EXTREMAL + "test_nonzero_words_match_any_over_rows",),
        "CHANGES.md, search rounds skip settled words (_nonzero_words)",
    ),
    Mutant(
        "counter-drops-a-live-level", "bootperc/extremal.py",
        "r - len(columns) + i", "r - len(columns) + i + 1",
        (_EXTREMAL + "test_batch_kernel_matches_engine_for_every_threshold",),
        "CHANGES.md, search rounds skip settled words (the counter's dead levels)",
    ),
    Mutant(
        "perimeter-floor-plus-one", "bootperc/extremal.py",
        "return spec.n ** (spec.d - 1) if", "return spec.n ** (spec.d - 1) + 1 if",
        (_EXTREMAL + "test_min_size_examines_every_smaller_set_and_the_witness_colex_rank",
         _EXTREMAL + "test_perimeter_prune_matches_the_unpruned_search"),
        "CHANGES.md, the perimeter bound decides grid searches (a floor one past n^(d-1))",
    ),
    Mutant(
        "perimeter-floor-on-any-lattice", "bootperc/extremal.py",
        'spec.topology == "grid" and spec.r >= spec.d', 'spec.topology == "grid" or spec.r >= spec.d',
        (_EXTREMAL + "test_min_size_examines_every_smaller_set_and_the_witness_colex_rank",
         _EXTREMAL + "test_perimeter_floor_only_on_grids_with_r_at_least_d"),
        "CHANGES.md, the perimeter bound decides grid searches (the prune on a torus or with r < d)",
    ),
    Mutant(
        "perimeter-prune-above-the-floor", "bootperc/extremal.py",
        "if bounds[0] == _perimeter_floor(spec):", "if bounds[0] >= _perimeter_floor(spec):",
        (_EXTREMAL + "test_min_size_examines_every_smaller_set_and_the_witness_colex_rank",),
        "CHANGES.md, the perimeter bound decides grid searches (neighbouring pairs cleared past the floor)",
    ),
    Mutant(
        "seed-planes-first-slab-only", "bootperc/colex.py",
        "slab = rows[first : first + _SLAB]", "slab = rows[:_SLAB]",
        (_EXTREMAL + "test_seed_planes_match_a_bool_scatter",),
        "CHANGES.md, search rounds skip settled words (_seed_planes packs bytes)",
    ),
    Mutant(
        "canonical-doubling-skips-rows", "bootperc/extremal.py",
        "            shift *= 2\n", "            shift *= 3\n",
        (_EXTREMAL + "test_canonical_flags_match_brute_force",),
        "CHANGES.md, search rounds skip settled words (_canonical_flags' prefix OR)",
    ),
    Mutant(
        "engine-crossing-count-at-least-r", "bootperc/dynamics.py",
        "candidates[counts[candidates] < added]", "candidates[counts[candidates] < 128]",
        ("tests/test_dynamics.py::test_run_length_counts_match_the_oracle_on_random_seeds",),
        "ROADMAP item 15 (engine rounds in blocks: a count >= r crossing test)",
    ),
    Mutant(
        "engine-last-block-only", "bootperc/dynamics.py",
        "frontier = crossed[0] if len(crossed) == 1 else np.concatenate(crossed)", "frontier = crossed[-1]",
        ("tests/test_dynamics.py::test_run_length_counts_match_the_oracle_on_random_seeds",),
        "ROADMAP item 15 (engine rounds in blocks: only the last block's crossings)",
    ),
    Mutant(
        "engine-unique-frontier", "bootperc/dynamics.py",
        "frontier = crossed[0] if len(crossed) == 1 else np.concatenate(crossed)",
        "frontier = np.unique(crossed[0] if len(crossed) == 1 else np.concatenate(crossed))",
        ("tests/test_cli.py::test_engine_paths_never_load_numpy_ma",),
        "ROADMAP item 15 (engine rounds in blocks: an np.unique that imports numpy.ma)",
    ),
    Mutant(
        "engine-one-block-per-round", "bootperc/dynamics.py",
        "_ROUND_CELLS = 1 << 12", "_ROUND_CELLS = 1 << 30",
        ("tests/test_dynamics.py::test_engine_peak_memory_per_cell",),
        "ROADMAP item 15 (engine rounds in blocks: the whole frontier in one block)",
    ),
    Mutant(
        "parser-hash-comments", "bootperc/dynamics.py",
        "ndmin=2, comments=None)", "ndmin=2)",
        ("tests/test_dynamics.py::test_cellset_from_text_rejects_garbage",),
        "CHANGES.md, --initial read by one np.loadtxt call (from_text: a '#' line is a bad line)",
    ),
    Mutant(
        "parser-table-ndmin-0", "bootperc/dynamics.py",
        "ndmin=2,", "ndmin=0,",
        ("tests/test_dynamics.py::test_cellset_from_text_one_line_of_one_coordinate",),
        "CHANGES.md, --initial read by one np.loadtxt call (from_text: a one-cell d = 1 file)",
    ),
    Mutant(
        "parser-warnings-not-errors", "bootperc/dynamics.py",
        '                warnings.simplefilter("error")\n', "",
        ("tests/test_dynamics.py::test_cellset_from_empty_text",),
        "CHANGES.md, --initial read by one np.loadtxt call (from_text: loadtxt's warning on an empty file)",
    ),
    Mutant(
        "audit-rows-whole-table", "bootperc/dynamics.py",
        "events = self.events[block]", "events = self.events",
        ("tests/test_dynamics.py::test_writer_splits_lists_into_blocks",),
        "CHANGES.md, record-path text at table speed (_AuditRows)",
    ),
    Mutant(
        "snapshot-separator-without-space", "bootperc/cli.py",
        '", ".join(cells[bounds[k]:bounds[k + 1]])', '",".join(cells[bounds[k]:bounds[k + 1]])',
        ("tests/test_golden_output.py::test_snapshot_lines_are_pinned",),
        "CHANGES.md, record-path text at table speed (_stream_snapshots)",
    ),
    Mutant(
        "orbit-rank-delta-off-by-one", "bootperc/experiments.py",
        "rank - binom[part[:, a] - 1, a]", "rank - binom[part[:, a], a]",
        ("tests/test_experiments.py::test_orbit_rows_are_the_sorted_neighbours",
         "tests/test_experiments.py::test_orbit_times_match_the_engine_on_every_cell"),
        "CHANGES.md, sweeps on the coordinate-permutation orbits (lowering y_a loses comb(z_q - 1, q))",
    ),
    Mutant(
        "orbit-face-entry-is-a-neighbour", "bootperc/experiments.py",
        "np.where(part[:, a] > 0, rank", "np.where(part[:, a] >= 0, rank",
        ("tests/test_experiments.py::test_orbit_rows_are_the_sorted_neighbours",
         "tests/test_experiments.py::test_orbit_times_match_the_engine_on_every_cell"),
        "CHANGES.md, sweeps on the coordinate-permutation orbits (the low face of axis 1 reads the orbit ranked before)",
    ),
    Mutant(
        "orbit-size-place-off-by-one", "bootperc/experiments.py",
        "place + 1, 1)", "place + 2, 1)",
        ("tests/test_experiments.py::test_orbit_sizes_count_the_cells_of_each_orbit",
         "tests/test_experiments.py::test_batched_sweep_matches_one_run_per_n"),
        "CHANGES.md, every campaign on orbit masks (an orbit's size as a running multinomial)",
    ),
    Mutant(
        "shifted-residue-sign-flipped", "bootperc/experiments.py",
        "else -(n // 2) % n)", "else (n // 2) % n)",
        ("tests/test_experiments.py::test_sweep_seeds_are_the_constructions_read_on_orbits",
         "tests/test_experiments.py::test_batched_sweep_matches_one_run_per_n"),
        "CHANGES.md, every campaign on orbit masks (the shifted union as a residue class of the level)",
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
