import gc
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bootperc
from bootperc import cli
from bootperc.cli import main
from bootperc.dynamics import run
from bootperc.constructions import diagonal, hyperplane_union
from bootperc.lattice import LatticeSpec


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env() -> dict:
    """This process's environment, with the tested package first on PYTHONPATH."""
    src = str(Path(bootperc.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_simulate_reference_run(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--d", "3", "--n", "6", "--construction", "hyperplanes", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == 14 and doc["percolates"] is True
    assert len(doc["times"]) == 216


def test_simulate_is_a_thin_adapter(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--d", "2", "--n", "4", "--construction", "diagonal2d",
        "--trace", "--audit", "--format", "json",
    )
    assert code == 0
    spec = LatticeSpec(2, 4)
    from bootperc.constructions import diagonal

    record = run(spec, diagonal(4), audit=True, record_trace=True)
    assert json.loads(out) == record.to_json_dict()


def test_simulate_output_is_byte_identical(capsys):
    args = ("simulate", "--d", "2", "--n", "5", "--construction", "hyperplanes", "--format", "json")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_simulate_empty_initial_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, _ = invoke(capsys, "simulate", "--d", "2", "--n", "3", "--initial", str(empty))
    assert code == 0
    assert json.loads(out)["percolates"] is False


def test_simulate_expect_percolates_negative(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, _ = invoke(
        capsys, "simulate", "--d", "2", "--n", "3", "--initial", str(empty), "--expect-percolates"
    )
    assert code == 1


def test_simulate_initial_file_round_trip(tmp_path, capsys):
    path = tmp_path / "cells.txt"
    path.write_text(hyperplane_union(2, 3).to_text())
    code, out, _ = invoke(capsys, "simulate", "--d", "2", "--n", "3", "--initial", str(path))
    assert code == 0
    assert json.loads(out)["T"] == 3


def test_simulate_usage_errors(tmp_path, capsys):
    code, _, _ = invoke(capsys, "simulate", "--d", "0", "--n", "3", "--construction", "hyperplanes")
    assert code == 2
    code, _, _ = invoke(capsys, "simulate", "--d", "2", "--n", "3")  # no initial set source
    assert code == 2
    code, _, _ = invoke(
        capsys, "simulate", "--d", "2", "--n", "3", "--initial", str(tmp_path / "missing.txt")
    )
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    code, _, err = invoke(capsys, "simulate", "--d", "2", "--n", "3", "--initial", str(bad))
    assert code == 2 and "error:" in err


# stderr of a bad --initial file, byte for byte as the per-line parser wrote it
BAD_INITIAL = [
    (b"4 1 1\n1 1 1\n1 z 1\n", "error: line 3: not a coordinate list: '1 z 1'\n"),
    (b"1 1 1\r\n2 2\r\n", "error: line 2: expected 3 coordinates, got 2\n"),
    (b"1 1 1\n1 5 1\n", "error: coordinate 5 of cell (1, 5, 1) lies outside [1, 4]\n"),
    (
        b"1 1 1\n99999999999999999999999 1 1\n",
        "error: coordinate 99999999999999999999999 of cell (99999999999999999999999, 1, 1) lies outside [1, 4]\n",
    ),
]


@pytest.mark.parametrize("content, stderr", BAD_INITIAL)
def test_simulate_bad_initial_file_message(tmp_path, capsys, content, stderr):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    code, out, err = invoke(capsys, "simulate", "--d", "3", "--n", "4", "--initial", str(bad))
    assert (code, out, err) == (2, "", stderr)


# the bootperc modules that `import bootperc.cli` loads: those that every command runs
CLI_MODULES = ["bootperc.constructions", "bootperc.dynamics", "bootperc.lattice"]


def test_cli_import_loads_no_pool_modules():
    # the process pool's modules load only when a search or sweep starts a
    # pool, whichever entry point is imported (each in a fresh process); the
    # package alone loads neither numpy nor any of its own submodules, and
    # bootperc.colex, which exports no name, still resolves on first use
    env = _src_env()
    for module in ("bootperc", "bootperc.cli", "bootperc.experiments"):
        code = (
            f"import sys, {module}; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules))); "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('bootperc.'))); "
            "print(sys.modules['bootperc'].colex is sys.modules['bootperc.colex'])"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        pool, loaded, colex = result.stdout.splitlines()
        assert (pool, colex) == ("[]", "True"), module
        expected = {"bootperc": [], "bootperc.cli": [*CLI_MODULES, "bootperc.cli", "numpy"],
                    "bootperc.experiments": [*CLI_MODULES, "bootperc.experiments", "numpy"]}[module]
        assert loaded == str(sorted(expected)), module


# the bootperc modules beyond CLI_MODULES that each command loads
COMMAND_MODULES = [
    ("simulate --construction hyperplanes --d 2 --n 3", []),
    ("construct --construction hyperplanes --d 2 --n 3", []),
    ("witness --d 3 --n 5 --s 2 --cell 4,2,2", ["witness"]),
    ("search-min-set --d 2 --n 3", ["colex", "extremal"]),
    ("search-min-time --d 2 --n 3 --size 3", ["colex", "extremal"]),
    ("sweep --construction hyperplanes --d 2 --n-range 3:6", ["experiments"]),
    # a sweep that starts a pool loads no search either: the pool lives in dynamics
    ("sweep --construction hyperplanes --d 2 --n-range 3:6 --parallelism 2", ["experiments"]),
    ("verify --check strip-fill --d 3 --n 6 --s 2", ["experiments", "witness"]),
    ("verify --check separation --d 3 --n 6", ["experiments"]),
]


@pytest.mark.parametrize("argv, extra", COMMAND_MODULES, ids=[argv.split()[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_its_modules(argv, extra):
    # the command runs in a fresh process as `python -m bootperc.cli` runs
    # it, through console_main, and the modules are listed as it exits
    code = (
        "import atexit, runpy, sys; "
        "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('bootperc.')), file=sys.stderr)); "
        "runpy.run_module('bootperc.cli', run_name='__main__', alter_sys=True)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv.split()], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stderr.splitlines()[-1]
    assert loaded == str(sorted(CLI_MODULES + [f"bootperc.{m}" for m in extra]))


def test_console_main_freezes_the_startup_heap(monkeypatch, capsys):
    # main() run in process, as by a library caller or these tests, freezes nothing
    assert gc.get_freeze_count() == 0
    assert invoke(capsys, "construct", "--d", "2", "--n", "3", "--construction", "hyperplanes")[0] == 0
    assert gc.get_freeze_count() == 0
    # the entry point has frozen the objects made so far when main() starts
    frozen = []
    monkeypatch.setattr(cli, "main", lambda: frozen.append(gc.get_freeze_count()) or 0)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.console_main()
    finally:
        gc.unfreeze()
    assert exc.value.code == 0 and frozen[0] > 0


@pytest.mark.parametrize(
    "argv",
    ["simulate --construction hyperplanes --d 5 --n 12 --format text",
     "sweep --construction hyperplanes --d 3 --n-range 10:20 --format json",
     "verify --check strip-fill --d 3 --n 6 --s 2",
     "verify --check separation --d 3 --n 6"],
)
def test_engine_paths_never_load_numpy_ma(argv):
    # under numpy 2, np.unique asked for no index, inverse or count reads
    # np.ma.is_masked, which imports numpy.ma: the d = 3 sweep's peak RSS
    # went 33.0 -> 34.5 MB with one such call per round; a run and a sweep,
    # each in a fresh process, load it only if importing numpy did (numpy 1
    # imports numpy.ma with the package, numpy 2 on first use)
    env = _src_env()
    code = (
        "import sys, bootperc.cli, numpy; before = 'numpy.ma' in sys.modules; "
        "print(bootperc.cli.main(sys.argv[1:]), before, 'numpy.ma' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv.split()], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    code, before, after = result.stdout.splitlines()[-1].split()
    assert (code, after) == ("0", before)


def test_closed_stdout_exits_141_quietly():
    # the reader takes one byte and closes the pipe, far ahead of the
    # document's end; the CLI drops the rest and prints nothing to stderr
    env = _src_env()
    argv = "simulate --construction hyperplanes --d 3 --n 20 --trace --audit --format json".split()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bootperc.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through Linux /proc")
def test_cli_import_starts_no_blas_thread():
    # the CLI asks for one OpenBLAS thread before numpy loads, so the process
    # keeps its one thread; a number the user set is left as it is
    env = _src_env()
    code = "import os, bootperc.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"

    def threads_and_setting():
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    env.pop("OPENBLAS_NUM_THREADS", None)
    assert threads_and_setting() == ["1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert threads_and_setting()[1] == "2"


# the 45 public names of the package
PUBLIC_NAMES = {
    "AuditEvent", "BudgetExceededError", "CONSTRUCTIONS", "Cell", "CellSet", "LatticeSpec",
    "NoPercolatingSetError", "RunRecord", "SearchResult", "SeparationReport", "StripContext",
    "SweepRow", "SweepTable", "Topology", "WitnessCycleError", "WitnessDag", "WitnessNode",
    "boundary", "build_construction", "build_witness", "closure", "coordinate_sum_above", "diagonal",
    "hyperplane_union", "infectors", "is_minimal", "iter_level_cells", "iter_strip_cells", "level_offset",
    "level_set", "max_depth_bound", "min_percolating_size", "min_percolation_time",
    "neighbors", "perimeter", "run", "run_naive", "shifted_union", "squared_coordinate_sum",
    "sweep_time", "torus3_seed", "verify_separation", "verify_strip_fill", "write_record_json",
    "write_witness_json",
}


def test_package_namespace_resolves_every_public_name():
    assert len(bootperc.__all__) == len(PUBLIC_NAMES) == 45
    assert set(bootperc.__all__) == PUBLIC_NAMES
    for name in bootperc.__all__:
        home = importlib.import_module(f"bootperc.{bootperc._HOME[name]}")
        assert getattr(bootperc, name) is getattr(home, name), name
    for module in ("colex", "constructions", "dynamics", "experiments", "extremal", "lattice", "witness"):
        assert getattr(bootperc, module) is importlib.import_module(f"bootperc.{module}")
    namespace = {}
    exec("from bootperc import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert all(namespace[name] is getattr(bootperc, name) for name in PUBLIC_NAMES)
    assert PUBLIC_NAMES <= set(dir(bootperc))
    for name in ("no_such_name", "cell_to_index", "index_to_cell", "level_of", "colex_combinations"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(bootperc, name)


def test_out_of_memory_is_a_resource_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr("bootperc.cli.run", refuse)
    code, out, err = invoke(capsys, "simulate", "--d", "2", "--n", "3", "--construction", "hyperplanes")
    assert (code, out) == (3, "")
    assert err == "error: out of memory; Unable to allocate 8.00 GiB for an array\n"


def test_simulate_torus_trace_is_input_error(capsys):
    code, _, err = invoke(
        capsys, "simulate", "--d", "2", "--n", "3", "--topology", "torus",
        "--construction", "hyperplanes", "--trace",
    )
    assert code == 2 and "grid" in err


def test_simulate_snapshot_stream(capsys):
    record = run(LatticeSpec(2, 5), diagonal(5))
    for every, steps in ((1, [0, 1, 2, 3, 4]), (2, [0, 2, 4]), (3, [0, 3])):
        code, out, _ = invoke(
            capsys, "simulate", "--d", "2", "--n", "5", "--construction", "diagonal2d",
            "--snapshot", f"every={every}",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["step"] == 0 and len(lines[0]["cells"]) == 5
        assert [entry["step"] for entry in lines[:-1]] == steps
        for entry in lines[:-1]:
            assert [tuple(c) for c in entry["cells"]] == record.newly_infected(entry["step"])
        assert lines[-1] == {"T": 4, "percolates": True}


def test_simulate_snapshot_interval_beyond_the_times_dtype(capsys):
    # every K above T emits step 0 alone, as K = T + 1 does, even when K
    # fits no integer dtype of the times column
    def snapshot(every):
        return invoke(
            capsys, "simulate", "--d", "3", "--n", "6", "--construction", "hyperplanes",
            "--snapshot", f"every={every}",
        )

    reference = snapshot(15)  # T = 14
    assert reference[0] == 0 and reference[1].count("\n") == 2
    assert snapshot(2**31) == snapshot(10**20) == reference


def test_construct_text_and_json(capsys):
    code, out, _ = invoke(capsys, "construct", "--d", "2", "--n", "3", "--construction", "hyperplanes")
    assert code == 0
    assert out.splitlines() == ["1 2", "2 1", "3 3"]
    code, out, _ = invoke(
        capsys, "construct", "--d", "2", "--n", "3", "--construction", "hyperplanes",
        "--format", "json",
    )
    assert json.loads(out) == [[1, 2], [2, 1], [3, 3]]


def test_witness_command(capsys):
    code, out, _ = invoke(
        capsys, "witness", "--d", "3", "--n", "5", "--s", "2", "--cell", "4,2,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["depth"] == 4 and doc["root"] == [4, 2, 2]
    code, out, _ = invoke(
        capsys, "witness", "--d", "3", "--n", "5", "--s", "2", "--cell", "4,2,2", "--format", "dot"
    )
    assert "4,2,2 -> 3,2,2" in out.splitlines()


def test_witness_outside_strip_is_input_error(capsys):
    code, _, err = invoke(capsys, "witness", "--d", "3", "--n", "5", "--s", "2", "--cell", "1,1,1")
    assert code == 2 and "error:" in err


def test_search_min_set(capsys):
    code, out, _ = invoke(capsys, "search-min-set", "--d", "2", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["optimum"] == 3 and len(doc["witness"]) == 3
    assert doc["exhaustive"] is True


def test_search_min_set_none_found_is_domain_negative(capsys):
    code, out, _ = invoke(capsys, "search-min-set", "--d", "2", "--n", "3", "--max-size", "2")
    assert code == 1
    assert json.loads(out)["optimum"] is None


def test_search_min_set_is_a_thin_adapter(capsys):
    from bootperc.extremal import min_percolating_size

    code, out, _ = invoke(capsys, "search-min-set", "--d", "2", "--n", "3")
    assert code == 0
    assert json.loads(out) == min_percolating_size(LatticeSpec(2, 3), 9).to_json_dict()


def test_search_parallelism_flag(capsys):
    code, out, _ = invoke(
        capsys, "search-min-set", "--d", "2", "--n", "3", "--parallelism", "2"
    )
    assert code == 0
    _, serial, _ = invoke(capsys, "search-min-set", "--d", "2", "--n", "3")
    assert out == serial


def test_search_min_set_torus(capsys):
    code, out, _ = invoke(
        capsys, "search-min-set", "--d", "2", "--n", "3", "--topology", "torus"
    )
    assert code == 0
    assert json.loads(out)["optimum"] == 2


def test_search_min_time(capsys):
    code, out, _ = invoke(capsys, "search-min-time", "--d", "2", "--n", "3", "--size", "3")
    assert code == 0
    assert json.loads(out)["optimum"] == 2


def test_simulate_explicit_threshold(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--d", "2", "--n", "5", "--r", "1",
        "--construction", "diagonal2d", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    # with r=1 the diagonal spreads one L1 step per round: T = max |a-b| = n-1
    assert doc["r"] == 1 and doc["T"] == 4


def test_search_min_time_no_set_exits_one(capsys):
    code, _, err = invoke(capsys, "search-min-time", "--d", "2", "--n", "3", "--size", "1")
    assert code == 1
    assert "no percolating set" in err


def test_budget_exceeded_exits_three(capsys):
    code, _, err = invoke(
        capsys, "search-min-set", "--d", "2", "--n", "5", "--budget", "100"
    )
    assert code == 3 and "budget" in err


def test_budget_is_charged_one_size_at_a_time(capsys):
    # sizes 1-4 of [4]^2 take 16 + 120 + 560 + 1820 = 2516 sets; size 5
    # would exceed the budget, but the search hits at 4 first
    code, out, _ = invoke(capsys, "search-min-set", "--d", "2", "--n", "4", "--budget", "3000")
    doc = json.loads(out)
    assert code == 0 and doc["optimum"] == 4 and doc["instances_examined"] == 1200


def test_budget_env_var(monkeypatch, capsys):
    monkeypatch.setenv("BOOTPERC_BUDGET", "100")
    code, _, _ = invoke(capsys, "search-min-set", "--d", "2", "--n", "5")
    assert code == 3
    monkeypatch.setenv("BOOTPERC_BUDGET", "not-a-number")
    code, _, _ = invoke(capsys, "search-min-set", "--d", "2", "--n", "5")
    assert code == 2


def test_budget_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("BOOTPERC_BUDGET", "100")
    code, out, _ = invoke(
        capsys, "search-min-set", "--d", "2", "--n", "3", "--budget", "1000"
    )
    assert code == 0 and json.loads(out)["optimum"] == 3


def test_sweep_csv_and_determinism(capsys):
    args = ("sweep", "--d", "2", "--construction", "hyperplanes", "--n-range", "3:6")
    code, first, _ = invoke(capsys, *args)
    assert code == 0
    assert first.splitlines()[0] == "d,construction,n,T,percolates,cells"
    assert first.splitlines()[1] == "2,hyperplanes,3,3,true,3"
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_sweep_json_with_step(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--d", "2", "--construction", "hyperplanes",
        "--n-range", "3:9:3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc["rows"]] == [3, 6, 9]
    # the rows' fields only: no timing field reaches the document
    assert set(doc) == {"d", "construction", "rows", "fit"}
    assert all(set(row) == {"n", "T", "percolates", "cells", "within_bound"} for row in doc["rows"])


@pytest.mark.parametrize(
    "argv, message",
    [
        ("simulate --d 2 --n x --construction hyperplanes", "argument --n: not an integer: 'x'"),
        ("simulate --d 2 --n 3 --construction hyperplanes --snapshot 3",
         "argument --snapshot: expected the form every=K"),
        ("simulate --d 2 --n 3 --construction hyperplanes --snapshot every=x",
         "argument --snapshot: expected the form every=K with integer K"),
        ("simulate --d 2 --n 3 --construction hyperplanes --snapshot every=0",
         "argument --snapshot: snapshot interval must be >= 1"),
        ("sweep --d 2 --construction hyperplanes --n-range 1-5",
         "argument --n-range: expected LO:HI or LO:HI:STEP, got '1-5'"),
        ("witness --d 3 --n 5 --s 2 --cell a,b", "argument --cell: not a coordinate tuple: 'a,b'"),
    ],
    ids=["n", "snapshot-form", "snapshot-integer", "snapshot-zero", "n-range", "cell"],
)
def test_argument_type_errors(capsys, argv, message):
    code, out, err = invoke(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"bootperc {argv.split()[0]}: error: {message}"


def test_sweep_bad_range(capsys):
    code, _, _ = invoke(capsys, "sweep", "--d", "2", "--construction", "hyperplanes", "--n-range", "9:3")
    assert code == 2


def test_sweep_refuses_a_huge_range_before_building_it(capsys):
    # 10^13 values would take 80 TB as a list; the budget refuses n=204 first
    tracemalloc.start()
    try:
        code, out, err = invoke(
            capsys, "sweep", "--d", "3", "--construction", "hyperplanes", "--n-range", "1:10000000000000"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == "error: n=204 needs 8489664 cells, over the cell budget of 8388608\n"
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "d, code, err",
    [
        ("32", 2, f"error: 2**32 cells exceed the limit of {2**31}\n"),
        ("31", 3, f"error: search over {2**31} candidate sets exceeds the budget of 100000000\n"),
    ],
)
def test_lattices_over_2_31_cells_are_refused_up_front(capsys, d, code, err):
    # 2^31 cells is the last lattice whose indices all fit in int32; neither
    # case allocates a per-cell array
    tracemalloc.start()
    try:
        result = invoke(capsys, "search-min-set", "--d", d, "--n", "2", "--max-size", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (code, "", err)
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "d, n_range, code, err",
    [
        ("3", "1:100000000000000000000", 3,
         "error: n=204 needs 8489664 cells, over the cell budget of 8388608\n"),
        ("2", "1:100000000000000000000", 3,
         "error: n=2897 needs 8392609 cells, over the cell budget of 8388608\n"),
        # a value below 1 is refused before the budget, whatever the sign of n**d
        ("2", "-100000000000000000000:5", 2, "error: invalid shape d=2, n=-100000000000000000000\n"),
        ("3", "-100000000000000000000:5", 2, "error: invalid shape d=3, n=-100000000000000000000\n"),
    ],
    ids=["d3", "d2", "d2-negative", "d3-negative"],
)
def test_sweep_range_longer_than_sys_maxsize(capsys, d, n_range, code, err):
    # len() of these ranges overflows a C ssize_t, so the budget check uses none
    assert invoke(capsys, "sweep", "--d", d, "--construction", "hyperplanes", f"--n-range={n_range}") == (
        code, "", err
    )


@pytest.mark.parametrize(
    "argv, out",
    [
        # one-cell lattices from d = 35, where a table of every comb(m, i), m < n + d - 1 and i < d, passes int32
        ("sweep --d 35 --construction hyperplanes --n-range 1:1",
         "d,construction,n,T,percolates,cells\n35,hyperplanes,1,0,true,1\n"),
        ("verify --check strip-fill --d 40 --n 1 --s 40", "strip-fill d=40 n=1 s=40: OK\n"),
        # [2]^23 has 2^23 cells, all on the boundary; 23! is past int64
        ("sweep --d 23 --construction boundary --n-range 1:2",
         "d,construction,n,T,percolates,cells\n23,boundary,1,0,true,1\n23,boundary,2,0,true,8388608\n"),
    ],
    ids=["sweep-d35", "strip-fill-d40", "sweep-d23"],
)
def test_orbit_runs_in_high_dimension(capsys, argv, out):
    assert invoke(capsys, *argv.split()) == (0, out, "")


@pytest.mark.parametrize("check", ["--check separation", "--check strip-fill --s 30"])
def test_verify_refuses_a_lattice_over_2_31_cells_before_any_work(capsys, monkeypatch, check):
    from bootperc import experiments

    def refuse(*args):
        raise AssertionError("the orbits were built")

    monkeypatch.setattr(experiments, "_orbits", refuse)
    argv = f"verify {check} --d 50 --n 2".split()
    assert invoke(capsys, *argv) == (2, "", f"error: 2**50 cells exceed the limit of {2**31}\n")


def test_verify_strip_fill(capsys):
    code, out, _ = invoke(capsys, "verify", "--check", "strip-fill", "--d", "3", "--n", "5", "--s", "2")
    assert code == 0 and "OK" in out
    code, _, err = invoke(capsys, "verify", "--check", "strip-fill", "--d", "3", "--n", "5")
    assert code == 2 and "requires --s" in err


def test_verify_separation(capsys):
    code, out, _ = invoke(capsys, "verify", "--check", "separation", "--d", "2", "--n", "4")
    assert code == 0
    assert "OK" in out and "must stay partial" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
