"""bootperc: d-neighbour bootstrap percolation on grids and tori.

Deterministic simulation engine, the standard extremal constructions,
infection-certificate machinery, exhaustive extremal searches, and scripted
verification campaigns, all exposed both as a library and through the
``bootperc`` command-line tool.

Public names resolve on first use (PEP 562), so ``import bootperc`` alone
loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it exports
_EXPORTS = {
    "colex": (),  # no public names; the key alone lets bootperc.colex resolve
    "constructions": ("CONSTRUCTIONS", "boundary", "build_construction", "diagonal", "hyperplane_union",
                      "level_set", "shifted_union", "torus3_seed"),
    "dynamics": ("AuditEvent", "CellSet", "RunRecord", "closure", "perimeter", "run", "run_naive",
                 "write_record_json"),
    "experiments": ("SeparationReport", "SweepRow", "SweepTable", "sweep_time", "verify_separation",
                    "verify_strip_fill"),
    "extremal": ("BudgetExceededError", "NoPercolatingSetError", "SearchResult", "is_minimal",
                 "min_percolating_size", "min_percolation_time"),
    "lattice": ("Cell", "LatticeSpec", "Topology", "iter_level_cells", "neighbors"),
    "witness": ("StripContext", "WitnessCycleError", "WitnessDag", "WitnessNode", "build_witness",
                "coordinate_sum_above", "infectors", "iter_strip_cells", "level_offset", "max_depth_bound",
                "squared_coordinate_sum", "write_witness_json"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
