"""bootperc: d-neighbour bootstrap percolation on grids and tori.

Deterministic simulation engine, the standard extremal constructions,
infection-certificate machinery, exhaustive extremal searches, and scripted
verification campaigns, all exposed both as a library and through the
``bootperc`` command-line tool.
"""

from .colex import colex_combinations
from .constructions import (
    CONSTRUCTIONS,
    boundary,
    build_construction,
    diagonal,
    hyperplane_union,
    level_set,
    named_set,
    shifted_union,
    torus3_seed,
)
from .dynamics import (
    AuditEvent,
    CellSet,
    RunRecord,
    closure,
    perimeter,
    run,
    run_naive,
    write_record_json,
)
from .experiments import (
    SeparationReport,
    SweepRow,
    SweepTable,
    sweep_time,
    verify_separation,
    verify_strip_fill,
)
from .extremal import (
    BudgetExceededError,
    NoPercolatingSetError,
    SearchResult,
    is_minimal,
    min_percolating_size,
    min_percolation_time,
)
from .lattice import (
    Cell,
    LatticeSpec,
    Topology,
    cell_to_index,
    index_to_cell,
    iter_level_cells,
    level_of,
    neighbors,
)
from .witness import (
    StripContext,
    WitnessCycleError,
    WitnessDag,
    WitnessNode,
    build_witness,
    coordinate_sum_above,
    infectors,
    iter_strip_cells,
    level_offset,
    max_depth_bound,
    squared_coordinate_sum,
    write_witness_json,
)

__version__ = "0.1.0"

__all__ = [
    "AuditEvent",
    "BudgetExceededError",
    "Cell",
    "CellSet",
    "CONSTRUCTIONS",
    "LatticeSpec",
    "NoPercolatingSetError",
    "RunRecord",
    "SearchResult",
    "SeparationReport",
    "StripContext",
    "SweepRow",
    "SweepTable",
    "Topology",
    "WitnessCycleError",
    "WitnessDag",
    "WitnessNode",
    "boundary",
    "build_construction",
    "build_witness",
    "cell_to_index",
    "closure",
    "colex_combinations",
    "coordinate_sum_above",
    "diagonal",
    "hyperplane_union",
    "index_to_cell",
    "infectors",
    "is_minimal",
    "iter_level_cells",
    "iter_strip_cells",
    "level_of",
    "level_offset",
    "level_set",
    "max_depth_bound",
    "min_percolating_size",
    "min_percolation_time",
    "named_set",
    "neighbors",
    "perimeter",
    "run",
    "run_naive",
    "shifted_union",
    "squared_coordinate_sum",
    "sweep_time",
    "torus3_seed",
    "verify_separation",
    "verify_strip_fill",
    "write_record_json",
    "write_witness_json",
]
