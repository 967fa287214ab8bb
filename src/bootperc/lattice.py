"""d-dimensional grid and torus geometry.

Cells of the side-``n`` lattice in ``d`` dimensions are 1-based coordinate
tuples ``(v_1, ..., v_d)`` with every ``v_i`` in ``[1, n]``.  Cells map to
linear indices through the fixed row-major rule

    index(v) = sum_i (v_i - 1) * n**(d - i)

so the last coordinate varies fastest, as in the index grid
``np.arange(n**d).reshape((n,) * d)``.  Whole-lattice geometry (the
neighbour table, :func:`levels`) is derived from that grid and its sparse
coordinates ``np.indices((n,) * d, sparse=True)``.  All other modules rely
on this mapping and on the fixed neighbour order (dimension 1..d, minus
step before plus step) for bit-reproducible iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal

import numpy as np

Cell = tuple[int, ...]
Topology = Literal["grid", "torus"]

# Hard ceiling on addressable cells; anything above is rejected outright.
MAX_CELLS = 2**32

# Entries kept by each per-lattice cache.  Callers work on one lattice at a
# time and sweeps never revisit one, so an unbounded cache only holds memory.
LATTICE_CACHE_SIZE = 4


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry plus infection threshold.

    ``r`` defaults to ``d``, the d-neighbour rule this toolkit revolves
    around; any threshold in ``[1, 2d]`` is accepted.  Tori need ``n >= 3``
    because for smaller sides the two wraparound neighbours in a direction
    coincide.
    """

    d: int
    n: int
    topology: Topology = "grid"
    r: int = None  # type: ignore[assignment]  # None means "default to d"

    def __post_init__(self) -> None:
        if self.r is None:
            object.__setattr__(self, "r", self.d)
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n < 1:
            raise ValueError(f"side length must be >= 1, got {self.n}")
        if self.topology not in ("grid", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "torus" and self.n < 3:
            raise ValueError("torus topology requires n >= 3")
        if not 1 <= self.r <= 2 * self.d:
            raise ValueError(f"threshold r must lie in [1, {2 * self.d}], got {self.r}")
        if self.n**self.d > MAX_CELLS:
            raise ValueError(f"{self.n}**{self.d} cells exceed the limit of {MAX_CELLS}")

    @property
    def size(self) -> int:
        """Total number of cells, n**d."""
        return self.n**self.d


def check_cell(cell: Cell, d: int, n: int) -> None:
    """Raise ValueError unless ``cell`` is a valid coordinate tuple for [n]^d."""
    if len(cell) != d:
        raise ValueError(f"cell {cell} has {len(cell)} coordinates, expected {d}")
    for v in cell:
        if not 1 <= v <= n:
            raise ValueError(f"coordinate {v} of cell {cell} lies outside [1, {n}]")


def cell_index(cell: Cell, d: int, n: int) -> int:
    """Row-major linear index of a cell, validating the coordinates."""
    check_cell(cell, d, n)
    idx = 0
    for v in cell:
        idx = idx * n + (v - 1)
    return idx


def cell_at(index: int, d: int, n: int) -> Cell:
    """Inverse of :func:`cell_index`."""
    if not 0 <= index < n**d:
        raise ValueError(f"index {index} outside [0, {n**d})")
    coords = []
    for _ in range(d):
        index, rem = divmod(index, n)
        coords.append(rem + 1)
    return tuple(reversed(coords))


def cell_to_index(cell: Cell, spec: LatticeSpec) -> int:
    return cell_index(cell, spec.d, spec.n)


def index_to_cell(index: int, spec: LatticeSpec) -> Cell:
    return cell_at(index, spec.d, spec.n)


def level_of(cell: Cell) -> int:
    """Coordinate sum; cells of one level form a diagonal hyperplane."""
    return sum(cell)


def neighbors(cell: Cell, spec: LatticeSpec) -> list[Cell]:
    """Adjacent cells in fixed order: dimension 1..d, minus step then plus step.

    Grid cells on the boundary simply lack the out-of-range neighbours;
    torus cells always have exactly 2d distinct ones.
    """
    check_cell(cell, spec.d, spec.n)
    n = spec.n
    out: list[Cell] = []
    for j, v in enumerate(cell):
        if spec.topology == "torus":
            out.append(cell[:j] + (v - 1 if v > 1 else n,) + cell[j + 1 :])
            out.append(cell[:j] + (v + 1 if v < n else 1,) + cell[j + 1 :])
        else:
            if v > 1:
                out.append(cell[:j] + (v - 1,) + cell[j + 1 :])
            if v < n:
                out.append(cell[:j] + (v + 1,) + cell[j + 1 :])
    return out


def iter_level_cells(d: int, n: int, k: int) -> Iterator[Cell]:
    """Yield all cells of [n]^d with coordinate sum ``k``, in ascending index order.

    Enumerates compositions directly instead of filtering the whole lattice,
    so it stays cheap even when n**d is large.  Out-of-range ``k`` yields
    nothing (the level set is empty by definition).
    """
    if k < d or k > d * n:
        return

    def rec(prefix: Cell, remaining_dims: int, remaining_sum: int) -> Iterator[Cell]:
        if remaining_dims == 0:
            yield prefix
            return
        lo = max(1, remaining_sum - (remaining_dims - 1) * n)
        hi = min(n, remaining_sum - (remaining_dims - 1))
        for v in range(lo, hi + 1):
            yield from rec(prefix + (v,), remaining_dims - 1, remaining_sum - v)

    yield from rec((), d, k)


def levels(d: int, n: int) -> np.ndarray:
    """Coordinate sum of every cell of [n]^d, by linear index, in the
    smallest unsigned dtype that holds ``d * n``."""
    dtype = np.min_scalar_type(d * n)
    return sum(np.indices((n,) * d, dtype=dtype, sparse=True), dtype.type(d)).ravel()


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def neighbor_table(spec: LatticeSpec) -> np.ndarray:
    """(size, 2d) array of neighbour indices, -1 where a grid neighbour is missing.

    Column order matches :func:`neighbors`: (dim1-, dim1+, dim2-, dim2+, ...).
    Each column is the index grid rolled by one step along an axis, so it
    wraps around the torus; on the grid the wrapped slice is set to -1.
    """
    n, d = spec.n, spec.d
    grid = np.arange(spec.size, dtype=np.int64).reshape((n,) * d)
    table = np.empty((n,) * d + (2 * d,), dtype=np.int64)
    for axis in range(d):
        for col, step, edge in ((2 * axis, 1, 0), (2 * axis + 1, -1, n - 1)):
            table[..., col] = np.roll(grid, step, axis)
            if spec.topology == "grid":
                np.moveaxis(table[..., col], axis, 0)[edge] = -1
    return table.reshape(spec.size, 2 * d)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def neighbor_lists(spec: LatticeSpec) -> list[list[int]]:
    """Per-cell neighbour index lists (shared, do not mutate).

    Kept only for :func:`neighbor_masks` and the benchmark's layer probes;
    the engines read :func:`neighbor_table` or :func:`neighbors`.
    """
    return [[x for x in row if x >= 0] for row in neighbor_table(spec).tolist()]


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def neighbor_masks(spec: LatticeSpec) -> list[int]:
    """Per-cell neighbourhood bitmasks over linear indices (shared, do not mutate)."""
    masks = []
    for row in neighbor_lists(spec):
        m = 0
        for x in row:
            m |= 1 << x
        masks.append(m)
    return masks
