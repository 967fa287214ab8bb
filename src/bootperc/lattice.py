"""d-dimensional grid and torus geometry.

Cells of the side-``n`` lattice in ``d`` dimensions are 1-based coordinate
tuples ``(v_1, ..., v_d)`` with every ``v_i`` in ``[1, n]``.  Cells map to
linear indices through the fixed row-major rule

    index(v) = sum_i (v_i - 1) * n**(d - i)

so the last coordinate varies fastest, as in the index grid
``np.arange(n**d).reshape((n,) * d)``.  Whole-lattice geometry is derived
from that grid and its sparse coordinates ``np.indices((n,) * d,
sparse=True)``: the per-cell face codes, from which :func:`neighbor_rows`
computes the neighbours of any cells and :func:`neighbor_table` those of
all, and the per-cell coordinate sums of :func:`levels`, from which every
level set (:func:`iter_level_cells` and the level-set constructions) is
read.  All other modules rely on this mapping and on the fixed neighbour
order (dimension 1..d, minus step before plus step) for bit-reproducible
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal

import numpy as np

Cell = tuple[int, ...]
Topology = Literal["grid", "torus"]

# Hard ceiling on addressable cells; anything above is rejected outright.
# Every index, every round and the -1 of a never-infected cell fit in int32,
# the one dtype of the per-cell indices and rounds the toolkit keeps.
MAX_CELLS = 2**31

# Entries kept by each per-lattice cache.  Callers work on one lattice at a
# time and sweeps never revisit one, so an unbounded cache only holds memory;
# the face codes and the neighbour table, the largest of them, keep one entry.
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


def coordinates(indices: np.ndarray, d: int, n: int) -> np.ndarray:
    """(len(indices), d) table of the 1-based cells at linear indices: :func:`cell_at` for an array."""
    return np.stack(np.unravel_index(indices, (n,) * d), axis=1) + 1


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
    """Cells of [n]^d with coordinate sum ``k``, in ascending index order;
    none when k < d or k > d*n."""
    return map(tuple, coordinates(np.flatnonzero(levels(d, n) == k), d, n).tolist())


def levels(d: int, n: int) -> np.ndarray:
    """Coordinate sum of every cell of [n]^d, by linear index, in the
    smallest unsigned dtype that holds ``d * n``."""
    if d < 1 or n < 1:
        raise ValueError(f"invalid shape d={d}, n={n}")
    dtype = np.min_scalar_type(d * n)
    return sum(np.indices((n,) * d, dtype=dtype, sparse=True), dtype.type(d)).ravel()


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _columns(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(2d, 1) arrays, one entry per neighbour column: its face bit, its
    index step, and the torus's correction on that face (the grid has none).

    Column 2a steps by minus the stride n**(d-1-a) of axis a and column 2a+1
    by plus it.  Bit j of a face code marks the face that column j steps
    off, where the torus goes n strides back to the opposite face.
    """
    bits = np.array([1 << j for j in range(2 * d)], dtype=np.min_scalar_type((1 << 2 * d) - 1))
    step = np.array([sign * n ** (d - 1 - a) for a in range(d) for sign in (-1, 1)], dtype=np.intp)
    return bits[:, None], step[:, None], -n * step[:, None]


@lru_cache(maxsize=1)
def face_codes(d: int, n: int) -> np.ndarray:
    """Per-cell code of the lattice faces each cell lies on, by linear index.

    Bit 2a is set on the low face of axis a (coordinate 1) and bit 2a+1 on
    the high face (coordinate n), in the smallest unsigned dtype that holds
    2d bits; a cell of [1]^d lies on every face.  Each bit is an OR into one
    slice of the index grid's shape.  One array is cached, since callers
    work on one lattice at a time.
    """
    bits = _columns(d, n)[0].ravel()
    codes = np.zeros((n,) * d, dtype=bits.dtype)
    for axis in range(d):
        along = np.moveaxis(codes, axis, 0)
        along[0] |= bits[2 * axis]
        along[-1] |= bits[2 * axis + 1]
    return codes.reshape(-1)


def neighbor_rows(spec: LatticeSpec, cells: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
    """(len(cells), 2d) intp neighbour indices of the cells at the linear indices ``cells``.

    Column order matches :func:`neighbors`: (dim1-, dim1+, dim2-, dim2+, ...).
    An entry is the cell's index plus the column's step, except on the
    faces marked in the cell's code: there it is the cell itself on the
    grid (putmask repeats ``cells`` down the columns) and the opposite
    face's cell on the torus.  The codes are :func:`face_codes` by default;
    any per-cell codes over the strides of [n]^d may be given instead, such
    as a box of grid lattices stacked along axis 0, each with its own face
    codes in its corner, whose rows then never leave a lattice.  The result
    is the transpose of a C-ordered (2d, len(cells)) array, so each numpy
    call runs along the cells, not a row.
    """
    bits, step, wrap = _columns(spec.d, spec.n)
    columns = step + cells
    on_face = bits & (face_codes(spec.d, spec.n) if codes is None else codes)[cells]
    np.putmask(columns, on_face, columns + wrap if spec.topology == "torus" else cells)
    return columns.T


@lru_cache(maxsize=1)
def neighbor_table(spec: LatticeSpec) -> np.ndarray:
    """(size, 2d) :func:`neighbor_rows` of every cell, in int32, with no -1.

    int32 (every index of :data:`MAX_CELLS` cells fits) halves the bytes of
    int64 for the search kernel, which reads whole columns; each column is
    contiguous.  One table is cached, since callers work on one lattice at
    a time.
    """
    return neighbor_rows(spec, np.arange(spec.size)).astype(np.int32)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def neighbor_lists(spec: LatticeSpec) -> list[list[int]]:
    """Per-cell neighbour index lists (shared, do not mutate): table rows less self entries.

    Kept only for :func:`neighbor_masks` and the benchmark's layer probes;
    the engines read :func:`neighbor_rows`, :func:`neighbor_table` or
    :func:`neighbors`.
    """
    return [[x for x in row if x != i] for i, row in enumerate(neighbor_table(spec).tolist())]


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
