"""Named initial sets: diagonal level sets, their unions, boundaries, torus seeds.

The workhorse is ``hyperplane_union(d, n)``: the union of the diagonal
hyperplanes at levels n, 2n, ..., dn.  It has exactly n**(d-1) cells (for
each choice of the last d-1 coordinates there is exactly one first
coordinate landing on a multiple of n) and percolates [n]^d under the
d-neighbour rule, which makes it the standard extremal seed set.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CellSet
from .lattice import Cell, levels

# The three extra torus seeds live one per wraparound slab; once the
# embedded (n-1)-cube is full, each slab cell has two infected neighbours
# through the wraparound, so a single seed per slab suffices.
TORUS3_EXTRA_SEEDS: tuple[Cell, ...] = ((1, 1, -1), (1, -1, 1), (-1, 1, 1))  # -1 stands for n

NAMED_SETS = ("diagonal2d", "boundary", "torus3")
CONSTRUCTIONS = ("hyperplanes", "shifted") + NAMED_SETS


def level_set(d: int, n: int, k: int) -> CellSet:
    """All cells of [n]^d with coordinate sum ``k``; empty when k < d or k > d*n."""
    if d < 1 or n < 1:
        raise ValueError(f"invalid shape d={d}, n={n}")
    return CellSet._from_mask(d, n, levels(d, n) == k)


def hyperplane_union(d: int, n: int) -> CellSet:
    """Union of the level sets at n, 2n, ..., dn; cardinality n**(d-1)."""
    if d < 1 or n < 1:
        raise ValueError(f"invalid shape d={d}, n={n}")
    return CellSet._from_mask(d, n, levels(d, n) % n == 0)


def shifted_union(d: int, n: int) -> CellSet:
    """Union of the level sets at i*n - floor(n/2) for i = 1..d.

    Provided as-is: whether it percolates is an empirical question answered
    by running the engine, not a guarantee of this constructor.
    """
    if d < 1 or n < 1:
        raise ValueError(f"invalid shape d={d}, n={n}")
    # every level lies in [d, d*n], so the levels i*n - floor(n/2) for
    # i = 1..d are exactly those congruent to -floor(n/2) mod n
    return CellSet._from_mask(d, n, levels(d, n) % n == -(n // 2) % n)


def diagonal(n: int) -> CellSet:
    """The main diagonal {(i, i)} of the square [n]^2."""
    if n < 1:
        raise ValueError(f"invalid side {n}")
    return CellSet.from_cells(2, n, ((i, i) for i in range(1, n + 1)))


def boundary(d: int, n: int) -> CellSet:
    """All cells with some coordinate equal to 1 or n."""
    if d < 1 or n < 1:
        raise ValueError(f"invalid shape d={d}, n={n}")
    edge = np.zeros((n,) * d, dtype=bool)
    for coord in np.indices((n,) * d, sparse=True):
        edge |= (coord == 0) | (coord == n - 1)
    return CellSet._from_mask(d, n, edge.ravel())


def torus3_seed(n: int) -> CellSet:
    """Percolating seed for the 3-torus of side n: (n-1)**2 + 3 cells.

    The extremal seed of the embedded [n-1]^3 cube plus one extra cell in
    each of the three wraparound slabs.
    """
    if n < 3:
        raise ValueError(f"torus seed requires n >= 3, got {n}")
    cells = list(hyperplane_union(3, n - 1))
    cells.extend(tuple(n if v == -1 else v for v in seed) for seed in TORUS3_EXTRA_SEEDS)
    return CellSet.from_cells(3, n, cells)


def named_set(name: str, n: int, d: int | None = None) -> CellSet:
    """Build one of the named sets: ``diagonal2d``, ``boundary``, ``torus3``."""
    if name == "diagonal2d":
        if d not in (None, 2):
            raise ValueError("diagonal2d requires d = 2")
        return diagonal(n)
    if name == "boundary":
        if d is None:
            raise ValueError("boundary requires an explicit dimension d")
        return boundary(d, n)
    if name == "torus3":
        if d not in (None, 3):
            raise ValueError("torus3 requires d = 3")
        return torus3_seed(n)
    raise ValueError(f"unknown named set {name!r} (choose from {NAMED_SETS})")


def build_construction(name: str, d: int, n: int) -> CellSet:
    """Uniform entry point used by the CLI and the sweep harness."""
    if name == "hyperplanes":
        return hyperplane_union(d, n)
    if name == "shifted":
        return shifted_union(d, n)
    if name in NAMED_SETS:
        return named_set(name, n, d)
    raise ValueError(f"unknown construction {name!r} (choose from {CONSTRUCTIONS})")
