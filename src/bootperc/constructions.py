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
from .lattice import face_codes, levels

CONSTRUCTIONS = ("hyperplanes", "shifted", "diagonal2d", "boundary", "torus3")
# the constructions defined on [n]^d for every d, which a sweep accepts
SWEEP_CONSTRUCTIONS = ("hyperplanes", "shifted", "boundary")


def level_set(d: int, n: int, k: int) -> CellSet:
    """All cells of [n]^d with coordinate sum ``k``; empty when k < d or k > d*n."""
    return CellSet._from_mask(d, n, levels(d, n) == k)


def hyperplane_union(d: int, n: int) -> CellSet:
    """Union of the level sets at n, 2n, ..., dn; cardinality n**(d-1)."""
    return CellSet._from_mask(d, n, levels(d, n) % n == 0)


def shifted_union(d: int, n: int) -> CellSet:
    """Union of the level sets at i*n - floor(n/2) for i = 1..d.

    Percolation is checked, not proved: every level residue class, this one
    included, percolates for d = 1 (n <= 29), 2 (n <= 60), 3 (n <= 60),
    4 (n <= 24), 5 (n <= 14) and 6 (n <= 10), run once on the orbit engine.
    """
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
    return CellSet._from_mask(d, n, face_codes(d, n) != 0)


def torus3_seed(n: int) -> CellSet:
    """Percolating seed for the 3-torus of side n: (n-1)**2 + 3 cells.

    The extremal seed of the embedded [n-1]^3 cube plus one extra cell in
    each of the three wraparound slabs.  Not smallest: the side-3 torus has
    a 6-cell percolating set.  Not always minimal: one cell of the n = 4 seed
    can go (the seeds for n = 3, 5 and 6 are minimal).
    """
    if n < 3:
        raise ValueError(f"torus seed requires n >= 3, got {n}")
    seed = np.zeros((n,) * 3, dtype=bool)
    seed[:-1, :-1, :-1] = (levels(3, n - 1) % (n - 1) == 0).reshape((n - 1,) * 3)
    # one extra seed per wraparound slab: once the embedded cube is full,
    # each slab cell has two infected neighbours through the wraparound
    seed[0, 0, -1] = seed[0, -1, 0] = seed[-1, 0, 0] = True
    return CellSet._from_mask(3, n, seed.ravel())


def build_construction(name: str, d: int, n: int) -> CellSet:
    """Uniform entry point used by the CLI and the sweep harness."""
    if name == "hyperplanes":
        return hyperplane_union(d, n)
    if name == "shifted":
        return shifted_union(d, n)
    if name == "diagonal2d":
        if d != 2:
            raise ValueError("diagonal2d requires d = 2")
        return diagonal(n)
    if name == "boundary":
        return boundary(d, n)
    if name == "torus3":
        if d != 3:
            raise ValueError("torus3 requires d = 3")
        return torus3_seed(n)
    raise ValueError(f"unknown construction {name!r} (choose from {CONSTRUCTIONS})")
