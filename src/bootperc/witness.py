"""Infection certificates for the strip between two seeded diagonal hyperplanes.

Fix a strip index ``s``.  The cells whose level (coordinate sum) lies
strictly between ``(s-1)*n`` and ``s*n`` form a band that the extremal seed
set infects from both sides.  For a band cell ``v`` with level offset
``off = level(v) - (s-1)*n``, the designated infectors are

    v + e_j  for every dimension j with v_j <= off,
    v - e_j  for every dimension j with v_j >  off,

always exactly ``d`` cells, all inside the lattice.  Expanding infectors
recursively until every label lies on a seeded hyperplane yields a finite
certificate tree; merging equal labels (their expansions are identical)
turns it into a DAG whose longest root-to-leaf path bounds the infection
round of ``v``.

Two potentials drive the correctness arguments and are exported for
verification: the sum of coordinates above a threshold never increases along
certificate paths whose top level is at the threshold (which rules out
cycles), and the sum of squared coordinates yields the quadratic bound on
path length checked by :func:`max_depth_bound`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, TextIO

import numpy as np

from .dynamics import _write_document
from .lattice import Cell, check_cell, iter_level_cells


@dataclass(frozen=True)
class StripContext:
    """Shape (d, n) plus the strip index s selecting one band of levels.

    Cells on the two bounding hyperplanes belong to two adjacent strips;
    callers pick the context explicitly instead of having it inferred.
    """

    d: int
    n: int
    s: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 1:
            raise ValueError(f"invalid shape d={self.d}, n={self.n}")
        lo = -(-self.d // self.n)  # ceil(d / n)
        if not lo <= self.s <= self.d:
            raise ValueError(f"strip index must lie in [{lo}, {self.d}], got {self.s}")

    @property
    def lower_level(self) -> int:
        return (self.s - 1) * self.n

    @property
    def upper_level(self) -> int:
        return self.s * self.n


def level_offset(v: Cell, ctx: StripContext) -> int:
    """Level of ``v`` relative to the strip's lower hyperplane, in [0, n].

    0 and n mean ``v`` lies on a seeded hyperplane; anything else means it is
    strictly inside the strip.  Cells outside the strip are rejected.
    """
    check_cell(v, ctx.d, ctx.n)
    off = sum(v) - ctx.lower_level
    if not 0 <= off <= ctx.n:
        raise ValueError(
            f"cell {v} (level {sum(v)}) lies outside strip {ctx.s} "
            f"(levels {ctx.lower_level}..{ctx.upper_level})"
        )
    return off


def _infector_tuple(v: Cell, off: int) -> tuple[Cell, ...]:
    # one child per dimension, in dimension order
    out = []
    for j, x in enumerate(v):
        if x <= off:
            out.append(v[:j] + (x + 1,) + v[j + 1 :])
        else:
            out.append(v[:j] + (x - 1,) + v[j + 1 :])
    return tuple(out)


def infectors(v: Cell, ctx: StripContext) -> set[Cell]:
    """The d designated infectors of a cell strictly inside the strip."""
    off = level_offset(v, ctx)
    if off == 0 or off == ctx.n:
        raise ValueError(f"cell {v} lies on a seeded hyperplane and has no designated infectors")
    return set(_infector_tuple(v, off))


def coordinate_sum_above(v: Cell, threshold: int) -> int:
    """Sum of the coordinates of ``v`` strictly larger than ``threshold``."""
    return sum(x for x in v if x > threshold)


def squared_coordinate_sum(v: Cell) -> int:
    """Sum of squared coordinates; at most d * n**2 for any cell of [n]^d."""
    return sum(x * x for x in v)


def max_depth_bound(ctx: StripContext) -> int:
    """Quadratic edge-count bound on certificate depth: (d+2)*n**2 + n."""
    return (ctx.d + 2) * ctx.n**2 + ctx.n


class WitnessCycleError(RuntimeError):
    """A certificate expansion revisited a label along one path.

    The potential argument rules this out, so this error firing means a bug
    (and fails the test suite); it exists so that a broken invariant aborts
    loudly instead of looping forever.
    """


@dataclass(frozen=True)
class WitnessNode:
    label: Cell
    offset: int
    children: tuple[Cell, ...] | None  # None marks a seeded-hyperplane leaf


@dataclass
class WitnessDag:
    """Memoised infection certificate: the tree is this DAG's unfolding.

    ``nodes`` maps each distinct label to its node, in construction
    (breadth-first) order; ``depth`` is the longest directed path from the
    root to a leaf, counted in edges.
    """

    root: Cell
    ctx: StripContext
    nodes: dict[Cell, WitnessNode]
    depth: int

    def leaf_labels(self) -> list[Cell]:
        return [u for u, node in self.nodes.items() if node.children is None]

    def edges(self) -> Iterator[tuple[Cell, Cell]]:
        for u, node in self.nodes.items():
            for w in node.children or ():
                yield u, w

    def to_json_dict(self) -> dict:
        return {
            "root": list(self.root),
            "s": self.ctx.s,
            "n": self.ctx.n,
            "d": self.ctx.d,
            "depth": self.depth,
            "nodes": [
                {
                    "label": list(node.label),
                    "t": node.offset,
                    "children": None
                    if node.children is None
                    else [list(w) for w in node.children],
                }
                for node in self.nodes.values()
            ],
        }

    def to_edge_list(self) -> str:
        """DOT-style edge list, one ``u -> w`` line per DAG edge."""

        def fmt(cell: Cell) -> str:
            return ",".join(str(x) for x in cell)

        return "\n".join(f"{fmt(u)} -> {fmt(w)}" for u, w in self.edges())


def write_witness_json(dag: WitnessDag, out: TextIO) -> None:
    """Write ``json.dumps(dag.to_json_dict(), indent=2)`` to ``out``, one item shape per node.

    The document is built key for key like :meth:`WitnessDag.to_json_dict`
    and written by :func:`_write_document`.  Every node is a row of one int
    table: its label, its offset and the coordinates of its d children
    (zeros for a leaf, whose shape ignores them).  Leaves and internal nodes
    differ only in ``"children"``, so two shapes cover every node.
    """
    d, count = dag.ctx.d, len(dag.nodes)
    nodes = dag.nodes.values()
    no_children = ((0,) * d,) * d
    flat = chain.from_iterable
    rows = np.column_stack((
        np.fromiter(flat(dag.nodes), dtype=np.int64, count=count * d).reshape(-1, d),
        np.fromiter((node.offset for node in nodes), dtype=np.int64, count=count),
        np.fromiter(flat(flat(node.children or no_children for node in nodes)), dtype=np.int64,
                    count=count * d * d).reshape(-1, d * d),
    ))
    kinds = np.fromiter((node.children is not None for node in nodes), dtype=np.int64, count=count)
    label = ["%d"] * d
    leaf = {"label": label, "t": "%d", "children": None}
    _write_document(out, {
        "root": ("%d", np.array(dag.root, dtype=np.int64)),
        "s": dag.ctx.s,
        "n": dag.ctx.n,
        "d": d,
        "depth": dag.depth,
        "nodes": ((leaf, {**leaf, "children": [label] * d}), rows, kinds),
    })


def _walk(nodes: dict[Cell, WitnessNode], root: Cell) -> tuple[list[Cell] | None, dict[Cell, int]]:
    """One depth-first walk from ``root``: the first cycle met, or longest paths.

    Returns ``(cycle, depth)``.  ``cycle`` runs from the first child found
    already on the current path back to it, or is None.  Without a cycle,
    ``depth`` maps every reachable label to its longest path to a leaf, in
    edges, set as the label leaves the path; labels on the path hold -1.
    """
    depth = {root: -1}
    path = [root]
    pending = [iter(nodes[root].children or ())]
    while pending:
        for w in pending[-1]:
            seen = depth.get(w)
            if seen is None:
                depth[w] = -1
                path.append(w)
                pending.append(iter(nodes[w].children or ()))
                break
            if seen < 0:
                return path[path.index(w) :] + [w], depth
        else:  # every child is done: the label leaves the path
            pending.pop()
            u = path.pop()
            children = nodes[u].children
            depth[u] = 1 + max(depth[w] for w in children) if children else 0
    return None, depth


def build_witness(v: Cell, ctx: StripContext) -> WitnessDag:
    """Build the memoised infection certificate of a cell inside the strip.

    Active labels are expanded first-in-first-out; since the infectors of a
    label are a pure function of the label, the result does not depend on
    the expansion order.  One depth-first walk then checks, defensively, that
    the DAG has no cycle and computes its depth.
    """
    off = level_offset(v, ctx)
    if off == 0 or off == ctx.n:
        raise ValueError(f"cell {v} lies on a seeded hyperplane, not strictly inside the strip")
    nodes: dict[Cell, WitnessNode] = {}
    queue: deque[Cell] = deque([v])
    while queue:
        u = queue.popleft()
        if u in nodes:
            continue
        t = sum(u) - ctx.lower_level
        if t == 0 or t == ctx.n:
            nodes[u] = WitnessNode(u, t, None)
            continue
        kids = _infector_tuple(u, t)
        nodes[u] = WitnessNode(u, t, kids)
        for w in kids:
            if w not in nodes:
                queue.append(w)
    cycle, depth = _walk(nodes, v)
    if cycle is not None:
        raise WitnessCycleError(" -> ".join(str(u) for u in cycle))
    return WitnessDag(root=v, ctx=ctx, nodes=nodes, depth=depth[v])


def iter_strip_cells(ctx: StripContext) -> Iterator[Cell]:
    """All cells strictly inside the strip, by ascending level then index."""
    for level in range(ctx.lower_level + 1, ctx.upper_level):
        yield from iter_level_cells(ctx.d, ctx.n, level)
