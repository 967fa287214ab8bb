"""Synchronous r-neighbour bootstrap percolation engine.

A run starts from an initial infected set; in each round every healthy cell
with at least ``r`` infected neighbours becomes infected, all at once.
Infected cells never heal, so the process stabilises after finitely many
rounds.  ``run`` is the frontier engine used everywhere: each round is one
vectorised numpy pass over the neighbour-table rows of the cells infected
in the round before, so its work is proportional to the cells it touches.
``run_naive`` rescans the whole lattice each round in plain Python and
exists so the two can be checked against each other bit for bit.

The perimeter of a set counts lattice edges between a member cell and any
non-member vertex of the infinite lattice Z^d, i.e. boundary cells also pay
for their missing off-grid neighbours.  It is therefore defined for the grid
topology only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .lattice import Cell, LatticeSpec, cell_at, cell_index, neighbor_table, neighbors


@dataclass(frozen=True)
class CellSet:
    """Immutable set of lattice cells, stored as a bitset over linear indices.

    A cell set binds only the shape (d, n); the same set can seed runs on the
    grid and on the torus of equal shape.
    """

    d: int
    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 1:
            raise ValueError(f"invalid shape d={self.d}, n={self.n}")
        if self.bits < 0 or self.bits >> self.n**self.d:
            raise ValueError("bitset has indices outside the cell universe")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, d: int, n: int) -> "CellSet":
        return cls(d, n, 0)

    @classmethod
    def full(cls, d: int, n: int) -> "CellSet":
        return cls(d, n, (1 << n**d) - 1)

    @classmethod
    def from_indices(cls, d: int, n: int, indices: Iterable[int]) -> "CellSet":
        size = n**d
        idx = list(indices)
        if idx and not 0 <= min(idx) <= max(idx) < size:
            raise ValueError(f"index {next(i for i in idx if not 0 <= i < size)} outside [0, {size})")
        mask = np.zeros(size, dtype=bool)
        mask[idx] = True
        return cls._from_mask(d, n, mask)

    @classmethod
    def _from_mask(cls, d: int, n: int, mask: np.ndarray) -> "CellSet":
        """The set whose members are the True entries of a bool array over linear indices."""
        return cls(d, n, int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little"))

    @classmethod
    def from_cells(cls, d: int, n: int, cells: Iterable[Cell]) -> "CellSet":
        return cls.from_indices(d, n, (cell_index(cell, d, n) for cell in cells))

    @classmethod
    def from_text(cls, text: str, d: int, n: int) -> "CellSet":
        """Parse the one-cell-per-line format: d space-separated 1-based coordinates."""
        cells = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                coords = tuple(int(tok) for tok in stripped.split())
            except ValueError as exc:
                raise ValueError(f"line {lineno}: not a coordinate list: {line!r}") from exc
            if len(coords) != d:
                raise ValueError(f"line {lineno}: expected {d} coordinates, got {len(coords)}")
            cells.append(coords)
        return cls.from_cells(d, n, cells)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, cell: Cell) -> bool:
        return bool(self.bits >> cell_index(cell, self.d, self.n) & 1)

    def _mask(self) -> np.ndarray:
        """Bool array over linear indices, True on the members."""
        size = self.n**self.d
        data = np.frombuffer(self.bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(data, count=size, bitorder="little").view(bool)

    def indices(self) -> Iterator[int]:
        """Set bits in ascending order, as Python ints."""
        return iter(_index_array(self).tolist())

    def __iter__(self) -> Iterator[Cell]:
        return (cell_at(i, self.d, self.n) for i in self.indices())

    def cells(self) -> list[Cell]:
        return list(self)

    def issubset(self, other: "CellSet") -> bool:
        self._check_shape(other)
        return self.bits & ~other.bits == 0

    # -- algebra -----------------------------------------------------------

    def _check_shape(self, other: "CellSet") -> None:
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError(
                f"shape mismatch: ({self.d}, {self.n}) vs ({other.d}, {other.n})"
            )

    def __or__(self, other: "CellSet") -> "CellSet":
        self._check_shape(other)
        return CellSet(self.d, self.n, self.bits | other.bits)

    def __and__(self, other: "CellSet") -> "CellSet":
        self._check_shape(other)
        return CellSet(self.d, self.n, self.bits & other.bits)

    def __sub__(self, other: "CellSet") -> "CellSet":
        self._check_shape(other)
        return CellSet(self.d, self.n, self.bits & ~other.bits)

    def remove_cell(self, cell: Cell) -> "CellSet":
        return CellSet(self.d, self.n, self.bits & ~(1 << cell_index(cell, self.d, self.n)))

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in cell) for cell in self)

    def to_coord_lists(self) -> list[list[int]]:
        return [list(cell) for cell in self]


class AuditEvent(NamedTuple):
    """One infection event: which cell, at which step, fed by how many infected neighbours."""

    cell: Cell
    step: int
    infected_neighbors: int


@dataclass
class RunRecord:
    """Full trajectory of one synchronous run.

    ``times[i]`` is the infection round of the cell with linear index ``i``
    (0 for initially infected, -1 for never infected).  ``T`` is the last
    round in which anything new got infected; a closed initial set, the empty
    set included, has ``T = 0``.
    """

    spec: LatticeSpec
    initial: CellSet
    times: list[int]
    T: int
    percolates: bool
    perimeter_trace: list[int] | None = None
    audit: list[AuditEvent] | None = None

    def time_of(self, cell: Cell) -> int | None:
        """Infection round of a cell, or None if it never gets infected."""
        t = self.times[cell_index(cell, self.spec.d, self.spec.n)]
        return None if t < 0 else t

    def closure(self) -> CellSet:
        return CellSet._from_mask(self.spec.d, self.spec.n, np.asarray(self.times) >= 0)

    def newly_infected(self, step: int) -> list[Cell]:
        """Cells whose infection round equals ``step`` (ascending index order)."""
        d, n = self.spec.d, self.spec.n
        return [cell_at(i, d, n) for i, t in enumerate(self.times) if t == step]

    def to_json_dict(self) -> dict:
        out = {
            "d": self.spec.d,
            "n": self.spec.n,
            "topology": self.spec.topology,
            "r": self.spec.r,
            "initial": self.initial.to_coord_lists(),
            "T": self.T,
            "percolates": self.percolates,
            "times": list(self.times),
        }
        if self.perimeter_trace is not None:
            out["perimeter_trace"] = list(self.perimeter_trace)
        if self.audit is not None:
            out["audit"] = [
                {"cell": list(ev.cell), "step": ev.step, "infected_neighbors": ev.infected_neighbors}
                for ev in self.audit
            ]
        return out


def _index_array(cells: CellSet) -> np.ndarray:
    return np.flatnonzero(cells._mask())


def _check_compatible(spec: LatticeSpec, initial: CellSet) -> None:
    if (initial.d, initial.n) != (spec.d, spec.n):
        raise ValueError(
            f"initial set shape ({initial.d}, {initial.n}) does not match spec ({spec.d}, {spec.n})"
        )


def run(
    spec: LatticeSpec,
    initial: CellSet,
    *,
    audit: bool = False,
    record_trace: bool = False,
) -> RunRecord:
    """Run the process to stabilisation with the frontier engine.

    Each round is one vectorised pass over the rows of :func:`neighbor_table`
    for the cells infected in the previous round: their healthy neighbours
    gain one infected-neighbour count each, and those whose count reaches
    ``r`` make up the next frontier, in ascending index order.  The audit
    counts and the perimeter step are read from the same arrays.  Behaviour
    is identical to :func:`run_naive`.
    """
    _check_compatible(spec, initial)
    if record_trace and spec.topology != "grid":
        raise ValueError("perimeter trace is defined for the grid topology only")
    table = neighbor_table(spec)
    size, r, twod = spec.size, spec.r, 2 * spec.d
    # times[size] is read through the table's -1 entries: a missing neighbour
    # looks infected at round 0, so it is never counted as healthy
    times = np.full(size + 1, -1, dtype=np.int64)
    times[size] = 0
    batch = _index_array(initial)
    times[batch] = 0
    counts = np.zeros(size, dtype=np.int64)
    trace = [perimeter(spec, initial)] if record_trace else None
    events: list[AuditEvent] | None = [] if audit else None
    infected_count = len(batch)

    t = 0
    while len(batch):
        hits = table[batch].ravel()
        hits = hits[times[hits] < 0]
        candidates, gained = np.unique(hits, return_counts=True)
        counts[candidates] += gained
        crossed = candidates[counts[candidates] >= r]
        if not len(crossed):
            break
        t += 1
        times[crossed] = t
        crossed_counts = counts[crossed]
        if events is not None:
            for i, c in zip(crossed.tolist(), crossed_counts.tolist()):
                events.append(AuditEvent(cell_at(i, spec.d, spec.n), t, c))
        if trace is not None:
            # the new cells add 2d each, less both ends of every edge to an
            # earlier cell (their counts) and to one another (inside)
            inside = int(np.count_nonzero(times[table[crossed]] == t))
            trace.append(trace[-1] + twod * len(crossed) - 2 * int(crossed_counts.sum()) - inside)
        infected_count += len(crossed)
        batch = crossed

    return RunRecord(
        spec=spec,
        initial=initial,
        times=times[:size].tolist(),
        T=t,
        percolates=infected_count == size,
        perimeter_trace=trace,
        audit=events,
    )


def run_naive(
    spec: LatticeSpec,
    initial: CellSet,
    *,
    audit: bool = False,
    record_trace: bool = False,
) -> RunRecord:
    """Reference engine: full rescan of all healthy cells every round.

    Also recomputes the perimeter from scratch after each round instead of
    updating it incrementally.  Slow but obviously correct; used to validate
    :func:`run`.
    """
    _check_compatible(spec, initial)
    if record_trace and spec.topology != "grid":
        raise ValueError("perimeter trace is defined for the grid topology only")
    # built by coordinate arithmetic, independently of the table run reads
    d, n, size = spec.d, spec.n, spec.size
    nbrs = [[cell_index(v, d, n) for v in neighbors(cell_at(i, d, n), spec)] for i in range(size)]
    r = spec.r
    twod = 2 * spec.d
    times = [-1] * size
    for i in initial.indices():
        times[i] = 0
    healthy = [i for i in range(size) if times[i] < 0]

    def full_perimeter() -> int:
        total = 0
        for i in range(size):
            if times[i] >= 0:
                cnt = sum(1 for j in nbrs[i] if times[j] >= 0)
                total += twod - cnt
        return total

    trace: list[int] | None = [full_perimeter()] if record_trace else None
    events: list[AuditEvent] | None = [] if audit else None

    t = 0
    while healthy:
        newly = []
        for i in healthy:
            cnt = sum(1 for j in nbrs[i] if times[j] >= 0)
            if cnt >= r:
                newly.append((i, cnt))
        if not newly:
            break
        t += 1
        if events is not None:
            for i, cnt in newly:
                events.append(AuditEvent(cell_at(i, d, n), t, cnt))
        for i, _ in newly:
            times[i] = t
        healthy = [i for i in healthy if times[i] < 0]
        if trace is not None:
            trace.append(full_perimeter())

    return RunRecord(
        spec=spec,
        initial=initial,
        times=times,
        T=t,
        percolates=all(x >= 0 for x in times),
        perimeter_trace=trace,
        audit=events,
    )


def closure(spec: LatticeSpec, initial: CellSet) -> CellSet:
    """Final infected set of the run started from ``initial``."""
    return run(spec, initial).closure()


def perimeter(spec: LatticeSpec, cells: CellSet) -> int:
    """Edge count between member cells and non-member Z^d vertices (grid only).

    Every member pays 2d, less one for each table entry of its row that is a
    member; a missing grid neighbour (-1) is never a member.
    """
    if spec.topology != "grid":
        raise ValueError("perimeter is defined for the grid topology only")
    _check_compatible(spec, cells)
    is_member = np.append(cells._mask(), False)  # the -1 entries read the last slot
    members = np.flatnonzero(is_member)
    inside = int(np.count_nonzero(is_member[neighbor_table(spec)[members]]))
    return 2 * spec.d * len(members) - inside
