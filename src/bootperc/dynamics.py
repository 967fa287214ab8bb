"""Synchronous r-neighbour bootstrap percolation engine.

A run starts from an initial infected set; in each round every healthy cell
with at least ``r`` infected neighbours becomes infected, all at once.
Infected cells never heal, so the process stabilises after finitely many
rounds.  ``run`` is the frontier engine used everywhere: each round makes
vectorised numpy passes over the neighbour rows of the cells infected in
the round before, a block of them at a time, computed from their face
codes, so its work is proportional to the cells it touches, its temporary
memory to one block, and no neighbour table is built.
``run_naive`` rescans the whole lattice each round in plain Python and
exists so the two can be checked against each other bit for bit.

The perimeter of a set counts lattice edges between a member cell and any
non-member vertex of the infinite lattice Z^d, i.e. boundary cells also pay
for their missing off-grid neighbours.  It is therefore defined for the grid
topology only.

``ordered_results`` is the one in-order process pool, shared by the
searches and the sweeps.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from . import lattice
from .lattice import Cell, LatticeSpec, cell_at, cell_index, coordinates, face_codes, neighbor_rows, neighbors

# Table rows :func:`_write_document` fills per write: a few MB of text, so a
# record or witness document is never held whole.
_WRITE_ROWS = 1 << 16
_BLOCK_CELLS = 1 << 14  # cells :func:`_perimeters` compares per numpy pass
_ROUND_CELLS = 1 << 12  # frontier cells :func:`_infect` expands per numpy pass


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
        """Parse the one-cell-per-line format: d space-separated 1-based coordinates.

        Blank lines are skipped.  One :func:`np.loadtxt` call reads the
        lines of :meth:`str.splitlines` as an int64 table, and one
        :func:`np.ravel_multi_index` indexes it.  Any error or warning
        there (a token numpy does not read as ``int`` does, a change in
        token count, no rows at all, a coordinate out of range or a row of
        the wrong length) hands the text to :meth:`_from_lines`, which
        raises the first error in line order, structural errors (a bad
        token, a wrong coordinate count) on any line before range errors.
        """
        try:
            with warnings.catch_warnings():
                # loadtxt only warns on a file with no rows, and numpy 1.24
                # on "1.0", which it reads through a float
                warnings.simplefilter("error")
                coords = np.loadtxt(text.splitlines(), dtype=np.int64, ndmin=2, comments=None)
            mask = np.zeros(n**d, dtype=bool)
            mask[np.ravel_multi_index(tuple(coords.T - 1), (n,) * d)] = True
        except (ValueError, Warning):
            return cls._from_lines(text, d, n)
        return cls._from_mask(d, n, mask)

    @classmethod
    def _from_lines(cls, text: str, d: int, n: int) -> "CellSet":
        """:meth:`from_text` one line and one cell at a time, reporting the first error."""
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
        return iter(self.cells())

    def cells(self) -> list[Cell]:
        return list(map(tuple, self.to_coord_lists()))

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

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        return _fill(" ".join(["%d"] * self.d), "\n", coordinates(_index_array(self), self.d, self.n))

    def to_coord_lists(self) -> list[list[int]]:
        return coordinates(_index_array(self), self.d, self.n).tolist()


class AuditEvent(NamedTuple):
    """One infection event: which cell, at which step, fed by how many infected neighbours."""

    cell: Cell
    step: int
    infected_neighbors: int


@dataclass(eq=False)
class RunRecord:
    """Full trajectory of one synchronous run, held as integer columns.

    ``times_array[i]`` is the infection round of the cell with linear index
    ``i`` (0 for initially infected, -1 for never infected), in int32, which
    holds every round and -1 of a lattice of at most ``MAX_CELLS`` cells;
    :func:`run`'s column, one entry per cell, is kept without a copy.  ``T``
    is the last round in which anything new got infected; a closed initial
    set, the empty set included, has ``T = 0``.  ``audit_array`` is an int64
    table with one row ``(cell index, step, infected neighbours)`` per
    infection after round 0, by step and then by cell index.  The list views
    :attr:`times` and :attr:`audit` are built on demand.
    """

    spec: LatticeSpec
    initial: CellSet
    times_array: np.ndarray
    T: int
    percolates: bool
    perimeter_trace: list[int] | None = None
    audit_array: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times_array = np.asarray(self.times_array, dtype=np.int32)
        if self.audit_array is not None:
            self.audit_array = np.asarray(self.audit_array, dtype=np.int64).reshape(-1, 3)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunRecord):
            return NotImplemented
        a, b = self.audit_array, other.audit_array
        return (
            (self.spec, self.initial, self.T, self.percolates, self.perimeter_trace)
            == (other.spec, other.initial, other.T, other.percolates, other.perimeter_trace)
            and np.array_equal(self.times_array, other.times_array)
            and (a is None) == (b is None)
            and (a is None or np.array_equal(a, b))
        )

    @property
    def times(self) -> list[int]:
        return self.times_array.tolist()

    @property
    def audit(self) -> list[AuditEvent] | None:
        if self.audit_array is None:
            return None
        cells, steps, counts = self._audit_lists()
        return list(map(AuditEvent, map(tuple, cells), steps, counts))

    def _audit_lists(self) -> tuple[list[list[int]], list[int], list[int]]:
        """The audit's cell coordinates, steps and counts, as lists of Python ints."""
        steps, counts = self.audit_array[:, 1:].T.tolist()
        return coordinates(self.audit_array[:, 0], self.spec.d, self.spec.n).tolist(), steps, counts

    def closure(self) -> CellSet:
        return CellSet._from_mask(self.spec.d, self.spec.n, self.times_array >= 0)

    def newly_infected(self, step: int) -> list[Cell]:
        """Cells whose infection round equals ``step`` (ascending index order)."""
        coords = coordinates(np.flatnonzero(self.times_array == step), self.spec.d, self.spec.n)
        return list(map(tuple, coords.tolist()))

    def to_json_dict(self) -> dict:
        out = {
            "d": self.spec.d,
            "n": self.spec.n,
            "topology": self.spec.topology,
            "r": self.spec.r,
            "initial": self.initial.to_coord_lists(),
            "T": self.T,
            "percolates": self.percolates,
            "times": self.times,
        }
        if self.perimeter_trace is not None:
            out["perimeter_trace"] = list(self.perimeter_trace)
        if self.audit_array is not None:
            out["audit"] = [
                {"cell": c, "step": s, "infected_neighbors": k} for c, s, k in zip(*self._audit_lists())
            ]
        return out


def write_record_json(record: RunRecord, out: TextIO) -> None:
    """Write ``json.dumps(record.to_json_dict(), indent=2)`` to ``out``, from the columns.

    The document is built key for key like :meth:`RunRecord.to_json_dict`,
    each list as an int table with its item shape, and written by
    :func:`_write_document`, so no per-element Python objects are encoded
    and the document is never held whole; the audit's rows are built one
    written block at a time.
    """
    spec, d = record.spec, record.spec.d
    doc = {
        "d": d,
        "n": spec.n,
        "topology": spec.topology,
        "r": spec.r,
        "initial": (["%d"] * d, coordinates(_index_array(record.initial), d, spec.n)),
        "T": record.T,
        "percolates": record.percolates,
        "times": ("%d", record.times_array),
    }
    if record.perimeter_trace is not None:
        doc["perimeter_trace"] = ("%d", np.array(record.perimeter_trace, dtype=np.int64))
    if record.audit_array is not None:
        doc["audit"] = (
            {"cell": ["%d"] * d, "step": "%d", "infected_neighbors": "%d"},
            _AuditRows(record.audit_array, d, spec.n),
        )
    _write_document(out, doc)


@dataclass(frozen=True)
class _AuditRows:
    """The audit as rows (cell coordinates, step, count), built only for the
    blocks that :func:`_write_document` slices, so no whole table is held."""

    events: np.ndarray
    d: int
    n: int

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, block: slice) -> np.ndarray:
        events = self.events[block]
        return np.column_stack((coordinates(events[:, 0], self.d, self.n), events[:, 1:]))


def _write_document(out: TextIO, doc: dict) -> None:
    """Write ``json.dumps(doc, indent=2)`` to ``out``, where a value may be an int table.

    A JSON scalar goes through :func:`json.dumps`.  A table ``(shape,
    rows)`` lists one ``shape`` per row of the int array ``rows`` (or of
    anything whose slices are int arrays, sliced once per block), whose
    columns fill the shape's ``"%d"`` strings in order (``[]`` if empty);
    with ``(shapes, rows, kinds)`` row i takes ``shapes[kinds[i]]``.  Each
    shape's ``json.dumps(shape, indent=2)``, unquoted and indented, is a
    :func:`_fill` template, filled ``_WRITE_ROWS`` rows at a time.
    """
    out.write("{")
    for i, (key, value) in enumerate(doc.items()):
        out.write(f'{"," if i else ""}\n  {json.dumps(key)}: ')
        if not isinstance(value, tuple):
            out.write(json.dumps(value))
            continue
        shape, rows, *kinds = value
        templates = tuple(
            json.dumps(item, indent=2).replace('"%d"', "%d").replace("\n", "\n    ")
            for item in (shape if kinds else (shape,))
        )
        out.write("[")
        for start in range(0, len(rows), _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            out.write(",\n    " if start else "\n    ")
            out.write(_fill(templates, ",\n    ", rows[block], kinds[0][block] if kinds else 0))
        out.write("\n  ]" if len(rows) else "]")
    out.write("\n}")


def _fill(template: str | tuple[str, ...], sep: str, rows: np.ndarray, kinds: np.ndarray | int = 0) -> str:
    """One ``%d`` template per row of an int table, joined with ``sep``.

    Each distinct value becomes a string once.  A table then holds, for
    every column and value, that string with the template text around it,
    so the rows only index it and one ``join`` writes them all.  With a
    tuple of templates row i uses ``template[kinds[i]]``; a template with
    fewer ``%d`` than the table has columns ignores the trailing columns.
    """
    if not len(rows):
        return ""
    templates = (template,) if isinstance(template, str) else template
    rows = rows.reshape(len(rows), -1)
    strs, codes = _value_strings(rows)
    width = rows.shape[1]
    table = np.full((len(templates), width, len(strs)), "", dtype=object)
    for columns, tpl in zip(table, templates):
        pieces = tpl.split("%d")
        # every row opens with sep, which the first row's first string drops,
        # so the joined text is never copied to trim it
        heads = [sep + pieces[0]] + [""] * (len(pieces) - 2)
        for j, (head, tail) in enumerate(zip(heads, pieces[1:])):
            columns[j] = [head + s + tail for s in strs]
    parts = table[np.reshape(kinds, (-1, 1)), np.arange(width), codes].ravel().tolist()
    parts[0] = parts[0][len(sep):]
    return "".join(parts)


def _value_strings(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct values of an int array as strings, and each entry's position among them.

    A value range no wider than the array's length is listed whole;
    otherwise :func:`np.unique` finds the values.
    """
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < len(values):
        return list(map(str, range(lo, hi + 1))), values - lo
    distinct, positions = np.unique(values, return_inverse=True)
    return list(map(str, distinct.tolist())), positions.reshape(values.shape)


def _index_array(cells: CellSet) -> np.ndarray:
    return np.flatnonzero(cells._mask())


def _check_compatible(spec: LatticeSpec, initial: CellSet, record_trace: bool = False) -> None:
    if (initial.d, initial.n) != (spec.d, spec.n):
        raise ValueError(
            f"initial set shape ({initial.d}, {initial.n}) does not match spec ({spec.d}, {spec.n})"
        )
    if record_trace and spec.topology != "grid":
        raise ValueError("perimeter trace is defined for the grid topology only")


def run(
    spec: LatticeSpec,
    initial: CellSet,
    *,
    audit: bool = False,
    record_trace: bool = False,
) -> RunRecord:
    """Run the process to stabilisation with the frontier engine.

    :func:`_infect` computes the times and counts; the audit and
    :func:`_perimeters` read them after.  Behaviour is identical to
    :func:`run_naive`.
    """
    _check_compatible(spec, initial, record_trace)
    times, counts, t = _infect(spec, _index_array(initial))
    events = None
    if audit:
        # by round, then by index; a count stops growing once its cell is
        # infected, and numpy radix-sorts rounds in the smallest dtype of T
        cells = np.flatnonzero(times > 0)
        cells = cells[np.argsort(times[cells].astype(np.min_scalar_type(t)), kind="stable")]
        events = np.column_stack((cells, times[cells], counts[cells]))
    return RunRecord(
        spec=spec,
        initial=initial,
        times_array=times,
        T=t,
        percolates=bool(times.min() >= 0),
        perimeter_trace=_perimeters(spec, times, t) if record_trace else None,
        audit_array=events,
    )


def _infect(
    spec: LatticeSpec, seeds: np.ndarray, codes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Infection rounds, infected-neighbour counts and last round T of the
    run from the cells at the indices ``seeds``.

    Each round passes over the cells infected in the previous round in
    blocks of ``_ROUND_CELLS``, one vectorised pass over each block's
    :func:`neighbor_rows`: a block's healthy neighbours gain one count per
    hit, and those whose count crosses ``r`` in that block, ascending
    within it, join the next frontier.  Rounds are written only after a
    round's last block, so a count takes in every hit of its round, and
    the engine holds one block of rows however large the frontier grows.
    The per-cell ``codes`` default to the lattice's face codes; a box of
    stacked lattices (see :func:`neighbor_rows`) runs them all in one loop,
    and its cells that no row reaches keep round -1 and count 0.

    Per cell the engine holds one uint8 count and one int32 round.  Until
    the run ends ``counts`` holds each count minus r, mod 256, so a cell
    crossed r in a block exactly when its value after the block's ``added``
    hits is below ``added``: a count still below r wraps to at least
    256 - r, above any ``added``, as no count exceeds 2d < 128 where any
    cell has a neighbour.  The test costs what ``count >= r`` would, and a
    cell that crossed in an earlier block of its round is not listed again.
    """
    if codes is None:
        codes = lattice.face_codes(spec.d, spec.n)
    size, shift = len(codes), -spec.r % 256
    times = np.full(size, -1, dtype=np.int32)
    times[seeds] = 0
    counts = np.full(size, shift, dtype=np.uint8)

    t, frontier = 0, seeds
    while len(frontier):
        crossed = []
        for start in range(0, len(frontier), _ROUND_CELLS):
            hits = neighbor_rows(spec, frontier[start : start + _ROUND_CELLS], codes).ravel("K")  # no copy
            # drops the grid's self entries too: every row's own cell is infected
            hits = hits[times[hits] < 0]
            # each distinct index and its multiplicity, as the runs of the
            # hits sorted in place; the runs' bounds, the ends included, are
            # the set entries of one bool array, so no call pads or copies
            hits.sort()
            bounds = np.empty(len(hits) + 1, dtype=bool)
            bounds[0] = bounds[-1] = True
            np.not_equal(hits[1:], hits[:-1], out=bounds[1:-1])
            starts = bounds.nonzero()[0]
            del bounds
            candidates = hits[starts[:-1]]
            del hits
            added = (starts[1:] - starts[:-1]).astype(np.uint8)
            counts[candidates] += added
            crossed.append(candidates[counts[candidates] < added])
        del frontier  # before the next one is joined
        frontier = crossed[0] if len(crossed) == 1 else np.concatenate(crossed)
        if len(frontier):
            t += 1
            times[frontier] = t
    counts -= shift
    return times, counts, t


def _perimeters(spec: LatticeSpec, times: np.ndarray, T: int) -> list[int]:
    """Perimeter of the infected set after each round 0..T of a grid, from
    the infection rounds ``times`` (-1 for never infected).

    A cell adds 2d in its round, and every edge with both ends infected
    takes 2 back in the round of its later end.  Along axis a, of stride s,
    cell i meets cell i + s (a slab of the index grid meets the next one)
    unless i lies on the high face, face-code bit 2a + 1.  Blocks of at most
    ``_BLOCK_CELLS`` cells bound the temporaries, also on [n]^1."""
    d, n, size = spec.d, spec.n, len(times)
    codes, change = face_codes(d, n), np.zeros(T + 1, dtype=np.int64)
    for start in range(0, size, _BLOCK_CELLS):
        block = times[start : start + _BLOCK_CELLS]
        np.add.at(change, block[block >= 0], 2 * d)
        for axis in range(d):
            stride = n ** (d - 1 - axis)
            u = block[: max(size - stride - start, 0)]
            v = times[start + stride : start + stride + len(u)]
            met = (np.minimum(u, v) >= 0) & ((codes[start : start + len(u)] & 2 << 2 * axis) == 0)
            np.subtract.at(change, np.maximum(u, v)[met], 2)
    return np.cumsum(change).tolist()


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
    _check_compatible(spec, initial, record_trace)
    # built by coordinate arithmetic, independently of the rows run reads
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
    events: list[tuple[int, int, int]] | None = [] if audit else None

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
            events.extend((i, t, cnt) for i, cnt in newly)
        for i, _ in newly:
            times[i] = t
        healthy = [i for i in healthy if times[i] < 0]
        if trace is not None:
            trace.append(full_perimeter())

    return RunRecord(
        spec=spec,
        initial=initial,
        times_array=times,
        T=t,
        percolates=all(x >= 0 for x in times),
        perimeter_trace=trace,
        audit_array=events,
    )


def closure(spec: LatticeSpec, initial: CellSet) -> CellSet:
    """Final infected set of the run started from ``initial``."""
    return run(spec, initial).closure()


def perimeter(spec: LatticeSpec, cells: CellSet) -> int:
    """Edge count between member cells and non-member Z^d vertices (grid only):
    round 0 of :func:`_perimeters` with the members infected at round 0."""
    if spec.topology != "grid":
        raise ValueError("perimeter is defined for the grid topology only")
    _check_compatible(spec, cells)
    return _perimeters(spec, cells._mask().astype(np.int8) - 1, 0)[0]


def ordered_results(work: Callable, calls: Iterable[tuple], parallelism: int) -> Iterator:
    """``work(*call)`` for every call, yielded in call order.

    ``calls`` is read lazily, one call as it is submitted, so a generator
    may build later calls from the results consumed so far.  With
    ``parallelism > 1`` calls run in a process pool with a bounded number
    in flight; closing the generator (the caller found what it wanted)
    cancels pending calls and shuts the pool down.
    """
    if parallelism <= 1:
        for call in calls:
            yield work(*call)
        return
    # imported here so that a process which starts no pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=parallelism)
    try:
        in_flight: deque = deque()
        for call in calls:
            in_flight.append(pool.submit(work, *call))
            if len(in_flight) > 2 * parallelism:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
