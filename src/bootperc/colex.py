"""Colexicographic order over the linear indices, and the bit planes that
searches copy their candidates from.

Colex compares k-sets by their largest element first, then recurses on
the rest.  It is prefix-stable: the j-subsets of range(c) are the first
comb(c, j) j-subsets of range(size).  So a table T_j of bit planes, built
once per process for a j <= k picked by :func:`_low_size`, holds every
candidate's low part: the k-sets that share their top k - j cells
form one colex block, whose bit planes are the first comb(c, j) columns of
T_j (c the lowest top cell) with the top cells' rows set to all ones.
Blocks follow the colex order of their top parts and each starts on a word
boundary; a valid-bit mask clears the padding after each.  The blocks'
words, laid end to end, are cut into work units (:func:`_units`), and a
:class:`_Unit` copies its planes from T_j.  No index rows are stored: the
one builder of bit planes from index rows, :func:`_seed_planes`, makes T_j
a slab at a time, and :meth:`_Unit.cells` unranks a hit's low part again.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

from .lattice import LATTICE_CACHE_SIZE

# Words of 64 candidates in one work unit.
_CHUNK_WORDS = 2**9
# Cap on cells x candidates, in bits, of the table T_j and of a work unit's
# planes, so that either takes at most 512 KB; lattices of up to 128 cells
# keep the full _CHUNK_WORDS.
_CHUNK_CELLS = 2**22
# j-sets of T_j made in one numpy pass while building it: a multiple of 64,
# so that each pass fills whole words.
_SLAB = 2**12
# _LOW_BITS[i]: a word with its i lowest bits set
_LOW_BITS = np.array([2**i - 1 for i in range(65)], dtype=np.uint64)


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _binomials(size: int, k: int) -> list[np.ndarray]:
    """comb(m, i) for m in [i-1, size-k+i-1], the range of c_i in a k-subset
    of range(size), for i = 1..k; every unranking of such subsets reads them."""
    # a binomial past int64 exceeds every rank, so clipping it keeps the
    # tables sorted and the unranking exact
    cap = np.iinfo(np.int64).max
    return [
        np.array([min(comb(m, i), cap) for m in range(i - 1, size - k + i)], dtype=np.int64)
        for i in range(1, k + 1)
    ]


def _colex_chunk(size: int, k: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, k) index array: rows ``start:stop`` of the k-subsets
    of range(size) in colex order.

    The k-set c_1 < ... < c_k has colex rank sum_i comb(c_i, i), so each
    rank is unranked largest element first: c_i is the greatest m with
    comb(m, i) <= the rank still left.  Entries use the smallest unsigned
    dtype that holds ``size - 1``.  Searches unrank only the rows of T_j
    and the top parts of blocks with it, never single candidates.
    """
    rank = np.arange(start, stop, dtype=np.int64)
    chunk = np.empty((len(rank), k), dtype=np.min_scalar_type(max(size - 1, 0)))
    for i, table in reversed(list(enumerate(_binomials(size, k)))):
        m = np.searchsorted(table, rank, side="right") - 1
        rank -= table[m]
        chunk[:, i] = m + i
    return chunk


def _low_size(size: int, k: int) -> int:
    """j, the size of the low parts of the k-subsets of range(size): the
    largest j <= k whose table T_j (``size`` rows of comb(size, j) bits,
    padded to words) fits in ``_CHUNK_CELLS`` bits, but at least 1 when k is.
    T_1 is the identity and is never stored (see :meth:`_Unit.planes`);
    with j = 0 every block would be one candidate alone in its word."""

    def fits(j: int) -> bool:
        return j <= 1 or 64 * -(-comb(size, j) // 64) * size <= _CHUNK_CELLS

    # comb(size, j) rises up to j = size / 2 and falls after it, so below k
    # the first j that does not fit bounds every one that does
    return k if fits(k) else next(j for j in range(k) if not fits(j + 1))


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _block_sizes(size: int, j: int) -> np.ndarray:
    """comb(c, j) for c in range(size + 1): the k-sets of a block whose
    lowest top cell is c."""
    return np.array([comb(c, j) for c in range(size + 1)], dtype=np.int64)


def _seed_planes(size: int, rows: np.ndarray) -> np.ndarray:
    """Bit planes of a (count, k) index array of cells in range(size), one
    candidate per row: (size, words) ``uint64``, bit m of row i set when
    row m names cell i.  ``_SLAB`` rows at a time set one byte per cell and
    candidate, packed into words.  The padding bits stay zero."""
    planes = np.empty((size, -(-len(rows) // 64)), dtype=np.uint64)
    for first in range(0, len(rows), _SLAB):
        slab = rows[first : first + _SLAB]
        cells = np.zeros((size, 64 * -(-len(slab) // 64)), dtype=np.uint8)
        cells[slab, np.arange(len(slab))[:, None]] = 1
        words = np.packbits(cells, axis=1, bitorder="little").view(np.uint64)
        planes[:, first // 64 : first // 64 + words.shape[1]] = words
    return planes


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _low_table(size: int, j: int) -> np.ndarray:
    """T_j as read-only (size, words) ``uint64`` bit planes: bit m of row
    i set when the j-subset of range(size) of colex rank m contains cell i.
    The padding bits stay zero.

    Colex order is prefix-stable: the j-subsets of range(c) are the first
    comb(c, j) of them, so every block of a search is a prefix of T_j.
    """
    total = comb(size, j)
    planes = np.empty((size, -(-total // 64)), dtype=np.uint64)
    # a slab of whole words at a time, so that no temporary grows with the table
    for first in range(0, total, _SLAB):
        stop = min(first + _SLAB, total)
        planes[:, first // 64 : -(-stop // 64)] = _seed_planes(size, _colex_chunk(size, j, first, stop))
    planes.flags.writeable = False
    return planes


def _units(size: int, k: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Work units (k, start, first, stop, last) whose candidates (see
    :class:`_Unit`) cover the k-subsets of range(size) in colex order.

    The blocks' words, laid end to end, are cut every ``_CHUNK_WORDS``
    words, or fewer where that would take a unit's planes over
    ``_CHUNK_CELLS`` bits: a unit runs from word ``first`` of the block of
    top rank ``start`` up to word ``last`` of the block of top rank
    ``stop``, that word excluded.
    """
    if k > size:
        return
    j = _low_size(size, k)
    step = max(1, min(_CHUNK_WORDS, _CHUNK_CELLS // (64 * max(size, 1))))
    sizes, total = _block_sizes(size, j), comb(size - j, k - j)
    batch = max(1, _CHUNK_CELLS // (64 * max(k - j, 1)))  # top parts unranked at once
    begin, offset = (0, 0), 0
    for first in range(0, total, batch):
        tops = _colex_chunk(size - j, k - j, first, min(first + batch, total)).astype(np.intp) + j
        words = -(-sizes[_lowest(size, tops)] // 64)
        ends = offset + np.cumsum(words)
        cuts = np.arange((offset // step + 1) * step, int(ends[-1]) + 1, step)
        blocks = np.searchsorted(ends, cuts, side="right")
        starts = np.append(ends - words, ends[-1])  # a cut at the batch's end opens the next block
        for cut, block in zip(cuts.tolist(), blocks.tolist()):
            end = (first + block, cut - int(starts[block]))
            yield k, *begin, *end
            begin = end
        offset = int(ends[-1])
    if begin != (total, 0):
        yield k, *begin, total, 0


def _lowest(size: int, tops: np.ndarray) -> np.ndarray:
    """Lowest cell of each top part; ``size`` for an empty one, whose block
    is all of T_j."""
    return tops[:, 0] if tops.shape[1] else np.full(len(tops), size)


class _Unit:
    """The candidates of the work unit (k, start, first, stop, last).

    Block b is the top part ``tops[b]``, a (k - j)-subset of range(j, size)
    in colex order, with the j-sets of colex ranks ``lo[b]:hi[b]`` below
    it; only the first and the last block may be cut short.  In the bit
    planes each block starts on a word boundary, and ``valid`` has one bit
    for each candidate, none for the padding after each block.
    """

    def __init__(self, size: int, k: int, start: int, first: int, stop: int, last: int):
        j = _low_size(size, k)
        self.size, self.j = size, j
        self.tops = _colex_chunk(size - j, k - j, start, stop + (last > 0)).astype(np.intp) + j
        self.hi = _block_sizes(size, j)[_lowest(size, self.tops)]
        self.lo = np.zeros_like(self.hi)
        self.lo[0] = 64 * first
        if last:
            self.hi[-1] = min(self.hi[-1], 64 * last)
        # per word of the unit: its block and its word of T_j
        words = -(-self.hi // 64) - self.lo // 64
        self.block = np.repeat(np.arange(len(words)), words)
        self.column = np.arange(len(self.block)) + np.repeat(self.lo // 64 - (np.cumsum(words) - words), words)
        self.valid = _LOW_BITS[np.clip(self.hi[self.block] - 64 * self.column, 0, 64)]

    def planes(self, out: np.ndarray) -> np.ndarray:
        """Seed state of the unit's candidates, written into every bit of
        ``out``, a (size, words) ``uint64`` array, and returned: the block's
        words of T_j with its top cells' rows set, and every padding bit
        clear (an empty set, which never changes)."""
        if self.j == 1:
            # T_1 is the identity: bit t of word w is cell 64 w + t
            out.fill(0)
            cells = 64 * self.column[:, None] + np.arange(64)
            word, bit = np.nonzero(cells < self.size)
            out[cells[word, bit], word] = np.left_shift(np.uint64(1), bit.astype(np.uint64))
        else:
            # unbuffered into out, unlike mode="raise"
            np.take(_low_table(self.size, self.j), self.column, axis=1, out=out, mode="clip")
        cells = self.tops[self.block]
        out[cells.ravel(), np.repeat(np.arange(len(cells)), cells.shape[1])] = ~np.uint64(0)
        out &= self.valid
        return out

    def cells(self, position: int) -> tuple[int, ...]:
        """The candidate at colex position ``position`` of the unit, as
        ascending cells."""
        ends = np.cumsum(self.hi - self.lo)
        b = int(np.searchsorted(ends, position, side="right"))
        low = int(self.hi[b] - (ends[b] - position))
        return (*_colex_chunk(self.size, self.j, low, low + 1)[0].tolist(), *self.tops[b].tolist())
