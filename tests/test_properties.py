"""Randomised invariant checks (hypothesis)."""

import io
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from bootperc.colex import _colex_chunk
from bootperc.dynamics import CellSet, closure, run, write_record_json
from bootperc.lattice import LatticeSpec, cell_at, cell_index
from bootperc.witness import StripContext, build_witness, iter_strip_cells, write_witness_json


small_lattices = st.sampled_from(
    [LatticeSpec(1, 9), LatticeSpec(2, 4), LatticeSpec(2, 5), LatticeSpec(3, 3)]
)


@st.composite
def lattice_and_subset(draw, max_fraction=0.6):
    spec = draw(small_lattices)
    indices = draw(
        st.sets(st.integers(min_value=0, max_value=spec.size - 1), max_size=int(spec.size * max_fraction))
    )
    return spec, CellSet.from_indices(spec.d, spec.n, indices)


@given(small_lattices, st.data())
@settings(max_examples=60, deadline=None)
def test_index_round_trip(spec, data):
    i = data.draw(st.integers(min_value=0, max_value=spec.size - 1))
    assert cell_index(cell_at(i, spec.d, spec.n), spec.d, spec.n) == i


@given(lattice_and_subset(), st.data())
@settings(max_examples=40, deadline=None)
def test_closure_is_monotone(pair, data):
    spec, a = pair
    extra = data.draw(st.sets(st.integers(min_value=0, max_value=spec.size - 1), max_size=4))
    b = a | CellSet.from_indices(spec.d, spec.n, extra)
    closed = closure(spec, a)
    assert closed & closure(spec, b) == closed


@given(lattice_and_subset())
@settings(max_examples=40, deadline=None)
def test_closure_is_idempotent(pair):
    spec, a = pair
    closed = closure(spec, a)
    rec = run(spec, closed)
    assert rec.T == 0 and rec.closure() == closed


@given(lattice_and_subset())
@settings(max_examples=40, deadline=None)
def test_perimeter_never_grows_at_threshold_d(pair):
    spec, a = pair
    trace = run(spec, a, record_trace=True).perimeter_trace
    assert all(x >= y for x, y in zip(trace, trace[1:]))


@given(lattice_and_subset())
@settings(max_examples=30, deadline=None)
def test_engines_agree(pair):
    spec, a = pair
    assert run(spec, a, audit=True, record_trace=True) == run_naive_record(spec, a)


def run_naive_record(spec, a):
    from bootperc.dynamics import run_naive

    return run_naive(spec, a, audit=True, record_trace=True)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_colex_is_a_strict_total_order(n, k):
    from math import comb

    seq = [tuple(row) for row in _colex_chunk(n, k, 0, comb(n, k)).tolist()]
    assert len(seq) == (comb(n, k) if k <= n else 0)
    ranked = [tuple(reversed(t)) for t in seq]
    assert ranked == sorted(ranked)
    assert len(set(seq)) == len(seq)


# the largest side per dimension that keeps a lattice at or below about 100 cells
_RECORD_SIDES = {1: 12, 2: 8, 3: 4, 4: 3}


@st.composite
def run_records(draw):
    """One run on a grid or torus of dimension 1..4, any threshold, with the
    initial set empty, full or random, and the audit and trace each on or off."""
    d = draw(st.integers(min_value=1, max_value=4))
    topology = draw(st.sampled_from(["grid", "torus"]))
    n = draw(st.integers(min_value=3 if topology == "torus" else 1, max_value=_RECORD_SIDES[d]))
    spec = LatticeSpec(d, n, topology, draw(st.integers(min_value=1, max_value=2 * d)))
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "empty":
        initial = CellSet(d, n)
    elif kind == "full":
        initial = CellSet.full(d, n)
    else:
        initial = CellSet.from_indices(d, n, draw(st.sets(st.integers(min_value=0, max_value=spec.size - 1))))
    trace = topology == "grid" and draw(st.booleans())
    return run(spec, initial, audit=draw(st.booleans()), record_trace=trace)


@given(run_records())
@settings(max_examples=150, deadline=None)
def test_record_writer_matches_json_dumps(rec):
    out = io.StringIO()
    write_record_json(rec, out)
    assert out.getvalue() == json.dumps(rec.to_json_dict(), indent=2)


def parse_lines(text, d, n):
    """The one-line-at-a-time parser that ``CellSet.from_text`` replaced, kept as its oracle."""
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
    return CellSet.from_cells(d, n, cells)


def _outcome(parse, text, d, n):
    try:
        return parse(text, d, n)
    except ValueError as exc:
        return str(exc)


# line breaks of str.splitlines besides "\n" and "\r\n"
ODD_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


@st.composite
def cell_texts(draw):
    """Cell files for [n]^d: valid rows, with "+" signs, leading zeros, tabs
    and duplicates, among blank and whitespace-only lines, with CRLF or LF
    endings; now and then a row with a coordinate out of range (huge ones
    and ones past int64 included), a token too many or too few, a token
    that is not an integer (a comment mark, a comma, quotes, NUL and "nan"
    among them) or one that int reads from non-ASCII digits, or a row cut
    in two by a line break.  Half the files also break lines with one of
    the other breaks of str.splitlines, and half separate tokens with
    no-break spaces, "\x1f" or ideographic spaces too, which str.split
    takes for blanks."""
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    odd_breaks = draw(st.just([]) | st.sampled_from(ODD_BREAKS).map(lambda b: [b]))
    nbsp = draw(st.booleans())
    coord = st.integers(min_value=1, max_value=n).map(str)
    coord = st.one_of(coord, coord.map(lambda t: "+" + t), coord.map(lambda t: "00" + t))
    outside = st.sampled_from(
        ["0", "-0", "-1", str(n + 1), "1_000", "10" * 12, "9" * 19, "+" + "9" * 19, "-" + "9" * 19]
    )
    junk = st.sampled_from(
        ["x", "1.5", "--1", "+-1", "-", "1-2", "0x1", "1e2", "#", "#1", "1#", "1,2", '"1"', "nan", "\x00"]
        + ["\u0663", "\uff11"]  # int reads these as 3 and 1
    )
    rows = {
        "row": st.lists(coord, min_size=d, max_size=d),
        "range": st.lists(st.one_of(coord, outside), min_size=d, max_size=d),
        "count": st.lists(coord, min_size=d + 1, max_size=d + 1) | st.lists(coord, min_size=d - 1, max_size=d - 1),
        "junk": st.lists(st.one_of(coord, junk), min_size=1, max_size=d + 1),
    }
    gap = st.sampled_from([" ", "  ", "\t", " \t"] + ["\xa0", " \xa0", "\x1f", "\u3000"] * nbsp)
    breaks = st.sampled_from(["\n", "\r\n"] + odd_breaks)
    kinds = ["row"] * 6 + ["blank", "space", "repeat", "split"] + ["range", "count", "junk"] * draw(st.booleans())
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind in rows:
            toks = draw(rows[kind])
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(t + draw(gap) for t in toks).rstrip())
        elif kind == "split":
            toks = draw(rows["row"])
            cut = draw(st.integers(min_value=0, max_value=d))
            lines.append(" ".join(toks[:cut]) + draw(st.sampled_from(odd_breaks or ["\n"])) + " ".join(toks[cut:]))
        elif kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(gap))
        elif lines:
            lines.append(draw(st.sampled_from(lines)))
    text = "".join(line + draw(breaks) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("".join(["\n", "\r"] + ODD_BREAKS))
    return text, d, n


@given(cell_texts())
@settings(max_examples=300, deadline=None)
def test_cellset_from_text_matches_line_parser(case):
    text, d, n = case
    assert _outcome(CellSet.from_text, text, d, n) == _outcome(parse_lines, text, d, n)


@pytest.mark.parametrize("blank", ODD_BREAKS + ["\xa0", "\x1f"], ids=ascii)
def test_cellset_from_text_splits_like_str_methods(blank):
    # "1 2\r3" is two lines to str.splitlines, so no cell of [3]^3; "\xa0"
    # and "\x1f" only separate tokens, so "1 2\xa03" is the cell (1, 2, 3)
    for text in (f"1 2{blank}3", f"1 2{blank}3\n2 2 2\n", f"1{blank}2 3\r\n"):
        assert _outcome(CellSet.from_text, text, 3, 3) == _outcome(parse_lines, text, 3, 3)


@st.composite
def strip_cells(draw):
    """A cell strictly inside a strip of [n]^d, d <= 4 and n <= 9, any valid strip index."""
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=9))
    ctx = StripContext(d, n, draw(st.integers(min_value=-(-d // n), max_value=d)))
    cells = list(iter_strip_cells(ctx))
    assume(cells)  # a strip below level d, e.g. strip 2 of [2]^4, has no cells
    return draw(st.sampled_from(cells)), ctx


@given(strip_cells())
@settings(max_examples=100, deadline=None)
def test_witness_writer_matches_json_dumps(case):
    dag = build_witness(*case)
    out = io.StringIO()
    write_witness_json(dag, out)
    assert out.getvalue() == json.dumps(dag.to_json_dict(), indent=2)
