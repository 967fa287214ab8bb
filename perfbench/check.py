"""Output checks that do not use the bootperc engine.

Every check takes the exact stdout bytes of one CLI job and raises
``CheckError`` when they are wrong.  Simulation outputs are certified cell by
cell with numpy from the reported infection times alone; search outputs are
checked against pinned optima and witnesses, and the witness is re-simulated
here; sweep, verify and text outputs are compared with output pinned when
this benchmark was written.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

import numpy as np

Check = Callable[[bytes], None]


class CheckError(Exception):
    """A job's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- lattice helpers ----------------------------------------------------------


def _neighbour_values(a: np.ndarray, torus: bool, fill: int) -> list[np.ndarray]:
    """For each of the 2d directions, the value of each cell's neighbour there."""
    out = []
    for axis in range(a.ndim):
        if torus:
            out.append(np.roll(a, 1, axis=axis))
            out.append(np.roll(a, -1, axis=axis))
            continue
        lead = [slice(None)] * a.ndim
        tail = [slice(None)] * a.ndim
        for shift in (1, -1):
            b = np.full_like(a, fill)
            lead[axis] = slice(shift, None) if shift == 1 else slice(None, -1)
            tail[axis] = slice(None, -1) if shift == 1 else slice(1, None)
            b[tuple(lead)] = a[tuple(tail)]
            out.append(b)
    return out


def _indices(coords: list, d: int, n: int) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.int64).reshape(-1, d)
    _require(bool(((arr >= 1) & (arr <= n)).all()), "cell coordinate outside the lattice")
    return np.ravel_multi_index(tuple((arr - 1).T), (n,) * d) if len(arr) else arr[:, 0]


def hyperplane_indices(d: int, n: int) -> np.ndarray:
    """Linear indices of the cells whose coordinate sum is a multiple of n."""
    level = sum(np.indices((n,) * d)) + d
    return np.flatnonzero((level % n == 0).ravel())


def simulate(seed: np.ndarray, d: int, n: int, r: int) -> tuple[int, bool]:
    """Synchronous r-neighbour rounds on the grid [n]^d: (rounds, percolates)."""
    infected = np.zeros(n**d, dtype=bool)
    infected[seed] = True
    infected = infected.reshape((n,) * d)
    rounds = 0
    while True:
        count = sum(nb.astype(np.int8) for nb in _neighbour_values(infected, False, False))
        new = ~infected & (count >= r)
        if not new.any():
            return rounds, bool(infected.all())
        infected |= new
        rounds += 1


# -- infection-time certificates ------------------------------------------------


def certify_times(times: np.ndarray, d: int, n: int, r: int, torus: bool) -> np.ndarray:
    """Check the local rule for every cell; return each cell's infected-neighbour count.

    A cell infected in round t >= 1 must have at least r neighbours infected
    by round t-1 and fewer than r by round t-2.  A cell never infected (-1)
    must have fewer than r infected neighbours in the final state.  The
    returned count is the number of neighbours infected before the cell was.
    """
    t = times.reshape((n,) * d)
    before = np.zeros(t.shape, dtype=np.int64)
    two_before = np.zeros(t.shape, dtype=np.int64)
    final = np.zeros(t.shape, dtype=np.int64)
    for nb in _neighbour_values(t, torus, -1):
        live = nb >= 0
        final += live
        before += live & (nb <= t - 1)
        two_before += live & (nb <= t - 2)
    late = t >= 1
    _require(bool((t >= -1).all()), "infection time below -1")
    _require(bool((before[late] >= r).all()), "a cell was infected with fewer than r infected neighbours")
    _require(bool((two_before[late] < r).all()), "a cell was infected a round later than the rule allows")
    _require(bool((final[t < 0] < r).all()), "a healthy cell has r infected neighbours at the end")
    return before.ravel()


def perimeter_trace(times: np.ndarray, d: int, n: int) -> list[int]:
    """Perimeter after each round, from the times: 2d|A_s| - 2 (edges inside A_s)."""
    t = times.reshape((n,) * d)
    steps = int(t.max()) + 1
    members = np.cumsum(np.bincount(t[t >= 0], minlength=steps))
    edges = np.zeros(steps, dtype=np.int64)
    for axis in range(d):
        a = np.moveaxis(t, axis, 0)
        u, v = a[:-1], a[1:]
        both = (u >= 0) & (v >= 0)
        edges += np.bincount(np.maximum(u, v)[both], minlength=steps)
    return (2 * d * members - 2 * np.cumsum(edges)).tolist()


def check_run(
    times: np.ndarray, initial: np.ndarray, T: int, percolates: bool, d: int, n: int, r: int, torus: bool
) -> np.ndarray:
    _require(times.shape == (n**d,), f"expected {n**d} infection times, got {times.shape[0]}")
    _require(np.array_equal(np.flatnonzero(times == 0), initial), "round-0 cells differ from the initial set")
    _require(T == max(int(times.max()), 0), f"T={T} but the last infection is in round {int(times.max())}")
    _require(percolates == bool((times >= 0).all()), "percolates flag disagrees with the times")
    return certify_times(times, d, n, r, torus)


def simulate_json(d: int, n: int, initial: np.ndarray, topology: str = "grid") -> Check:
    """Check `simulate --format json` output, with or without --trace/--audit."""

    def check(out: bytes) -> None:
        doc = json.loads(out)
        r = doc["r"]
        _require((doc["d"], doc["n"], doc["topology"]) == (d, n, topology), "wrong lattice header")
        _require(r == d, f"expected the default threshold r={d}, got {r}")
        _require(np.array_equal(_indices(doc["initial"], d, n), initial), "initial set differs from the input")
        times = np.asarray(doc["times"], dtype=np.int64)
        before = check_run(times, initial, doc["T"], doc["percolates"], d, n, r, topology == "torus")
        if "perimeter_trace" in doc:
            _require(doc["perimeter_trace"] == perimeter_trace(times, d, n), "perimeter trace differs")
        if "audit" in doc:
            late = np.flatnonzero(times >= 1)
            order = late[np.lexsort((late, times[late]))]
            events = doc["audit"]
            _require(len(events) == len(order), f"{len(events)} audit events for {len(order)} infections")
            cells = _indices([ev["cell"] for ev in events], d, n)
            _require(np.array_equal(cells, order), "audit events are not the infections in (round, index) order")
            steps = np.fromiter((ev["step"] for ev in events), dtype=np.int64, count=len(events))
            counts = np.fromiter((ev["infected_neighbors"] for ev in events), dtype=np.int64, count=len(events))
            _require(np.array_equal(steps, times[order]), "audit step differs from the infection time")
            _require(np.array_equal(counts, before[order]), "audit neighbour count differs")

    return check


def snapshots(d: int, n: int, initial: np.ndarray) -> Check:
    """Check `simulate --snapshot every=1` output: one line per round, then T."""

    def check(out: bytes) -> None:
        lines = out.decode().splitlines()
        tail = json.loads(lines[-1])
        times = np.full(n**d, -1, dtype=np.int64)
        _require(len(lines) == tail["T"] + 2, f"{len(lines) - 1} snapshot lines for T={tail['T']}")
        for step, line in enumerate(lines[:-1]):
            doc = json.loads(line)
            _require(doc["step"] == step, f"snapshot {step} is labelled {doc['step']}")
            idx = _indices(doc["cells"], d, n)
            _require(bool((np.diff(idx) > 0).all()), f"snapshot {step} is not in ascending index order")
            _require(bool((times[idx] < 0).all()), f"snapshot {step} repeats a cell")
            times[idx] = step
        check_run(times, initial, tail["T"], tail["percolates"], d, n, d, False)

    return check


# -- certificates, searches, pinned text ------------------------------------------


def _longest_paths(nodes: dict[tuple[int, ...], dict]) -> dict[tuple[int, ...], int]:
    """Longest path to a leaf from every node, by iterative depth-first search."""
    depth: dict[tuple[int, ...], int] = {}
    open_: set[tuple[int, ...]] = set()
    for start in nodes:
        stack = [(start, False)]
        while stack:
            u, expanded = stack.pop()
            kids = [tuple(w) for w in nodes[u]["children"] or ()]
            if expanded:
                open_.discard(u)
                depth[u] = 1 + max(depth[w] for w in kids) if kids else 0
                continue
            if u in depth:
                continue
            _require(u not in open_, f"witness has a cycle through {u}")
            open_.add(u)
            stack.append((u, True))
            stack.extend((w, False) for w in kids if w not in depth)
    return depth


def witness_json(d: int, n: int, s: int, root: tuple[int, ...]) -> Check:
    """Check a `witness --format json` DAG: every internal node has one infector
    per dimension, leaves lie on the two seeded hyperplanes, depth is the
    longest path and within the quadratic bound."""
    low = (s - 1) * n

    def check(out: bytes) -> None:
        doc = json.loads(out)
        _require((doc["d"], doc["n"], doc["s"]) == (d, n, s), "wrong witness header")
        _require(tuple(doc["root"]) == root, f"root {doc['root']} is not {list(root)}")
        nodes = {tuple(node["label"]): node for node in doc["nodes"]}
        _require(len(nodes) == len(doc["nodes"]), "duplicate witness labels")
        _require(tuple(doc["nodes"][0]["label"]) == root, "first node is not the root")
        for label, node in nodes.items():
            _require(len(label) == d and all(1 <= x <= n for x in label), f"label {label} outside the lattice")
            off = sum(label) - low
            _require(node["t"] == off and 0 <= off <= n, f"label {label} has offset {node['t']}, expected {off}")
            kids = node["children"]
            _require((kids is None) == (off in (0, n)), f"label {label}: leaf status wrong")
            if kids is None:
                continue
            expect = [label[:j] + (x + 1 if x <= off else x - 1,) + label[j + 1 :] for j, x in enumerate(label)]
            _require([tuple(w) for w in kids] == expect, f"label {label}: wrong infectors {kids}")
            _require(all(w in nodes for w in expect), f"label {label}: an infector has no node")
        depth = _longest_paths(nodes)
        _require(doc["depth"] == depth[root], f"depth {doc['depth']}, longest path {depth[root]}")
        _require(doc["depth"] <= (d + 2) * n * n + n, "depth exceeds the quadratic bound")

    return check


def search_json(
    d: int,
    n: int,
    optimum: int,
    witness: list[list[int]] | None = None,
    symmetry_pruned: bool = False,
    rounds: int | None = None,
) -> Check:
    """Check a search result against its pinned optimum and colex-first witness.

    ``rounds`` marks a minimum-time search, whose optimum is that round
    count; otherwise the optimum is the witness size.  Without a pinned
    witness only the optimum and the ``symmetry_pruned`` flag are checked.
    The witness is always re-simulated here and must percolate, in exactly
    ``rounds`` rounds when that is given.
    """

    def check(out: bytes) -> None:
        doc = json.loads(out)
        _require(doc["optimum"] == optimum, f"optimum {doc['optimum']}, expected {optimum}")
        _require(doc["exhaustive"] is True, "search not exhaustive")
        _require(doc["symmetry_pruned"] is symmetry_pruned, "wrong symmetry_pruned flag")
        if rounds is None:
            _require(len(doc["witness"]) == optimum, "witness size differs from the optimum")
        if witness is not None:
            _require(doc["witness"] == witness, f"witness {doc['witness']} is not the colex-first one")
        took, percolates = simulate(_indices(doc["witness"], d, n), d, n, d)
        _require(percolates, "witness does not percolate")
        _require(rounds is None or took == rounds, f"witness percolates in {took} rounds, expected {rounds}")

    return check


def sha256(digest: str) -> Check:
    """Check the output against the SHA-256 of pinned output bytes."""

    def check(out: bytes) -> None:
        _require(hashlib.sha256(out).hexdigest() == digest, "output bytes differ from the pinned output")

    return check


def text(expected: str) -> Check:
    """Check the output against a short pinned text."""

    def check(out: bytes) -> None:
        _require(out.decode() == expected, f"output {out[:200]!r} differs from {expected[:200]!r}")

    return check


def first_line(expected: str) -> Check:
    """Check the first output line, e.g. the OK line of `verify`."""

    def check(out: bytes) -> None:
        line = out.decode().split("\n", 1)[0]
        _require(line == expected, f"first line {line!r}, expected {expected!r}")

    return check
