import io
import json
import re

import pytest

from bootperc import dynamics, witness
from bootperc.constructions import level_set
from bootperc.dynamics import run
from bootperc.lattice import LatticeSpec, cell_index
from bootperc.witness import (
    StripContext,
    WitnessCycleError,
    WitnessNode,
    build_witness,
    coordinate_sum_above,
    infectors,
    iter_strip_cells,
    level_offset,
    max_depth_bound,
    squared_coordinate_sum,
)

CTX = StripContext(3, 5, 2)


def test_strip_context_validation():
    StripContext(3, 2, 2)  # lowest valid strip for d=3, n=2
    with pytest.raises(ValueError):
        StripContext(3, 2, 1)  # below ceil(d/n)
    with pytest.raises(ValueError):
        StripContext(3, 5, 4)  # above d
    with pytest.raises(ValueError):
        StripContext(0, 5, 1)


def test_level_offset_reference_cells():
    assert level_offset((4, 2, 2), CTX) == 3
    assert level_offset((2, 2, 1), CTX) == 0
    assert level_offset((3, 3, 3), CTX) == 4


def test_level_offset_rejects_cells_outside_strip():
    with pytest.raises(ValueError):
        level_offset((5, 5, 1), CTX)  # level 11, belongs to strip 3
    with pytest.raises(ValueError):
        level_offset((1, 1, 1), CTX)  # level 3, below strip 2
    with pytest.raises(ValueError):
        level_offset((4, 2), CTX)


def test_infectors_reference_cells():
    assert infectors((4, 2, 2), CTX) == {(3, 2, 2), (4, 3, 2), (4, 2, 3)}
    assert infectors((2, 2, 2), CTX) == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    assert infectors((3, 3, 3), CTX) == {(4, 3, 3), (3, 4, 3), (3, 3, 4)}


def test_infectors_all_descend_near_the_top():
    # mirror image of the all-ascend case: every coordinate above the offset
    ctx = StripContext(3, 5, 3)
    assert level_offset((4, 4, 4), ctx) == 2
    kids = infectors((4, 4, 4), ctx)
    assert kids == {(3, 4, 4), (4, 3, 4), (4, 4, 3)}
    assert all(sum(w) == 11 for w in kids)  # none on a seeded hyperplane
    assert build_witness((4, 4, 4), ctx).depth >= 2


def test_infectors_refused_on_hyperplanes():
    with pytest.raises(ValueError):
        infectors((2, 2, 1), CTX)  # offset 0
    with pytest.raises(ValueError):
        infectors((4, 3, 3), CTX)  # offset n


def test_infector_count_is_always_d():
    for ctx in (CTX, StripContext(3, 5, 3), StripContext(2, 6, 2), StripContext(4, 3, 2)):
        for v in iter_strip_cells(ctx):
            kids = infectors(v, ctx)
            assert len(kids) == ctx.d
            for w in kids:
                assert all(1 <= x <= ctx.n for x in w)
                assert abs(sum(w) - sum(v)) == 1


def test_build_witness_reference_dag():
    dag = build_witness((4, 2, 2), CTX)
    assert dag.depth == 4
    internal = {tuple(sorted(u, reverse=True)) for u in set(dag.nodes) - set(dag.leaf_labels())}
    assert internal == {(4, 2, 2), (3, 2, 2), (2, 2, 2), (3, 3, 2), (4, 3, 2), (3, 3, 3)}
    assert {sum(u) for u in dag.leaf_labels()} == {5, 10}
    # each distinct label appears exactly once
    assert len(dag.nodes) == len(set(dag.nodes))
    # root's children carry the designated infectors in dimension order
    assert dag.nodes[(4, 2, 2)].children == ((3, 2, 2), (4, 3, 2), (4, 2, 3))
    # not graded: the longest path (8) is longer than the BFS height (6)
    assert build_witness((1, 3, 4), StripContext(3, 6, 2)).depth == 8


def test_build_witness_depth_one_case():
    dag = build_witness((2, 2, 2), CTX)
    assert dag.depth == 1
    kids = dag.nodes[(2, 2, 2)].children
    assert set(kids) == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    assert all(dag.nodes[w].children is None for w in kids)
    assert all(sum(w) == 5 for w in kids)


def test_build_witness_rejects_boundary_and_outside():
    with pytest.raises(ValueError):
        build_witness((2, 2, 1), CTX)
    with pytest.raises(ValueError):
        build_witness((5, 5, 5), CTX)


def test_edge_offsets_alternate_by_one():
    dag = build_witness((4, 2, 2), CTX)
    for u, w in dag.edges():
        assert abs(dag.nodes[w].offset - dag.nodes[u].offset) == 1


def test_lowest_strip_certificates():
    # d=3, n=2: the lowest strip is a single level holding only (1,1,1)
    ctx = StripContext(3, 2, 2)
    dag = build_witness((1, 1, 1), ctx)
    assert dag.depth == 1
    assert set(dag.leaf_labels()) == {(2, 1, 1), (1, 2, 1), (1, 1, 2)}


def test_one_dimensional_certificates():
    ctx = StripContext(1, 5, 1)
    dag = build_witness((2,), ctx)
    assert dag.depth == 3  # (2) -> (3) -> (4) -> (5)
    assert dag.leaf_labels() == [(5,)]


def test_potentials():
    assert coordinate_sum_above((4, 2, 2), 3) == 4
    assert coordinate_sum_above((4, 2, 2), 0) == 8
    assert coordinate_sum_above((4, 2, 2), 5) == 0
    assert squared_coordinate_sum((4, 2, 2)) == 24
    assert squared_coordinate_sum((1, 1, 1, 1)) == 4
    d, n = 3, 5
    assert squared_coordinate_sum((n,) * d) == d * n * n


def test_potential_certificate_rules_out_cycles_exhaustively():
    """Edge-local form of the no-cycle argument, for every certificate edge.

    Ascending edges preserve the above-threshold coordinate sum for any
    threshold at or above the new offset; descending edges never increase it
    and strictly decrease it at threshold equal to the source offset.
    Together these force the potential to drop around any would-be cycle.
    """
    for n in range(2, 6):
        for s in range(-(-3 // n), 4):
            ctx = StripContext(3, n, s)
            for v in iter_strip_cells(ctx):
                dag = build_witness(v, ctx)
                for u, w in dag.edges():
                    tu, tw = dag.nodes[u].offset, dag.nodes[w].offset
                    assert abs(tw - tu) == 1
                    if tw == tu + 1:
                        for c in range(tw, n + 1):
                            assert coordinate_sum_above(w, c) == coordinate_sum_above(u, c)
                    else:
                        for c in range(0, n + 1):
                            assert coordinate_sum_above(w, c) <= coordinate_sum_above(u, c)
                        assert coordinate_sum_above(w, tu) < coordinate_sum_above(u, tu)


def test_depth_bound_exhaustive_d3():
    for n in range(2, 7):
        for s in range(-(-3 // n), 4):
            ctx = StripContext(3, n, s)
            bound = max_depth_bound(ctx)
            for v in iter_strip_cells(ctx):
                assert build_witness(v, ctx).depth <= bound


def test_depth_bound_sampled_d4():
    for n in (3, 6):
        for s in (2, 4):
            ctx = StripContext(4, n, s)
            bound = max_depth_bound(ctx)
            cells = list(iter_strip_cells(ctx))
            for v in cells[:: max(1, len(cells) // 25)]:
                assert build_witness(v, ctx).depth <= bound


def test_infection_time_bounded_by_certificate_depth():
    for n in range(2, 7):
        for s in range(-(-3 // n), 4):
            ctx = StripContext(3, n, s)
            seeds = level_set(3, n, ctx.lower_level) | level_set(3, n, ctx.upper_level)
            rec = run(LatticeSpec(3, n), seeds)
            for v in iter_strip_cells(ctx):
                assert 0 <= rec.times_array[cell_index(v, 3, n)] <= build_witness(v, ctx).depth


def test_permutation_equivariance():
    from itertools import permutations

    ctx = StripContext(3, 5, 2)
    for v in [(4, 2, 2), (2, 3, 2), (3, 2, 4)]:
        dag = build_witness(v, ctx)
        for perm in permutations(range(3)):

            def pi(cell):
                return tuple(cell[p] for p in perm)

            other = build_witness(pi(v), ctx)
            assert other.depth == dag.depth
            assert {pi(u) for u in dag.nodes} == set(other.nodes)
            # the whole structure maps across, children included
            for u, node in dag.nodes.items():
                image = other.nodes[pi(u)]
                assert image.offset == node.offset
                if node.children is None:
                    assert image.children is None
                else:
                    assert {pi(w) for w in node.children} == set(image.children)


def test_cycle_detector_fires_on_synthetic_cycle():
    nodes = {
        (1,): WitnessNode((1,), 1, ((2,),)),
        (2,): WitnessNode((2,), 2, ((1,),)),
    }
    assert witness._walk(nodes, (1,))[0] == [(1,), (2,), (1,)]
    nodes[(2,)] = WitnessNode((2,), 2, None)
    assert witness._walk(nodes, (1,))[0] is None


def test_build_witness_raises_on_a_cycle(monkeypatch):
    # (4,2,2) names (3,2,2) first; make (3,2,2) name (4,2,2) first in turn
    real = witness._infector_tuple

    def patched(v, off):
        kids = real(v, off)
        return ((4, 2, 2),) + kids[1:] if v == (3, 2, 2) else kids

    monkeypatch.setattr(witness, "_infector_tuple", patched)
    with pytest.raises(WitnessCycleError, match=re.escape("(4, 2, 2) -> (3, 2, 2) -> (4, 2, 2)")):
        build_witness((4, 2, 2), CTX)


def test_witness_json_and_edge_list():
    dag = build_witness((4, 2, 2), CTX)
    doc = json.loads(json.dumps(dag.to_json_dict()))
    assert doc["root"] == [4, 2, 2]
    assert (doc["d"], doc["n"], doc["s"], doc["depth"]) == (3, 5, 2, 4)
    assert doc["nodes"][0]["label"] == [4, 2, 2] and doc["nodes"][0]["t"] == 3
    by_label = {tuple(nd["label"]): nd for nd in doc["nodes"]}
    assert by_label[(2, 2, 1)]["children"] is None
    lines = dag.to_edge_list().splitlines()
    assert "4,2,2 -> 3,2,2" in lines
    assert len(lines) == sum(1 for _ in dag.edges())


@pytest.mark.parametrize(
    "v, ctx",
    [((4, 4, 3), StripContext(3, 6, 2)), ((2,), StripContext(1, 4, 1)), ((15, 15, 10, 9), StripContext(4, 20, 3))],
)
def test_witness_writer_splits_nodes_into_blocks(monkeypatch, v, ctx):
    # leaves and internal nodes both, so each block slices the per-node shape choice
    dag = build_witness(v, ctx)
    assert 0 < len(dag.leaf_labels()) < len(dag.nodes)
    expected = json.dumps(dag.to_json_dict(), indent=2)
    for rows in (1, 2, 5):
        monkeypatch.setattr(dynamics, "_WRITE_ROWS", rows)
        out = io.StringIO()
        witness.write_witness_json(dag, out)
        assert out.getvalue() == expected


def test_cycle_error_is_a_runtime_error():
    assert issubclass(WitnessCycleError, RuntimeError)
