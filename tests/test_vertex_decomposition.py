"""The vertex-decomposition certificate: its kernel on masks, its replay
checker, and its place in is_cohen_macaulay ahead of the graph walk."""

import json

import pytest

from cmgraphs import (
    GF2,
    RATIONAL,
    InternalMismatchError,
    MultipartiteGraph,
    RelationFamily,
    SizeBudgetError,
    build_complete_multipartite,
    cycle_graph,
    gfp,
    graph_of_family,
    homology,
    independence_complex,
    is_cohen_macaulay,
)
from cmgraphs.cli import main
from cmgraphs.graphs import graph_to_dict
from cmgraphs.homology import (
    DEFAULT_FACE_BUDGET,
    _cm_by_faces,
    _flag_graph,
    _replay_vd,
    _vd_certificate,
)


def _graph_masks(nv, edges):
    nbr = [0] * nv
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _path(n):
    return _graph_masks(n, [(v, v + 1) for v in range(n - 1)])


def _matching(pairs):
    return _graph_masks(2 * pairs, [(2 * k, 2 * k + 1) for k in range(pairs)])


C5 = _graph_masks(5, [(v, (v + 1) % 5) for v in range(5)])


def test_path_certificate_sheds_dominated_vertices_and_splits_joins():
    # the path 0-1-2-3: N[0] ⊆ N[1], so 1 sheds; its deletion is the point 0
    # joined with the edge 2-3, and its link N[1]'s complement is the point 3
    steps = _vd_certificate(_path(4), DEFAULT_FACE_BUDGET)
    assert steps == {0b1111: (1, 0, 2), 0b1101: (-1, -1, 2), 0b1100: (3, 2, 1)}
    assert _replay_vd(_path(4), steps) == 2


def test_paths_are_certified_exactly_where_their_complex_is_pure():
    # Ind(P_n) is pure only for n = 1, 2 and 4; a single vertex has no entry
    for n in range(1, 13):
        steps = _vd_certificate(_path(n), DEFAULT_FACE_BUDGET)
        if n in (1, 2, 4):
            assert _replay_vd(_path(n), steps) == (n + 1) // 2, n
        else:
            assert steps is None, n


def test_a_3000_vertex_path_is_not_certified_and_needs_no_recursion():
    # the first sizes that differ lie at the far end of the path, some 3000
    # states down the stack
    assert _vd_certificate(_path(3000), DEFAULT_FACE_BUDGET) is None


def test_a_3000_vertex_perfect_matching_certifies_size_1500():
    matching = _matching(1500)
    steps = _vd_certificate(matching, DEFAULT_FACE_BUDGET)
    root = (1 << 3000) - 1
    assert steps[root] == (-1, -1, 1500)  # a join of 1500 edges
    assert len(steps) == 1501
    assert _replay_vd(matching, steps) == 1500


def test_the_state_budget_bounds_the_search():
    with pytest.raises(SizeBudgetError, match="3 certificate states exceed the budget of 2"):
        _vd_certificate(_matching(3), 2)
    assert _replay_vd(_matching(3), _vd_certificate(_matching(3), 4)) == 3
    # is_cohen_macaulay passes its face budget on to the certificate
    matching = MultipartiteGraph(2, 3, frozenset(((1, i), (2, i)) for i in range(1, 4)))
    with pytest.raises(SizeBudgetError, match="certificate states exceed the budget of 2"):
        is_cohen_macaulay(independence_complex(matching), face_budget=2)


def test_graphs_without_a_dominated_vertex_are_not_certified():
    # Ind(C5) is a circle, CM, but no vertex of C5 dominates another; Ind(C4)
    # is two disjoint edges, pure and not CM
    assert _vd_certificate(C5, DEFAULT_FACE_BUDGET) is None
    assert _vd_certificate(_graph_masks(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 64) is None


def test_the_paper_constructions_are_certified_without_the_graph_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the graph walk ran on a certified complex")

    monkeypatch.setattr(homology, "_cm_by_graph", refuse)
    graphs = [build_complete_multipartite(n, r) for n, r in ((1, 3), (2, 3), (3, 4), (4, 4))]
    graphs += [graph_of_family(RelationFamily.from_pairs(n, n, {})) for n in (2, 3, 4)]
    graphs.append(graph_of_family(RelationFamily.from_pairs(3, 3, {1: [(2, 3)], 2: [(1, 2)]})))
    for graph in graphs:
        cx = independence_complex(graph)
        for field in (GF2, gfp(3), RATIONAL):
            assert is_cohen_macaulay(cx, field).verdict
            assert _cm_by_faces(cx, field).verdict


# C5 with a certificate that is right in every size but claims N[1] ⊆ N[0]:
# shedding 0 leaves the path 1-2-3-4, and its link is the edge 2-3
FORGED_C5 = {
    0b11111: (0, 1, 2),
    0b11110: (2, 1, 2),
    0b11010: (-1, -1, 2),
    0b11000: (4, 3, 1),
    0b01100: (3, 2, 1),
}


def test_corrupted_certificates_fail_replay():
    with pytest.raises(InternalMismatchError, match="vertex 1 does not dominate 0"):
        _replay_vd(C5, FORGED_C5)
    path = _path(4)
    good = _vd_certificate(path, 64)
    for corrupt, message in (
        ({**good, 0b1111: (1, 0, 3)}, "not of sizes 3, 2"),
        ({**good, 0b1100: (3, 2, 2)}, "not of sizes 2, 1"),
        ({**good, 0b1101: (-1, -1, 3)}, "not a join of size 3"),
        ({**good, 0b1111: (-1, -1, 2)}, "not a join of size 2"),
        ({**good, 0b1100: (1, 2, 1)}, "vertex 2 does not dominate 1"),
        ({**good, 0b1100: (3, 3, 1)}, "vertex 3 does not dominate 3"),
        ({k: e for k, e in good.items() if k != 0b1101}, "has no state 0xd"),
    ):
        with pytest.raises(InternalMismatchError, match=message):
            _replay_vd(path, corrupt)


def test_a_forged_certificate_exits_3(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(homology, "_vd_certificate", lambda nbr, budget: dict(FORGED_C5))
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(graph_to_dict(cycle_graph(5))))
    rc = main(["graph", "cm", str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "E_INTERNAL: in state 0x1f, vertex 1 does not dominate 0" in captured.err


def test_a_certified_size_the_facets_lack_raises(monkeypatch):
    monkeypatch.setattr(homology, "_replay_vd", lambda nbr, steps: 3)
    cx = independence_complex(build_complete_multipartite(2, 3))
    assert _flag_graph(cx) is not None
    with pytest.raises(InternalMismatchError, match="certifies facets of size 3"):
        is_cohen_macaulay(cx)
