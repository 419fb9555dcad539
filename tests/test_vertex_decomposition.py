"""The graph walk's shed step: a vertex dominated by another, N[u] ⊆ N[v],
is shed, and W is CM of size s exactly when W - v is CM of size s and
W - N[v] of size s - 1.  Its verdicts, its budget, and the facet-size check
is_cohen_macaulay makes of the size it gives."""

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
    _cm_by_graph,
    _flag_graph,
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
C4 = _graph_masks(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _refuse_homology(monkeypatch):
    def refuse(*args):
        raise AssertionError("a boundary rank was taken")

    monkeypatch.setattr(homology, "_homology_of_faces", refuse)


def test_path_certificate_sheds_dominated_vertices_and_splits_joins(monkeypatch):
    # the path 0-1-2-3: N[0] ⊆ N[1], so 1 sheds; its deletion is the point 0
    # joined with the edge 2-3, of size 2, and its link, N[1]'s complement,
    # is the point 3, of size 1
    _refuse_homology(monkeypatch)
    assert _cm_by_graph(_path(4), GF2, DEFAULT_FACE_BUDGET) == 2


def test_paths_are_certified_exactly_where_their_complex_is_pure():
    # Ind(P_n) is CM exactly for n = 1, 2 and 4, where it is pure
    for n in range(1, 13):
        for field in (GF2, RATIONAL):
            alpha = _cm_by_graph(_path(n), field, DEFAULT_FACE_BUDGET)
            assert alpha == ((n + 1) // 2 if n in (1, 2, 4) else None), (n, field)


def test_a_3000_vertex_path_is_not_certified_and_needs_no_recursion():
    # the first sizes that differ lie at the far end of the path, some 3000
    # states down the stack
    assert _cm_by_graph(_path(3000), GF2, DEFAULT_FACE_BUDGET) is None


def test_a_3000_vertex_perfect_matching_certifies_size_1500():
    # a join of 1500 edges, each a pair of points
    assert _cm_by_graph(_matching(1500), GF2, DEFAULT_FACE_BUDGET) == 1500


def test_the_state_budget_bounds_the_search():
    with pytest.raises(SizeBudgetError, match="3 link states exceed the budget of 2"):
        _cm_by_graph(_matching(3), GF2, 2)
    assert _cm_by_graph(_matching(3), GF2, 4) == 3
    # is_cohen_macaulay passes its face budget on to the walk
    matching = MultipartiteGraph(2, 3, frozenset(((1, i), (2, i)) for i in range(1, 4)))
    with pytest.raises(SizeBudgetError, match="link states exceed the budget of 2"):
        is_cohen_macaulay(independence_complex(matching), face_budget=2)


def test_graphs_without_a_dominated_vertex_reach_the_homology_rule():
    # Ind(C5) is a circle, CM, but no vertex of C5 dominates another; Ind(C4)
    # is two disjoint edges, pure and not CM
    for field in (GF2, gfp(3), RATIONAL):
        assert _cm_by_graph(C5, field, DEFAULT_FACE_BUDGET) == 2
        assert _cm_by_graph(C4, field, 64) is None
    for cx in (independence_complex(cycle_graph(5)), independence_complex(cycle_graph(4))):
        nbr = _flag_graph(cx)
        for u in range(len(nbr)):
            closed_u = nbr[u] | 1 << u
            assert all(closed_u & ~(nbr[v] | 1 << v) for v in range(len(nbr)) if v != u)


def test_the_paper_constructions_are_certified_without_the_graph_walk(monkeypatch):
    # shedding and joins decide them; no boundary rank is taken
    graphs = [build_complete_multipartite(n, r) for n, r in ((1, 3), (2, 3), (3, 4), (4, 4))]
    graphs += [graph_of_family(RelationFamily.from_pairs(n, n, {})) for n in (2, 3, 4)]
    graphs.append(graph_of_family(RelationFamily.from_pairs(3, 3, {1: [(2, 3)], 2: [(1, 2)]})))
    complexes = [independence_complex(graph) for graph in graphs]
    fields = (GF2, gfp(3), RATIONAL)
    for cx in complexes:
        for field in fields:
            assert _cm_by_faces(cx, field).verdict
    _refuse_homology(monkeypatch)
    for cx in complexes:
        for field in fields:
            assert is_cohen_macaulay(cx, field).verdict


def test_a_walk_size_the_facets_lack_raises(capsys, monkeypatch, tmp_path):
    # a walk that gives the wrong pure size: Ind of the complete 3-partite
    # graph on 2 x 3 vertices has facets of 2 vertices, not 3
    monkeypatch.setattr(homology, "_cm_by_graph", lambda nbr, field, budget: 3)
    graph = build_complete_multipartite(2, 3)
    cx = independence_complex(graph)
    assert _flag_graph(cx) is not None
    with pytest.raises(InternalMismatchError, match="CM of size 3, but the complex has facet sizes \\[2\\]"):
        is_cohen_macaulay(cx)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_dict(graph)))
    rc = main(["graph", "cm", str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "E_INTERNAL: the graph walk finds Ind(G) CM of size 3" in captured.err
