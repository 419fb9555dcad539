"""Multipartite graphs, structure-theorem checkers, edge counts, file I/O."""

import json
import math
import random

import networkx
import pytest

from conftest import adjacent, graph_of_edges
from cmgraphs import (
    MultipartiteGraph,
    OverflowInputError,
    ParseError,
    PartsError,
    RangeError,
    RelationFamily,
    build_hr,
    check_family_conditions,
    check_herzog_hibi,
    check_linear_quotients,
    check_theorem1,
    check_theorem2,
    complement_is_chordal,
    dual_ideal_bruteforce,
    edge_count_expected,
    edge_ideal,
    find_linear_quotients_order,
    graph_of_family,
    graph_to_dot,
    grid_vertices,
    herzog_hibi_conditions,
    independence_complex,
)
from cmgraphs.graphs import (
    build_complete_multipartite,
    cycle_graph,
    graph_from_dict,
    graph_to_dict,
)
from cmgraphs.monomials import slot
from cmgraphs.posets import Relation, read_json
from cmgraphs.verification import random_family

# Edges of the worked example's graph: one per dual quadratic X[s,i]*X[t,j].
SAMPLE_EDGES = frozenset(
    {
        ((1, 1), (2, 1)),
        ((1, 2), (2, 2)),
        ((1, 3), (2, 3)),
        ((1, 2), (2, 3)),
        ((2, 1), (3, 1)),
        ((2, 2), (3, 2)),
        ((2, 3), (3, 3)),
        ((2, 1), (3, 2)),
        ((1, 1), (3, 1)),
        ((1, 2), (3, 2)),
        ((1, 3), (3, 3)),
        ((1, 1), (3, 2)),
        ((1, 2), (3, 3)),
    }
)


def test_edges_are_canonicalized():
    g = graph_from_dict({"r": 2, "n": 2, "edges": [[[2, 1], [1, 2]], [[1, 2], [2, 1]]]})
    assert g.edges == frozenset({((1, 2), (2, 1))})
    assert adjacent(g, (2, 1), (1, 2))
    assert not adjacent(g, (1, 1), (2, 1))


def test_graph_rejects_bad_edges():
    with pytest.raises(PartsError):
        graph_of_edges(2, 2, [((1, 1), (1, 2))])
    with pytest.raises(RangeError):
        graph_of_edges(2, 2, [((1, 1), (3, 1))])
    with pytest.raises(RangeError):
        graph_of_edges(2, 2, [((1, 0), (2, 1))])


@pytest.mark.parametrize(
    "r, n, edges",
    [
        (2.0, 2, ()),
        (2, 2.0, ()),
        (2, True, ()),
        (2, 2, (((1, 1.0), (2, 1)),)),
        (2, 2, (((1, True), (2, 1)),)),
        (2, 2, (((1, 1), ("2", 1)),)),
    ],
    ids=["r-float", "n-float", "n-bool", "coord-float", "coord-bool", "coord-str"],
)
def test_graph_rejects_sizes_and_coordinates_that_are_not_ints(r, n, edges):
    with pytest.raises(RangeError):
        MultipartiteGraph(r, n, frozenset(edges))


def test_nbr_is_the_adjacency_in_slot_layout(sample):
    for g in (graph_of_family(sample), cycle_graph(5), build_complete_multipartite(2, 4)):
        verts = grid_vertices(g.r, g.n)
        assert len(g.nbr) == len(verts) == g.r * g.n
        for u, (a, i) in enumerate(verts):
            assert u == slot(a, i, g.n)
            for v, (b, j) in enumerate(verts):
                edge = ((a, i), (b, j)) in g.edges or ((b, j), (a, i)) in g.edges
                assert bool(g.nbr[u] >> v & 1) == edge
    g = graph_of_family(sample)
    assert adjacent(g, (2, 1), (3, 1))
    assert g.part_pair_edges(1, 3) == {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)}
    with pytest.raises(PartsError):
        g.part_pair_edges(0, 3)


def test_sample_graph_matches_frozen_edges(sample):
    g = graph_of_family(sample)
    assert g.r == 3 and g.n == 3
    assert g.edges == SAMPLE_EDGES


def test_edge_ideal_equals_fast_dual(sample):
    # graph_of_family and dual_hr_fast share one composite sweep, so the edge
    # ideal is compared with the independent brute-force dual
    rng = random.Random(808)
    for fam in [sample] + [random_family(rng, max_n=3, max_r=4) for _ in range(10)]:
        brute = dual_ideal_bruteforce(build_hr(fam), grid_vertices(fam.r, fam.n))
        assert set(edge_ideal(graph_of_family(fam)).masks()) == set(brute.masks())


def test_edge_count_formula_hand_cases():
    # one element per poset gives the complete graph on r vertices
    for r in range(2, 7):
        assert edge_count_expected(1, r) == math.comb(r, 2)
    assert edge_count_expected(2, 2) == 3
    # the count collapses to a single binomial in (r-1)n + 1
    assert edge_count_expected(3, 3) == math.comb(7, 2)
    assert edge_count_expected(2, 4) == math.comb(7, 2)
    with pytest.raises(RangeError):
        edge_count_expected(0, 3)
    with pytest.raises(RangeError):
        edge_count_expected(2, 1)
    with pytest.raises(OverflowInputError):
        edge_count_expected(10**6, 10)


def test_complete_construction_hits_expected_count():
    for n in range(1, 4):
        for r in range(2, 5):
            g = build_complete_multipartite(n, r)
            assert len(g.edges) == edge_count_expected(n, r)
            assert check_theorem2(g).passed


def test_complete_construction_with_custom_slices():
    # one slice of index pairs per lower level, wiring it to the last level
    slices = [{(1, 1), (2, 2), (1, 2)}, {(1, 1), (2, 2)}]
    g = build_complete_multipartite(2, 3, slices=slices)
    assert check_theorem2(g).passed
    assert adjacent(g, (1, 1), (3, 2))
    assert not adjacent(g, (2, 1), (3, 2))


def test_complete_construction_bounds():
    with pytest.raises(RangeError):
        build_complete_multipartite(2, 1)
    with pytest.raises(RangeError):
        build_complete_multipartite(2, 3, slices=[{(1, 1)}])  # needs r-1 slices
    with pytest.raises(RangeError):
        build_complete_multipartite(2, 3, slices=[{(1, 3)}, set()])
    # a decreasing slice pair builds fine but fails the pattern check
    g = build_complete_multipartite(2, 3, slices=[{(1, 1), (2, 2), (2, 1)}, {(1, 1), (2, 2)}])
    assert not check_theorem2(g).passed


def test_cycle_graph_shapes():
    c5 = cycle_graph(5)
    assert c5.r == 5 and c5.n == 1
    assert len(c5.edges) == 5
    with pytest.raises(RangeError):
        cycle_graph(2)


def test_family_conditions_pass_on_poset_families(sample):
    report = check_family_conditions(sample)
    assert report.passed
    assert [c.passed for c in report.conditions] == [True] * len(report.conditions)
    rng = random.Random(606)
    for _ in range(10):
        assert check_family_conditions(random_family(rng, max_n=4, max_r=4)).passed


def test_family_conditions_catch_raw_violations():
    raw = Relation.from_raw_pairs(3, [(1, 2), (2, 3)])  # not transitive
    fam = RelationFamily(3, 3, (raw, raw))
    report = check_family_conditions(fam)
    assert not report.passed
    assert report.failing()
    assert any(c.witnesses for c in report.failing())


def test_theorem1_passes_on_built_graphs(sample):
    assert check_theorem1(graph_of_family(sample)).passed
    rng = random.Random(707)
    for _ in range(10):
        fam = random_family(rng, max_n=4, max_r=4)
        assert check_theorem1(graph_of_family(fam)).passed


def test_theorem1_detects_a_dropped_edge(sample):
    g = graph_of_family(sample)
    smaller = MultipartiteGraph(g.r, g.n, g.edges - {((1, 2), (2, 3))})
    report = check_theorem1(smaller)
    assert not report.passed
    names = {c.name for c in report.failing()}
    assert "edges match consecutive-level paths exactly" in names


def test_theorem1_fails_on_cycles():
    report = check_theorem1(cycle_graph(5))
    assert not report.passed
    first_fail = report.failing()[0]
    assert first_fail.witnesses[0] == (1, 3, 1)  # X[1,1] and X[3,1] not adjacent
    report4 = check_theorem1(cycle_graph(4))
    assert not report4.passed


def test_herzog_hibi_complete_staircase():
    pairs = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    report = herzog_hibi_conditions(3, 3, pairs)
    assert report.passed
    assert report.is_complete
    thin = herzog_hibi_conditions(3, 3, [(1, 1), (2, 2), (3, 3)])
    assert thin.passed
    assert not thin.is_complete


def test_herzog_hibi_individual_failures():
    size = herzog_hibi_conditions(2, 3, [(1, 1), (2, 2)])
    assert not size.passed
    assert size.conditions[0].witnesses == ((2, 3),)

    diag = herzog_hibi_conditions(2, 2, [(1, 1), (1, 2)])
    assert diag.conditions[1].witnesses == ((2, 2),)

    order = herzog_hibi_conditions(2, 2, [(1, 1), (2, 2), (2, 1)])
    assert order.conditions[2].witnesses == ((2, 1),)

    trans = herzog_hibi_conditions(3, 3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    assert trans.conditions[3].witnesses == ((1, 2, 3),)


def test_check_herzog_hibi_level_validation(sample):
    g = graph_of_family(sample)
    assert check_herzog_hibi(g, 1, 2).passed is not None  # runs without raising
    with pytest.raises(PartsError):
        check_herzog_hibi(g, 1, 1)
    with pytest.raises(PartsError):
        check_herzog_hibi(g, 0, 2)
    with pytest.raises(PartsError):
        check_herzog_hibi(g, 1, 4)


def test_theorem2_failure_witnesses():
    g = build_complete_multipartite(2, 4)
    hole = MultipartiteGraph(g.r, g.n, g.edges - {((1, 1), (2, 2))})
    report = check_theorem2(hole)
    assert not report.passed
    assert ((1, 1), (2, 2)) in report.conditions[1].witnesses

    nodiag = MultipartiteGraph(g.r, g.n, g.edges - {((2, 1), (4, 1))})
    report = check_theorem2(nodiag)
    assert not report.passed
    slices = report.conditions[2].witnesses
    assert any(w[0] == ("slice", 2, 4) for w in slices)


def test_complement_chordality_certificate():
    assert complement_is_chordal(build_complete_multipartite(2, 3))
    # the complement of a 4-cycle is two disjoint edges, hence chordal;
    # the complement of a 5-cycle is again a 5-cycle
    assert complement_is_chordal(cycle_graph(4)) is True
    assert complement_is_chordal(cycle_graph(5)) is False


def random_multipartite(rng):
    """A random r-partite graph with r <= 4 and n <= 3, of random edge density."""
    r, n = rng.randint(2, 4), rng.randint(1, 3)
    density = rng.random()
    edges = [
        ((a, i), (b, j))
        for a in range(1, r + 1)
        for b in range(a + 1, r + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < density
    ]
    return graph_of_edges(r, n, edges)


def oracle_graphs():
    rng = random.Random(1990)
    return [cycle_graph(k) for k in range(4, 8)] + [random_multipartite(rng) for _ in range(300)]


def nx_complement_is_chordal(graph):
    """networkx's chordality test on the complement over the full grid."""
    verts = grid_vertices(graph.r, graph.n)
    full = networkx.complete_graph(verts)
    full.remove_edges_from(graph.edges)
    return networkx.is_chordal(full)


def test_complement_chordality_matches_networkx():
    graphs = oracle_graphs()
    verdicts = [complement_is_chordal(g) for g in graphs]
    assert verdicts == [nx_complement_is_chordal(g) for g in graphs]
    assert 30 < sum(verdicts) < 270


def test_an_order_with_linear_quotients_exists_exactly_for_co_chordal_graphs():
    for g in oracle_graphs():
        ideal = edge_ideal(g)
        order = find_linear_quotients_order(ideal)
        assert (order is not None) == complement_is_chordal(g)
        if order is not None:
            assert check_linear_quotients(order).passed
            assert sorted(order) == sorted(ideal.gens)


def test_independence_complex_facets():
    c5 = independence_complex(cycle_graph(5))
    assert len(c5.facets) == 5
    assert {len(f) for f in c5.facet_sets()} == {2}


def test_graph_file_roundtrip(sample, graph_file):
    g = graph_of_family(sample)
    path = graph_file(g)
    assert graph_from_dict(read_json(path)) == g


def test_load_graph_rejects_garbage(tmp_path, write_json):
    broken = tmp_path / "bad.json"
    broken.write_text("[")
    with pytest.raises(ParseError):
        graph_from_dict(read_json(str(broken)))
    with pytest.raises(ParseError):
        graph_from_dict(read_json(write_json({"r": 2, "n": 1})))


def test_dot_export_shape(sample):
    g = graph_of_family(sample)
    dot = graph_to_dot(g)
    assert dot.startswith("graph ")
    assert dot.count("rank=same") == 3
    assert "X_1_1" in dot
    assert dot.count(" -- ") == 13


def test_graph_dict_roundtrip_preserves_edge_count(sample):
    g = graph_of_family(sample)
    payload = json.loads(json.dumps(graph_to_dict(g)))
    assert len(payload["edges"]) == 13
