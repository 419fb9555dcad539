"""Generated-family properties: the three dual routes agree, both chain
orders extend componentwise inclusion, and the facets of the family graph's
independence complex are the complements of the chain-monomial supports.
The mask-keyed generator sort, the byte-table order-ideal test, the
transposed down-sets and chain below-masks, and the cover-walk random
extension agree with their plain definitions.
Generated-ideal and generated-complex properties: the double dual is the
identity, the CM verdict does not depend on vertex order, the
Bron-Kerbosch facets of quadratic ideals and r-partite graphs are the
complements of Berge's minimal transversals, the graph walk and the face
walk give r-partite graphs one CM verdict and witness, so do the graph an
independence complex records and the one derived from its facets, and an
r-partite graph that a plain decomposition by dominated vertices
certifies pure is CM by both, of that facet size."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import make_complex  # noqa: E402
from cmgraphs import (  # noqa: E402
    GF2,
    RATIONAL,
    Monomial,
    MultipartiteGraph,
    RelationFamily,
    SimplicialComplex,
    alexander_dual_complex,
    build_hr,
    chain_compare,
    chain_monomial,
    complex_of_ideal,
    dual_hr_fast,
    dual_ideal_bruteforce,
    edge_ideal,
    enumerate_chains,
    gfp,
    graph_of_family,
    grid_vertices,
    independence_complex,
    is_cohen_macaulay,
    linear_extension,
    minimalize,
    random_linear_extension,
)
from cmgraphs.chains import _pack, _predecessors  # noqa: E402
from cmgraphs.duality import _minimal_transversals  # noqa: E402
from cmgraphs.monomials import sort_gens  # noqa: E402
from cmgraphs.posets import Relation, _union_of_rows, is_order_ideal  # noqa: E402
from cmgraphs.graphs import cycle_graph  # noqa: E402
from cmgraphs.homology import (  # noqa: E402
    DEFAULT_FACE_BUDGET,
    _cm_by_faces,
    _cm_by_graph,
    _flag_graph,
)


@st.composite
def families(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(2, 4))
    cover = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pairs = st.lists(st.sampled_from(cover), unique=True) if cover else st.just([])
    levels = {a: draw(pairs) for a in range(1, r)}
    return RelationFamily.from_pairs(n, r, levels)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(families(), st.integers(0, 2**32 - 1))
def test_duals_agree_and_orders_extend_inclusion(fam, seed):
    fast = set(dual_hr_fast(fam).masks())
    graph = set(edge_ideal(graph_of_family(fam)).masks())
    brute = set(dual_ideal_bruteforce(build_hr(fam), grid_vertices(fam.r, fam.n)).masks())
    assert fast == graph == brute
    chains = enumerate_chains(fam)
    for order in (linear_extension(chains), random_linear_extension(chains, random.Random(seed))):
        assert sorted(order.chains) == sorted(chains)
        pos = {c: k for k, c in enumerate(order.chains)}
        for cj in order.chains:
            for ci in order.chains:
                if chain_compare(cj, ci) == "less":
                    assert pos[cj] < pos[ci]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(families())
def test_independence_facets_are_chain_monomial_complements(fam):
    full = (1 << fam.r * fam.n) - 1
    chains = enumerate_chains(fam)
    want = {full ^ chain_monomial(fam, c).mask for c in chains}
    facets = independence_complex(graph_of_family(fam)).facets
    assert len(facets) == len(chains)
    assert set(facets) == want


@st.composite
def wide_ideals(draw):
    """Squarefree ideals on the 4 x 10 grid, so supports reach past position 24."""
    supports = draw(
        st.lists(st.sets(st.integers(0, 39), min_size=1, max_size=4), min_size=1, max_size=4)
    )
    return minimalize([sum(1 << p for p in s) for s in supports], 4, 10)


@st.composite
def wide_complexes(draw):
    """Complexes on 30 vertices whose facets each miss one to four."""
    missing = draw(st.lists(st.sets(st.integers(0, 29), min_size=1, max_size=4), max_size=6))
    full = (1 << 30) - 1
    return make_complex(range(30), [full ^ sum(1 << p for p in m) for m in missing])


@settings(derandomize=True, deadline=None, max_examples=80)
@given(wide_ideals(), wide_complexes())
def test_double_dual_is_the_identity(ideal, cx):
    verts = grid_vertices(4, 10)
    assert dual_ideal_bruteforce(dual_ideal_bruteforce(ideal, verts), verts) == ideal
    assert alexander_dual_complex(alexander_dual_complex(cx)) == cx


@st.composite
def relabelled_complexes(draw):
    nv = draw(st.integers(1, 7))
    facets = draw(st.lists(st.integers(0, (1 << nv) - 1), min_size=1, max_size=6))
    perm = draw(st.permutations(range(nv)))  # bit k moves to bit perm[k]
    moved = [sum(1 << perm[k] for k in range(nv) if f >> k & 1) for f in facets]
    labels = tuple(range(nv))
    moved_labels = [None] * nv
    for k in range(nv):
        moved_labels[perm[k]] = labels[k]
    return (
        make_complex(labels, facets),
        make_complex(tuple(moved_labels), moved),
    )


@settings(derandomize=True, deadline=None, max_examples=80)
@given(relabelled_complexes())
def test_cm_verdict_does_not_depend_on_vertex_order(pair):
    # the walk reads each link off the link of the face less its lowest
    # bit, so relabelling the bits changes every parent it picks
    cx, moved = pair
    assert sorted(map(sorted, cx.facet_sets())) == sorted(map(sorted, moved.facet_sets()))
    for field in (GF2, RATIONAL):
        assert is_cohen_macaulay(cx, field).verdict == is_cohen_macaulay(moved, field).verdict


def _berge_facets(masks, size: int) -> set[int]:
    full = (1 << size) - 1
    return {full ^ t for t in _minimal_transversals(masks)}


@st.composite
def quadratic_ideals(draw):
    """Ideals generated in degree <= 2 on grids of up to 80 vertices, so
    masks pass the 64-bit word: the zero ideal, degree-1 generators, and
    vertices in no generator."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 20))
    size = r * n
    supports = draw(
        st.lists(st.sets(st.integers(0, size - 1), min_size=1, max_size=2), max_size=14)
    )
    return minimalize([sum(1 << p for p in s) for s in supports], r, n)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(quadratic_ideals())
def test_quadratic_ideal_facets_match_minimal_transversals(ideal):
    size = ideal.r * ideal.n
    cx = complex_of_ideal(ideal, grid_vertices(ideal.r, ideal.n))
    assert set(cx.facets) == _berge_facets(ideal.masks(), size)


@st.composite
def multipartite_graphs(draw, max_r=5, max_n=4):
    """Arbitrary r-partite graphs on the r x n grid, not only family graphs."""
    r = draw(st.integers(2, max_r))
    n = draw(st.integers(1, max_n))
    pairs = [
        ((a, i), (b, j))
        for a in range(1, r + 1)
        for b in range(a + 1, r + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24))
    return MultipartiteGraph(r, n, frozenset(edges))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(multipartite_graphs())
def test_independence_complex_matches_minimal_transversals(graph):
    cx = independence_complex(graph)
    assert set(cx.facets) == _berge_facets(edge_ideal(graph).masks(), graph.r * graph.n)


# the face walk lists every face, so the grids stay at 12 vertices
@settings(derandomize=True, deadline=None, max_examples=150)
@given(multipartite_graphs(max_r=4, max_n=3))
@example(cycle_graph(4))
@example(cycle_graph(5))
@example(MultipartiteGraph(2, 3, frozenset(((1, i), (2, i)) for i in range(1, 4))))
# CM, and N(X[1,1]) ⊆ N(X[1,2]) for two nonadjacent vertices: shedding by
# open neighbourhoods would call it not CM
@example(MultipartiteGraph(2, 3, frozenset(((1, i), (2, j)) for j in (1, 2, 3) for i in (1, 2, 3) if j <= i)))
def test_graph_walk_matches_the_face_walk(graph):
    cx = independence_complex(graph)
    nbr = _flag_graph(cx)
    assert nbr is not None  # Ind(G) is flag and covers every vertex
    for field in (GF2, gfp(3), RATIONAL):
        by_faces = _cm_by_faces(cx, field)
        alpha = _cm_by_graph(nbr, field, DEFAULT_FACE_BUDGET)
        assert (alpha is not None) == by_faces.verdict
        if alpha is not None:  # a CM complex is pure of the walk's size
            assert all(f.bit_count() == alpha for f in cx.facets)
        cert = is_cohen_macaulay(cx, field)
        assert (cert.verdict, cert.witness) == (by_faces.verdict, by_faces.witness)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(multipartite_graphs(max_r=4, max_n=3))
@example(MultipartiteGraph(3, 2, frozenset()))
@example(MultipartiteGraph(3, 2, frozenset({((1, 1), (2, 1)), ((2, 1), (3, 2))})))
@example(cycle_graph(4))
@example(cycle_graph(5))
def test_the_recorded_graph_gives_the_derived_graphs_verdict(graph):
    # the graph an independence complex records is the one _flag_graph
    # derives from its facets, so both give one verdict and witness
    cx = independence_complex(graph)
    bare = SimplicialComplex(cx.vertices, cx.facets)
    assert tuple(_flag_graph(bare)) == cx._graph_nbr
    for field in (GF2, gfp(3), RATIONAL):
        recorded = is_cohen_macaulay(cx, field)
        derived = is_cohen_macaulay(bare, field)
        assert (recorded.verdict, recorded.witness) == (derived.verdict, derived.witness)


def _dominated_decomposition_size(nbr, w):
    """The facet size of Ind(G[w]) if shedding dominated vertices takes it
    to {∅} with pure sizes throughout, else None: the plain recursion, no
    memo.  A disconnected w is the join of its components; a connected w
    sheds the lowest v that some other u dominates, N_w[u] ⊆ N_w[v], and is
    pure of size s when w - v is of size s and w - N[v] of size s - 1."""
    if not w & w - 1:
        return w.bit_count()
    part = frontier = w & -w
    while frontier:
        grown = 0
        for x in range(len(nbr)):
            if frontier >> x & 1:
                grown |= nbr[x]
        frontier = grown & w & ~part
        part |= frontier
    if part != w:
        a = _dominated_decomposition_size(nbr, part)
        b = _dominated_decomposition_size(nbr, w ^ part)
        return None if a is None or b is None else a + b
    closed = [(m | 1 << v) & w for v, m in enumerate(nbr)]
    for v in range(len(nbr)):
        if w >> v & 1 and any(
            u != v and w >> u & 1 and not closed[u] & ~closed[v] for u in range(len(nbr))
        ):
            s = _dominated_decomposition_size(nbr, w ^ 1 << v)
            t = _dominated_decomposition_size(nbr, w & ~closed[v])
            return s if s is not None and t == s - 1 else None
    return None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(multipartite_graphs(max_r=4, max_n=3))
@example(cycle_graph(4))
@example(MultipartiteGraph(2, 3, frozenset(((1, i), (2, i)) for i in range(1, 4))))
def test_certified_graphs_are_cm_by_both_walks(graph):
    cx = independence_complex(graph)
    nbr = _flag_graph(cx)
    size = _dominated_decomposition_size(nbr, (1 << len(nbr)) - 1)
    if size is None:
        return
    assert all(f.bit_count() == size for f in cx.facets)
    for field in (GF2, gfp(3), RATIONAL):
        assert _cm_by_graph(nbr, field, DEFAULT_FACE_BUDGET) == size
        assert _cm_by_faces(cx, field).verdict


@st.composite
def generator_lists(draw):
    """Monomials of one ring, up to 4 x 6 = 24 slots, repeats allowed."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << r * n) - 1)
    return [Monomial(r, n, m) for m in draw(st.lists(masks, max_size=12))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(generator_lists())
@example([])
@example([Monomial(3, 5, 0b100000000000001), Monomial(3, 5, 0b000000000000011)])
def test_sort_gens_is_the_degree_then_variables_order(gens):
    want = sorted(gens, key=lambda g: (g.degree(), g.variables()))
    assert sort_gens(g.mask for g in gens) == tuple(g.mask for g in want)


@st.composite
def relations_with_masks(draw):
    """Arbitrary reflexive relations on up to 20 elements, so masks span
    three bytes, with a subset, its down-closure and that closure less one
    element."""
    n = draw(st.integers(1, 20))
    index = st.integers(1, n)
    rel = Relation.from_raw_pairs(n, draw(st.lists(st.tuples(index, index), max_size=3 * n)))
    mask = draw(st.integers(0, (1 << n) - 1))
    closed = mask | _union_of_rows(rel.down_masks, mask)
    drop = draw(st.integers(0, n - 1))
    return rel, (mask, closed, closed & ~(1 << drop))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(relations_with_masks())
def test_is_order_ideal_matches_the_row_definition(case):
    rel, masks = case
    assert rel.down_masks == tuple(
        sum(1 << i for i in range(rel.n) if rel.rows[i] >> j & 1) for j in range(rel.n)
    )
    for m in masks:
        assert is_order_ideal(rel, m) == (_union_of_rows(rel.down_masks, m) & ~m == 0)


def kahn_on_successors(chains, rng):
    """The random Kahn walk over every strict successor, not only covers."""
    m = len(chains)
    below = [
        [
            j
            for j in range(m)
            if chains[j] != chains[k] and all(a & ~b == 0 for a, b in zip(chains[j], chains[k]))
        ]
        for k in range(m)
    ]
    succs = [[k for k in range(m) if j in below[k]] for j in range(m)]
    counts = [len(b) for b in below]
    ready = [k for k in range(m) if not counts[k]]
    order = []
    while ready:
        pos = rng.randrange(len(ready))
        ready[pos], ready[-1] = ready[-1], ready[pos]
        pick = ready.pop()
        order.append(pick)
        for k in succs[pick]:
            counts[k] -= 1
            if not counts[k]:
                ready.append(k)
    return tuple(chains[k] for k in order)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(families(), st.integers(0, 2**32 - 1), st.booleans())
def test_random_extension_walks_covers_to_the_successor_walk_order(fam, seed, repeat):
    chains = enumerate_chains(fam)
    if repeat:  # a chain given twice is incomparable with its copy
        chains.append(chains[seed % len(chains)])
    random.Random(seed).shuffle(chains)
    packed = [_pack(c, fam.n) for c in chains]
    below = _predecessors(tuple(chains))[0]
    assert below == tuple(
        sum(1 << j for j, pj in enumerate(packed) if pj & ~pk == 0 and pj != pk) for pk in packed
    )
    got = random_linear_extension(chains, random.Random(seed)).chains
    assert got == kahn_on_successors(chains, random.Random(seed))
