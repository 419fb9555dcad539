"""Reduced homology over three field types and the local-vanishing CM oracle.

The projective-plane triangulation below is the classic 6-vertex one; its
torsion makes the CM verdict genuinely field-dependent, which exercises the
cross-field plumbing end to end.
"""

import json
import random
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import graph_of_edges, make_complex
from cmgraphs import (
    GF2,
    RATIONAL,
    InternalMismatchError,
    MonomialIdeal,
    NotFaceError,
    ParseError,
    RangeError,
    SimplicialComplex,
    SizeBudgetError,
    alexander_dual_complex,
    complex_of_ideal,
    gfp,
    grid_vertices,
    independence_complex,
    is_cohen_macaulay,
    is_pure,
    link,
    parse_field,
    reduced_homology,
)
from cmgraphs import RelationFamily, duality, homology
from cmgraphs.cli import main
from cmgraphs.duality import _maximal_independent_subsets
from cmgraphs.graphs import (
    MultipartiteGraph,
    build_complete_multipartite,
    cycle_graph,
    graph_of_family,
    graph_to_dict,
)
from cmgraphs.homology import (
    DEFAULT_FACE_BUDGET,
    _boundary_pivots,
    _cm_by_faces,
    _cm_by_graph,
    _components,
    _faces_by_dim,
    _flag_graph,
    _fold,
    _homology_of_faces,
    _is_prime,
    _join_ranks,
    _lane_width,
    _memo_walk,
    _rank_gf2,
    _rank_gfp,
    _rank_rational,
)
from cmgraphs.verification import random_squarefree_ideal


def cx(n_vertices, *faces):
    verts = tuple(range(1, n_vertices + 1))
    masks = [sum(1 << (v - 1) for v in f) for f in faces]
    return make_complex(verts, masks)


HOLLOW_TRIANGLE = cx(3, (1, 2), (1, 3), (2, 3))
TETRA_BOUNDARY = cx(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
PROJECTIVE_PLANE = cx(
    6,
    (1, 2, 3),
    (1, 3, 4),
    (1, 2, 6),
    (1, 4, 5),
    (1, 5, 6),
    (2, 3, 5),
    (2, 4, 5),
    (2, 4, 6),
    (3, 4, 6),
    (3, 5, 6),
)


def test_field_parsing():
    assert parse_field("gf2") == GF2
    assert parse_field("rational") == RATIONAL
    assert parse_field("GF2") == GF2
    assert str(parse_field("gfp:7")) == "gfp:7"
    with pytest.raises(ParseError):
        parse_field("gf3")
    with pytest.raises(ParseError):
        parse_field("gfp:4")  # 4 is not prime
    with pytest.raises(ParseError, match="gf2"):
        parse_field("gfp:2")  # GF(2) is the gf2 field, reduced by XOR
    with pytest.raises(RangeError, match="gf2"):
        gfp(2)


def _trial_division(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_primality_is_miller_rabin_exact_below_two_to_the_64():
    assert [p for p in range(20000) if _is_prime(p)] == [
        p for p in range(20000) if _trial_division(p)
    ]
    assert _is_prime(2**61 - 1) and _is_prime(10**18 + 3)
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)
    assert str(gfp(10**18 + 3)) == "gfp:1000000000000000003"
    with pytest.raises(RangeError, match="below 2\\*\\*64"):
        _is_prime(2**64 + 13)
    with pytest.raises(ParseError, match="below 2\\*\\*64"):
        parse_field(f"gfp:{2**64 + 13}")


def test_homology_of_points():
    two = cx(2, (1,), (2,))
    assert reduced_homology(two).rank(0) == 1
    three = cx(3, (1,), (2,), (3,))
    assert reduced_homology(three).rank(0) == 2
    one = cx(1, (1,))
    profile = reduced_homology(one)
    assert profile.nonzero() == ()


def test_homology_of_irrelevant_complex():
    empty_only = cx(2, ())
    profile = reduced_homology(empty_only)
    assert profile.rank(-1) == 1
    assert profile.rank(0) == 0


def test_homology_of_void_complex_is_undefined():
    void = make_complex((1, 2), [])
    with pytest.raises(ValueError):
        reduced_homology(void)


def test_circle_has_one_loop():
    for field in (GF2, RATIONAL, gfp(5)):
        profile = reduced_homology(HOLLOW_TRIANGLE, field)
        assert profile.rank(0) == 0
        assert profile.rank(1) == 1
    c5 = independence_complex(cycle_graph(5))
    assert reduced_homology(c5).rank(1) == 1


def test_sphere_has_one_top_class():
    for field in (GF2, RATIONAL, gfp(3)):
        profile = reduced_homology(TETRA_BOUNDARY, field)
        assert dict(profile.ranks) == {2: 1} or profile.nonzero() == ((2, 1),)


def test_full_simplex_is_acyclic():
    full = cx(4, (1, 2, 3, 4))
    for field in (GF2, RATIONAL):
        assert reduced_homology(full, field).nonzero() == ()


def test_projective_plane_homology_depends_on_the_field():
    over2 = reduced_homology(PROJECTIVE_PLANE, GF2)
    assert over2.rank(1) == 1
    assert over2.rank(2) == 1
    for field in (RATIONAL, gfp(3), gfp(5)):
        profile = reduced_homology(PROJECTIVE_PLANE, field)
        assert profile.nonzero() == ()


def test_rational_betti_numbers_bound_the_modular_ones():
    # universal coefficients: torsion in integral homology can only add
    # classes over GF(p), and the reduced Euler characteristic is the same
    # over every field
    def euler(profile):
        return sum((-1) ** d * h for d, h in profile.ranks)

    rng = random.Random(20180321)
    for _ in range(40):
        ideal = random_squarefree_ideal(rng, max_vars=10)
        complex_ = complex_of_ideal(ideal, grid_vertices(1, ideal.n))
        over_q = reduced_homology(complex_, RATIONAL)
        for field in (GF2, gfp(3)):
            profile = reduced_homology(complex_, field)
            assert all(h <= profile.rank(d) for d, h in over_q.ranks), (field, ideal)
            assert euler(profile) == euler(over_q), (field, ideal)


def _leading_columns(dense, rank) -> set[int]:
    """The columns that lead some vector of the row space, leading meaning highest nonzero.

    Column c leads one exactly when the columns from c up have a larger rank
    than those above c.  Clearing relies on the kernels' pivots being these.
    """
    def upper_rank(c):
        cols = range(c, len(dense[0]))
        return rank([[row[k] for k in cols] for row in dense]) if cols else 0

    return {c for c in range(len(dense[0])) if upper_rank(c) > upper_rank(c + 1)}


def test_rational_rank_of_integer_rows():
    # reduced boundary rows almost never leave +-1, so drive the gcd scaling
    # with general integer rows
    assert _rank_rational([[(0, 2), (1, 3)], [(0, 4), (1, 6)]]) == {1}
    assert _rank_rational([[(0, 2), (1, 3)], [(0, 3), (1, 5)]]) == {0, 1}
    assert _rank_rational([[(0, 6), (2, 4)], [(1, 9), (2, 6)], [(0, 9), (1, -6), (2, 2)]]) == {1, 2}
    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        dense = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:  # force a dependent row
            dense.append([2 * x - 3 * y for x, y in zip(dense[0], dense[-1])])
        sparse = [[(c, v) for c, v in enumerate(row) if v] for row in dense]
        assert len(_rank_rational(sparse)) == np.linalg.matrix_rank(np.array(dense)), dense
        assert _rank_rational(sparse) == _leading_columns(
            dense, lambda m: np.linalg.matrix_rank(np.array(m))
        ), dense


def _leibniz_det(square) -> int:
    total = 0
    for perm in permutations(range(len(square))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= square[i][j]
        total += term
    return total


def _minor_rank(dense, p: int) -> int:
    """Largest k with a k x k minor whose determinant is nonzero mod p."""
    for k in range(min(len(dense), len(dense[0])), 0, -1):
        for rows in combinations(dense, k):
            for cols in combinations(range(len(dense[0])), k):
                if _leibniz_det([[row[c] for c in cols] for row in rows]) % p:
                    return k
    return 0


def _modular_pivots(dense, p: int) -> set[int]:
    """Pivot columns mod p by the finite-field kernels, rows packed as _boundary_pivots packs them."""
    if p == 2:
        return _rank_gf2([sum((v & 1) << c for c, v in enumerate(row)) for row in dense])
    w = _lane_width(p)
    return _rank_gfp([sum(v % p << c * w for c, v in enumerate(row)) for row in dense], p)


def _modular_rank(dense, p: int) -> int:
    return len(_modular_pivots(dense, p))


def test_modular_rank_of_integer_rows():
    rows = [[1, 2], [2, 1]]  # determinant -3
    assert _modular_rank(rows, 3) == 1
    assert _modular_rank(rows, 5) == 2
    assert _rank_rational([[(0, 1), (1, 2)], [(0, 2), (1, 1)]]) == {0, 1}
    rng = random.Random(7)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        for p in (2, 3, 5, 7):
            assert _modular_rank(dense, p) == _minor_rank(dense, p), (p, dense)
            assert _modular_pivots(dense, p) == _leading_columns(
                dense, lambda m: _minor_rank(m, p)
            ), (p, dense)


def test_gfp_kernel_raises_on_a_leading_lane_outside_the_residues():
    # a second row whose leading lane holds p asks the pivot for multiplier
    # 0 and one holding more than p for a negative one; either would loop
    for p in (3, 5, 7):
        w = _lane_width(p)
        pivot = 1 << w | 2  # lanes (2, 1), highest last
        for lead in range(p, 1 << w):
            with pytest.raises(InternalMismatchError, match="residue"):
                _rank_gfp([pivot, lead << w | 1], p)


def test_gfp_kernel_raises_on_a_new_pivot_outside_the_residues():
    # a lane holding p or more has no inverse mod p; it must not reach pow
    assert _rank_gfp([2], 3) == {0}
    with pytest.raises(InternalMismatchError, match="new pivot entry 3"):
        _rank_gfp([3], 3)
    for p in (3, 5, 7):
        w = _lane_width(p)
        for lead in range(p, 1 << w):
            with pytest.raises(InternalMismatchError, match="residue"):
                _rank_gfp([lead << w | 1], p)


def test_lane_sums_up_to_two_p_minus_two_stay_in_their_lanes():
    # adding the pivot [p-1, p-1, p-1, 1] (highest lane last) to a row of
    # p-1 takes three adjacent lanes to 2p - 2 and the leading lane to p
    for p in (3, 5, 7, 11, 65537):
        top = [p - 1] * 4
        pivot = [p - 1] * 3 + [1]
        assert _modular_rank([pivot, top], p) == 2
        assert _modular_rank([pivot, top, [p - 2] * 3 + [0]], p) == 2
        assert _modular_rank([top] * 3, p) == 1
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        dense = [[rng.choice((0, 1, p - 1, p - 1)) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:  # force a dependent row
            dense.append([x + (p - 1) * y for x, y in zip(dense[0], dense[-1])])
        assert _modular_rank(dense, p) == _minor_rank(dense, p), (p, dense)


def test_wide_lane_prime_rank():
    p = 65537  # 18-bit lanes, and almost every multiplier is new
    rng = random.Random(13)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        dense = [[rng.randrange(-p, p) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:  # force a dependent row
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            dense.append([a * x + b * y for x, y in zip(dense[0], dense[-1])])
        assert _modular_rank(dense, p) == _minor_rank(dense, p), dense


def test_face_budget_is_enforced():
    with pytest.raises(SizeBudgetError):
        reduced_homology(TETRA_BOUNDARY, GF2, face_budget=4)
    wide = make_complex(tuple(range(25)), [(1 << 25) - 1])
    with pytest.raises(SizeBudgetError):
        reduced_homology(wide)
    # one facet on 22 vertices has 2^22 faces, more than the default face budget
    simplex22 = make_complex(tuple(range(22)), [(1 << 22) - 1])
    with pytest.raises(SizeBudgetError, match="faces exceed the budget"):
        reduced_homology(simplex22)


def test_face_budget_must_be_a_positive_int():
    # a bad budget is a bad argument, not a size overflow
    ind_c5 = independence_complex(cycle_graph(5))
    for budget in (-5, 0, True, 2.5):
        with pytest.raises(RangeError, match="face budget must be an integer of at least 1"):
            is_cohen_macaulay(ind_c5, face_budget=budget)
        with pytest.raises(RangeError, match="face budget must be an integer of at least 1"):
            reduced_homology(ind_c5, face_budget=budget)
    assert is_cohen_macaulay(ind_c5, face_budget=11).verdict
    assert reduced_homology(ind_c5, face_budget=11) == reduced_homology(ind_c5)


def test_overcounted_boundary_rank_raises(monkeypatch):
    # the negative-rank check is the guard: one column too many in every
    # boundary map's pivots (a column no face has, so clearing is unchanged)
    # drives a homology rank below zero
    monkeypatch.setattr(
        "cmgraphs.homology._boundary_pivots", lambda *args: _boundary_pivots(*args) | {-1}
    )
    for field in (GF2, gfp(3), RATIONAL):
        with pytest.raises(InternalMismatchError, match="negative homology rank"):
            reduced_homology(HOLLOW_TRIANGLE, field)


def _uncleared_homology(by_dim, field) -> tuple:
    """Reduced Betti numbers with every boundary map ranked on all its rows."""
    bd = [0] * (len(by_dim) + 1)  # bd[d + 1] = rank of the boundary out of dimension d
    for d in range(len(by_dim) - 1):
        lower_index = {f: k for k, f in enumerate(by_dim[d])}
        bd[d + 1] = len(_boundary_pivots(by_dim[d + 1], lower_index, field))
    return tuple(
        (d, len(by_dim[d + 1]) - bd[d + 1] - bd[d + 2]) for d in range(-1, len(by_dim) - 1)
    )


def test_clearing_matches_ranking_every_row(monkeypatch):
    rng = random.Random(20261019)
    complexes = _random_complexes(120, 20261019)
    for _ in range(60):
        ideal = random_squarefree_ideal(rng, max_vars=9)
        complexes.append(complex_of_ideal(ideal, grid_vertices(1, ideal.n)))
    ranked = []  # rows ranked by the clearing walk

    def recording(d_faces, lower_index, field):
        ranked.append(len(d_faces))
        return _boundary_pivots(d_faces, lower_index, field)

    rows, total = 0, 0
    for complex_ in complexes:
        by_dim = _faces_by_dim(complex_.facets, face_budget=1 << 16)
        for field in (GF2, gfp(3), gfp(5), RATIONAL):
            want = _uncleared_homology(by_dim, field)
            ranked.clear()
            with monkeypatch.context() as patch:
                patch.setattr("cmgraphs.homology._boundary_pivots", recording)
                got = _homology_of_faces(by_dim, field).ranks
            assert got == want, (complex_, field)
            rows += sum(ranked)
            total += sum(len(faces) for faces in by_dim[1:])
    assert rows < total  # clearing dropped rows, so the comparison is not vacuous


def _count_homology_calls(monkeypatch):
    calls = []

    def recording(by_dim, field):
        calls.append(by_dim)
        return _homology_of_faces(by_dim, field)

    monkeypatch.setattr("cmgraphs.homology._homology_of_faces", recording)
    return calls


C5_EDGES = frozenset({((a, 1), (a + 1, 1)) for a in range(1, 5)} | {((1, 1), (5, 1))})


def test_cm_walk_computes_no_homology_of_cones_or_low_dimensional_links(monkeypatch):
    calls = _count_homology_calls(monkeypatch)
    # C5 on levels 1-5 and an isolated vertex at level 6: Ind(G) is a cone
    # over Ind(C5), and so is every link of a face without the isolated vertex
    with_isolated = independence_complex(MultipartiteGraph(6, 1, C5_EDGES))
    ind_c5 = independence_complex(cycle_graph(5))
    for field in (GF2, gfp(3), RATIONAL):
        calls.clear()
        assert _cm_by_faces(with_isolated, field).verdict
        # only the link of the isolated vertex, the circle Ind(C5), is ranked;
        # the links of its edges are pairs of points, of dimension 0
        assert calls == [_faces_by_dim(ind_c5.facets, face_budget=64)], field
    # every link of a complex of dimension 0 or -1 has dimension at most 0
    calls.clear()
    for low in (cx(3, (1,), (2,), (3,)), cx(2, ()), cx(1, (1,))):
        for field in (GF2, gfp(3), RATIONAL):
            assert _cm_by_faces(low, field).verdict
    assert calls == []


def _two_cycles_graph(first: int):
    """C_first and C5 side by side on the 9 or 10 vertices of one grid, none isolated."""
    if first == 5:  # C5 on index 1 and on index 2 of levels 1-5
        edges = C5_EDGES | {((a, 2), (b, 2)) for (a, _), (b, _) in C5_EDGES}
        return MultipartiteGraph(5, 2, frozenset(edges))
    c5 = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]  # consecutive levels differ
    c4 = [(1, 3), (3, 2), (2, 3), (3, 3)]
    edges = [(c[k], c[(k + 1) % len(c)]) for c in (c5, c4) for k in range(len(c))]
    return graph_of_edges(3, 3, edges)


def test_graph_walk_ranks_only_fold_free_components(monkeypatch):
    calls = _count_homology_calls(monkeypatch)
    ind_c5 = independence_complex(cycle_graph(5))
    for field in (GF2, gfp(3), RATIONAL):
        # the isolated vertex is a component of its own; C5 has no fold, so
        # Ind(C5) is ranked once, from its faces
        calls.clear()
        assert is_cohen_macaulay(independence_complex(MultipartiteGraph(6, 1, C5_EDGES)), field)
        assert calls == [_faces_by_dim(ind_c5.facets, face_budget=64)], field
        # a join of two circles: each factor is ranked once, the join never
        calls.clear()
        assert is_cohen_macaulay(independence_complex(_two_cycles_graph(5)), field)
        assert len(calls) == 2, field
        # the staircase constructions and identity grids fold down to cones
        # in every link, so no homology is ranked at all
        calls.clear()
        for n, r in ((2, 3), (3, 4), (4, 4), (3, 5)):
            assert is_cohen_macaulay(independence_complex(build_complete_multipartite(n, r)), field)
        for n in (3, 4):
            identity = graph_of_family(RelationFamily.from_pairs(n, n, {}))
            assert is_cohen_macaulay(independence_complex(identity), field)
        assert calls == [], field
    # a complete graph, whose links are all {∅}, has dimension 0
    calls.clear()
    assert is_cohen_macaulay(cx(3, (1,), (2,), (3,)))
    assert calls == []


def test_joins_of_circles():
    # Ind(C5 ⊔ C5) is S1 * S1, a 3-sphere: CM.  Ind(C4 ⊔ C5) is S0 * S1, a
    # 2-sphere inside a complex of dimension 3: not CM, at the empty face
    both5 = independence_complex(_two_cycles_graph(5))
    c4_c5 = independence_complex(_two_cycles_graph(4))
    assert len(both5.facets) == 25 and len(c4_c5.facets) == 10
    for field in (GF2, gfp(3), RATIONAL):
        assert reduced_homology(both5, field).nonzero() == ((3, 1),)
        assert is_cohen_macaulay(both5, field).verdict
        assert reduced_homology(c4_c5, field).nonzero() == ((2, 1),)
        cert = is_cohen_macaulay(c4_c5, field)
        assert (cert.verdict, cert.witness) == (False, ((), 2, 1))
        assert _cm_by_faces(both5, field).verdict


def test_join_ranks_follow_kunneth():
    circle = {1: 1}
    assert _join_ranks(circle, circle) == {3: 1}  # S1 * S1 = S3
    assert _join_ranks({0: 1}, circle) == {2: 1}  # S0 * S1 = S2
    assert _join_ranks({-1: 1}, {0: 2, 1: 1}) == {0: 2, 1: 1}  # {∅} is the unit
    assert _join_ranks({}, circle) == {}  # a cone is acyclic
    assert _join_ranks({0: 2}, {0: 3, 1: 1}) == {1: 6, 2: 2}


def _graph_masks(nv, edges):
    nbr = [0] * nv
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _ind_homology(nbr, w, field):
    """Nonzero reduced ranks of Ind(G[w]), from its faces."""
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    facets = _maximal_independent_subsets(closed, w)
    return {d: h for d, h in _homology_of_faces(_faces_by_dim(facets, 1 << 16), field).ranks if h}


def test_fold_removes_the_vertex_with_the_larger_neighbourhood():
    # the path 0-1-2-3: N(0) = {1} lies in N(2) = {1, 3}, so 2 goes and 3 is
    # left isolated; removing 0 instead would leave the path 1-2-3, whose
    # complex is two points rather than contractible
    path = _graph_masks(4, [(0, 1), (1, 2), (2, 3)])
    assert _fold(path, 0b1111) == 0b1011
    rng = random.Random(11)
    for _ in range(150):
        nv = rng.randint(1, 9)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < 0.35]
        nbr = _graph_masks(nv, edges)
        full = (1 << nv) - 1
        folded = _fold(nbr, full)
        for u in _bits_of(folded):
            for v in _bits_of(folded):
                near = nbr[u] & folded
                assert u == v or not near or near & ~nbr[v], (edges, u, v)
        for field in (GF2, gfp(3), RATIONAL):
            assert _ind_homology(nbr, folded, field) == _ind_homology(nbr, full, field), edges


def _bits_of(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def test_graph_walk_on_a_600_vertex_path_needs_no_recursion():
    # a path is CM only on 1, 2 or 4 vertices; the walk reaches links about
    # 300 deep, which would pass the interpreter's recursion limit as calls
    n = 600
    path = _graph_masks(n, [(v, v + 1) for v in range(n - 1)])
    assert _cm_by_graph(path, GF2, DEFAULT_FACE_BUDGET) is None
    assert _cm_by_graph(_graph_masks(4, [(0, 1), (1, 2), (2, 3)]), GF2, 64) == 2
    with pytest.raises(SizeBudgetError, match="link states exceed the budget of 100"):
        _cm_by_graph(path, GF2, 100)


def test_memo_walk_memoizes_states_and_stops_at_the_first_failure():
    # a walk that counts vertices by removing the lowest one at a time; the
    # root also asks for the count without its highest vertex
    visits = []

    def count(w):
        visits.append(w)
        low = w & -w
        value = (yield w ^ low) + 1
        if w == 0b1111:
            assert (yield w ^ 1 << 3) == 3
        return value

    memo = _memo_walk(0b1111, count, 10)
    assert memo == {0b1111: 4, 0b1110: 3, 0b1100: 2, 0b0111: 3, 0b0110: 2}
    assert len(visits) == len(memo)  # each state once; masks of one vertex are leaves
    assert _memo_walk(0b1000, count, 1) == {}

    def fail_at_two(w):
        value = (yield w ^ w & -w) + 1
        return None if value == 2 else value

    assert _memo_walk(0b1111, fail_at_two, 10) is None
    # root, 0b1110 and 0b1100 are three states: a budget of two stops the third
    with pytest.raises(SizeBudgetError, match="3 link states exceed the budget of 2"):
        _memo_walk(0b1111, fail_at_two, 2)
    assert _memo_walk(0b1111, fail_at_two, 3) is None


def test_non_flag_complexes_go_to_the_face_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the graph walk ran on a complex that is not flag")

    monkeypatch.setattr("cmgraphs.homology._cm_by_graph", refuse)
    for complex_ in (PROJECTIVE_PLANE, TETRA_BOUNDARY, HOLLOW_TRIANGLE, cx(3, ()), cx(3, (1, 2))):
        assert _flag_graph(complex_) is None
        for field in (GF2, gfp(3), RATIONAL):
            cert = is_cohen_macaulay(complex_, field)
            assert (cert.verdict, cert.witness) == _reference_cm(complex_, field)


def test_graph_walk_and_face_walk_disagreeing_raises(monkeypatch):
    monkeypatch.setattr("cmgraphs.homology._cm_by_graph", lambda *args: None)
    with pytest.raises(InternalMismatchError, match="face walk finds CM"):
        is_cohen_macaulay(independence_complex(cycle_graph(5)))


def test_an_independence_complex_records_its_graph_and_nothing_else_does():
    graph = cycle_graph(5)
    ind = independence_complex(graph)
    assert ind._graph_nbr == graph.nbr
    # the recorded graph takes no part in ==, hash or repr
    bare = SimplicialComplex(ind.vertices, ind.facets)
    assert bare._graph_nbr is None
    assert ind == bare and hash(ind) == hash(bare) and repr(ind) == repr(bare)
    assert "_graph_nbr" not in repr(ind)
    # a complex made any other way carries no graph
    r, n = 2, 3
    grid = grid_vertices(r, n)
    x = {v: 1 << k for k, v in enumerate(grid)}
    others = [
        bare,
        HOLLOW_TRIANGLE,
        link(ind, [(1, 1)]),
        alexander_dual_complex(ind),
        complex_of_ideal(MonomialIdeal(r, n, [x[1, 1], x[1, 2] | x[2, 1]]), grid),
        complex_of_ideal(MonomialIdeal(r, n, [x[1, 1] | x[2, 1] | x[2, 2]]), grid),
        # the edge ideal itself, outside independence_complex
        complex_of_ideal(MonomialIdeal(r, n, [x[1, 1] | x[2, 1]]), grid),
    ]
    for other in others:
        assert other._graph_nbr is None


def test_graph_cm_on_the_6x6_identity_family_lists_its_facets_once(monkeypatch):
    # the graph the complex records goes to the walk as it is: no _flag_graph,
    # and the one Bron-Kerbosch listing is the facet list's
    calls = {"bron_kerbosch": 0, "flag_graph": 0}
    real_listing = duality._maximal_independent_subsets
    real_flag = homology._flag_graph

    def listing(*args):
        calls["bron_kerbosch"] += 1
        return real_listing(*args)

    def flag(*args):
        calls["flag_graph"] += 1
        return real_flag(*args)

    monkeypatch.setattr(duality, "_maximal_independent_subsets", listing)
    monkeypatch.setattr(homology, "_maximal_independent_subsets", listing)
    monkeypatch.setattr(homology, "_flag_graph", flag)
    ind = independence_complex(graph_of_family(RelationFamily.from_pairs(6, 6, {})))
    assert len(ind.facets) == 6**6
    assert is_cohen_macaulay(ind).verdict
    assert calls == {"bron_kerbosch": 1, "flag_graph": 0}
    # a complex without a recorded graph still derives and relists it
    assert is_cohen_macaulay(SimplicialComplex(ind.vertices, ind.facets)).verdict
    assert calls == {"bron_kerbosch": 2, "flag_graph": 1}


def _plain_components(nbr, w):
    """The components of G[w] by a breadth-first search from the lowest vertex left."""
    parts = []
    while w:
        part = frontier = w & -w
        while frontier:
            grown = 0
            for v in _bits_of(frontier):
                grown |= nbr[v]
            frontier = grown & w & ~part
            part |= frontier
        parts.append(part)
        w ^= part
    return parts


def _random_graph(rng, size, density):
    return _graph_masks(
        size, [(u, v) for u in range(size) for v in range(u + 1, size) if rng.random() < density]
    )


def test_components_from_any_seeds_that_meet_every_part():
    rng = random.Random(25)
    for _ in range(300):
        size = rng.randint(1, 14)
        nbr = _random_graph(rng, size, 0.2)
        w = rng.getrandbits(size) or 1
        plain = _plain_components(nbr, w)
        # one vertex of every part, and then some more
        seeds = sum(1 << rng.choice(_bits_of(part)) for part in plain) | rng.getrandbits(size)
        assert _components(nbr, w, seeds) == plain, (nbr, w, seeds)
        assert _components(nbr, w, w) == plain
    assert _components([0, 0], 0, 0) == []


def test_the_walk_splits_every_disconnected_state(monkeypatch):
    # a state split too little still gets its verdict, since shedding and
    # vertex links hold on any graph, so the seeds the walk passes could
    # go wrong unseen: every split is checked against a plain search.
    # Trees have a cut vertex at every inner vertex.
    rng = random.Random(26)
    trees = [
        _graph_masks(size, [(v, rng.randrange(v)) for v in range(1, size)])
        for size in range(2, 40, 3)
    ]
    graphs = trees + [_random_graph(rng, rng.randint(2, 12), 0.3) for _ in range(60)]
    seen = []
    real = homology._components

    def recording(nbr, w, seeds):
        parts = real(nbr, w, seeds)
        seen.append((nbr, w, parts))
        return parts

    monkeypatch.setattr(homology, "_components", recording)
    for nbr in graphs:
        _cm_by_graph(nbr, GF2, DEFAULT_FACE_BUDGET)
    assert len(seen) > 300
    for nbr, w, parts in seen:
        assert parts == _plain_components(nbr, w), (nbr, w)


def test_faces_by_dim_matches_all_subsets_reference():
    assert _faces_by_dim([], face_budget=1) == [[]]
    rng = random.Random(2024)
    for bits in range(9):
        for _ in range(12):
            chosen = {rng.randrange(1 << bits) for _ in range(rng.randint(0, 6))}
            # the facets spread over scattered positions, some past bit 64
            positions = sorted(rng.sample(range(80), bits))
            spread = [sum(1 << positions[k] for k in range(bits) if m >> k & 1) for m in chosen]
            down = [x for x in range(1 << bits) if any(x & ~m == 0 for m in chosen)]
            want = sorted(sum(1 << positions[k] for k in range(bits) if x >> k & 1) for x in down)
            by_dim = [[]] if not want else [
                [f for f in want if f.bit_count() == d]
                for d in range(max(f.bit_count() for f in want) + 1)
            ]
            assert _faces_by_dim(spread, face_budget=len(want)) == by_dim
            if want:
                with pytest.raises(SizeBudgetError, match="faces exceed the budget"):
                    _faces_by_dim(spread, face_budget=len(want) - 1)


def test_thirty_vertex_cycles_need_no_vertex_limit():
    def cycles(*lengths):
        edges, start = [], 0
        for length in lengths:
            edges += [
                1 << (start + k) | 1 << (start + (k + 1) % length) for k in range(length)
            ]
            start += length
        return make_complex(tuple(range(start)), edges)

    circle = cycles(30)
    assert reduced_homology(circle).nonzero() == ((1, 1),)
    for field in (GF2, gfp(3), RATIONAL):
        assert is_cohen_macaulay(circle, field).verdict
    split = is_cohen_macaulay(cycles(15, 15))
    assert not split.verdict
    assert split.witness == ((), 0, 1)


def test_link_of_vertex_in_sphere_is_a_circle():
    lk = link(TETRA_BOUNDARY, (4,))
    assert set(lk.facet_sets()) == {(1, 2), (1, 3), (2, 3)}
    assert reduced_homology(lk).rank(1) == 1


def test_link_of_empty_face_is_the_complex():
    assert link(HOLLOW_TRIANGLE, ()) == HOLLOW_TRIANGLE


def test_link_rejects_non_faces():
    with pytest.raises(NotFaceError):
        link(HOLLOW_TRIANGLE, (1, 2, 3))


def test_link_rejects_bools_and_masks_outside_the_vertex_set():
    c5 = independence_complex(cycle_graph(5))
    for face in (True, 1 << 40, -1):
        with pytest.raises(RangeError, match="is not a set of the complex's 5 vertices"):
            link(c5, face)
    # masks in range and label tuples behave as before
    assert link(c5, 1) == link(c5, (c5.vertices[0],))
    assert link(c5, 0) == c5
    with pytest.raises(NotFaceError):
        link(c5, 0b11)


def test_purity():
    assert is_pure(HOLLOW_TRIANGLE) == (True, {2})
    mixed = cx(3, (1, 2), (3,))
    assert is_pure(mixed) == (False, {1, 2})


def test_cm_basic_verdicts():
    assert is_cohen_macaulay(cx(3, (1, 2, 3))).verdict
    assert is_cohen_macaulay(HOLLOW_TRIANGLE).verdict
    assert is_cohen_macaulay(TETRA_BOUNDARY).verdict
    mixed = cx(3, (1, 2), (3,))
    assert not is_cohen_macaulay(mixed).verdict


def test_cm_failure_witness_is_minimal():
    disjoint = cx(4, (1, 3), (2, 4))
    cert = is_cohen_macaulay(disjoint)
    assert not cert.verdict
    face, dim, rank = cert.witness
    assert face == ()
    assert dim == 0
    assert rank == 1


def test_cm_witness_at_a_nonempty_face():
    # a cone over vertex 1, so acyclic, but the link of 1 is two disjoint edges
    cone = cx(5, (1, 2, 3), (1, 4, 5))
    assert reduced_homology(cone).nonzero() == ()
    for field in (GF2, gfp(3), RATIONAL):
        cert = is_cohen_macaulay(cone, field)
        assert not cert.verdict
        assert cert.witness == ((1,), 0, 1)


def test_cm_witness_is_least_by_labels_not_first_by_mask():
    # the links of {3, 8} and {6, 7} are both two disjoint edges; {6, 7} has
    # the smaller mask, so a walk that stopped at its first witness would
    # report it
    three_tetrahedra = cx(8, (2, 5, 6, 7), (1, 3, 4, 8), (3, 6, 7, 8))
    for field in (GF2, gfp(3), RATIONAL):
        assert is_cohen_macaulay(three_tetrahedra, field).witness == ((3, 8), 0, 1)
        assert _reference_cm(three_tetrahedra, field) == (False, ((3, 8), 0, 1))


C4_LOW_CORNER = [((1, 1), (2, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 2), (2, 2))]


@pytest.mark.parametrize("n", [3, 4])
def test_cone_points_leave_the_face_walk_and_its_witness(n):
    # C4 on X[1..2,1..2] and every other vertex of the r = 4 grid isolated:
    # Ind(G) is a cone over Ind(C4) with 4n - 4 apexes, and its least
    # witness is the face of all of them, as the whole walk found it
    isolated = tuple(
        (a, i) for a in range(1, 5) for i in range(1, n + 1) if a > 2 or i > 2
    )
    cone = independence_complex(graph_of_edges(4, n, C4_LOW_CORNER))
    assert len(isolated) == 4 * n - 4
    if n == 3:
        assert isolated == ((1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3))
    for field in (GF2, gfp(3), RATIONAL):
        # the walk lists the 7 faces of Ind(C4), not the 2^(4n - 3) of the cone
        cert = _cm_by_faces(cone, field, face_budget=7)
        assert (cert.verdict, cert.witness) == (False, (isolated, 0, 1))
        assert is_cohen_macaulay(cone, field).witness == (isolated, 0, 1)


def test_a_cone_takes_its_witness_by_the_labels_of_the_whole_complex():
    # three_tetrahedra has the witnesses {3, 8} and {6, 7}; a cone over it
    # whose apex is labelled 0 and sits between the vertices 3 and 4 makes
    # them (3, 0, 8) and (0, 6, 7), so the least witness changes
    cone = make_complex(
        (1, 2, 3, 0, 4, 5, 6, 7, 8),
        [
            sum(1 << k for k in range(9) if (1, 2, 3, 0, 4, 5, 6, 7, 8)[k] in face)
            for face in ((2, 5, 6, 7, 0), (1, 3, 4, 8, 0), (3, 6, 7, 8, 0))
        ],
    )
    for field in (GF2, gfp(3), RATIONAL):
        assert _cm_by_faces(cone, field).witness == ((0, 6, 7), 0, 1)
        assert _reference_cm(cone, field) == (False, ((0, 6, 7), 0, 1))


def _reference_cm(complex_, field):
    """Verdict and minimal witness from the public link() of every face."""
    nv = len(complex_.vertices)
    failing = []
    for face in range(1 << nv):
        if not complex_.contains_face(face):
            continue
        lk = link(complex_, face)
        failing += [
            (face, d, h) for d, h in reduced_homology(lk, field).ranks if d < lk.dim() and h
        ]
    if not failing:
        return True, None

    def labels(mask):
        return tuple(v for k, v in enumerate(complex_.vertices) if mask >> k & 1)

    face, d, h = min(failing, key=lambda w: (w[0].bit_count(), labels(w[0]), w[1]))
    return False, (labels(face), d, h)


def _random_complexes(count, seed):
    """Small complexes with shuffled labels, impure ones and uncovered vertices among them."""
    rng = random.Random(seed)
    out = [cx(3, ()), cx(1, ())]  # {∅}, with and without uncovered vertices
    while len(out) < count:
        nv = rng.randint(1, 7)
        labels = tuple(rng.sample(range(10, 30), nv))
        facets = [rng.getrandbits(nv) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:  # a pure complex, so CM verdicts come up too
            size = rng.randint(1, nv)
            facets = [f for f in facets if f.bit_count() == size] or facets
        out.append(make_complex(labels, facets))
    return out


def test_cm_walk_matches_link_by_link_reference():
    complexes = _random_complexes(200, 20261018)
    outcomes = set()
    for complex_ in complexes:
        for field in (GF2, gfp(3), RATIONAL):
            cert = is_cohen_macaulay(complex_, field)
            verdict, witness = _reference_cm(complex_, field)
            assert (cert.verdict, cert.witness) == (verdict, witness), (complex_, field)
            outcomes.add("CM" if verdict else "at a face" if witness[0] else "at the empty face")
    assert outcomes == {"CM", "at a face", "at the empty face"}


def test_cm_depends_on_the_field_for_torsion():
    over2 = is_cohen_macaulay(PROJECTIVE_PLANE, GF2)
    assert not over2.verdict
    assert over2.witness == ((), 1, 1)
    assert is_cohen_macaulay(PROJECTIVE_PLANE, RATIONAL).verdict
    assert is_cohen_macaulay(PROJECTIVE_PLANE, gfp(3)).verdict


def test_projective_plane_is_cm_over_a_wide_lane_prime():
    started = time.perf_counter()
    assert is_cohen_macaulay(PROJECTIVE_PLANE, gfp(65537)).verdict
    assert reduced_homology(PROJECTIVE_PLANE, gfp(65537)).nonzero() == ()
    assert time.perf_counter() - started < 1.0


def test_cm_cycle_fixtures():
    ind5 = independence_complex(cycle_graph(5))
    assert is_cohen_macaulay(ind5, GF2).verdict
    assert is_cohen_macaulay(ind5, RATIONAL).verdict
    ind4 = independence_complex(cycle_graph(4))
    cert = is_cohen_macaulay(ind4, GF2)
    assert not cert.verdict
    assert cert.witness == ((), 0, 1)

# The graph walk's shed step: a vertex dominated by another, N[u] ⊆ N[v], is
# shed, and W is CM of size s exactly when W - v is CM of size s and W - N[v]
# of size s - 1.  Its verdicts, its budget, and the facet-size check
# is_cohen_macaulay makes of the size it gives.


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
