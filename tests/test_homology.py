"""Reduced homology over three field types and the local-vanishing CM oracle.

The projective-plane triangulation below is the classic 6-vertex one; its
torsion makes the CM verdict genuinely field-dependent, which exercises the
cross-field plumbing end to end.
"""

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from cmgraphs import (
    GF2,
    RATIONAL,
    NotFaceError,
    ParseError,
    SimplicialComplex,
    SizeBudgetError,
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
from cmgraphs.graphs import cycle_graph
from cmgraphs.homology import _rank_sparse
from cmgraphs.verification import random_squarefree_ideal


def cx(n_vertices, *faces):
    verts = tuple(range(1, n_vertices + 1))
    masks = [sum(1 << (v - 1) for v in f) for f in faces]
    return SimplicialComplex.make(verts, masks)


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
    void = SimplicialComplex.make((1, 2), [])
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
        assert profile.as_dict() == {2: 1} or profile.nonzero() == ((2, 1),)


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


def test_rational_rank_of_integer_rows():
    # reduced boundary rows almost never leave +-1, so drive the gcd scaling
    # with general integer rows
    assert _rank_sparse([[(0, 2), (1, 3)], [(0, 4), (1, 6)]], 0) == 1
    assert _rank_sparse([[(0, 2), (1, 3)], [(0, 3), (1, 5)]], 0) == 2
    assert _rank_sparse([[(0, 6), (2, 4)], [(1, 9), (2, 6)], [(0, 9), (1, -6), (2, 2)]], 0) == 2
    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        dense = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:  # force a dependent row
            dense.append([2 * x - 3 * y for x, y in zip(dense[0], dense[-1])])
        sparse = [[(c, v) for c, v in enumerate(row) if v] for row in dense]
        assert _rank_sparse(sparse, 0) == np.linalg.matrix_rank(np.array(dense)), dense


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


def test_modular_rank_of_integer_rows():
    rows = [[(0, 1), (1, 2)], [(0, 2), (1, 1)]]  # determinant -3
    assert _rank_sparse(rows, 3) == 1
    assert _rank_sparse(rows, 5) == 2
    assert _rank_sparse(rows, 0) == 2
    rng = random.Random(7)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        sparse = [[(c, v) for c, v in enumerate(row) if v] for row in dense]
        for p in (2, 3, 5, 7):
            assert _rank_sparse(sparse, p) == _minor_rank(dense, p), (p, dense)


def test_face_budget_is_enforced():
    with pytest.raises(SizeBudgetError):
        reduced_homology(TETRA_BOUNDARY, GF2, face_budget=4)
    wide = SimplicialComplex.make(tuple(range(25)), [(1 << 25) - 1])
    with pytest.raises(SizeBudgetError):
        reduced_homology(wide)


def test_link_of_vertex_in_sphere_is_a_circle():
    lk = link(TETRA_BOUNDARY, (4,))
    assert set(lk.facet_sets()) == {(1, 2), (1, 3), (2, 3)}
    assert reduced_homology(lk).rank(1) == 1


def test_link_of_empty_face_is_the_complex():
    assert link(HOLLOW_TRIANGLE, ()) == HOLLOW_TRIANGLE


def test_link_rejects_non_faces():
    with pytest.raises(NotFaceError):
        link(HOLLOW_TRIANGLE, (1, 2, 3))


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


def test_cm_depends_on_the_field_for_torsion():
    over2 = is_cohen_macaulay(PROJECTIVE_PLANE, GF2)
    assert not over2.verdict
    assert over2.witness == ((), 1, 1)
    assert is_cohen_macaulay(PROJECTIVE_PLANE, RATIONAL).verdict
    assert is_cohen_macaulay(PROJECTIVE_PLANE, gfp(3)).verdict


def test_cm_cycle_fixtures():
    ind5 = independence_complex(cycle_graph(5))
    assert is_cohen_macaulay(ind5, GF2).verdict
    assert is_cohen_macaulay(ind5, RATIONAL).verdict
    ind4 = independence_complex(cycle_graph(4))
    cert = is_cohen_macaulay(ind4, GF2)
    assert not cert.verdict
    assert cert.witness == ((), 0, 1)
