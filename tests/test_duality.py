"""Simplicial complexes, Stanley-Reisner translation, Alexander duality."""

import random
import time

import pytest

from conftest import is_irrelevant, make_complex
from cmgraphs import (
    Monomial,
    MonomialIdeal,
    RangeError,
    SimplicialComplex,
    SizeBudgetError,
    UnitIdealError,
    alexander_dual_complex,
    build_hr,
    complex_of_ideal,
    dual_hr_fast,
    dual_ideal_bruteforce,
    grid_vertices,
    minimalize,
)
from cmgraphs import RelationFamily
from cmgraphs import duality
from cmgraphs.duality import _maximal_independent_sets, _minimal_transversals
from cmgraphs.graphs import MultipartiteGraph, independence_complex
from cmgraphs.verification import random_family, random_squarefree_ideal

# Quadratic generators of the dual of the worked example: one X[s,i]*X[t,j]
# for every pair of levels s < t with p_i below p_j across levels s..t-1.
# Frozen by composing the two relations by hand.
SAMPLE_DUAL_GENERATORS = frozenset(
    {
        "X[1,1]*X[2,1]",
        "X[1,2]*X[2,2]",
        "X[1,3]*X[2,3]",
        "X[1,2]*X[2,3]",
        "X[2,1]*X[3,1]",
        "X[2,2]*X[3,2]",
        "X[2,3]*X[3,3]",
        "X[2,1]*X[3,2]",
        "X[1,1]*X[3,1]",
        "X[1,2]*X[3,2]",
        "X[1,3]*X[3,3]",
        "X[1,1]*X[3,2]",
        "X[1,2]*X[3,3]",
    }
)


def test_minimal_transversals_match_all_subsets_reference():
    # b = 0..8 vertex bits spread over positions up to 79, so masks pass the
    # 64-bit word size; the input sets may be empty, repeated or nested
    rng = random.Random(2024)
    for bits in range(9):
        for _ in range(12):
            positions = rng.sample(range(80), bits)
            subsets = [
                sum(1 << positions[k] for k in range(bits) if x >> k & 1)
                for x in range(1 << bits)
            ]
            sets = [rng.choice(subsets) for _ in range(rng.randint(0, 6))]
            hitting = [x for x in subsets if all(x & e for e in sets)]
            want = sorted(x for x in hitting if not any(y != x and y & ~x == 0 for y in hitting))
            assert sorted(_minimal_transversals(sets)) == want, sets
    assert _minimal_transversals([]) == [0]
    assert _minimal_transversals([0b110, 0]) == []
    assert sorted(_minimal_transversals([0b011, 0b111, 0b110, 0b011])) == [0b010, 0b101]


def test_complex_make_prunes_to_facets():
    cx = make_complex(("a", "b", "c"), [0b011, 0b001, 0b100])
    assert set(cx.facets) == {0b011, 0b100}
    assert cx.dim() == 1
    assert cx.contains_face(0b001)
    assert not cx.contains_face(0b101)


def test_complex_rejects_facets_that_are_not_an_antichain():
    SimplicialComplex(("a", "b", "c"), (0b100, 0b011))  # sizes differ, neither nested
    for facets in (
        (0b011, 0b011),  # the same facet twice
        (0b001, 0b011),  # nested, smaller first
        (0b111, 0b010),  # nested, larger first
        (0, 0b100),  # the empty face lies in every facet
    ):
        with pytest.raises(RangeError):
            SimplicialComplex(("a", "b", "c"), facets)
    with pytest.raises(RangeError, match="out of vertex range"):
        SimplicialComplex(("a", "b"), (0b100,))


def test_antichain_check_matches_pairwise_reference():
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(400):
        size = rng.choice((3, 9, 70))  # facets past one byte and past 64 bits
        facets = list({rng.getrandbits(size) & rng.getrandbits(size) for _ in range(12)})
        rng.shuffle(facets)
        nested = any(f != g and f & ~g == 0 for f in facets for g in facets)
        outcomes.add(nested)
        if nested:
            with pytest.raises(RangeError, match="facets must form an inclusion antichain"):
                SimplicialComplex(tuple(range(size)), tuple(facets))
        else:
            SimplicialComplex(tuple(range(size)), tuple(facets))
    assert outcomes == {True, False}


def test_many_facets_of_many_sizes_pass_the_antichain_check_quickly():
    # Ind of 13 disjoint paths X[1,i]-X[2,i]-X[3,i]: 2^13 facets of sizes 13..26,
    # which a facet-by-facet comparison took seconds to check
    paths = [((1, i), (2, i)) for i in range(1, 14)] + [((2, i), (3, i)) for i in range(1, 14)]
    started = time.perf_counter()
    cx = independence_complex(MultipartiteGraph(3, 13, frozenset(paths)))
    assert time.perf_counter() - started < 0.5
    assert len(cx.facets) == 1 << 13
    assert {f.bit_count() for f in cx.facets} == set(range(13, 27))


def test_void_and_irrelevant_complexes():
    void = make_complex(("a",), [])
    assert void.is_void()
    irrelevant = make_complex(("a",), [0])
    assert is_irrelevant(irrelevant)
    assert irrelevant.dim() == -1
    with pytest.raises(ValueError):
        void.dim()


def test_complex_of_ideal_hollow_triangle():
    # one cubic relation knocks out only the full face
    ideal = MonomialIdeal(1, 3, (0b111,))
    cx = complex_of_ideal(ideal, grid_vertices(1, 3))
    assert set(cx.facet_sets()) == {((1, 1), (1, 2)), ((1, 1), (1, 3)), ((1, 2), (1, 3))}


def test_complex_of_ideal_rejects_unit():
    unit = MonomialIdeal(1, 2, (0,))
    with pytest.raises(UnitIdealError):
        complex_of_ideal(unit, grid_vertices(1, 2))


@pytest.mark.parametrize("build", [complex_of_ideal, dual_ideal_bruteforce])
@pytest.mark.parametrize(
    "vertices",
    [
        grid_vertices(2, 2)[::-1],
        grid_vertices(2, 2)[:3],
        grid_vertices(2, 2) + ((3, 1),),
    ],
    ids=["permuted", "shorter", "longer"],
)
def test_vertices_must_be_the_ideal_grid(build, vertices):
    # generator masks are read over the ring's own grid; any other vertex
    # tuple would relabel or pad the complex
    ideal = minimalize([Monomial.from_variables(2, 2, [(1, 1), (2, 2)]).mask], 2, 2)
    with pytest.raises(RangeError, match="variable grid"):
        build(ideal, vertices)


def test_complex_of_ideal_budget(monkeypatch):
    # a matching of k edges makes 2 + 4 + ... + 2^k transversals and tests
    # no pairs: no transversal meets the next edge
    matching = [0b11 << 2 * k for k in range(10)]
    monkeypatch.setattr(duality, "TRANSVERSAL_BUDGET", 2**11 - 2)
    assert len(_minimal_transversals(matching)) == 2**10
    monkeypatch.setattr(duality, "TRANSVERSAL_BUDGET", 2**11 - 3)
    with pytest.raises(SizeBudgetError, match="minimal transversals exceed the budget"):
        _minimal_transversals(matching)
    # a triangle makes 2 + 1 + 2 transversals and tests 1 + 1 pairs; eight
    # disjoint ones make 16400 transversals but test over 10^7 pairs
    triangle = [0b110, 0b101, 0b011]
    monkeypatch.setattr(duality, "TRANSVERSAL_BUDGET", 7)
    assert sorted(_minimal_transversals(triangle)) == [0b011, 0b101, 0b110]
    monkeypatch.setattr(duality, "TRANSVERSAL_BUDGET", 6)
    with pytest.raises(SizeBudgetError):
        _minimal_transversals(triangle)
    triangles = [m << 3 * k for k in range(8) for m in triangle]
    monkeypatch.setattr(duality, "TRANSVERSAL_BUDGET", 100_000)
    with pytest.raises(SizeBudgetError):
        _minimal_transversals(triangles)


def test_independent_set_budget(monkeypatch):
    # on a matching of k edges every pivot branches on both ends of one
    # edge, so the search makes 2^(k+1) - 1 calls and emits 2^k facets
    verts = grid_vertices(2, 10)
    matching = minimalize([1 << 10 + i | 1 << i for i in range(10)], 2, 10)
    monkeypatch.setattr(duality, "INDEPENDENT_SET_BUDGET", 3 * 2**10 - 1)
    assert len(complex_of_ideal(matching, verts).facets) == 2**10
    monkeypatch.setattr(duality, "INDEPENDENT_SET_BUDGET", 3 * 2**10 - 2)
    with pytest.raises(SizeBudgetError, match="maximal independent sets exceed the budget"):
        complex_of_ideal(matching, verts)
    # the transversal budget no longer bounds a quadratic ideal
    monkeypatch.setattr(duality, "INDEPENDENT_SET_BUDGET", 3 * 2**10 - 1)
    monkeypatch.setattr(duality, "TRANSVERSAL_BUDGET", 0)
    assert len(complex_of_ideal(matching, verts).facets) == 2**10


def test_maximal_independent_sets_hand_cases():
    # no vertices, every vertex removed by a degree-1 generator, a path
    assert _maximal_independent_sets([], 0) == [0]
    assert _maximal_independent_sets([0b01, 0b10], 2) == [0]
    assert sorted(_maximal_independent_sets([0b011, 0b110], 3)) == [0b010, 0b101]
    assert sorted(_maximal_independent_sets([0b011, 0b100], 4)) == [0b1001, 0b1010]


def test_complex_of_ideal_sends_degree_three_to_berge(monkeypatch):
    def refuse(masks, size):
        raise AssertionError("a cubic generator reached the Bron-Kerbosch kernel")

    monkeypatch.setattr(duality, "_maximal_independent_sets", refuse)
    ideal = MonomialIdeal(1, 4, (0b0001, 0b1110))
    cx = complex_of_ideal(ideal, grid_vertices(1, 4))
    assert set(cx.facets) == {0b0110, 0b1010, 0b1100}


def test_complex_of_ideal_lists_facets_in_canonical_order():
    # the (size, mask) order of make_complex, so equal complexes
    # compare equal however they were built
    rng = random.Random(3)
    for _ in range(500):
        ideal = random_squarefree_ideal(rng)
        verts = grid_vertices(ideal.r, ideal.n)
        cx = complex_of_ideal(ideal, verts)
        assert cx == make_complex(verts, cx.facets)


def test_zero_ideal_gives_full_simplex():
    zero = MonomialIdeal(1, 3, ())
    cx = complex_of_ideal(zero, grid_vertices(1, 3))
    assert cx.facets == (0b111,)


def test_dual_complex_hand_cases():
    verts = ("a", "b", "c")
    hollow = make_complex(verts, [0b011, 0b101, 0b110])
    assert is_irrelevant(alexander_dual_complex(hollow))
    irrelevant = make_complex(verts, [0])
    dual = alexander_dual_complex(irrelevant)
    assert set(dual.facets) == {0b011, 0b101, 0b110}
    full = make_complex(verts, [0b111])
    assert alexander_dual_complex(full).is_void()
    assert alexander_dual_complex(make_complex(verts, [])).facets == (0b111,)


def test_dual_complex_is_an_involution():
    rng = random.Random(77)
    verts = tuple(f"v{k}" for k in range(8))
    for _ in range(30):
        masks = [rng.randrange(1, 256) for _ in range(rng.randint(1, 10))]
        cx = make_complex(verts, masks)
        assert alexander_dual_complex(alexander_dual_complex(cx)) == cx


def test_dual_ideal_reciprocal_pair():
    edge = minimalize([0b11], 1, 2)
    verts = grid_vertices(1, 2)
    dual = dual_ideal_bruteforce(edge, verts)
    assert {str(g) for g in dual.gens} == {"X[1,1]", "X[1,2]"}
    assert dual_ideal_bruteforce(dual, verts) == edge


def test_dual_ideal_degenerate_cases():
    verts = grid_vertices(1, 2)
    zero = MonomialIdeal(1, 2, ())
    assert dual_ideal_bruteforce(zero, verts).is_unit()
    unit = MonomialIdeal(1, 2, (0,))
    with pytest.raises(UnitIdealError):
        dual_ideal_bruteforce(unit, verts)


def test_double_dual_is_identity_on_random_ideals():
    rng = random.Random(88)
    for _ in range(40):
        ideal = random_squarefree_ideal(rng)
        if ideal.is_zero() or ideal.is_unit():
            continue
        verts = grid_vertices(ideal.r, ideal.n)
        once = dual_ideal_bruteforce(ideal, verts)
        assert dual_ideal_bruteforce(once, verts) == ideal


def test_dual_hr_fast_matches_frozen_quadratics(sample):
    dual = dual_hr_fast(sample)
    assert {str(g) for g in dual.gens} == SAMPLE_DUAL_GENERATORS
    assert all(g.degree() == 2 for g in dual.gens)


def test_dual_hr_fast_identity_family_is_diagonal():
    fam = RelationFamily.from_pairs(2, 2, {})
    dual = dual_hr_fast(fam)
    assert {str(g) for g in dual.gens} == {"X[1,1]*X[2,1]", "X[1,2]*X[2,2]"}


def test_dual_hr_fast_two_levels_reads_off_the_relation():
    # r=2: the dual quadratics are exactly the level-1 comparabilities
    fam = RelationFamily.from_pairs(3, 2, {1: [(1, 2), (2, 3)]})
    dual = dual_hr_fast(fam)
    want = {
        (i, j)
        for i in range(1, 4)
        for j in range(1, 4)
        if fam.level(1).holds(i, j)
    }
    got = {(g.variables()[0][1], g.variables()[1][1]) for g in dual.gens}
    assert got == want


def test_dual_oracles_agree_on_sample_and_random_families(sample):
    rng = random.Random(99)
    fams = [sample] + [random_family(rng, max_n=3, max_r=3) for _ in range(10)]
    for fam in fams:
        fast = dual_hr_fast(fam)
        brute = dual_ideal_bruteforce(build_hr(fam), grid_vertices(fam.r, fam.n))
        assert set(fast.gens) == set(brute.gens)
