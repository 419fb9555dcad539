"""Squarefree monomials over the grid of variables X[a,i], and their ideals."""

import pytest

from conftest import contains_monomial, lcm, mono
from cmgraphs import (
    Monomial,
    MonomialIdeal,
    ParseError,
    RangeError,
    build_hr,
    check_linear_quotients,
    dual_hr_fast,
    dual_ideal_bruteforce,
    edge_ideal,
    find_linear_quotients_order,
    graph_of_family,
    grid_vertices,
    minimalize,
    parse_monomial,
)
from cmgraphs.monomials import slot, sort_gens


def test_slot_layout_is_row_major():
    # X[a,i] occupies bit (a-1)*n + (i-1)
    assert slot(1, 1, 3) == 0
    assert slot(1, 3, 3) == 2
    assert slot(2, 1, 3) == 3
    assert slot(3, 3, 3) == 8


def test_variables_roundtrip():
    m = mono(3, 3, (2, 1), (1, 3), (3, 2))
    assert m.variables() == ((1, 3), (2, 1), (3, 2))
    assert m.degree() == 3
    assert m.has_variable(2, 1)
    assert not m.has_variable(2, 2)


def test_str_and_parse_roundtrip():
    m = mono(2, 3, (1, 2), (2, 3))
    assert str(m) == "X[1,2]*X[2,3]"
    assert parse_monomial(str(m), 2, 3) == m
    unit = Monomial(2, 3, 0)
    assert str(unit) == "1"
    assert parse_monomial("1", 2, 3) == unit


def test_parse_monomial_tolerates_whitespace():
    assert parse_monomial("X[ 1 , 2 ] * X[2,1]", 2, 2) == mono(2, 2, (1, 2), (2, 1))


def test_parse_monomial_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_monomial("X[1,2]+X[2,1]", 2, 2)
    with pytest.raises(ParseError):
        parse_monomial("X[1,1]*X[1,1]", 2, 2)  # squarefree: no repeats
    with pytest.raises(ParseError):
        parse_monomial("X[3,1]", 2, 2)  # index escapes the ring


def test_lcm_is_union_of_supports():
    u = mono(2, 2, (1, 1), (2, 2))
    v = mono(2, 2, (1, 2), (2, 2))
    assert lcm(u, v) == mono(2, 2, (1, 1), (1, 2), (2, 2))


def test_sort_is_degree_then_variable_sequence():
    # masks would order these the other way around: the bit pattern of
    # X[1,1]*X[2,3] is larger than that of X[1,2]*X[1,3]
    a = mono(2, 3, (1, 1), (2, 3))
    b = mono(2, 3, (1, 2), (1, 3))
    assert a.mask > b.mask
    assert sort_gens([b.mask, a.mask]) == (a.mask, b.mask)
    c = mono(2, 3, (1, 1))
    assert sort_gens([a.mask, b.mask, c.mask]) == (c.mask, a.mask, b.mask)


def test_minimalize_drops_multiples():
    gens = [
        mono(2, 2, (1, 1)),
        mono(2, 2, (1, 1), (2, 1)),
        mono(2, 2, (2, 2)),
        mono(2, 2, (2, 2)),
    ]
    ideal = minimalize([g.mask for g in gens], 2, 2)
    assert ideal.gens == (mono(2, 2, (1, 1)), mono(2, 2, (2, 2)))
    assert ideal.masks() == (0b0001, 0b1000)


def test_minimalize_unit_and_zero():
    unit = minimalize([0, mono(1, 2, (1, 1)).mask], 1, 2)
    assert unit.is_unit()
    assert unit.gens == (Monomial(1, 2, 0),)
    zero = minimalize([], 1, 2)
    assert not zero.masks()


def test_ideal_membership():
    ideal = MonomialIdeal(2, 2, (mono(2, 2, (1, 1)).mask, mono(2, 2, (2, 1), (2, 2)).mask))
    assert contains_monomial(ideal, mono(2, 2, (1, 1), (2, 2)))
    assert not contains_monomial(ideal, mono(2, 2, (2, 2)))
    assert not contains_monomial(ideal, Monomial(2, 2, 0))


@pytest.mark.parametrize(
    "mask",
    [1.0, True, "1", None, -1, 1 << 4],
    ids=["float", "bool", "str", "none", "negative", "wide"],
)
def test_ideal_rejects_a_mask_outside_the_ring(mask):
    # r = n = 2: the monomials are the ints in [0, 2^4)
    with pytest.raises(RangeError, match="is not a monomial of the ring r=2, n=2"):
        MonomialIdeal(2, 2, (0b0001, mask))


def test_an_ideal_stores_one_canonical_tuple_however_built():
    assert MonomialIdeal(2, 2, (0b10, 0b01)) == minimalize([0b01, 0b10], 2, 2)
    assert MonomialIdeal(2, 2, (0b10, 0b01, 0b10)).masks() == (0b01, 0b10)
    # a repeated generator is stored once, and a principal ideal has linear quotients
    u = parse_monomial("X[1,1]*X[2,1]", 2, 1)
    ideal = MonomialIdeal(2, 1, (u.mask, u.mask))
    assert ideal.masks() == (0b11,)
    assert check_linear_quotients(ideal.gens).passed
    assert find_linear_quotients_order(ideal) == ideal.gens


def test_ideal_constructions_make_no_monomial(monkeypatch, sample):
    # ideals are masks end to end: a Monomial is made only when gens is read
    made = []
    post_init = Monomial.__post_init__

    def counting(self):
        made.append(self.mask)
        post_init(self)

    monkeypatch.setattr(Monomial, "__post_init__", counting)
    hr = build_hr(sample)
    fast = dual_hr_fast(sample)
    brute = dual_ideal_bruteforce(hr, grid_vertices(sample.r, sample.n))
    edges = edge_ideal(graph_of_family(sample))
    unit = minimalize([0b11, 0b01, 0], 1, 2)
    assert made == []
    assert set(fast.masks()) == set(brute.masks()) == set(edges.masks())
    assert unit.masks() == (0,)
    assert len(hr.gens) == 15
    assert made == list(hr.masks())
    assert hr.gens is hr.gens  # made once
