"""Relations, order ideals, families, composite relations, chain validation."""

import random

import pytest

from conftest import ideals_lattice_closed, is_poset
from cmgraphs import (
    ChainError,
    IndexOrderError,
    LevelError,
    ParseError,
    RangeError,
    RelationFamily,
    close_relation,
    composite_relation,
    composite_rows,
    is_order_ideal,
    load_family,
    order_ideals,
)
from cmgraphs.posets import (
    Relation,
    _transpose,
    family_from_dict,
    family_to_dict,
    members,
    validate_chain,
)
from cmgraphs.verification import random_family

# Order ideals of the worked example, frozen by hand: level 1 is generated by
# p2 <= p3, level 2 by p1 <= p2.  Bit i-1 encodes membership of p_i.
LEVEL1_IDEALS = (0b000, 0b001, 0b010, 0b011, 0b110, 0b111)
LEVEL2_IDEALS = (0b000, 0b001, 0b100, 0b011, 0b101, 0b111)


def test_mask_helpers_roundtrip():
    assert members(0b101) == (1, 3)
    assert members(0) == ()


def test_close_relation_is_reflexive_and_transitive():
    rel = close_relation(4, [(1, 2), (2, 3)])
    assert rel.is_reflexive()
    assert rel.holds(1, 3)
    assert rel.holds(1, 1)
    assert not rel.holds(1, 4)
    assert is_poset(rel)


def test_close_relation_rejects_out_of_range():
    with pytest.raises(RangeError):
        close_relation(3, [(1, 4)])
    with pytest.raises(RangeError):
        close_relation(3, [(0, 1)])
    with pytest.raises(RangeError):
        close_relation(0, [])


def test_booleans_are_not_integers():
    # bool is a subclass of int, so True would pass as the index or count 1
    with pytest.raises(RangeError):
        close_relation(True, [])
    with pytest.raises(RangeError):
        close_relation(3, [(True, 2)])
    with pytest.raises(RangeError):
        RelationFamily.from_pairs(2, True, {})
    with pytest.raises(LevelError):
        RelationFamily.from_pairs(2, 3, {True: [(1, 2)]})


def test_close_relation_rejects_decreasing_pair():
    # index-monotone labeling: a relation pair (i, j) must have i <= j
    with pytest.raises(IndexOrderError):
        close_relation(3, [(3, 2)])


def test_close_relation_rejects_malformed_pair():
    with pytest.raises(ParseError):
        close_relation(3, [(1, 2, 3)])


def test_identity_relation_ideals_are_all_subsets():
    rel = close_relation(3, ())
    assert len(order_ideals(rel)) == 8


def test_total_order_ideals_are_prefixes():
    rel = close_relation(3, [(1, 2), (2, 3)])
    assert order_ideals(rel) == [0b000, 0b001, 0b011, 0b111]


def test_sample_family_ideals_match_frozen_lists(sample):
    assert tuple(order_ideals(sample.level(1))) == LEVEL1_IDEALS
    assert tuple(order_ideals(sample.level(2))) == LEVEL2_IDEALS


def test_order_ideals_sorted_by_size_then_mask():
    rel = close_relation(4, [(1, 3), (2, 3)])
    ideals = order_ideals(rel)
    keys = [(m.bit_count(), m) for m in ideals]
    assert keys == sorted(keys)
    assert len(set(ideals)) == len(ideals)


def test_is_order_ideal_detects_missing_lower_bound():
    rel = close_relation(3, [(1, 2)])
    assert is_order_ideal(rel, 0b011)
    assert not is_order_ideal(rel, 0b010)  # p2 without p1 below it
    assert is_order_ideal(rel, 0)


def test_ideals_closed_under_union_and_intersection():
    rng = random.Random(101)
    for _ in range(25):
        fam = random_family(rng, max_n=6, max_r=3)
        for a in range(1, fam.r):
            assert ideals_lattice_closed(order_ideals(fam.level(a)))


def test_raw_relation_checkers_report_violations():
    raw = Relation.from_raw_pairs(3, [(1, 2), (2, 3)])
    assert not is_poset(raw)
    assert raw.transitivity_witness() == (1, 2, 3)
    bad = Relation.from_raw_pairs(3, [(3, 1)])
    assert bad.monotonicity_witness() == (3, 1)
    cyc = Relation.from_raw_pairs(2, [(1, 2), (2, 1)])
    assert cyc.antisymmetry_witness() == (1, 2)


def test_poset_has_no_violation_witnesses():
    rel = close_relation(4, [(1, 2), (2, 4), (3, 4)])
    assert rel.transitivity_witness() is None
    assert rel.antisymmetry_witness() is None
    assert rel.monotonicity_witness() is None


def test_family_level_access_bounds(sample):
    assert sample.level(1).n == 3
    assert sample.level(2).n == 3
    with pytest.raises(LevelError):
        sample.level(0)
    with pytest.raises(LevelError):
        sample.level(3)  # levels run 1..r-1


def test_family_from_pairs_defaults_missing_levels_to_identity():
    fam = RelationFamily.from_pairs(2, 4, {2: [(1, 2)]})
    assert fam.level(1).pairs() == close_relation(2, ()).pairs()
    assert fam.level(3).pairs() == close_relation(2, ()).pairs()
    assert fam.level(2).holds(1, 2)


def test_composite_relation_matches_frozen_pairs(sample):
    comp = composite_relation(sample, 1, 2)
    assert comp.pairs() == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))


def test_composite_relation_can_fail_transitivity(sample):
    # p1 reaches p2 and p2 reaches p3, but no two-step route joins p1 to p3
    comp = composite_relation(sample, 1, 2)
    assert comp.transitivity_witness() == (1, 2, 3)
    assert not comp.holds(1, 3)


def test_composite_single_level_is_that_level(sample):
    comp = composite_relation(sample, 1, 1)
    assert comp.pairs() == sample.level(1).pairs()


def test_composite_relation_window_bounds(sample):
    with pytest.raises(LevelError):
        composite_relation(sample, 0, 1)
    with pytest.raises(LevelError):
        composite_relation(sample, 2, 1)
    with pytest.raises(LevelError):
        composite_relation(sample, 1, 3)


def test_composite_reflexive_antisymmetric_monotone_on_random_families():
    rng = random.Random(202)
    for _ in range(30):
        fam = random_family(rng, max_n=6, max_r=5)
        for a in range(1, fam.r):
            for b in range(a, fam.r):
                rel = composite_relation(fam, a, b)
                assert rel.is_reflexive()
                assert rel.antisymmetry_witness() is None
                assert rel.monotonicity_witness() is None


def test_composite_grows_with_the_window():
    # each level is reflexive, so composing more levels only adds pairs
    rng = random.Random(303)
    for _ in range(20):
        fam = random_family(rng, max_n=5, max_r=5)
        for a in range(1, fam.r):
            prev = set(composite_relation(fam, a, a).pairs())
            windows = list(composite_rows(fam, a))
            assert len(windows) == fam.r - a
            assert windows[0] == fam.level(a).rows
            for b in range(a + 1, fam.r):
                cur = set(composite_relation(fam, a, b).pairs())
                assert prev <= cur
                assert set(Relation(fam.n, windows[b - a]).pairs()) == cur
                prev = cur


def test_validate_chain_accepts_nested_ideals(sample):
    validate_chain(sample, (0b111, 0b001))
    validate_chain(sample, (0, 0))


def test_validate_chain_rejects_bad_input(sample):
    # one case per ChainError text; the first failing component is named
    cases = [
        ((0b111,), "chain has 1 components, expected 2"),  # needs r-1 = 2 levels
        ((0b111, 0b1000), "component 2 is not a subset bitmask of [n]"),
        ((-1, 0), "component 1 is not a subset bitmask of [n]"),
        ((0b111, True), "component 2 is not a subset bitmask of [n]"),
        ((0b100, 0), "component 1 = {p3} is not an order ideal of level 1"),
        ((0b111, 0b010), "component 2 = {p2} is not an order ideal of level 2"),
        ((0b001, 0b011), "chain not nested: component 2 is not contained in component 1"),
    ]
    for chain, message in cases:
        with pytest.raises(ChainError) as excinfo:
            validate_chain(sample, chain)
        assert excinfo.value.message == message
    with pytest.raises(ChainError) as excinfo:
        validate_chain(RelationFamily.from_pairs(2, 4, {}), (0b11, 0b01, 0b10))
    assert excinfo.value.message == (
        "chain not nested: component 3 is not contained in component 2"
    )


def test_order_ideal_byte_tables_span_every_element():
    # the chain p_1 <= ... <= p_20: three byte tables, the last of four
    # elements, and its order ideals are exactly the prefixes
    rel = close_relation(20, [(k, k + 1) for k in range(1, 20)])
    assert [len(t) for t in rel.down_bytes] == [256, 256, 16]
    for k in range(21):
        assert is_order_ideal(rel, (1 << k) - 1)
    for k in range(2, 21):
        assert not is_order_ideal(rel, 1 << (k - 1))  # {p_k} misses p_{k-1}
        assert not is_order_ideal(rel, (1 << k) - 2)  # the prefix misses p_1


def test_transpose_turns_rows_into_columns():
    rng = random.Random(7)
    for size in (0, 1, 8, 9, 70):
        for count in (0, 1, rng.randint(2, 20)):
            rows = [rng.getrandbits(size) if size else 0 for _ in range(count)]
            assert _transpose(size, rows) == [
                sum(1 << k for k, row in enumerate(rows) if row >> v & 1) for v in range(size)
            ]


def test_family_dict_roundtrip(sample):
    assert family_from_dict(family_to_dict(sample)) == sample


def test_load_family_reads_sample(sample, family_file):
    path = family_file(sample)
    assert load_family(path) == sample


def test_load_family_defaults_missing_levels(write_json):
    path = write_json({"n": 2, "r": 3, "relations": []})
    fam = load_family(path)
    assert fam.level(1).pairs() == close_relation(2, ()).pairs()
    assert fam.level(2).pairs() == close_relation(2, ()).pairs()


def test_load_family_rejects_garbage(tmp_path, write_json):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ParseError):
        load_family(str(broken))
    with pytest.raises(ParseError):
        load_family(write_json({"n": 2}))
    with pytest.raises(ParseError):
        load_family(
            write_json(
                {
                    "n": 2,
                    "r": 3,
                    "relations": [
                        {"level": 1, "pairs": []},
                        {"level": 1, "pairs": [[1, 2]]},
                    ],
                }
            )
        )
