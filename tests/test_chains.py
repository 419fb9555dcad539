"""Chain enumeration, chain monomials, linear quotients, gamma chains."""

import random
from itertools import permutations

import pytest

from cmgraphs import (
    ChainError,
    DegreeError,
    Monomial,
    RangeError,
    RelationFamily,
    build_hr,
    chain_compare,
    chain_monomial,
    check_all_extensions,
    check_linear_quotients,
    complement_is_chordal,
    edge_ideal,
    enumerate_chains,
    find_linear_quotients_order,
    gamma_certificate,
    gamma_chain,
    graph_of_family,
    linear_extension,
    minimalize,
    random_linear_extension,
    witness_extension,
)
from cmgraphs.verification import random_family

# All 15 nested ideal chains of the worked example, in the enumeration order
# (total cardinality, then mask tuple).  Frozen by hand from the two ideal
# lists in test_posets.
SAMPLE_CHAINS = (
    (0b000, 0b000),
    (0b001, 0b000),
    (0b010, 0b000),
    (0b001, 0b001),
    (0b011, 0b000),
    (0b110, 0b000),
    (0b011, 0b001),
    (0b110, 0b100),
    (0b111, 0b000),
    (0b011, 0b011),
    (0b111, 0b001),
    (0b111, 0b100),
    (0b111, 0b011),
    (0b111, 0b101),
    (0b111, 0b111),
)

# The same 15 chains as degree-6 monomials.  Listing order is free here:
# the membership-rule test pins each chain to its exact support, so this
# constant is compared as a set.
SAMPLE_GENERATORS = (
    "X[2,1]*X[2,2]*X[2,3]*X[3,1]*X[3,2]*X[3,3]",
    "X[1,1]*X[2,2]*X[2,3]*X[3,1]*X[3,2]*X[3,3]",
    "X[1,1]*X[2,1]*X[2,2]*X[2,3]*X[3,2]*X[3,3]",
    "X[1,2]*X[2,1]*X[2,3]*X[3,1]*X[3,2]*X[3,3]",
    "X[1,1]*X[1,2]*X[2,3]*X[3,1]*X[3,2]*X[3,3]",
    "X[1,1]*X[1,2]*X[2,1]*X[2,3]*X[3,2]*X[3,3]",
    "X[1,1]*X[1,2]*X[2,1]*X[2,2]*X[2,3]*X[3,3]",
    "X[1,2]*X[1,3]*X[2,1]*X[3,1]*X[3,2]*X[3,3]",
    "X[1,2]*X[1,3]*X[2,1]*X[2,3]*X[3,1]*X[3,2]",
    "X[1,1]*X[1,2]*X[1,3]*X[3,1]*X[3,2]*X[3,3]",
    "X[1,1]*X[1,2]*X[1,3]*X[2,1]*X[3,2]*X[3,3]",
    "X[1,1]*X[1,2]*X[1,3]*X[2,3]*X[3,1]*X[3,2]",
    "X[1,1]*X[1,2]*X[1,3]*X[2,1]*X[2,2]*X[3,3]",
    "X[1,1]*X[1,2]*X[1,3]*X[2,1]*X[2,3]*X[3,2]",
    "X[1,1]*X[1,2]*X[1,3]*X[2,1]*X[2,2]*X[2,3]",
)


def test_sample_chains_match_frozen_list(sample):
    assert tuple(enumerate_chains(sample)) == SAMPLE_CHAINS


def test_identity_family_chain_count():
    # each element independently picks the level after which it drops out
    for n in range(1, 4):
        for r in range(2, 5):
            fam = RelationFamily.from_pairs(n, r, {})
            assert len(enumerate_chains(fam)) == r**n


def test_chain_monomial_degree_and_membership_rule(sample):
    n, r = sample.n, sample.r
    for chain in SAMPLE_CHAINS:
        u = chain_monomial(sample, chain)
        assert u.degree() == n * (r - 1)
        # X[a,i] divides exactly when p_i left the chain by level a or is
        # still present at level a; boundary conventions: everything sits
        # below level 1, nothing survives past level r
        padded = ((1 << n) - 1, *chain, 0)
        for a in range(1, r + 1):
            for i in range(1, n + 1):
                expected = not padded[a - 1] >> (i - 1) & 1 or padded[a] >> (i - 1) & 1
                assert u.has_variable(a, i) == expected


def test_chain_monomial_rejects_wrong_length(sample):
    with pytest.raises(ChainError):
        chain_monomial(sample, (0b111,))


def test_chain_monomials_match_frozen_generators(sample):
    got = {str(chain_monomial(sample, c)) for c in SAMPLE_CHAINS}
    assert got == set(SAMPLE_GENERATORS)
    assert len(SAMPLE_GENERATORS) == len(set(SAMPLE_GENERATORS)) == 15


def test_build_hr_sorts_the_same_generators(sample):
    ideal = build_hr(sample)
    assert {str(g) for g in ideal.gens} == set(SAMPLE_GENERATORS)
    keys = [(g.degree(), g.variables()) for g in ideal.gens]
    assert keys == sorted(keys)
    assert str(ideal.gens[0]) == "X[1,1]*X[1,2]*X[1,3]*X[2,1]*X[2,2]*X[2,3]"


def test_build_hr_tiny_ring():
    fam = RelationFamily.from_pairs(1, 2, {})
    gens = [str(g) for g in build_hr(fam).gens]
    assert gens == ["X[1,1]", "X[2,1]"]


def test_chain_monomials_injective_on_random_families():
    rng = random.Random(404)
    for _ in range(20):
        fam = random_family(rng, max_n=3, max_r=4)
        chains = enumerate_chains(fam)
        masks = {chain_monomial(fam, c).mask for c in chains}
        assert len(masks) == len(chains)


def test_chain_compare_verdicts():
    assert chain_compare((0b001, 0b001), (0b011, 0b001)) == "less"
    assert chain_compare((0b011, 0b001), (0b001, 0b001)) == "greater"
    assert chain_compare((0b011, 0b001), (0b011, 0b001)) == "equal"
    assert chain_compare((0b001, 0b000), (0b010, 0b000)) == "incomparable"
    with pytest.raises(ChainError):
        chain_compare((0b001,), (0b001, 0b000))


def assert_respects_inclusion(order):
    """No chain of the order lies componentwise below an earlier one."""
    pos = {c: k for k, c in enumerate(order.chains)}
    for cj in order.chains:
        for ci in order.chains:
            if chain_compare(cj, ci) == "less":
                assert pos[cj] < pos[ci]


def test_linear_extension_respects_inclusion(sample):
    chains = enumerate_chains(sample)
    order = linear_extension(chains)
    assert sorted(order.chains) == sorted(chains)
    assert_respects_inclusion(order)
    rng = random.Random(909)
    for s in range(25):
        fam = random_family(rng, max_n=3, max_r=5)
        chains = enumerate_chains(fam)
        # a shuffled input, so the order is not the enumeration order already
        random.Random(s).shuffle(chains)
        for order in (linear_extension(chains), random_linear_extension(chains, random.Random(s))):
            assert sorted(order.chains) == sorted(chains)
            assert_respects_inclusion(order)


def test_linear_extension_rejects_a_repeated_chain(sample):
    chains = enumerate_chains(sample)
    with pytest.raises(ChainError, match="more than once"):
        linear_extension([*chains, chains[4]])


def test_random_linear_extension_is_seed_deterministic(sample):
    chains = enumerate_chains(sample)
    a = random_linear_extension(chains, random.Random(7))
    b = random_linear_extension(chains, random.Random(7))
    assert a.chains == b.chains
    assert_respects_inclusion(a)
    seen = {random_linear_extension(chains, random.Random(s)).chains for s in range(8)}
    assert len(seen) > 1


def test_linear_quotients_pass_on_sample_orders(sample):
    chains = enumerate_chains(sample)
    canonical = linear_extension(chains)
    gens = [chain_monomial(sample, c) for c in canonical.chains]
    assert check_linear_quotients(gens).passed
    rng = random.Random(11)
    for _ in range(10):
        order = random_linear_extension(chains, rng)
        gens = [chain_monomial(sample, c) for c in order.chains]
        assert check_linear_quotients(gens).passed


def lq_reference(masks):
    """The linear-quotients rule pair by pair: the first failing 1-based (j, i), or None.

    Pass iff for each i and each j < i some k < i has u_k/gcd(u_k,u_i) equal
    to one variable that divides u_j/gcd(u_j,u_i).  On masks the quotient
    u_k/gcd(u_k,u_i) is u_k & ~u_i.
    """
    for i in range(1, len(masks)):
        for j in range(i):
            q_j = masks[j] & ~masks[i]
            if not any(
                (masks[k] & ~masks[i]).bit_count() == 1
                and (masks[k] & ~masks[i]) & ~q_j == 0
                for k in range(i)
            ):
                return (j + 1, i + 1)
    return None


def lq_verdict(masks):
    verdict = check_linear_quotients([Monomial(1, 80, m) for m in masks])
    assert verdict.passed == (verdict.witness is None)
    return verdict.witness


def test_linear_quotients_match_pair_reference_on_random_ideals():
    rng = random.Random(4242)
    failing = repeated = wide = 0
    for _ in range(1500):
        top = rng.choice([4, 8, 24, 64, 80])
        d = rng.randint(1, min(top, 6))
        pool = rng.sample(range(top), min(top, d + rng.randint(0, 4)))
        masks = [sum(1 << v for v in rng.sample(pool, d)) for _ in range(rng.randint(1, 12))]
        if len(masks) > 1 and rng.random() < 0.3:
            masks[rng.randrange(len(masks))] = masks[rng.randrange(len(masks))]
        want = lq_reference(masks)
        assert lq_verdict(masks) == want, masks
        failing += want is not None
        repeated += len(set(masks)) < len(masks)
        wide += max(masks) >> 64 > 0
    assert 300 < failing < 1400
    assert repeated > 100 and wide > 100


def test_linear_quotients_match_pair_reference_on_chain_orders():
    rng = random.Random(2718)
    for _ in range(40):
        fam = random_family(rng, max_n=3, max_r=4)
        chains = enumerate_chains(fam)
        monomial = {c: chain_monomial(fam, c).mask for c in chains}
        for k in range(3):
            order = random_linear_extension(chains, rng) if k else linear_extension(chains)
            masks = [monomial[c] for c in order.chains]
            assert lq_reference(masks) is None
            assert lq_verdict(masks) is None
            rng.shuffle(masks)
            assert lq_verdict(masks) == lq_reference(masks)


def test_find_order_is_none_exactly_when_no_permutation_passes():
    rng = random.Random(3141)
    found = 0
    for _ in range(150):
        v = rng.randint(2, 6)
        masks = {sum(1 << x for x in rng.sample(range(v), 2)) for _ in range(rng.randint(1, 5))}
        ideal = minimalize(masks, 1, v)
        result = find_linear_quotients_order(ideal)
        exists = any(lq_reference(p) is None for p in permutations(sorted(masks)))
        assert (result is not None) == exists, sorted(masks)
        if result is not None:
            assert sorted(g.mask for g in result) == sorted(masks)
            assert lq_reference([g.mask for g in result]) is None
            found += 1
    assert 20 < found < 140


def every_extension_passes(fam, chains):
    """Linear quotients by lq_reference in every ordering of the chains that
    extends componentwise inclusion, the orderings listed one by one."""
    masks = [chain_monomial(fam, c).mask for c in chains]
    m = len(chains)
    below = [
        {j for j in range(m) if chain_compare(chains[j], chains[k]) == "less"}
        for k in range(m)
    ]
    for perm in permutations(range(m)):
        if all(below[k] <= set(perm[:pos]) for pos, k in enumerate(perm)):
            if lq_reference([masks[k] for k in perm]) is not None:
                return False
    return True


def test_all_extensions_certificate_matches_every_extension():
    rng = random.Random(8080)
    negatives = 0
    for _ in range(600):
        fam = random_family(rng, max_n=3, max_r=4)
        chains = enumerate_chains(fam)
        subset = rng.sample(chains, min(rng.randint(3, 7), len(chains)))
        verdict = check_all_extensions(fam, subset)
        assert verdict.passed == (verdict.witness is None)
        assert verdict.passed == every_extension_passes(fam, subset), subset
        negatives += not verdict.passed
    assert negatives >= 100
    # the whole chain set of a family passes, in any order given
    for _ in range(20):
        fam = random_family(rng, max_n=4, max_r=4)
        chains = enumerate_chains(fam)
        rng.shuffle(chains)
        assert check_all_extensions(fam, chains).passed


def test_witness_extension_fails_linear_quotients():
    rng = random.Random(9090)
    negatives = 0
    for _ in range(400):
        fam = random_family(rng, max_n=4, max_r=4)
        chains = enumerate_chains(fam)
        subset = rng.sample(chains, rng.randint(2, min(24, len(chains))))
        verdict = check_all_extensions(fam, subset)
        if verdict.passed:
            continue
        negatives += 1
        j, k = verdict.witness
        order = witness_extension(subset, j, k)
        assert sorted(order.chains) == sorted(subset)
        assert_respects_inclusion(order)
        at = order.chains.index(subset[k - 1])
        assert subset[j - 1] in order.chains[:at]
        masks = [chain_monomial(fam, c).mask for c in order.chains]
        assert lq_reference(masks) is not None
        assert not check_linear_quotients([chain_monomial(fam, c) for c in order.chains])
    assert negatives >= 100


def test_witness_extension_rejects_a_pair_no_extension_orders(sample):
    chains = enumerate_chains(sample)
    with pytest.raises(ChainError, match="not placed before"):
        witness_extension(chains, 3, 3)
    with pytest.raises(ChainError, match="not placed before"):
        witness_extension(chains, 15, 1)  # the top chain lies above the bottom one


def test_linear_quotients_on_the_five_by_six_identity_grid():
    # 30 variables and 6^5 generators in the canonical chain order
    fam = RelationFamily.from_pairs(5, 6, {})
    order = linear_extension(enumerate_chains(fam))
    gens = [chain_monomial(fam, c) for c in order.chains]
    assert len(gens) == 7776
    assert check_linear_quotients(gens).passed


def test_linear_quotients_failure_witness():
    # two disjoint quadratics: the colon ideal of the second by the first is
    # not variable-generated, so the very first pair is the witness
    u = Monomial.from_variables(2, 2, [(1, 1), (1, 2)])
    v = Monomial.from_variables(2, 2, [(2, 1), (2, 2)])
    verdict = check_linear_quotients([u, v])
    assert not verdict.passed
    assert verdict.witness == (1, 2)


def test_linear_quotients_requires_equal_degrees():
    u = Monomial.from_variables(2, 2, [(1, 1)])
    v = Monomial.from_variables(2, 2, [(2, 1), (2, 2)])
    message = r"generators are not equigenerated: degrees \[1, 2\]"
    with pytest.raises(DegreeError, match=message):
        check_linear_quotients([u, v])
    with pytest.raises(DegreeError, match=message):
        check_linear_quotients(iter([v, u]))
    with pytest.raises(DegreeError, match=message):
        find_linear_quotients_order(minimalize([v.mask, u.mask], 2, 2))


def test_find_order_on_sample_ideal_and_graph(sample):
    # the sample's chain ideal is generated in degree n(r-1) = 6
    with pytest.raises(DegreeError, match="got degree 6"):
        find_linear_quotients_order(build_hr(sample))
    with pytest.raises(DegreeError, match="got degree 1"):
        find_linear_quotients_order(minimalize([0b01, 0b10], 1, 2))
    # the sample graph's complement is not chordal, so its edge ideal has
    # no linear resolution and no order with linear quotients
    g = graph_of_family(sample)
    assert not complement_is_chordal(g)
    assert find_linear_quotients_order(edge_ideal(g)) is None


def test_find_order_returns_none_when_impossible():
    u = Monomial.from_variables(2, 2, [(1, 1), (1, 2)])
    v = Monomial.from_variables(2, 2, [(2, 1), (2, 2)])
    from cmgraphs import minimalize

    assert find_linear_quotients_order(minimalize([u.mask, v.mask], 2, 2)) is None


def test_gamma_chain_single_variable(sample):
    assert gamma_chain(sample, [(2, 3)]) == (0b110, 0b000)
    # level-1 variables never generate anything
    assert gamma_chain(sample, [(1, 1), (1, 3)]) == (0b000, 0b000)
    # X[3,2] seeds p2 at level 2, which pulls in p1 below it, and the pair
    # survives the level-1 closure unchanged
    assert gamma_chain(sample, [(3, 2)]) == (0b011, 0b011)


def test_gamma_chain_bounds(sample):
    with pytest.raises(RangeError):
        gamma_chain(sample, [(4, 1)])
    with pytest.raises(RangeError):
        gamma_chain(sample, [(2, 0)])


def test_gamma_is_nested_and_certified_on_random_families():
    rng = random.Random(505)
    for _ in range(15):
        fam = random_family(rng, max_n=3, max_r=4)
        n, r = fam.n, fam.r
        fset = [
            (a, i)
            for a in range(1, r + 1)
            for i in range(1, n + 1)
            if rng.random() < 0.4
        ]
        chain = gamma_chain(fam, fset)
        for a in range(r - 2):
            assert chain[a + 1] & ~chain[a] == 0  # nested downward
        for a in range(1, r):
            for i in range(1, n + 1):
                cert = gamma_certificate(fam, fset, a, i)
                if chain[a - 1] >> (i - 1) & 1:
                    assert cert is not None
                    b, j = cert
                    assert a + 1 <= b <= r and (b, j) in fset
                else:
                    assert cert is None
