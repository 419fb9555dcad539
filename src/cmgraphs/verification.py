"""Batch verification of the package's mathematical claims at desk scale.

Each criterion is a pure function returning (passed, detail); run_all wires
them to one seeded random stream so a seed fully determines every family,
ideal and graph that gets generated.  The golden constants for the shipped
sample family live here and are frozen by hand, not regenerated.

Criterion 2 decides linear quotients in every linear extension of the chain
order at once, by a certificate whose proof is in the chains module
docstring, and checks explicit orders as a second route: two routes that
disagree raise InternalMismatchError.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from importlib import resources
from math import comb

from .chains import (
    build_hr,
    chain_monomial,
    check_all_extensions,
    check_linear_quotients,
    enumerate_chains,
    find_linear_quotients_order,
    linear_extension,
    random_linear_extension,
    witness_extension,
)
from .duality import (
    SimplicialComplex,
    _minimal_transversals,
    complex_of_ideal,
    dual_hr_fast,
    dual_ideal_bruteforce,
    grid_vertices,
)
from .errors import InternalMismatchError
from .graphs import (
    build_complete_multipartite,
    check_family_conditions,
    check_theorem1,
    check_theorem2,
    complement_is_chordal,
    cycle_graph,
    edge_count_expected,
    edge_ideal,
    graph_of_family,
    independence_complex,
)
from .homology import (
    GF2,
    RATIONAL,
    CMCertificate,
    _cm_by_faces,
    _flag_graph,
    is_cohen_macaulay,
    reduced_homology,
)
from .monomials import minimalize
from .posets import (
    RelationFamily,
    close_relation,
    composite_relation,
    family_from_dict,
    order_ideals,
)

DEFAULT_SEED = 1729

# frozen expectations for the shipped sample family (n = 3, r = 3,
# level 1 generated by 2<=3, level 2 generated by 1<=2)
SAMPLE_IDEALS_LEVEL1 = (0b000, 0b001, 0b010, 0b011, 0b110, 0b111)
SAMPLE_IDEALS_LEVEL2 = (0b000, 0b001, 0b100, 0b011, 0b101, 0b111)
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
SAMPLE_DUAL_GENERATORS = (
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
)
SAMPLE_COMPOSITE_12 = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))


def sample_family() -> RelationFamily:
    """The packaged three-level sample family, loaded from its fixture file."""
    doc = json.loads(
        resources.files("cmgraphs").joinpath("data/sample_family.json").read_text()
    )
    return family_from_dict(doc)


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------


def random_family(rng: random.Random, max_n: int = 4, max_r: int = 4) -> RelationFamily:
    n = rng.randint(1, max_n)
    r = rng.randint(2, max_r)
    density = rng.uniform(0.15, 0.5)
    levels = []
    for _ in range(r - 1):
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < density
        ]
        levels.append(close_relation(n, pairs))
    return RelationFamily(n, r, tuple(levels))


def random_squarefree_ideal(rng: random.Random, max_vars: int = 10):
    """A random non-unit squarefree ideal on a single-level variable grid."""
    v = rng.randint(2, max_vars)
    count = rng.randint(1, 6)
    masks = {rng.randrange(1, 1 << v) for _ in range(count)}
    return minimalize(masks, 1, v)


def random_staircase_slices(rng: random.Random, n: int, r: int) -> list[set]:
    """Per-part random poset-pattern slices: reflexive, index-monotone, transitive."""
    out = []
    for _ in range(r - 1):
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        rel = close_relation(n, pairs)
        out.append(set(rel.pairs()))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def ok(self) -> bool:
        return self.passed and self.elapsed <= self.budget


def criterion_1_sample_reproduction() -> tuple[bool, str]:
    """Ideal lists, chain count and generator set of the shipped family."""
    fam = sample_family()
    problems = []
    j1 = tuple(order_ideals(fam.level(1)))
    j2 = tuple(order_ideals(fam.level(2)))
    if j1 != SAMPLE_IDEALS_LEVEL1:
        problems.append(f"level-1 ideals {j1} != expected")
    if j2 != SAMPLE_IDEALS_LEVEL2:
        problems.append(f"level-2 ideals {j2} != expected")
    chains = enumerate_chains(fam)
    if tuple(chains) != SAMPLE_CHAINS:
        problems.append(f"{len(chains)} chains, expected the frozen 15")
    ideal = build_hr(fam)
    got = {str(g) for g in ideal.gens}
    want = set(SAMPLE_GENERATORS)
    if got != want:
        problems.append(
            f"generator set differs: extra {sorted(got - want)}, missing {sorted(want - got)}"
        )
    if any(g.degree() != 6 for g in ideal.gens):
        problems.append("a generator has degree != 6")
    # the membership rule: X[a,i] divides u exactly when p_i has left the
    # chain no earlier than level a (conventions I_0 = P, I_r = empty)
    full = (1 << fam.n) - 1
    for chain in chains:
        u = chain_monomial(fam, chain)
        padded = (full, *chain, 0)
        for a in range(1, fam.r + 1):
            for i in range(1, fam.n + 1):
                expect = not (padded[a - 1] >> (i - 1) & 1) or bool(
                    padded[a] >> (i - 1) & 1
                )
                if u.has_variable(a, i) != expect:
                    problems.append(f"membership rule fails at chain {chain}, X[{a},{i}]")
    return (not problems, "; ".join(problems) or f"15 chains, {len(ideal.gens)} generators")


def criterion_2_linear_quotients(families) -> tuple[bool, str]:
    """Linear quotients hold in every linear extension of each family's chains.

    The certificate (chains.check_all_extensions) decides all extensions at
    once: the chains below k precede k in every extension, a chain j
    precedes k in some extension exactly when it is neither k nor above k,
    and the chain monomials' shape makes covering each such j from the
    chains below k both sufficient and necessary (the proof is in the chains
    module docstring).  Explicit orders are the second route.  A passing
    certificate must agree with check_linear_quotients on the canonical
    order and one random extension; a failing one must name a witness
    extension that check_linear_quotients fails.  Either disagreement raises
    InternalMismatchError.
    """
    rng = random.Random(0xC2)
    checked = 0
    for fam in families:
        chains = enumerate_chains(fam)
        monomial = {c: chain_monomial(fam, c) for c in chains}
        canonical = linear_extension(chains).chains
        verdict = check_all_extensions(fam, canonical)
        if verdict.passed:
            orders = (canonical, random_linear_extension(canonical, rng).chains)
        else:
            orders = (witness_extension(canonical, *verdict.witness).chains,)
        for order in orders:
            explicit = check_linear_quotients([monomial[c] for c in order])
            if explicit.passed != verdict.passed:
                raise InternalMismatchError(
                    f"linear quotients for family n={fam.n} r={fam.r}: the certificate "
                    f"gives {verdict.passed}, {verdict.witness} and an explicit order "
                    f"{explicit.passed}, {explicit.witness}"
                )
            checked += 1
        if not verdict.passed:
            return (
                False,
                f"failure at witness {verdict.witness} for family n={fam.n} r={fam.r}",
            )
    return (
        True,
        f"every extension certified for {len(families)} families, "
        f"{checked} explicit orders agree",
    )


def criterion_3_dual_oracles(families) -> tuple[bool, str]:
    """The quadratic dual and the edge ideal equal the complement-of-facets dual.

    The paper's identity H_R^∨ = I(G_R), checked through two routes against
    one brute-force dual per family: the quadratic rule (dual_hr_fast) and
    the edge ideal of the r-partite graph.  Both share one composite sweep,
    so each is compared with the complement-of-facets dual of build_hr,
    which shares no code with either; the first family where a route
    differs is named.
    """
    fam = sample_family()
    fast = dual_hr_fast(fam)
    if {str(g) for g in fast.gens} != set(SAMPLE_DUAL_GENERATORS):
        return (False, "sample family dual generators differ from the frozen 13")
    for k, f in enumerate([fam, *families]):
        brute = set(dual_ideal_bruteforce(build_hr(f), grid_vertices(f.r, f.n)).masks())
        where = f"family #{k} (n={f.n}, r={f.r})"
        if set(dual_hr_fast(f).masks()) != brute:
            return (False, f"quadratic rule != brute-force dual on {where}")
        if set(edge_ideal(graph_of_family(f)).masks()) != brute:
            return (False, f"edge ideal != brute-force dual on {where}")
    return (
        True,
        f"{len(families) + 1} families, quadratic rule and edge ideal both equal "
        "the brute-force dual",
    )


def criterion_4_composite_relation() -> tuple[bool, str]:
    """The sample family's two-level composite: exact pairs, transitivity broken."""
    fam = sample_family()
    comp = composite_relation(fam, 1, 2)
    got = comp.pairs()
    if got != SAMPLE_COMPOSITE_12:
        return (False, f"composite pairs {got} != expected {SAMPLE_COMPOSITE_12}")
    w = comp.transitivity_witness()
    if w != (1, 2, 3):
        return (False, f"expected transitivity to fail at (1,2,3), got {w}")
    return (True, "pairs match, non-transitivity witnessed at (1,2,3)")


def _checked_independence_complex(graph) -> SimplicialComplex:
    """Ind(G), whose facets must be the complements of Berge's minimal
    transversals of the edges; a difference raises InternalMismatchError."""
    cx = independence_complex(graph)
    full = (1 << len(cx.vertices)) - 1
    berge = {full ^ t for t in _minimal_transversals(edge_ideal(graph).masks())}
    if set(cx.facets) != berge:
        raise InternalMismatchError(
            f"Ind(G) facets of an r={graph.r}, n={graph.n} graph differ from Berge's kernel"
        )
    return cx


def _checked_cm(cx: SimplicialComplex, fields) -> list[CMCertificate]:
    """The CM certificates of an independence complex over each field, each
    checked against the face walk; a difference raises InternalMismatchError.

    is_cohen_macaulay walks the graph the complex recorded, so that graph
    must be the one _flag_graph derives from the facets and confirms by a
    second Bron-Kerbosch listing, once per complex.  The verdict and witness
    of the graph walk (with the face walk's witness on a negative verdict)
    must equal the face walk's.
    """
    derived = _flag_graph(cx)
    if derived is None or tuple(derived) != cx._graph_nbr:
        raise InternalMismatchError(
            "an independence complex is not the flag complex of the graph it records"
        )
    certs = []
    for field in fields:
        cert = is_cohen_macaulay(cx, field)
        by_faces = _cm_by_faces(cx, field)
        if (cert.verdict, cert.witness) != (by_faces.verdict, by_faces.witness):
            raise InternalMismatchError(
                f"CM over {field}: the graph walk gives {cert.verdict}, {cert.witness} "
                f"and the face walk {by_faces.verdict}, {by_faces.witness}"
            )
        certs.append(cert)
    return certs


def criterion_5_cohen_macaulay(seed: int) -> tuple[bool, str]:
    """Independence complexes of valid constructions are CM; the cycles behave.

    Every independence complex is also checked against Berge's kernel, which
    shares no code with the Bron-Kerbosch kernel that lists its facets, the
    graph it records against the one derived from its facets, and every CM
    verdict and witness of the graph walk against the face walk's.
    """
    rng = random.Random(seed ^ 0xC5)
    problems = []
    count = 0
    for _ in range(50):
        fam = random_family(rng, max_n=3, max_r=3)
        if not check_family_conditions(fam).passed:
            problems.append(f"family conditions fail for n={fam.n} r={fam.r}")
            continue
        cx = _checked_independence_complex(graph_of_family(fam))
        for cert in _checked_cm(cx, (GF2, RATIONAL)):
            if not cert.verdict:
                problems.append(
                    f"family n={fam.n} r={fam.r} not CM over {cert.field}: witness {cert.witness}"
                )
        count += 1
    for n in (1, 2, 3):
        for r in (3, 4):
            for slices in (None, random_staircase_slices(rng, n, r)):
                g = build_complete_multipartite(n, r, slices)
                [cert] = _checked_cm(_checked_independence_complex(g), (GF2,))
                if not cert.verdict:
                    problems.append(
                        f"construction n={n} r={r} not CM: witness {cert.witness}"
                    )
                count += 1
    c5 = cycle_graph(5)
    cx5 = _checked_independence_complex(c5)
    for cert in _checked_cm(cx5, (GF2, RATIONAL)):
        if not cert.verdict:
            problems.append(f"five-cycle not CM over {cert.field}")
    if check_theorem1(c5).passed:
        problems.append("five-cycle unexpectedly passes the first structure check")
    if check_theorem2(c5).passed:
        problems.append("five-cycle unexpectedly passes the second structure check")
    [cert4] = _checked_cm(_checked_independence_complex(cycle_graph(4)), (GF2,))
    if cert4.verdict:
        problems.append("four-cycle unexpectedly CM")
    elif cert4.witness != ((), 0, 1):
        problems.append(f"four-cycle witness {cert4.witness}, expected ((), 0, 1)")
    return (not problems, "; ".join(problems) or f"{count} complexes CM, cycles as expected")


def criterion_6_edge_counts() -> tuple[bool, str]:
    """The closed-form edge count, and the fully complete construction hitting it."""
    problems = []
    for r in range(2, 7):
        for n in range(1, 7):
            expected = edge_count_expected(n, r)
            if expected != comb((r - 1) * n + 1, 2):
                problems.append(f"identity fails at n={n}, r={r}")
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            g = build_complete_multipartite(n, r)
            if len(g.edges) != edge_count_expected(n, r):
                problems.append(
                    f"construction n={n} r={r} has {len(g.edges)} edges, "
                    f"expected {edge_count_expected(n, r)}"
                )
    return (not problems, "; ".join(problems) or "identity and construction sizes agree")


def criterion_7_resolution_certificates() -> tuple[bool, str]:
    """Both linear-resolution certificates for the fully complete constructions."""
    problems = []
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            g = build_complete_multipartite(n, r)
            order = find_linear_quotients_order(edge_ideal(g))
            if order is None:
                problems.append(f"no linear-quotients order for n={n} r={r}")
            if not complement_is_chordal(g):
                problems.append(f"complement not chordal for n={n} r={r}")
    return (not problems, "; ".join(problems) or "both certificates found for all 9 graphs")


def criterion_8_structural_identities(families, ideals) -> tuple[bool, str]:
    """The sample graph's 13 edges; double dual = identity; rank guards exercised.

    The families are not read here: the edge ideal of each family's graph
    is compared with its dual in criterion 3, next to the quadratic rule,
    against one brute-force dual.  The unused parameter stays only because
    perfbench/workloads.py calls this function with two arguments; it goes
    when the benchmark next changes (ROADMAP item 4).
    """
    problems = []
    g = graph_of_family(sample_family())
    if len(g.edges) != 13:
        problems.append(f"sample graph has {len(g.edges)} edges, expected 13")
    for k, ideal in enumerate(ideals):
        verts = grid_vertices(1, ideal.n)
        double = dual_ideal_bruteforce(dual_ideal_bruteforce(ideal, verts), verts)
        if double.masks() != ideal.masks():
            problems.append(f"double dual differs on ideal #{k}")
            break
        # every homology call raises on a negative rank, which an
        # overcounted boundary rank produces
        cx = complex_of_ideal(ideal, verts)
        reduced_homology(cx, GF2)
        reduced_homology(cx, RATIONAL)
    return (
        not problems,
        "; ".join(problems)
        or f"sample graph has 13 edges, {len(ideals)} double duals, rank guards ran",
    )


BUDGETS = {1: 1.0, 2: 60.0, 3: 120.0, 4: 1.0, 5: 300.0, 6: 1.0, 7: 60.0, 8: 60.0}

NAMES = {
    1: "sample family reproduction",
    2: "linear quotients under all extensions",
    3: "dual oracle equivalence",
    4: "composite relation non-transitivity",
    5: "Cohen-Macaulay suite",
    6: "edge-count identity",
    7: "linear-resolution certificates",
    8: "structural identities",
}


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run criteria 1 through 8 off one seeded stream; deterministic per seed."""
    rng = random.Random(seed)
    families = [random_family(rng, 4, 4) for _ in range(200)]
    ideals = [random_squarefree_ideal(rng) for _ in range(100)]

    runs = {
        1: lambda: criterion_1_sample_reproduction(),
        2: lambda: criterion_2_linear_quotients(families),
        3: lambda: criterion_3_dual_oracles(families),
        4: lambda: criterion_4_composite_relation(),
        5: lambda: criterion_5_cohen_macaulay(seed),
        6: lambda: criterion_6_edge_counts(),
        7: lambda: criterion_7_resolution_certificates(),
        8: lambda: criterion_8_structural_identities(families, ideals),
    }
    results = []
    for number in sorted(runs):
        start = time.perf_counter()
        try:
            passed, detail = runs[number]()
        except InternalMismatchError:
            raise  # two routes disagree: the CLI exits 3
        except Exception as exc:  # a crash is a failure with the error as detail
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(
            CriterionResult(number, NAMES[number], passed, detail, elapsed, BUDGETS[number])
        )
    return results


def format_results(results) -> str:
    """The pass/fail table.  Wall times are reported separately (see
    format_timings), but a passing criterion over its budget is marked SLOW
    and fails the overall line, so the table is byte-stable across runs with
    one seed only while every criterion stays inside its budget."""
    lines = []
    for res in results:
        status = "pass" if res.passed else "FAIL"
        if res.passed and res.elapsed > res.budget:
            status = "SLOW"
        lines.append(f"criterion {res.number} [{status}] {res.name}: {res.detail}")
    overall = all(r.ok for r in results)
    lines.append(f"overall: {'pass' if overall else 'FAIL'}")
    return "\n".join(lines)


def format_timings(results) -> str:
    lines = [
        f"criterion {res.number}: {res.elapsed:.2f}s (budget {res.budget:.0f}s)"
        for res in results
    ]
    lines.append(f"total: {sum(res.elapsed for res in results):.2f}s")
    return "\n".join(lines)
