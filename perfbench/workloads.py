"""Seeded inputs, timed passes and correctness gates for the four workloads.

`build(seed)` turns a seed into a list of items.  An item is a label and a
callable that drives the package's public functions once and returns the
problems it found (an empty list when every output matched its known
answer).  Known answers come from outside the code path they check: an
independent chain count, the brute-force dual against the quadratic rule,
the theorem that family graphs and staircase constructions are
Cohen-Macaulay, and the classical fact that the cycle C_k is Cohen-Macaulay
exactly for k in {3, 5}.

The generators are stratified: every seed yields the same shapes, and where
the cost of an item grows with its chain count (or face count), the seed
draws a fixed number of candidates and keeps the one whose count is nearest
a fixed target.  That keeps the work in one pass nearly the same from seed
to seed, so wall time measures the program rather than the luck of the draw,
and the fixed number of draws keeps set-up time from depending on the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from typing import Callable

import numpy as np

import cmgraphs
from cmgraphs import verification

# Candidates drawn per stratum, whatever their counts: a fixed number, so
# that the cost of set-up does not depend on the seed.
DRAWS = 64


@dataclasses.dataclass
class Item:
    label: str
    run: Callable[[], list]


# ---------------------------------------------------------------------------
# families and an independent chain count
# ---------------------------------------------------------------------------


def random_levels(rng: random.Random, n: int, r: int, density: float):
    """r-1 index-monotone partial orders: each pair i < j kept with the given
    probability, then transitively closed.  Density 0 gives the identity."""
    levels = []
    for _ in range(r - 1):
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < density
        ]
        levels.append(cmgraphs.close_relation(n, pairs))
    return cmgraphs.RelationFamily(n, r, tuple(levels))


def _ideals(rel) -> list[int]:
    """Down-closed subsets by brute force over all masks."""
    n = rel.n
    down = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rel.holds(i, j):
                down[j - 1] |= 1 << (i - 1)
    out = []
    for mask in range(1 << n):
        if all(down[j] & ~mask == 0 for j in range(n) if mask >> j & 1):
            out.append(mask)
    return out


def count_chains(family) -> int:
    """Number of nested chains I_1 ⊇ ... ⊇ I_{r-1}, by dynamic programming
    over the ideals of consecutive levels; never enumerates the chains."""
    per_level = [_ideals(family.level(a)) for a in range(1, family.r)]
    ways = {mask: 1 for mask in per_level[-1]}
    for ideals in reversed(per_level[:-1]):
        ways = {
            outer: sum(w for inner, w in ways.items() if inner & ~outer == 0)
            for outer in ideals
        }
    return sum(ways.values())


def nearest(pool: list, count, target, how_many: int = 1) -> list:
    """The how_many entries of the pool whose count is nearest the target,
    in pool order on a tie; the first how_many when the target is None."""
    if target is None:
        chosen = pool[:how_many]
    else:
        chosen = sorted(pool, key=lambda e: abs(count(e) - target))[:how_many]
    if len(chosen) < how_many:
        raise RuntimeError(f"{len(chosen)} of {how_many} candidates near {target}")
    return chosen


def targeted_family(rng: random.Random, r: int, n: int, density: float, target: int):
    """Of DRAWS families at the density, the one whose chain count is nearest
    the target, with its chain count."""
    drawn = [(fam, count_chains(fam)) for fam in
             (random_levels(rng, n, r, density) for _ in range(DRAWS))]
    return nearest(drawn, lambda fm: fm[1], target)[0]


def _family_key(fam) -> tuple:
    return (fam.n, fam.r, tuple(rel.pairs() for rel in fam.levels))


def _graph_key(graph) -> tuple:
    return (graph.r, graph.n, tuple(graph.sorted_edges()))


# ---------------------------------------------------------------------------
# chain-grid: the hr build -> check-lq -> dual --verify -> graph build ->
# graph check --which thm1 pipeline on seeded families
# ---------------------------------------------------------------------------

# (r, n, density, chain-count target); density 0 is the identity order,
# whose chain count is r^n for every seed.
CHAIN_GRID_STRATA = (
    (3, 4, 0.0, None),
    (4, 3, 0.0, None),
    (5, 3, 0.0, None),
    (6, 2, 0.0, None),
    (7, 2, 0.0, None),
    (4, 4, 0.0, None),
    (6, 3, 0.0, None),
    (7, 3, 0.0, None),
    (3, 5, 0.5, 40),
    (4, 4, 0.5, 60),
    (6, 3, 0.3, 105),
    (7, 3, 0.5, 105),
    (3, 6, 0.2, 300),
    (4, 5, 0.2, 300),
    (5, 4, 0.2, 300),
    (3, 7, 0.3, 300),
    (3, 8, 0.3, 300),
    (4, 6, 0.3, 300),
    (6, 4, 0.3, 300),
)


def _draw(rng, r, n, density, target):
    if target is None:
        fam = random_levels(rng, n, r, 0.0)
        return fam, count_chains(fam)
    return targeted_family(rng, r, n, density, target)


def chain_grid_pipeline(fam, chains_expected: int, identity: bool) -> list:
    problems = []
    # cmgraphs hr build
    order = cmgraphs.linear_extension(cmgraphs.enumerate_chains(fam))
    gens = [cmgraphs.chain_monomial(fam, c) for c in order.chains]
    if len(gens) != chains_expected:
        problems.append(f"{len(gens)} chains, independent count {chains_expected}")
    # cmgraphs hr check-lq
    order = cmgraphs.linear_extension(cmgraphs.enumerate_chains(fam))
    gens = [cmgraphs.chain_monomial(fam, c) for c in order.chains]
    verdict = cmgraphs.check_linear_quotients(gens)
    if not verdict.passed:
        problems.append(f"linear quotients fail at {verdict.witness}")
    # cmgraphs dual --verify
    fast = cmgraphs.dual_hr_fast(fam)
    brute = cmgraphs.dual_ideal_bruteforce(
        cmgraphs.build_hr(fam), cmgraphs.grid_vertices(fam.r, fam.n)
    )
    if set(fast.masks()) != set(brute.masks()):
        problems.append("fast dual != brute-force dual")
    # cmgraphs graph build
    graph = cmgraphs.graph_of_family(fam)
    if set(cmgraphs.edge_ideal(graph).masks()) != set(brute.masks()):
        problems.append("edge ideal of the graph != brute-force dual")
    if identity and len(graph.edges) != fam.n * fam.r * (fam.r - 1) // 2:
        problems.append(f"identity family graph has {len(graph.edges)} edges")
    # cmgraphs graph check --which thm1 (the CLI rebuilds the graph)
    if not cmgraphs.check_theorem1(cmgraphs.graph_of_family(fam)).passed:
        problems.append("first structure theorem fails")
    if not cmgraphs.check_family_conditions(fam).passed:
        problems.append("family conditions fail on a closed index-monotone family")
    return problems


def build_chain_grid(seed: int):
    rng = random.Random(seed)
    items, keys = [], []
    for r, n, density, target in CHAIN_GRID_STRATA:
        fam, m = _draw(rng, r, n, density, target)
        identity = target is None
        if identity and m != r**n:
            raise RuntimeError(f"identity family r={r} n={n}: {m} chains, not r^n")
        keys.append(_family_key(fam))
        items.append(
            Item(
                f"r={r} n={n} d={density} chains={m}",
                lambda fam=fam, m=m, identity=identity: chain_grid_pipeline(fam, m, identity),
            )
        )
    return items, keys


# ---------------------------------------------------------------------------
# cm-gf2 / cm-gfp: Cohen-Macaulay verdicts of independence complexes
# ---------------------------------------------------------------------------

CM_FAMILY_STRATA = (
    (3, 4, 0.0, None),
    (4, 3, 0.0, None),
    (5, 3, 0.0, None),
    (6, 2, 0.0, None),
    (7, 2, 0.0, None),
    (4, 4, 0.0, None),
    (7, 3, 0.0, None),
    (3, 5, 0.3, 95),
    (4, 4, 0.3, 80),
    (6, 3, 0.3, 110),
    (7, 3, 0.3, 140),
    (3, 6, 0.3, 175),
    (4, 5, 0.2, 230),
    (5, 4, 0.2, 285),
    (6, 4, 0.3, 230),
    (4, 6, 0.4, 275),
)

# (n, r) of the complete-plus-staircase constructions, each with random slices
STAIRCASE_SHAPES = ((2, 4), (3, 4), (2, 6), (3, 5), (4, 4), (3, 6), (4, 5))

CYCLE_LENGTHS = tuple(range(3, 11))


def _cm_item(graph, field, facets_expected=None, cm_expected=True) -> list:
    cx = cmgraphs.independence_complex(graph)
    cert = cmgraphs.is_cohen_macaulay(cx, field)
    problems = []
    if cert.verdict != cm_expected:
        problems.append(f"CM verdict {cert.verdict}, expected {cm_expected}")
    if facets_expected is not None and len(cx.facets) != facets_expected:
        problems.append(f"{len(cx.facets)} facets, expected {facets_expected} (one per chain)")
    return problems


def build_cm(seed: int, field):
    """Family graphs, staircase constructions and cycles.  The field does not
    touch the generator: cm-gf2 and cm-gfp see the same graphs per seed."""
    rng = random.Random(seed)
    items, keys = [], []
    for r, n, density, target in CM_FAMILY_STRATA:
        fam, m = _draw(rng, r, n, density, target)
        graph = cmgraphs.graph_of_family(fam)
        keys.append(_graph_key(graph))
        # facets of Ind(G) are the complements of the chain-monomial supports
        items.append(
            Item(
                f"family r={r} n={n} facets={m}",
                lambda g=graph, m=m: _cm_item(g, field, facets_expected=m),
            )
        )
    for n, r in STAIRCASE_SHAPES:
        slices = verification.random_staircase_slices(rng, n, r)
        graph = cmgraphs.build_complete_multipartite(n, r, slices)
        keys.append(_graph_key(graph))
        items.append(Item(f"staircase n={n} r={r}", lambda g=graph: _cm_item(g, field)))
    for k in CYCLE_LENGTHS:
        graph = cmgraphs.cycle_graph(k)
        keys.append(_graph_key(graph))
        items.append(
            Item(f"cycle C_{k}", lambda g=graph, k=k: _cm_item(g, field, cm_expected=k in (3, 5)))
        )
    return items, keys


# ---------------------------------------------------------------------------
# paper-suite: the eight criteria of verify-paper on a reduced, stratified
# draw from the suite's own generators
# ---------------------------------------------------------------------------

# The suite's own generators draw a fixed number of families and ideals;
# the kept ones are chosen from those by count.
SUITE_FAMILY_DRAWS = 1500
SUITE_IDEAL_DRAWS = 800
# (chain-count target, how many): criterion 2's cost grows with the square
# of the chain count, so the families nearest each target are kept
SUITE_FAMILY_QUOTA = ((10, 30), (40, 20), (100, 10))
# (variable counts, face-count target or None for the first drawn, how many):
# rational homology cost grows with the face count, at most 2^v, so the
# large ideals are many and alike rather than few and heavy-tailed
SUITE_IDEAL_QUOTA = (
    *(((v,), None, 2) for v in range(2, 8)),
    ((8,), 160, 2),
    ((9, 10), 450, 6),
)


def ideal_faces(ideal) -> int:
    """Subsets of the variables that contain no generator support."""
    subsets = np.arange(1 << ideal.n)
    covers = np.zeros(subsets.shape, dtype=bool)
    for g in ideal.gens:
        covers |= (subsets & g.mask) == g.mask
    return int((~covers).sum())


def _suite_inputs(seed: int):
    rng = random.Random(seed)
    pool = [
        (k, fam, count_chains(fam))
        for k, fam in enumerate(
            verification.random_family(rng, 4, 4) for _ in range(SUITE_FAMILY_DRAWS)
        )
    ]
    kept = []
    for target, how_many in SUITE_FAMILY_QUOTA:
        chosen = nearest(pool, lambda e: e[2], target, how_many)
        taken = {k for k, _, _ in chosen}
        pool = [e for e in pool if e[0] not in taken]
        kept += chosen
    families = [fam for _, fam, _ in sorted(kept, key=lambda e: e[0])]

    drawn = [verification.random_squarefree_ideal(rng) for _ in range(SUITE_IDEAL_DRAWS)]
    kept = []
    for sizes, target, how_many in SUITE_IDEAL_QUOTA:
        pool = [(k, ideal) for k, ideal in enumerate(drawn) if ideal.n in sizes]
        faces = {} if target is None else {k: ideal_faces(ideal) for k, ideal in pool}
        kept += nearest(pool, lambda e: faces[e[0]], target, how_many)
    ideals = [ideal for _, ideal in sorted(kept, key=lambda e: e[0])]
    return families, ideals


class SuiteReport:
    """Collects one pass's CriterionResults; the report text is compared
    across passes, each of which ran on inputs regenerated from the seed."""

    def __init__(self):
        self.results = []

    def text(self) -> str:
        # elapsed is zeroed so a budget overrun (SLOW) never enters the text
        stable = [dataclasses.replace(res, elapsed=0.0) for res in self.results]
        return verification.format_results(stable)


def _criterion(report: SuiteReport, number: int, call) -> list:
    start = time.perf_counter()
    passed, detail = call()
    elapsed = time.perf_counter() - start
    report.results.append(
        verification.CriterionResult(
            number,
            verification.NAMES[number],
            passed,
            detail,
            elapsed,
            verification.BUDGETS[number],
        )
    )
    return [] if passed else [f"criterion {number} failed: {detail}"]


def build_paper_suite(seed: int):
    families, ideals = _suite_inputs(seed)
    report = SuiteReport()
    calls = {
        1: lambda: verification.criterion_1_sample_reproduction(),
        2: lambda: verification.criterion_2_linear_quotients(families),
        3: lambda: verification.criterion_3_dual_oracles(families),
        4: lambda: verification.criterion_4_composite_relation(),
        5: lambda: verification.criterion_5_cohen_macaulay(seed),
        6: lambda: verification.criterion_6_edge_counts(),
        7: lambda: verification.criterion_7_resolution_certificates(),
        8: lambda: verification.criterion_8_structural_identities(families, ideals),
    }
    items = [
        Item(f"criterion {k}", lambda k=k, call=call: _criterion(report, k, call))
        for k, call in calls.items()
    ]
    keys = [_family_key(f) for f in families] + [(i.n, i.masks()) for i in ideals]
    return items, keys, report


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    items: list
    digest: str
    report: SuiteReport | None = None


def _digest(keys) -> str:
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def build(workload: str, seed: int) -> Inputs:
    report = None
    if workload == "paper-suite":
        items, keys, report = build_paper_suite(seed)
    elif workload == "chain-grid":
        items, keys = build_chain_grid(seed)
    elif workload == "cm-gf2":
        items, keys = build_cm(seed, cmgraphs.GF2)
    elif workload == "cm-gfp":
        items, keys = build_cm(seed, cmgraphs.gfp(3))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for k, item in enumerate(items):
        item.label = f"{k:02d} {item.label}"
    return Inputs(items, _digest(keys), report)


WORKLOADS = ("paper-suite", "chain-grid", "cm-gf2", "cm-gfp")
