"""Shared fixtures: temp-file writers and the canonical worked example.

The worked example used throughout the suite is the n=3, r=3 family whose
level-1 relation is generated by p2 <= p3 and whose level-2 relation is
generated by p1 <= p2.  Every golden constant in the tests below was frozen
from an independent hand computation on this family.
"""

import json
from itertools import combinations

import pytest

from cmgraphs import (
    Monomial,
    MonomialIdeal,
    MultipartiteGraph,
    Relation,
    RelationFamily,
    SimplicialComplex,
)
from cmgraphs.graphs import graph_to_dict
from cmgraphs.monomials import slot
from cmgraphs.posets import family_to_dict


def make_sample_family() -> RelationFamily:
    return RelationFamily.from_pairs(3, 3, {1: [(2, 3)], 2: [(1, 2)]})


# Helpers the package itself never needs; the tests use them as oracles.


def make_complex(vertices, face_masks) -> SimplicialComplex:
    """The complex generated by some faces: dedupe, drop non-maximal faces,
    sort canonically."""
    masks = sorted(set(face_masks), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in masks:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    kept.sort(key=lambda m: (m.bit_count(), m))
    return SimplicialComplex(tuple(vertices), tuple(kept))


def is_irrelevant(cx: SimplicialComplex) -> bool:
    """The complex {∅}: the empty face is the only face."""
    return cx.facets == (0,)


def is_poset(rel: Relation) -> bool:
    return (
        rel.is_reflexive()
        and rel.antisymmetry_witness() is None
        and rel.transitivity_witness() is None
    )


def ideals_lattice_closed(ideals) -> bool:
    """Whether a collection of ideal bitmasks is closed under union and intersection."""
    pool = set(ideals)
    return all((x | y) in pool and (x & y) in pool for x, y in combinations(pool, 2))


def lcm(u: Monomial, v: Monomial) -> Monomial:
    assert (u.r, u.n) == (v.r, v.n)
    return Monomial(u.r, u.n, u.mask | v.mask)


def contains_monomial(ideal: MonomialIdeal, mono: Monomial) -> bool:
    return any(g & ~mono.mask == 0 for g in ideal.masks())


def mono(r: int, n: int, *variables) -> Monomial:
    """The monomial of some (level, index) variables, one bit per slot."""
    mask = 0
    for a, i in variables:
        mask |= 1 << slot(a, i, n)
    return Monomial(r, n, mask)


def graph_of_edges(r: int, n: int, edges) -> MultipartiteGraph:
    """The graph of some label-pair edges, each given in either vertex order."""
    pairs = (sorted((tuple(u), tuple(v))) for u, v in edges)
    return MultipartiteGraph(r, n, frozenset(tuple(pair) for pair in pairs))


def adjacent(graph: MultipartiteGraph, u, v) -> bool:
    """Whether grid vertices u and v are joined, read off the neighbourhood masks."""
    return bool(graph.nbr[slot(*u, graph.n)] >> slot(*v, graph.n) & 1)


def below(chain_j, chain_i) -> bool:
    """Whether chain_j lies strictly below chain_i under componentwise inclusion."""
    return chain_j != chain_i and all(a & ~b == 0 for a, b in zip(chain_j, chain_i))


@pytest.fixture
def sample():
    return make_sample_family()


@pytest.fixture
def write_json(tmp_path):
    """Write an arbitrary JSON payload and return its path as a string."""

    def _write(payload, name="input.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


@pytest.fixture
def family_file(tmp_path):
    def _write(family, name="family.json"):
        path = tmp_path / name
        path.write_text(json.dumps(family_to_dict(family)))
        return str(path)

    return _write


@pytest.fixture
def graph_file(tmp_path):
    def _write(graph, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(graph_to_dict(graph)))
        return str(path)

    return _write
