"""Shared fixtures: temp-file writers and the canonical worked example.

The worked example used throughout the suite is the n=3, r=3 family whose
level-1 relation is generated by p2 <= p3 and whose level-2 relation is
generated by p1 <= p2.  Every golden constant in the tests below was frozen
from an independent hand computation on this family.
"""

import json
from itertools import combinations

import pytest

from cmgraphs import Monomial, MonomialIdeal, Relation, RelationFamily, SimplicialComplex
from cmgraphs.graphs import graph_to_dict
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
    return any(g.divides(mono) for g in ideal.gens)


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
