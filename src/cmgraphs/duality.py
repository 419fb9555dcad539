"""Simplicial complexes, squarefree-ideal dictionaries, and Alexander duals.

Complexes are stored as facet bitmasks over an explicit vertex tuple.  The
vertex universe is always passed explicitly: inferring it from variable
occurrences silently changes duals.

Two dual computations are provided.  The brute-force path goes through the
complex of an ideal and takes complements of facets; the fast path emits the
quadratic generators read off a relation family directly.  The two must
agree on every family; that equality is the core verification target of the
whole package.

Lattice conventions: the void complex (no faces at all) has facets == (),
the empty complex {∅} has facets == (0,).  They are distinct and both
legal.  Duality swaps the full simplex and the void complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, SizeBudgetError, UnitIdealError
from .monomials import Monomial, MonomialIdeal, minimalize, sort_gens
from .posets import RelationFamily, reach_pairs

DEFAULT_VERTEX_BUDGET = 24


# ---------------------------------------------------------------------------
# subset-lattice primitives: the 2^b masks over b vertex bits, packed 64 to a
# np.uint64 word.  Mask m is bit m & 63 of word m >> 6, so a lattice of
# b >= 6 bits takes 2^(b-6) words and a smaller one a single word whose bits
# from 2^b up stay clear.  No other module reads the format: the lattice
# serves complex_of_ideal and alexander_dual_complex alone.
# ---------------------------------------------------------------------------

_WORD_BITS = 6
# _LOW[k]: the bit positions p of a word with bit k of p clear
_LOW = tuple(
    np.uint64(c)
    for c in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
)


def _pack(masks, bits: int) -> np.ndarray:
    """The lattice of `bits` vertex bits with the given masks marked."""
    words = np.zeros(1 << max(bits - _WORD_BITS, 0), dtype=np.uint64)
    idx = np.fromiter(masks, dtype=np.int64)
    bit = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
    np.bitwise_or.at(words, idx >> _WORD_BITS, bit)
    return words


def _octets(words: np.ndarray) -> np.ndarray:
    """The words as bytes, masks 8i..8i+7 in byte i."""
    return words.astype("<u8", copy=False).view(np.uint8)


def _marked(words: np.ndarray) -> np.ndarray:
    """The marked masks, ascending, as int64."""
    octets = _octets(words)
    at = np.flatnonzero(octets)
    row, col = np.nonzero(np.unpackbits(octets[at], bitorder="little").reshape(-1, 8))
    return (at[row] << 3) | col


def _complement(words: np.ndarray, bits: int) -> np.ndarray:
    out = ~words
    if bits < _WORD_BITS:
        out &= np.uint64((1 << (1 << bits)) - 1)
    return out


def _or_across(dst: np.ndarray, src: np.ndarray, k: int, down: bool) -> None:
    """dst[m] |= src[m ^ 1<<k] for every mask m without bit k (down) or with it (up)."""
    if k < _WORD_BITS:
        s = 1 << k
        dst |= (src >> s) & _LOW[k] if down else (src & _LOW[k]) << s
        return
    dview = dst.reshape(-1, 2, 1 << (k - _WORD_BITS))
    sview = src.reshape(-1, 2, 1 << (k - _WORD_BITS))
    if down:
        dview[:, 0, :] |= sview[:, 1, :]
    else:
        dview[:, 1, :] |= sview[:, 0, :]


def subset_closure(words: np.ndarray, bits: int) -> np.ndarray:
    """Mark every subset of a marked mask (closure includes the mask itself)."""
    out = words.copy()
    for k in range(bits):
        _or_across(out, out, k, down=True)
    return out


def superset_closure(words: np.ndarray, bits: int) -> np.ndarray:
    """Mark every superset of a marked mask."""
    out = words.copy()
    for k in range(bits):
        _or_across(out, out, k, down=False)
    return out


def maximal_true(words: np.ndarray, bits: int) -> list[int]:
    """Masks that are marked and have no marked strict superset, ascending."""
    # dominated[m] = some strict superset of m is marked
    dominated = np.zeros_like(words)
    for k in range(bits):
        _or_across(dominated, words | dominated, k, down=True)
    return _marked(words & ~dominated).tolist()


def minimal_true(words: np.ndarray, bits: int) -> list[int]:
    """Masks that are marked and have no marked strict subset, ascending."""
    dominated = np.zeros_like(words)
    for k in range(bits):
        _or_across(dominated, words | dominated, k, down=False)
    return _marked(words & ~dominated).tolist()


def vertex_label_str(label) -> str:
    if isinstance(label, tuple) and len(label) == 2:
        return f"X[{label[0]},{label[1]}]"
    return str(label)


def _face_str(vertices, mask: int) -> str:
    names = [vertex_label_str(vertices[k]) for k in range(len(vertices)) if mask >> k & 1]
    return "{" + ",".join(names) + "}"


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list over an explicit vertex tuple; faces are subsets of facets.

    Facets are an inclusion-antichain, sorted by (size, bitmask).  Vertices
    not covered by any facet are allowed: the complex of an ideal with a
    degree-1 generator legitimately omits that vertex from every face.
    """

    vertices: tuple
    facets: tuple[int, ...]

    def __post_init__(self):
        full = (1 << len(self.vertices)) - 1
        for f in self.facets:
            if f < 0 or f & ~full:
                raise RangeError(f"facet {f:#x} out of vertex range")
        if len(set(self.facets)) < len(self.facets):
            raise RangeError("a facet is listed twice")
        # distinct facets of one size are never nested, so compare each
        # size group only against the larger facets
        by_size: dict[int, list[int]] = {}
        for f in self.facets:
            by_size.setdefault(f.bit_count(), []).append(f)
        larger: list[int] = []
        for size in sorted(by_size, reverse=True):
            group = by_size[size]
            if larger and any(f & ~g == 0 for f in group for g in larger):
                raise RangeError("facets must form an inclusion antichain")
            larger += group

    @classmethod
    def make(cls, vertices, face_masks) -> SimplicialComplex:
        """Normalize: dedupe, drop non-maximal faces, sort canonically."""
        masks = sorted(set(face_masks), key=lambda m: -m.bit_count())
        kept: list[int] = []
        for m in masks:
            if not any(m & ~k == 0 for k in kept):
                kept.append(m)
        kept.sort(key=lambda m: (m.bit_count(), m))
        return cls(tuple(vertices), tuple(kept))

    def is_void(self) -> bool:
        """No faces at all, not even the empty face."""
        return not self.facets

    def is_irrelevant(self) -> bool:
        """The complex {∅}: the empty face is the only face."""
        return self.facets == (0,)

    def dim(self) -> int:
        if self.is_void():
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def contains_face(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.facets)

    def vertex_index(self, label) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise RangeError(f"unknown vertex {label!r}") from None

    def facet_sets(self) -> list[tuple]:
        """Facets as tuples of vertex labels."""
        return [
            tuple(v for k, v in enumerate(self.vertices) if f >> k & 1)
            for f in self.facets
        ]

    def __str__(self) -> str:
        if self.is_void():
            return "void complex"
        body = ", ".join(_face_str(self.vertices, f) for f in self.facets)
        return f"<{body}>"


def grid_vertices(r: int, n: int) -> tuple:
    """The full variable grid as (level, index) labels, canonical order."""
    return tuple((a, i) for a in range(1, r + 1) for i in range(1, n + 1))


def _gen_masks_over(ideal: MonomialIdeal, vertices) -> list[int]:
    pos = {v: k for k, v in enumerate(vertices)}
    masks = []
    for g in ideal.gens:
        m = 0
        for var in g.variables():
            if var not in pos:
                raise RangeError(
                    f"generator variable {vertex_label_str(var)} is outside the vertex set"
                )
            m |= 1 << pos[var]
        masks.append(m)
    return masks


def _check_vertex_budget(count: int) -> None:
    if count > DEFAULT_VERTEX_BUDGET:
        raise SizeBudgetError(
            f"{count} vertices exceed the subset-lattice budget of {DEFAULT_VERTEX_BUDGET}"
        )


def complex_of_ideal(ideal: MonomialIdeal, vertices) -> SimplicialComplex:
    """The complex whose faces are the subsets containing no generator support.

    Inverse of the squarefree-ideal dictionary: the minimal nonfaces of the
    result are exactly the supports of the minimal generators.
    """
    vertices = tuple(vertices)
    if ideal.is_unit():
        raise UnitIdealError("the unit ideal corresponds to no complex")
    _check_vertex_budget(len(vertices))
    nv = len(vertices)
    nonfaces = superset_closure(_pack(_gen_masks_over(ideal, vertices), nv), nv)
    faces = _complement(nonfaces, nv)
    return SimplicialComplex(vertices, tuple(maximal_true(faces, nv)))


def alexander_dual_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """Complements of the nonfaces, i.e. facets = complements of minimal nonfaces.

    The full simplex has no nonfaces; its dual is the void complex, and
    dually the void complex maps back to the full simplex.
    """
    _check_vertex_budget(len(cx.vertices))
    nv = len(cx.vertices)
    full = (1 << nv) - 1
    nonfaces = _complement(subset_closure(_pack(cx.facets, nv), nv), nv)
    if not nonfaces.any():
        return SimplicialComplex(cx.vertices, ())
    dual_facets = [full ^ m for m in minimal_true(nonfaces, nv)]
    dual_facets.sort(key=lambda m: (m.bit_count(), m))
    return SimplicialComplex(cx.vertices, tuple(dual_facets))


def dual_ideal_bruteforce(ideal: MonomialIdeal, vertices) -> MonomialIdeal:
    """Alexander dual by the complement-of-facets rule.

    Generators are the products of the vertices missing from each facet of
    the ideal's complex.  The zero ideal dualizes to the unit ideal (its
    complex is the full simplex, whose lone facet has empty complement).
    """
    vertices = tuple(vertices)
    cx = complex_of_ideal(ideal, vertices)
    full = (1 << len(vertices)) - 1
    gens = []
    for f in cx.facets:
        comp = full ^ f
        variables = [vertices[k] for k in range(len(vertices)) if comp >> k & 1]
        gens.append(Monomial.from_variables(ideal.r, ideal.n, variables))
    return minimalize(gens, r=ideal.r, n=ideal.n)


def dual_hr_fast(family: RelationFamily) -> MonomialIdeal:
    """The quadratic dual of the family's chain ideal, read off directly.

    Generators are X[s,i]*X[t,j] over all 1 <= s < t <= r and all pairs with
    p_i below p_j through levels s..t-1.  Every generator has degree 2 and
    they are pairwise distinct, so the list is minimal as built.
    """
    n, r = family.n, family.r
    gens = [
        Monomial.from_variables(r, n, [(s, i), (t, j)])
        for s, t, i, j in reach_pairs(family)
    ]
    return MonomialIdeal(r, n, sort_gens(gens))
