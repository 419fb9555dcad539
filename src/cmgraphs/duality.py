"""Simplicial complexes, squarefree-ideal dictionaries, and Alexander duals.

Complexes are stored as facet bitmasks over an explicit vertex tuple.  The
complex of an ideal lives on the whole variable grid of the ideal's ring,
`grid_vertices(r, n)`: bit k of a monomial's mask is the k-th grid label, so
generator masks serve as faces as they are.  Callers still pass the grid,
and any other vertex tuple is refused; inferring the vertices from the
variables that occur would silently change duals.

Two dual computations are provided.  The brute-force path goes through the
complex of an ideal and takes complements of facets; the fast path emits the
quadratic generators read off a relation family directly.  The two must
agree on every family; that equality is the core verification target of the
whole package.

Two pure-Python kernels list facets, so neither has a vertex limit, only a
work budget.  The complex of an ideal generated in degree <= 2, such as the
edge ideal of a graph, comes from a Bron-Kerbosch kernel: its facets are
the maximal independent sets.  The complex of any other ideal, and the
Alexander dual of every complex, come from Berge's minimal-transversal
kernel.

Lattice conventions: the void complex (no faces at all) has facets == (),
the empty complex {∅} has facets == (0,).  They are distinct and both
legal.  Duality swaps the full simplex and the void complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError, SizeBudgetError, UnitIdealError
from .monomials import MonomialIdeal, minimalize, slot
from .posets import RelationFamily, _transpose, reach_pairs

# ---------------------------------------------------------------------------
# minimal transversals: the kernel behind alexander_dual_complex, and behind
# complex_of_ideal for ideals with a generator of degree >= 3.  A squarefree
# ideal's complex has as facets the complements of the minimal transversals
# of the generator supports, and a complex's Alexander dual those of the
# facet complements (Berge, Hypergraphs, 1989).  The work is bounded by
# TRANSVERSAL_BUDGET, which counts pair tests plus transversals made and so
# bounds time and memory alike.
# ---------------------------------------------------------------------------

TRANSVERSAL_BUDGET = 1 << 24


def _minimal_transversals(sets) -> list[int]:
    """The minimal masks that meet every given mask, by Berge's algorithm.

    The sets are added one at a time.  A transversal t that misses the next
    set e is replaced by t | v for each vertex v of e, except where some
    transversal h that meets e has h & ~t == v (then h lies inside t | v).
    Grown sets never contain each other or a kept one, so the result is an
    antichain as built.  No sets give [0]; a family containing 0 gives [].
    """
    trans = [0]
    work = 0
    for e in sorted(set(sets), key=lambda m: (m.bit_count(), -m)):
        hit: list[int] = []
        missed: list[int] = []
        for t in trans:
            (hit if t & e else missed).append(t)
        grown: list[int] = []
        for t in missed:
            blocked, outside = 0, ~t
            for h in hit:
                d = h & outside
                if d & (d - 1) == 0:
                    blocked |= d
            rest = e & ~blocked
            work += len(hit) + rest.bit_count()
            if work > TRANSVERSAL_BUDGET:
                raise SizeBudgetError(
                    f"minimal transversals exceed the budget of {TRANSVERSAL_BUDGET} steps"
                )
            while rest:
                v = rest & -rest
                grown.append(t | v)
                rest ^= v
        trans = hit + grown
    return trans


# ---------------------------------------------------------------------------
# maximal independent sets: the kernel behind complex_of_ideal for ideals
# generated in degree <= 2.  Their complex is the independence complex of the
# graph of the degree-2 supports, less the vertices of the degree-1 ones, and
# its facets are the maximal independent sets.  Bron-Kerbosch (1973) with
# Tomita's pivot (Tomita-Tanaka-Takahashi 2006) lists them directly, where
# Berge's kernel grows every transversal set by set.  The work is bounded by
# INDEPENDENT_SET_BUDGET, which counts calls plus facets emitted.  At 2^20 a
# 60-vertex perfect matching, whose 2^30 facets no budget lets through, ends
# in under two seconds and 50 MB.
# ---------------------------------------------------------------------------

INDEPENDENT_SET_BUDGET = 1 << 20


def _maximal_independent_sets(masks, size: int) -> list[int]:
    """The maximal vertex masks over range(size) containing no given mask.

    Every mask has one or two bits: one bit removes that vertex, two bits
    are an edge.  A call holds an independent set R (`chosen`), the
    candidates P (`cand`) that extend it, and the vertices X (`done`) that
    extend it too but were branched on already, so no set found here that
    misses them is maximal.  It emits R when P and X are both empty.
    Otherwise it takes the pivot u in P | X whose closed neighbourhood holds
    the fewest candidates and branches only on those candidates: a maximal
    set that avoids all of them would contain a non-neighbour of u, or u
    itself.  After a branch on v, v moves from P to X.  The calls sit on an
    explicit stack, so deep sets do not reach the recursion limit.
    """
    closed = [1 << v for v in range(size)]
    cand = (1 << size) - 1
    for m in masks:
        low = m & -m
        if m == low:
            cand &= ~m
        else:
            high = m ^ low
            closed[low.bit_length() - 1] |= high
            closed[high.bit_length() - 1] |= low
    return _maximal_independent_subsets(closed, cand)


def _maximal_independent_subsets(closed: list[int], cand: int) -> list[int]:
    """The maximal independent sets of the graph induced on the vertex mask cand.

    closed[v] is the closed neighbourhood of vertex v, v's own bit included;
    bits outside cand are ignored.  This is the kernel of
    _maximal_independent_sets, under the same budget.
    """
    facets: list[int] = []
    work = 0
    stack = [(0, cand, 0)]
    while stack:
        chosen, cand, done = stack.pop()
        work += 1
        if not cand:
            if not done:
                facets.append(chosen)
                work += 1
        else:
            branch, fewest, pool = cand, cand.bit_count() + 1, cand | done
            while pool:
                u = pool & -pool
                pool ^= u
                hit = cand & closed[u.bit_length() - 1]
                count = hit.bit_count()
                if count < fewest:
                    branch, fewest = hit, count
                    if count <= 1:  # a candidate pivot hits at least itself
                        break
            while branch:
                v = branch & -branch
                branch ^= v
                near = closed[v.bit_length() - 1]
                stack.append((chosen | v, cand & ~near, done & ~near))
                cand ^= v
                done |= v
        if work > INDEPENDENT_SET_BUDGET:
            raise SizeBudgetError(
                f"maximal independent sets exceed the budget of {INDEPENDENT_SET_BUDGET} steps"
            )
    return facets


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list over an explicit vertex tuple; faces are subsets of facets.

    Facets are an inclusion-antichain, sorted by (size, bitmask).  Vertices
    not covered by any facet are allowed: the complex of an ideal with a
    degree-1 generator legitimately omits that vertex from every face.

    A complex built by `graphs.independence_complex` also records its graph
    G as neighbourhood masks, `_graph_nbr`, so the CM oracle walks G instead
    of deriving it again from the facets.  It is not a field: it takes no
    part in ==, hash or repr, and every complex made any other way reads the
    class default None.
    """

    vertices: tuple
    facets: tuple[int, ...]

    _graph_nbr = None  # not annotated, so not a dataclass field

    def __post_init__(self):
        full = (1 << len(self.vertices)) - 1
        for f in self.facets:
            if f < 0 or f & ~full:
                raise RangeError(f"facet {f:#x} out of vertex range")
        if len(set(self.facets)) < len(self.facets):
            raise RangeError("a facet is listed twice")
        # f lies inside another facet exactly when a larger one contains it.
        # With the facets at positions in descending size, those are the
        # positions below the first of f's size, and the ones containing f
        # are the AND of the columns of f's vertices.
        ordered = sorted(self.facets, key=int.bit_count, reverse=True)
        if ordered and ordered[-1].bit_count() < ordered[0].bit_count():
            cols = _transpose(len(self.vertices), ordered)
            start = 0
            for k, f in enumerate(ordered):
                if f.bit_count() < ordered[start].bit_count():
                    start = k
                above = (1 << start) - 1
                while f and above:
                    low = f & -f
                    f ^= low
                    above &= cols[low.bit_length() - 1]
                if above:
                    raise RangeError("facets must form an inclusion antichain")

    def is_void(self) -> bool:
        """No faces at all, not even the empty face."""
        return not self.facets

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


def grid_vertices(r: int, n: int) -> tuple:
    """The full variable grid as (level, index) labels, canonical order."""
    return tuple((a, i) for a in range(1, r + 1) for i in range(1, n + 1))


def complex_of_ideal(ideal: MonomialIdeal, vertices) -> SimplicialComplex:
    """The complex whose faces are the subsets containing no generator support.

    Inverse of the squarefree-ideal dictionary: the minimal nonfaces of the
    result are exactly the supports of the minimal generators, so its facets
    are the complements of their minimal transversals.  When every generator
    has degree <= 2 the facets are the maximal independent sets of the graph
    of the degree-2 supports, less the degree-1 vertices, and the
    Bron-Kerbosch kernel lists them; any generator of degree >= 3 sends the
    ideal to Berge's minimal-transversal kernel.  The vertices must be
    `grid_vertices(ideal.r, ideal.n)`, the layout of the generator masks;
    any other tuple raises RangeError.
    """
    vertices = tuple(vertices)
    if vertices != grid_vertices(ideal.r, ideal.n):
        raise RangeError(
            f"the vertices must be the variable grid of the ring r={ideal.r}, n={ideal.n}"
        )
    if ideal.is_unit():
        raise UnitIdealError("the unit ideal corresponds to no complex")
    masks = ideal.masks()
    if all(m.bit_count() <= 2 for m in masks):
        facets = _maximal_independent_sets(masks, len(vertices))
    else:
        full = (1 << len(vertices)) - 1
        facets = [full ^ t for t in _minimal_transversals(masks)]
    facets.sort(key=lambda m: (m.bit_count(), m))
    return SimplicialComplex(vertices, tuple(facets))


def alexander_dual_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """Complements of the nonfaces, i.e. facets = complements of minimal nonfaces.

    The minimal nonfaces are the minimal transversals of the facet
    complements.  The full simplex has no nonfaces; its dual is the void
    complex, and dually the void complex maps back to the full simplex.
    """
    full = (1 << len(cx.vertices)) - 1
    facets = [full ^ t for t in _minimal_transversals(full ^ f for f in cx.facets)]
    facets.sort(key=lambda m: (m.bit_count(), m))
    return SimplicialComplex(cx.vertices, tuple(facets))


def dual_ideal_bruteforce(ideal: MonomialIdeal, vertices) -> MonomialIdeal:
    """Alexander dual by the complement-of-facets rule.

    Generators are the products of the vertices missing from each facet of
    the ideal's complex; over the ideal's grid, which `complex_of_ideal`
    checks the vertices are, a facet's complement is the generator's mask.
    The zero ideal dualizes to the unit ideal (its complex is the full
    simplex, whose lone facet has empty complement).
    """
    cx = complex_of_ideal(ideal, vertices)
    full = (1 << len(cx.vertices)) - 1
    return minimalize([full ^ f for f in cx.facets], ideal.r, ideal.n)


def dual_hr_fast(family: RelationFamily) -> MonomialIdeal:
    """The quadratic dual of the family's chain ideal, read off directly.

    Generators are X[s,i]*X[t,j] over all 1 <= s < t <= r and all pairs with
    p_i below p_j through levels s..t-1.  Every generator has degree 2 and
    they are pairwise distinct, so the list is minimal as built.
    """
    n, r = family.n, family.r
    masks = [1 << slot(s, i, n) | 1 << slot(t, j, n) for s, t, i, j in reach_pairs(family)]
    return MonomialIdeal(r, n, masks)
