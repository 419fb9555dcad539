"""Multipartite graphs on the variable grid and the hypothesis checkers.

Vertices are the full grid X[a,i], a in [r], i in [n]; parts are the levels.
Edges join distinct levels only.  Checkers return ConditionReport values
whose failed conditions always carry at least one concrete witness; golden
tests assert witness content, not just booleans.

A graph is given by its edge set of label pairs, which it keeps for
printing and files, and answers every adjacency question from one cached
tuple of neighbourhood masks in the slot layout of the monomials: bit
slot(b, j) of nbr[slot(a, i)] is set iff X[a,i] -- X[b,j] is an edge.  The
edge ideal's generators are read off it as masks, and the checkers read a
vertex's neighbours on one level as an n-bit row of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .duality import SimplicialComplex, complex_of_ideal, grid_vertices
from .errors import (
    InternalMismatchError,
    OverflowInputError,
    ParseError,
    PartsError,
    RangeError,
)
from .monomials import MonomialIdeal, slot
from .posets import (
    RelationFamily,
    _union_of_rows,
    composite_relation,
    members,
    reach_pairs,
    read_json,
)

Vertex = tuple  # (level, index), 1-based
Edge = tuple  # ((a,i),(b,j)) with (a,i) < (b,j) and a != b


def _canonical_edge(u: Vertex, v: Vertex) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class MultipartiteGraph:
    """Simple graph on the r x n grid with no edges inside a level."""

    r: int
    n: int
    edges: frozenset

    def __post_init__(self):
        # sizes and coordinates index bit masks: a bool or a float is refused
        r, n = self.r, self.n
        if type(r) is not int or type(n) is not int:
            raise RangeError(f"r and n must be integers, got r={r!r}, n={n!r}")
        if r < 2 or n < 1:
            raise RangeError(f"need r >= 2 and n >= 1, got r={r}, n={n}")
        for e in self.edges:
            (a, i), (b, j) = e
            for lvl, idx in e:
                if not (type(lvl) is type(idx) is int and 1 <= lvl <= r and 1 <= idx <= n):
                    raise RangeError(f"vertex X[{lvl!r},{idx!r}] outside the grid")
            if a == b:
                raise PartsError(f"edge {edge_str(e)} joins two vertices of level {a}")
            if e != _canonical_edge(*e):
                raise RangeError(f"edge {e!r} is not in canonical vertex order")

    @classmethod
    def from_edges(cls, r: int, n: int, edges) -> MultipartiteGraph:
        return cls(r, n, frozenset(_canonical_edge(tuple(u), tuple(v)) for u, v in edges))

    @cached_property
    def nbr(self) -> tuple[int, ...]:
        """Neighbourhood masks in slot layout: bit slot(b, j) of nbr[slot(a, i)]
        is set iff X[a,i] -- X[b,j] is an edge.  Computed once per graph."""
        n = self.n
        nbr = [0] * (self.r * n)
        for (a, i), (b, j) in self.edges:
            u, v = slot(a, i, n), slot(b, j, n)
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)

    def has_edge(self, u, v) -> bool:
        (a, i), (b, j) = u, v
        r, n = self.r, self.n
        if not (1 <= a <= r and 1 <= b <= r and 1 <= i <= n and 1 <= j <= n):
            return False
        return bool(self.nbr[slot(a, i, n)] >> slot(b, j, n) & 1)

    def vertices(self) -> tuple:
        return grid_vertices(self.r, self.n)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def part_pair_edges(self, a: int, b: int) -> set[tuple[int, int]]:
        """Index pairs (i, j) with an edge from X[a,i] to X[b,j]."""
        if not (1 <= a <= self.r and 1 <= b <= self.r):
            raise PartsError(f"levels ({a},{b}) outside 1..{self.r}")
        return {(i, j) for i in range(1, self.n + 1) for j in members(_row(self, a, i, b))}


def _row(graph: MultipartiteGraph, a: int, i: int, b: int) -> int:
    """The neighbours of X[a,i] on level b, as a mask with bit j - 1 for X[b,j]."""
    n = graph.n
    return graph.nbr[slot(a, i, n)] >> (b - 1) * n & (1 << n) - 1


def edge_str(e: Edge) -> str:
    (a, i), (b, j) = e
    return f"{{X[{a},{i}],X[{b},{j}]}}"


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    passed: bool
    witnesses: tuple = ()
    detail: str = ""

    def __post_init__(self):
        # a failure with no witness is useless to a reader; forbid it
        if not self.passed and not self.witnesses:
            raise RangeError(f"failed condition {self.name!r} carries no witness")


@dataclass(frozen=True)
class ConditionReport:
    title: str
    conditions: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failing(self) -> list[ConditionVerdict]:
        return [c for c in self.conditions if not c.passed]

    def lines(self) -> list[str]:
        out = [f"{self.title}: {'pass' if self.passed else 'FAIL'}"]
        for c in self.conditions:
            mark = "ok  " if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            out.append(line)
            for w in c.witnesses if not c.passed else ():
                out.append(f"         witness: {w}")
        return out


@dataclass(frozen=True)
class HerzogHibiReport(ConditionReport):
    is_complete: bool


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def graph_of_family(family: RelationFamily) -> MultipartiteGraph:
    """Edges X[a,i] -- X[b,j] for a < b whenever p_i reaches p_j through levels a..b-1."""
    edges = frozenset(((a, i), (b, j)) for a, b, i, j in reach_pairs(family))
    return MultipartiteGraph(family.r, family.n, edges)


def edge_ideal(graph: MultipartiteGraph) -> MonomialIdeal:
    """X[a,i]*X[b,j] for every edge: each vertex's bit with each later neighbour's."""
    masks = []
    for u, row in enumerate(graph.nbr):
        row &= -2 << u  # the neighbours after u
        while row:
            low = row & -row
            masks.append(1 << u | low)
            row ^= low
    return MonomialIdeal(graph.r, graph.n, masks)


def independence_complex(graph: MultipartiteGraph) -> SimplicialComplex:
    """Faces are the independent vertex sets; facets the maximal ones.

    The complex records graph.nbr (see SimplicialComplex).  The edge ideal
    has only degree-2 generators, so its complex is the Bron-Kerbosch list
    of the maximal independent sets of G, every vertex in some facet, and
    the graph of the vertex pairs that share no facet is G again: the CM
    oracle walks the recorded masks rather than derive and list G a second
    time.
    """
    cx = complex_of_ideal(edge_ideal(graph), grid_vertices(graph.r, graph.n))
    object.__setattr__(cx, "_graph_nbr", graph.nbr)  # frozen, and not a field
    return cx


def _perfect_elimination_order(nbr) -> list[int] | None:
    """A perfect elimination order of the graph `nbr`, or None if it is not chordal.

    Maximum cardinality search visits the lowest unvisited vertex with the
    most visited neighbours; the graph is chordal iff the reversed visit order
    eliminates perfectly (Tarjan-Yannakakis 1984), checked as v is visited:
    with A its visited neighbours and u the last visited of A, A - u ⊆ N(u).
    """
    full = (1 << len(nbr)) - 1
    visits: list[int] = []
    visited = 0
    for _ in nbr:
        v = max(members(full & ~visited), key=lambda w: (nbr[w - 1] & visited).bit_count()) - 1
        earlier = nbr[v] & visited
        if earlier:
            u = next(w for w in reversed(visits) if earlier >> w & 1)
            if earlier & ~nbr[u] & ~(1 << u):
                return None
        visited |= 1 << v
        visits.append(v)
    return visits[::-1]


def _complement(nbr) -> list[int]:
    """Neighbourhood masks of the complement graph; a row may hold its own bit."""
    full = (1 << len(nbr)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(nbr)]


def complement_is_chordal(graph: MultipartiteGraph) -> bool:
    """Chordality of the complement over the FULL grid, intra-level pairs included."""
    return _perfect_elimination_order(_complement(graph.nbr)) is not None


def edge_count_expected(n: int, r: int) -> int:
    """Edge count of the fully complete construction, with the closed form checked."""
    if type(n) is not int or type(r) is not int or n < 1 or r < 2:
        raise RangeError(f"need integers n >= 1 and r >= 2, got n={n!r}, r={r!r}")
    if (r - 1) * n > 10**6:
        raise OverflowInputError(f"grid of {(r - 1) * n} vertices is beyond any desk scale")
    count = n * n * comb(r - 1, 2) + (r - 1) * comb(n + 1, 2)
    if count != comb((r - 1) * n + 1, 2):
        raise InternalMismatchError(
            f"edge count {count} != C({(r - 1) * n + 1}, 2) for n={n}, r={r}"
        )
    return count


def build_complete_multipartite(n: int, r: int, slices=None) -> MultipartiteGraph:
    """Graph with parts 1..r-1 pairwise complete and chosen (part, last-part) slices.

    slices[a-1] is the set of index pairs (i, j) wired between level a and
    level r; None means the full staircase {(i, j) : i <= j} for every part.
    """
    if type(n) is not int or type(r) is not int or n < 1 or r < 2:
        raise RangeError(f"need integers n >= 1 and r >= 2, got n={n!r}, r={r!r}")
    if slices is None:
        slices = [
            {(i, j) for i in range(1, n + 1) for j in range(i, n + 1)}
            for _ in range(r - 1)
        ]
    if len(slices) != r - 1:
        raise RangeError(f"expected {r - 1} slices, got {len(slices)}")
    edges = set()
    for a in range(1, r):
        for b in range(a + 1, r):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    edges.add(((a, i), (b, j)))
    for a in range(1, r):
        for i, j in slices[a - 1]:
            if not (1 <= i <= n and 1 <= j <= n):
                raise RangeError(f"slice pair ({i},{j}) outside 1..{n}")
            edges.add(((a, i), (r, j)))
    return MultipartiteGraph(r, n, frozenset(edges))


def cycle_graph(length: int) -> MultipartiteGraph:
    """The cycle on `length` vertices as a graph with one vertex per level."""
    if length < 3:
        raise RangeError(f"a cycle needs at least 3 vertices, got {length}")
    edges = {((a, 1), (a + 1, 1)) for a in range(1, length)}
    edges.add(((1, 1), (length, 1)))
    return MultipartiteGraph(length, 1, frozenset(edges))


# ---------------------------------------------------------------------------
# hypothesis checkers
# ---------------------------------------------------------------------------


def check_family_conditions(family: RelationFamily) -> ConditionReport:
    """Is the family a valid source of a Cohen-Macaulay construction.

    (i) every level relation is an index-monotone partial order, (ii) every
    composite relation is index-monotone, (iii) composite membership is
    equivalent to an explicit level-by-level chain, re-derived by forward
    and backward reachability sweeps independent of the composition code.
    """
    level_witnesses = []
    for a in range(1, family.r):
        rel = family.level(a)
        if not rel.is_reflexive():
            missing = next(
                i for i in range(1, rel.n + 1) if not rel.holds(i, i)
            )
            level_witnesses.append(("level", a, "not-reflexive", (missing,)))
        w = rel.antisymmetry_witness()
        if w is not None:
            level_witnesses.append(("level", a, "not-antisymmetric", w))
        w = rel.transitivity_witness()
        if w is not None:
            level_witnesses.append(("level", a, "not-transitive", w))
        w = rel.monotonicity_witness()
        if w is not None:
            level_witnesses.append(("level", a, "not-index-monotone", w))
    cond1 = ConditionVerdict(
        "each level relation is an index-monotone partial order",
        not level_witnesses,
        tuple(level_witnesses),
    )

    comp_witnesses = []
    chain_witnesses = []
    n = family.n
    # independent re-derivation of reachability, both directions: one
    # forward sweep per (a, i) and one backward sweep per (b, j) serve
    # every window
    levels = range(1, family.r)
    fwd = {(a, i): _forward_reach(family, a, i) for a in levels for i in range(1, n + 1)}
    bwd = {(b, j): _backward_reach(family, b, j) for b in levels for j in range(1, n + 1)}
    for a in levels:
        for b in range(a, family.r):
            rel = composite_relation(family, a, b).rel
            w = rel.monotonicity_witness()
            if w is not None:
                comp_witnesses.append(("window", a, b, "not-index-monotone", w))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    via_comp = rel.holds(i, j)
                    via_fwd = j in fwd[a, i][b - a]
                    via_bwd = i in bwd[b, j][a - 1]
                    if not (via_comp == via_fwd == via_bwd):
                        chain_witnesses.append(
                            ("window", a, b, "pair", (i, j), via_comp, via_fwd, via_bwd)
                        )
    cond2 = ConditionVerdict(
        "every composite relation is index-monotone",
        not comp_witnesses,
        tuple(comp_witnesses),
    )
    cond3 = ConditionVerdict(
        "composite membership matches explicit level chains both ways",
        not chain_witnesses,
        tuple(chain_witnesses),
    )
    return ConditionReport(
        "family conditions", (cond1, cond2, cond3)
    )


def _forward_reach(family: RelationFamily, a: int, i: int) -> list[set[int]]:
    """Elements reachable from p_i via one hop per level a..b, for b = a..r-1.

    Entry b - a is the frontier after level b.
    """
    frontier = {i}
    frontiers = []
    for rel in family.levels[a - 1 :]:
        frontier = {
            j
            for j in range(1, family.n + 1)
            if any(rel.holds(s, j) for s in frontier)
        }
        frontiers.append(frontier)
    return frontiers


def _backward_reach(family: RelationFamily, b: int, j: int) -> list[set[int]]:
    """Elements that reach p_j via one hop per level a..b, for a = 1..b.

    Entry a - 1 is the frontier after level a.
    """
    frontier = {j}
    frontiers = []
    for rel in reversed(family.levels[:b]):
        frontier = {
            i
            for i in range(1, family.n + 1)
            if any(rel.holds(i, t) for t in frontier)
        }
        frontiers.append(frontier)
    return frontiers[::-1]


def check_theorem1(graph: MultipartiteGraph) -> ConditionReport:
    """The four edge-pattern conditions characterizing family-built graphs.

    (i) all same-index pairs across levels are edges, (ii) every edge has
    non-decreasing indices, (iii) an edge between levels a < b exists iff a
    path through consecutive levels a, a+1, ..., b does, (iv) consecutive
    levels compose transitively.
    """
    r, n = graph.r, graph.n
    missing_diag = tuple(
        (a, b, i)
        for a in range(1, r)
        for b in range(a + 1, r + 1)
        for i in range(1, n + 1)
        if not _row(graph, a, i, b) >> (i - 1) & 1
    )
    cond1 = ConditionVerdict(
        "same-index vertices are adjacent across all level pairs",
        not missing_diag,
        missing_diag,
    )

    bad_order = tuple(
        e for e in graph.sorted_edges() if e[0][1] > e[1][1]
    )
    cond2 = ConditionVerdict(
        "every edge has non-decreasing element index",
        not bad_order,
        bad_order,
    )

    # cons[a-1][i-1] = bitmask of j with an edge X[a,i] -- X[a+1,j]
    cons = [[_row(graph, a, i, a + 1) for i in range(1, n + 1)] for a in range(1, r)]
    path_witnesses = []
    for a in range(1, r):
        # reach[i-1] = bitmask of j reachable from X[a,i] at the current level
        reach = [1 << i for i in range(n)]
        for b in range(a + 1, r + 1):
            step = cons[b - 2]
            reach = [_union_of_rows(step, src) for src in reach]
            for i in range(1, n + 1):
                path = reach[i - 1]
                for j in members(path ^ _row(graph, a, i, b)):
                    kind = "path-without-edge" if path >> (j - 1) & 1 else "edge-without-path"
                    path_witnesses.append((kind, a, i, b, j))
    cond3 = ConditionVerdict(
        "edges match consecutive-level paths exactly",
        not path_witnesses,
        tuple(path_witnesses),
    )

    trans_witnesses = tuple(
        (a, i, j, k)
        for a, rows in enumerate(cons, start=1)
        for i in range(1, n + 1)
        for j in members(rows[i - 1])
        for k in members(rows[j - 1] & ~rows[i - 1])
    )
    cond4 = ConditionVerdict(
        "consecutive levels compose transitively",
        not trans_witnesses,
        trans_witnesses,
    )
    return ConditionReport(
        "first structure theorem", (cond1, cond2, cond3, cond4)
    )


def herzog_hibi_conditions(m: int, n: int, pairs) -> HerzogHibiReport:
    """The bipartite poset-pattern conditions on an (m, n) index-pair set.

    pairs lists (i, j) meaning side-one vertex i is wired to side-two vertex
    j.  is_complete records whether every staircase pair i <= j is present.
    """
    pairs = set(pairs)
    cond1 = ConditionVerdict(
        "both sides have the same number of vertices",
        m == n,
        () if m == n else ((m, n),),
    )
    k = min(m, n)
    missing_diag = tuple((i, i) for i in range(1, k + 1) if (i, i) not in pairs)
    cond2 = ConditionVerdict(
        "every same-index pair is wired",
        not missing_diag,
        missing_diag,
    )
    bad = tuple(sorted(p for p in pairs if p[0] > p[1]))
    cond3 = ConditionVerdict(
        "wired pairs have non-decreasing index",
        not bad,
        bad,
    )
    trans = tuple(
        (i, j, kk)
        for (i, j) in sorted(pairs)
        for (j2, kk) in sorted(pairs)
        if j == j2 and (i, kk) not in pairs
    )
    cond4 = ConditionVerdict(
        "wiring composes transitively",
        not trans,
        trans,
    )
    complete = m == n and all(
        (i, j) in pairs for i in range(1, k + 1) for j in range(i, k + 1)
    )
    return HerzogHibiReport(
        "bipartite poset pattern", (cond1, cond2, cond3, cond4), complete
    )


def check_herzog_hibi(graph: MultipartiteGraph, a: int, b: int) -> HerzogHibiReport:
    """Run the bipartite pattern conditions on the (level a, level b) slice."""
    pairs = graph.part_pair_edges(a, b)  # levels outside the graph raise here
    if a == b:
        raise PartsError(f"need two distinct levels, got ({a},{b})")
    return herzog_hibi_conditions(graph.n, graph.n, pairs)


def check_theorem2(graph: MultipartiteGraph) -> ConditionReport:
    """The complete-plus-staircase pattern of the second structure theorem.

    (i) uniform part sizes, (ii) all level pairs below the last are complete
    bipartite, (iii) every (level, last level) slice satisfies the bipartite
    poset pattern.
    """
    r, n = graph.r, graph.n
    cond1 = ConditionVerdict("all parts have size n", True, (), f"n={n}")
    missing = tuple(
        ((a, i), (b, j))
        for a in range(1, r)
        for b in range(a + 1, r)
        for i in range(1, n + 1)
        for j in members(~_row(graph, a, i, b) & (1 << n) - 1)
    )
    cond2 = ConditionVerdict(
        "levels below the last are pairwise complete bipartite",
        not missing,
        missing,
    )
    hh_witnesses = []
    for a in range(1, r):
        sub = check_herzog_hibi(graph, a, r)
        for c in sub.failing():
            hh_witnesses.append((("slice", a, r), c.name, c.witnesses))
    cond3 = ConditionVerdict(
        "every slice to the last level fits the bipartite poset pattern",
        not hh_witnesses,
        tuple(hh_witnesses),
    )
    return ConditionReport(
        "second structure theorem", (cond1, cond2, cond3)
    )


# ---------------------------------------------------------------------------
# graph file I/O and DOT export
# ---------------------------------------------------------------------------


def graph_from_dict(doc) -> MultipartiteGraph:
    if not isinstance(doc, dict):
        raise ParseError("graph document must be an object")
    try:
        r, n, edges = doc["r"], doc["n"], doc["edges"]
    except KeyError as exc:
        raise ParseError(f"graph document missing key {exc}") from None
    # JSON gives floats, strings and booleans too; bool is a subclass of int
    if type(r) is not int or type(n) is not int:
        raise ParseError(f"'r' and 'n' must be integers, got r={r!r}, n={n!r}")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list")
    parsed = set()
    for e in edges:
        try:
            (a, i), (b, j) = e
        except (TypeError, ValueError):
            raise ParseError(f"malformed edge {e!r}") from None
        if any(type(x) is not int for x in (a, i, b, j)):
            raise ParseError(f"edge {e!r} has a coordinate that is not an integer")
        parsed.add(_canonical_edge((a, i), (b, j)))
    try:
        return MultipartiteGraph(r, n, frozenset(parsed))
    except (RangeError, PartsError) as exc:
        raise ParseError(f"invalid graph: {exc.message}") from None


def graph_to_dict(graph: MultipartiteGraph) -> dict:
    return {
        "r": graph.r,
        "n": graph.n,
        "edges": [[list(u), list(v)] for u, v in graph.sorted_edges()],
    }


def load_graph(path) -> MultipartiteGraph:
    return graph_from_dict(read_json(path))


def graph_to_dot(graph: MultipartiteGraph) -> str:
    lines = ["graph {"]
    for a in range(1, graph.r + 1):
        names = "; ".join(f"X_{a}_{i}" for i in range(1, graph.n + 1))
        lines.append(f"  {{ rank=same; {names}; }}")
    for (a, i), (b, j) in graph.sorted_edges():
        lines.append(f"  X_{a}_{i} -- X_{b}_{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
