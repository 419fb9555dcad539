"""Reduced simplicial homology over a field and the depth criterion oracle.

Ranks are computed from boundary-matrix ranks with exact arithmetic, one
kernel per kind of field, each reducing a row against the pivot row of its
highest column.  GF(2) packs a row into an int bitset and eliminates by
XOR.  GF(p) packs a row into an int with one lane of a few bits per column
and eliminates with whole-row additions, each followed by a lane-wise
reduction mod p (see _rank_gfp).  Q holds a row as a dict of integer
entries and eliminates fraction-free, dividing by the gcd of the entries.
GF(2), the default field, keeps XOR rather than the lane kernel at p = 2:
over the benchmark's cm-gf2 graphs (seeds 31-33), the fastest of 40 passes
of CM checks, the two kernels taking turns, was 0.041-0.047 s by XOR
against 0.043-0.048 s through the lane kernel (+2-16 %) on a shared 2-CPU
host.  Floating point never enters.  The empty face lives at dimension -1
and the augmentation map is included, so the profile of a nonempty
connected complex starts with zeros.

Each kernel returns the leading columns of its pivot rows, and their number
is the rank.  The boundary maps are ranked from the top dimension down with
clearing (Chen-Kerber, "Persistent homology computation with a twist",
2011): a d-face that leads a pivot of the map out of dimension d + 1 gets
no row in the map out of dimension d.  A pivot is a combination of
boundaries, so a cycle, and the pivots' leading faces are distinct, so the
pivots together with the uncleared d-faces are a basis of the d-chains;
the map out of dimension d kills the pivots, so the uncleared rows span its
whole image and its rank is exact.

Faces are listed from the facets, each once as a child of its parent: the
parent of a face F is F less its lowest vertex.  No subset lattice is built,
so no vertex count bounds a complex; only the face budget does.

The Cohen-Macaulay verdict follows Reisner's local-homology criterion: a
complex is CM over the field iff for every face, every reduced homology rank
of its link vanishes strictly below the link's dimension.  Two walks apply
it, and is_cohen_macaulay picks one from the complex itself.

The graph walk (_cm_by_graph) runs on every flag complex that covers its
vertices: such a complex is Ind(G), G the graph of the vertex pairs that
share no facet.  An independence complex carries its G (SimplicialComplex
records it), and only a complex without one has G derived from its facets
(_flag_graph).  The link of a face F is Ind(G[V - N[F]]), so a link is
named by one vertex mask W and the walk is memoized on the distinct W, not
on faces.  Each step it takes is exact over every field.  A disconnected W
is a join of its components' complexes, and a join is CM exactly when every
factor is; an isolated vertex is such a component, so Ind(G[W]) is a cone
over it.  A connected W sheds a vertex v that some other u dominates,
N_W[u] ⊆ N_W[v]: Ind(G[W]) is CM of pure size s exactly when Ind(G[W - v])
is CM of size s and Ind(G[W - N[v]]) of size s - 1 (the proof is in the
_cm_by_graph docstring; a shedding vertex in Woodroofe's sense, 2009).  A W
with no dominated vertex is decided by its vertex links: since the links of
nonempty faces are links in vertex links, the complex is CM iff every
vertex link is CM and the complex itself has no homology below its
dimension; CM complexes are pure, so vertex links of different dimensions
end the walk at once.  That homology is taken only after Engström's fold
lemma (2009) has removed every v with N(u) ⊆ N(v) for some other u, which
keeps the homotopy type; a folded graph with an isolated vertex is a cone,
so acyclic, and one that splits gets the ranks of a join from its
components by the Künneth formula.  Only the fold-free components reach a
boundary rank, through the same face lists and clearing as
reduced_homology, so the face budget and the negative-rank guard hold there
too.  Shedding and joins alone decide the paper's constructions and the
r = n = 7 family graph of the test data (49 vertices, 15549 facets), with
no boundary rank; C5, CM with no dominated vertex, reaches the homology.

The face walk (_cm_by_faces) takes every other complex: non-flag ones, {∅},
and those with a vertex in no facet.  It also gives the witness of every
negative verdict, the least offending face by labels, so both routes report
the same witness.  It first takes off the cone points, the vertices every
facet holds: a face that misses one has a cone for a link, so the walk runs
on the link of all of them, and each witness found there is mapped back by
adding them.  It enumerates that link's faces once and walks them level
by level along the parent relation: with v the lowest vertex of F,
the link of F is read off the parent's link as the facets (and faces) that
contain v, with v removed.  No link is found by scanning the facets of the
complex, and no link's face lattice is enumerated again: a link's faces are
derived only when its facet set is new to the memo.  Two kinds of link need
no homology at all: a cone, whose facets share a vertex, is acyclic over
every field, and a link of dimension at most 0 cannot hold a rank below its
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .duality import SimplicialComplex, _maximal_independent_subsets
from .errors import (
    InternalMismatchError,
    NotFaceError,
    ParseError,
    RangeError,
    SizeBudgetError,
)
from .posets import _transpose, _union_of_rows

DEFAULT_FACE_BUDGET = 1 << 20


@dataclass(frozen=True)
class FieldChoice:
    """Coefficient field: gf2, gfp (odd prime p), or rational."""

    tag: str
    p: int | None = None

    def __post_init__(self):
        if self.tag not in ("gf2", "gfp", "rational"):
            raise RangeError(f"unknown field tag {self.tag!r}")
        if self.tag == "gfp":
            if self.p is None or not _is_prime(self.p):
                raise RangeError(f"gfp needs a prime modulus, got {self.p!r}")
            if self.p == 2:
                raise RangeError("gfp needs an odd prime; GF(2) is the field gf2")
        elif self.p is not None:
            raise RangeError(f"field {self.tag} takes no modulus")

    def __str__(self) -> str:
        return f"gfp:{self.p}" if self.tag == "gfp" else self.tag


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p) -> bool:
    """Deterministic Miller-Rabin with the twelve prime bases up to 37.

    These bases have no strong pseudoprime below 3.18 * 10**23 (Sorenson and
    Webster 2015), so the test is exact on the moduli it accepts; a modulus
    of 2**64 or more is refused.
    """
    if not isinstance(p, int) or p < 2:
        return False
    if p >= 1 << 64:
        raise RangeError(f"gfp takes a modulus below 2**64, got {p}")
    if p in _PRIME_BASES:
        return True
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


GF2 = FieldChoice("gf2")
RATIONAL = FieldChoice("rational")


def gfp(p: int) -> FieldChoice:
    return FieldChoice("gfp", p)


def parse_field(text: str) -> FieldChoice:
    text = text.strip().lower()
    if text == "gf2":
        return GF2
    if text == "rational":
        return RATIONAL
    if text.startswith("gfp:"):
        try:
            p = int(text[4:])
        except ValueError:
            raise ParseError(f"bad modulus in field spec {text!r}") from None
        try:
            return gfp(p)
        except RangeError as exc:
            raise ParseError(exc.message) from None
    raise ParseError(f"unknown field {text!r}; expected gf2, rational or gfp:<p>")


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers by dimension, from -1 up to the complex dimension."""

    field: FieldChoice
    ranks: tuple  # ((dim, rank), ...) sorted by dim

    def rank(self, i: int) -> int:
        for d, v in self.ranks:
            if d == i:
                return v
        return 0

    def nonzero(self) -> tuple:
        return tuple((d, v) for d, v in self.ranks if v)


@dataclass(frozen=True)
class CMCertificate:
    verdict: bool
    field: FieldChoice
    witness: tuple | None = None  # (face labels, dimension i, rank)

    def __bool__(self) -> bool:
        return self.verdict


# ---------------------------------------------------------------------------
# face enumeration
# ---------------------------------------------------------------------------


def _check_face_budget(face_budget) -> None:
    """A face budget must be an int of at least 1; a bool is not one."""
    if type(face_budget) is not int or face_budget < 1:
        raise RangeError(f"face budget must be an integer of at least 1, got {face_budget!r}")


def _faces_by_dim(facets, face_budget: int) -> list[list[int]]:
    """Faces grouped by dimension, each group ascending.

    Index 0 of the result holds dimension -1 (the empty face); a void facet
    list gives no faces at all.  Each face is listed once, as a child of its
    parent, the face less its lowest vertex: the children of F add one vertex
    below F's lowest, taken from a facet that contains F.  The facets
    containing each face are kept for one level as a mask over facet
    positions, and a child's mask is its parent's ANDed with the transposed
    facet column of the vertex it adds.  Raises when one facet alone
    has more subsets than the budget, and otherwise as soon as the faces
    counted so far pass it.
    """
    facets = list(facets)
    if not facets:
        return [[]]
    largest = 1 << max(f.bit_count() for f in facets)
    if largest > face_budget:
        raise SizeBudgetError(f"{largest} faces exceed the budget of {face_budget}")
    # bit k of cols[v] is set when facets[k] holds vertex v
    cols = _transpose(max(facets).bit_length(), facets)
    by_dim = [[0]]
    count = 1
    # face -> the facets that contain it, as a mask over facet positions,
    # for the faces of one size
    level = {0: (1 << len(facets)) - 1}
    while level:
        children: dict[int, int] = {}
        for face, cont in level.items():
            # all of it for the empty face
            free = _union_of_rows(facets, cont) & ((face & -face) - 1)
            count += free.bit_count()
            if count > face_budget:
                raise SizeBudgetError(
                    f"{count} faces exceed the budget of {face_budget}"
                )
            while free:
                v = free & -free
                free ^= v
                children[face | v] = cont & cols[v.bit_length() - 1]
        if children:
            by_dim.append(sorted(children))
        level = children
    return by_dim


# ---------------------------------------------------------------------------
# boundary-matrix ranks over the three field kinds
# ---------------------------------------------------------------------------


def _rank_gf2(rows: list[int]) -> set[int]:
    """Pivot columns over GF(2) of rows packed as int bitsets, one bit per column.

    Each row is reduced by XOR against the stored pivot row of its highest
    set bit, and what is left nonzero becomes a new pivot.  The result is
    the set of the pivots' leading columns; its size is the rank.
    """
    pivots: dict[int, int] = {}  # bit_length, one past the leading column -> row
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return {top - 1 for top in pivots}


def _lane_width(p: int) -> int:
    """Bits per column in a packed GF(p) row: the fewest that hold 2p - 2."""
    return (2 * p - 2).bit_length()


def _rank_gfp(rows: list[int], p: int) -> set[int]:
    """Pivot columns over GF(p) of rows packed as ints, one _lane_width(p)-bit lane per column.

    Lane k of a row, (row >> k*w) & (2^w - 1), holds the entry of column k,
    a residue in [0, p).  Each row is reduced against the stored pivot row
    of its highest nonzero lane.  Pivots are stored scaled to leading
    coefficient 1, so adding (p - a) times the pivot clears a leading a.

    Adding two rows of residues gives lane sums s <= 2p - 2, which fit a
    lane, so no carry crosses into the next one.  Every lane is then brought
    back below p at once: with K = 2^(w-1) - p and H = 2^(w-1) in every
    lane, s + K reaches bit w-1 exactly when s >= p, and p is subtracted
    from those lanes.  Since 2^(w-1) >= p, K is not negative and
    s + K <= 2^(w-1) + p - 2 < 2^w, so this test does not carry either.
    A pivot's multiples are made on first use by doubling and adding,
    O(log p) row additions each, and kept per pivot.  Row operations with
    nonzero multipliers keep the row space, so the pivots' leading columns,
    returned as a set, are exact, and so is their number, the rank.

    Each step clears the row's leading lane, so that lane must fall from
    one step to the next, and a multiplier made on a cache miss, like the
    leading entry of a new pivot, must lie in (0, p).  A wrong reduction
    raises InternalMismatchError on any of these tests rather than looping.
    """
    w = _lane_width(p)
    shift = w - 1
    lanes = max(rows, default=0).bit_length() // w + 1
    ones = ((1 << lanes * w) - 1) // ((1 << w) - 1)  # 1 in every lane
    K = ones * ((1 << shift) - p)
    H = ones << shift

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + K) & H) >> shift) * p

    def times(x: int, c: int) -> int:
        out = 0
        while True:
            if c & 1:
                out = add(out, x)
            c >>= 1
            if not c:
                return out
            x = add(x, x)

    pivots: dict[int, dict[int, int]] = {}  # lane -> {multiplier: multiple}
    for row in rows:
        last = lanes
        while row:
            col = (row.bit_length() - 1) // w
            if col >= last:
                raise InternalMismatchError(f"GF({p}) step left lane {col} uncleared")
            last = col
            a = row >> col * w
            multiples = pivots.get(col)
            if multiples is None:
                if not 0 < a < p:
                    raise InternalMismatchError(
                        f"new pivot entry {a} is not a nonzero residue mod {p}"
                    )
                pivots[col] = {1: times(row, pow(a, -1, p)) if a != 1 else row}
                break
            c = p - a
            m = multiples.get(c)
            if m is None:
                if not 0 < c < p:
                    raise InternalMismatchError(
                        f"leading entry {a} is not a nonzero residue mod {p}"
                    )
                m = multiples[c] = times(multiples[1], c)
            s = row + m  # add(row, m), inlined: this is the hot loop
            row = s - (((s + K) & H) >> shift) * p
    return set(pivots)


def _rank_rational(rows) -> set[int]:
    """Pivot columns over Q of integer rows of (column, value) pairs.

    Each row is reduced fraction-free against the stored pivot row for its
    highest column: the step is b*row - a*pivot with a and b the two leading
    entries over their gcd, and the result is divided by the gcd of its
    entries.  Zero entries are dropped, and what is left nonzero becomes a
    new pivot.  Row operations with nonzero multipliers keep the row space,
    so the pivots' leading columns, returned as a set, are exact, and so is
    their number, the rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for entries in rows:
        row = dict(entries)
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = row[col], pivot[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = {c: b * v for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - a * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            content = gcd(*row.values())
            if content > 1:
                row = {c: v // content for c, v in row.items()}
    return set(pivots)


def _boundary_pivots(d_faces, lower_index: dict[int, int], field: FieldChoice) -> set[int]:
    """Pivot columns of the boundary map from the given d-faces into the (d-1)-faces.

    Row k is the boundary of the k-th d-face: the entry of the face less its
    j-th lowest vertex is (-1)^j, in column lower_index of that face.  Q
    keeps (column, value) pairs for _rank_rational.  The finite fields pack
    a row into one int: GF(2) with one bit per column, the signs dropped,
    for _rank_gf2; GF(p) with one _lane_width(p)-bit lane per column holding
    1 or p - 1, for _rank_gfp.  The number of pivot columns is the rank.
    """
    if not d_faces:
        return set()
    if field.tag == "rational":
        sparse = []
        for f in d_faces:
            entries = []
            sign = 1
            m = f
            while m:
                bit = m & -m
                m &= m - 1
                entries.append((lower_index[f ^ bit], sign))
                sign = -sign
            sparse.append(entries)
        return _rank_rational(sparse)
    gf2 = field.tag == "gf2"
    p = 2 if gf2 else field.p
    w = 1 if gf2 else _lane_width(p)
    rows = []
    for f in d_faces:
        row = 0
        value, other = 1, p - 1
        m = f
        while m:
            bit = m & -m
            m &= m - 1
            row |= value << lower_index[f ^ bit] * w
            value, other = other, value
        rows.append(row)
    return _rank_gf2(rows) if gf2 else _rank_gfp(rows, p)


def reduced_homology(
    cx: SimplicialComplex,
    field: FieldChoice = GF2,
    face_budget: int = DEFAULT_FACE_BUDGET,
) -> HomologyProfile:
    """Reduced Betti numbers of a nonvoid complex over the chosen field.

    The empty face is a genuine generator at dimension -1 and the
    augmentation map is the boundary out of dimension 0, so rank(-1) is 1
    exactly for the complex {∅}.  The guard on every call is that each rank
    f_d - rank ∂_d - rank ∂_{d+1} is nonnegative, with ∂_d the boundary out
    of dimension d: a boundary rank that overcounts drives one below zero
    and raises InternalMismatchError.
    """
    _check_face_budget(face_budget)
    if cx.is_void():
        raise ValueError("the void complex has no reduced homology profile")
    return _homology_of_faces(_faces_by_dim(cx.facets, face_budget), field)


def _homology_of_faces(by_dim: list[list[int]], field: FieldChoice) -> HomologyProfile:
    """Reduced Betti numbers from the faces grouped by dimension, as _faces_by_dim gives them.

    The boundary maps are ranked from the top dimension down, and a d-face
    that leads a pivot of ∂_{d+1} gets no row in ∂_d (clearing; the module
    docstring says why the ranks stay exact).
    """
    top = len(by_dim) - 2  # top dimension of the complex
    ranks = []
    cleared: set[int] = set()  # pivot columns of ∂_{d+1}, indices into by_dim[d + 1]
    for d in range(top, -2, -1):
        faces = by_dim[d + 1]
        pivots: set[int] = set()
        if d >= 0:
            rows = [f for k, f in enumerate(faces) if k not in cleared] if cleared else faces
            pivots = _boundary_pivots(rows, {f: k for k, f in enumerate(by_dim[d])}, field)
        h = len(faces) - len(pivots) - len(cleared)
        if h < 0:
            raise InternalMismatchError(
                f"negative homology rank {h} at dimension {d}"
            )
        ranks.append((d, h))
        cleared = pivots
    ranks.reverse()
    return HomologyProfile(field, tuple(ranks))


# ---------------------------------------------------------------------------
# links and the Cohen-Macaulay oracle
# ---------------------------------------------------------------------------


def _face_to_mask(cx: SimplicialComplex, face) -> int:
    """Accept a bitmask over the complex's vertices or an iterable of vertex labels.

    A bool is not a bitmask, and neither is an int outside [0, 2^V) for V
    vertices; both raise RangeError.
    """
    if isinstance(face, int):
        size = len(cx.vertices)
        if type(face) is bool or face < 0 or face >> size:
            raise RangeError(f"face mask {face!r} is not a set of the complex's {size} vertices")
        return face
    mask = 0
    for label in face:
        mask |= 1 << cx.vertex_index(label)
    return mask


def _remap_bits(mask: int, target) -> int:
    """The mask with each set bit k moved to bit target[k]."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << target[low.bit_length() - 1]
    return out


def link(cx: SimplicialComplex, face) -> SimplicialComplex:
    """The subcomplex seen from a face: all faces disjoint from it that extend it.

    The vertex universe shrinks to the complement of the face; facets are
    the differences of the facets containing the face (an antichain already,
    so no pruning is needed).
    """
    mask = _face_to_mask(cx, face)
    if not cx.contains_face(mask):
        raise NotFaceError(f"{_labels_of(cx, mask)} is not a face of the complex")
    keep = [k for k in range(len(cx.vertices)) if not mask >> k & 1]
    remap = {pos: k for k, pos in enumerate(keep)}
    new_facets = [_remap_bits(f & ~mask, remap) for f in cx.facets if mask & ~f == 0]
    new_facets.sort(key=lambda m: (m.bit_count(), m))
    return SimplicialComplex(
        tuple(cx.vertices[k] for k in keep), tuple(new_facets)
    )


def _labels_of(cx: SimplicialComplex, mask: int) -> tuple:
    return tuple(cx.vertices[k] for k in range(len(cx.vertices)) if mask >> k & 1)


def is_pure(cx: SimplicialComplex) -> tuple[bool, set[int]]:
    """Whether all facets share one cardinality, plus the cardinality set."""
    sizes = {f.bit_count() for f in cx.facets}
    return (len(sizes) <= 1, sizes)


def _pure_certificate(cx: SimplicialComplex, field: FieldChoice) -> CMCertificate:
    """The positive verdict, once purity is asserted: the criterion implies it."""
    pure, sizes = is_pure(cx)
    if not pure:
        raise InternalMismatchError(
            f"complex passed the local-homology criterion but is impure: sizes {sorted(sizes)}"
        )
    return CMCertificate(True, field)


def _cone_points(facets) -> int:
    """The mask of the vertices every facet holds: nonzero exactly for a cone."""
    apex = facets[0]
    for f in facets:
        apex &= f
    return apex


def _cm_by_faces(
    cx: SimplicialComplex,
    field: FieldChoice = GF2,
    face_budget: int = DEFAULT_FACE_BUDGET,
) -> CMCertificate:
    """The face walk: Reisner's criterion face by face, with the minimal witness.

    Every face is visited in ascending (size, mask) order, the empty face
    first; link homology profiles are memoized by the link's facet set.  On
    failure the witness is the lexicographically smallest offending
    (face, dimension) pair, so the walk stops after the first size that
    has one; on success purity is asserted, since the criterion implies it.

    Each link is read off the link of the face's parent, the face less its
    lowest vertex v, which the walk visited one level earlier: the link's
    facets (and, for a link not yet memoized, its faces) are the parent
    link's ones that contain v, with v removed.  Filtering keeps the
    (size, mask) order, so a facet tuple names its facet set.  A face whose
    parent's link was memoized has a memoized link too (if lk(P) = lk(G)
    for an earlier G, then lk(P + v) = lk(G + v) and G + v comes earlier),
    so the parent's faces are there whenever they are needed.

    Two kinds of link are memoized with no homology computed, and their
    faces are still derived for their children.  A link whose facets all
    contain one vertex (their AND is nonzero) is a cone, so its reduced
    homology vanishes over every field; for Ind(G) the link of F is
    Ind(G - N[F]), a cone exactly when G - N[F] has an isolated vertex.  A
    link of dimension at most 0 can hold no witness: that needs a nonzero
    rank at some d below the dimension, so at d = -1, and rank(-1) is 0 for
    every nonempty complex.

    Cone points are taken off first.  With Z the vertices every facet holds,
    a face F that misses some z in Z has a link whose facets all hold z, a
    cone, so only faces holding Z can be witnesses, and lk(F' + Z) is the
    link of F' in lk(Z).  The walk therefore runs on lk(Z) (the complex
    itself when Z is empty), which has no cone point, and its witnesses of
    the first failing size come back as F' + Z; the least by (size, labels,
    dimension) on the complex itself is taken again, since adding Z's
    labels can change the order of the labels.  So the faces walked do not
    double with each cone point.
    """
    if cx.is_void():
        raise ValueError("the void complex has no Cohen-Macaulay verdict")
    apex = _cone_points(cx.facets)
    # bit k of a face of lk(Z) is the complex's vertex keep[k]
    keep = [k for k in range(len(cx.vertices)) if not apex >> k & 1]
    witnesses = [
        (_remap_bits(face_mask, keep) | apex, d, h)
        for face_mask, d, h in _face_walk_witnesses(link(cx, apex), field, face_budget)
    ]
    if witnesses:
        face_mask, d, h = min(
            witnesses,
            key=lambda w: (w[0].bit_count(), _labels_of(cx, w[0]), w[1]),
        )
        return CMCertificate(False, field, (_labels_of(cx, face_mask), d, h))
    return _pure_certificate(cx, field)


def _face_walk_witnesses(
    cx: SimplicialComplex, field: FieldChoice, face_budget: int
) -> list[tuple[int, int, int]]:
    """Every (face mask, dimension, rank) that breaks Reisner's criterion
    among the faces of the least size that has one; empty if none does.

    The walk of _cm_by_faces on one nonvoid complex, its docstring says how.
    """
    by_dim = _faces_by_dim(cx.facets, face_budget)
    root_facets = tuple(sorted(cx.facets, key=lambda m: (m.bit_count(), m)))
    # link facets -> the link's nonzero ranks ((d, h), ...) below its dimension
    link_witnesses: dict[tuple, tuple] = {}
    # face mask -> (link facets, link faces by dimension or None), one level
    level: dict[int, tuple] = {0: (root_facets, by_dim)}
    witnesses = []
    for bucket in by_dim:
        parents, level = level, {}
        for face_mask in bucket:
            v = face_mask & -face_mask
            link_facets, faces = parents[face_mask ^ v]
            if v:
                link_facets = tuple(f ^ v for f in link_facets if f & v)
            found = link_witnesses.get(link_facets)
            if found is None:
                if faces is None:
                    raise InternalMismatchError(
                        f"link of face {face_mask:#x} is new but its parent's was memoized"
                    )
                link_dim = link_facets[-1].bit_count() - 1
                if v:
                    faces = [
                        [f ^ v for f in faces[k + 1] if f & v] for k in range(link_dim + 2)
                    ]
                found = ()
                if link_dim > 0:
                    if not _cone_points(link_facets):
                        found = tuple(
                            (d, h)
                            for d, h in _homology_of_faces(faces, field).ranks
                            if d < link_dim and h
                        )
                link_witnesses[link_facets] = found
            else:
                faces = None
            level[face_mask] = (link_facets, faces)
            for d, h in found:
                witnesses.append((face_mask, d, h))
        if witnesses:  # a later bucket holds only larger faces
            break
    return witnesses


# ---------------------------------------------------------------------------
# the graph walk: flag complexes as independence complexes
# ---------------------------------------------------------------------------


def _flag_graph(cx: SimplicialComplex) -> list[int] | None:
    """Neighbourhood masks of the graph G with Ind(G) = cx, or None if there is none.

    This is is_cohen_macaulay's route for complexes without a recorded
    graph: those built from facets, by link or alexander_dual_complex, or
    from an ideal that is not an edge ideal.  Criterion 5 also runs it on
    independence complexes, as a check of the graph they record.

    G joins the vertex pairs that share no facet, read off the facet
    columns.  Its maximal independent sets are the facets exactly when cx
    is flag; the complex {∅}, a complex with a vertex in no facet and a
    non-flag complex give None.  So does a graph whose maximal independent
    sets outrun the Bron-Kerbosch budget; the face walk then decides under
    its own budget.
    """
    size = len(cx.vertices)
    cols = _transpose(size, cx.facets)  # the facets that contain each vertex
    if not size or not all(cols):
        return None
    nbr = [0] * size
    for u in range(size):
        for v in range(u + 1, size):
            if not cols[u] & cols[v]:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
    full = (1 << size) - 1
    try:
        facets = _maximal_independent_subsets([m | 1 << v for v, m in enumerate(nbr)], full)
    except SizeBudgetError:
        return None
    if len(facets) != len(cx.facets) or set(facets) != set(cx.facets):
        return None
    return nbr


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _components(nbr: list[int], w: int, seeds: int) -> list[int]:
    """The vertex masks of the connected components of G[w], by lowest vertex.

    Every component must hold a vertex of seeds; w itself always serves.  A
    component is searched from its lowest seed, and the search stops once it
    holds every seed left, since the rest of w is then that one component.
    The walk seeds a state from what it knows: a component of a split state
    is connected, one seed, and when W is connected every component of
    W - v holds a neighbour of v.  So shedding one vertex of a long path
    costs a step or two, not a search along the whole path.
    """
    parts = []
    seeds &= w
    while seeds & seeds - 1:
        frontier = seeds & -seeds
        left = w ^ frontier
        while frontier and seeds & left:
            frontier = _union_of_rows(nbr, frontier) & left
            left ^= frontier
        if not seeds & left:
            break
        parts.append(w ^ left)
        w = left
        seeds &= left
    if w:
        parts.append(w)
    if len(parts) > 1:
        parts.sort(key=lambda m: m & -m)
    return parts


def _fold(nbr: list[int], w: int) -> int:
    """w less every vertex v that some other vertex u of G[w] folds: N(u) ⊆ N(v).

    Removing v keeps the homotopy type of Ind(G[w]) (Engström's fold lemma:
    the link of v in Ind(G[w]) is a cone with apex u).  Such a u and v are
    not adjacent and share every neighbour of u, so the v for a u with a
    neighbour x are found among the neighbours of x.  Folds repeat until
    none is left.  A vertex isolated in G[w] would fold every other vertex;
    the caller treats a folded graph with one as a cone instead, so only
    folds by vertices with a neighbour are made here.
    """
    folded = True
    while folded:
        folded = False
        for u in _bits(w):
            near = nbr[u] & w
            if not w >> u & 1 or not near:
                continue
            x = (near & -near).bit_length() - 1
            for v in _bits(nbr[x] & w & ~(1 << u)):
                if not near & ~nbr[v]:
                    w ^= 1 << v
                    folded = True
    return w


def _join_ranks(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reduced Betti numbers of a join from those of its factors, over a field.

    Künneth for joins: H̃_{i+j+1}(A * B) is the sum of H̃_i(A) ⊗ H̃_j(B).
    {∅}, with rank 1 at dimension -1 alone, is the unit.
    """
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return out


def _memo_walk(root: int, visit, budget: int) -> dict[int, int] | None:
    """The values of a memoized walk over vertex masks, or None if one state fails.

    visit(w) is a generator: it yields the masks whose values it needs, is
    sent each value, and returns the value of w, an int, or None, which ends
    the whole walk with None.  A mask of at most one vertex is a leaf whose
    value is its vertex count; every other mask is visited once and
    memoized.  The states run on an explicit stack, so no walk reaches the
    recursion limit, and the link states memoized or on the stack are held
    to the budget.
    """
    memo: dict[int, int] = {}
    stack = [(root, visit(root))] if root & root - 1 else []
    value = None
    while stack:
        w, state = stack[-1]
        try:
            child = state.send(value)
        except StopIteration as stop:
            if stop.value is None:
                return None
            memo[w] = value = stop.value
            stack.pop()
            continue
        if not child & child - 1:
            value = child.bit_count()
        elif child in memo:
            value = memo[child]
        else:
            if len(memo) + len(stack) >= budget:
                raise SizeBudgetError(
                    f"{len(memo) + len(stack) + 1} link states exceed the budget of {budget}"
                )
            stack.append((child, visit(child)))
            value = None
    return memo


def _cm_by_graph(nbr: list[int], field: FieldChoice, face_budget: int) -> int | None:
    """The pure size α of Ind(G) if it is Cohen-Macaulay over the field, else None.

    G is given by neighbourhood masks.  The walk runs on vertex masks W,
    memoized (_memo_walk): the link of a face F in Ind(G) is
    Ind(G[V - N[F]]), so every link is Ind(G[W]) for some W.  The verdict at
    W, with the independence number α of G[W] when it is CM:
      - W empty or one vertex: {∅} or a point, CM with α = 0 or 1;
      - a disconnected W is a join of its components' complexes, CM exactly
        when every factor is; α is the sum.  An isolated vertex is a
        component of its own, a point, so Ind(G[W]) is a cone over it and
        the rest decides;
      - a connected W with a dominated vertex v, N_W[u] ⊆ N_W[v] for some
        other u (the lowest u, then the lowest v), sheds it: W is CM of size
        s exactly when W - v is CM of size s and W - N[v] is CM of size
        s - 1 (proof below);
      - otherwise every vertex link W - N[v] must be CM with one common α,
        s (a CM complex is pure), α(W) = s + 1, and H̃_d(Ind(G[W])) must
        vanish for every d < s, Reisner's condition at the empty face.
    That homology is taken after folds (_fold) and memoized by the folded
    mask: a folded graph with an isolated vertex is a cone, so acyclic; one
    that splits has the join's ranks (_join_ranks) of its components, and a
    component's ranks come from its faces through _faces_by_dim and
    _homology_of_faces.  A W that is not CM fails every W above it, so it
    ends the walk.  The states are held to the face budget.

    The shed step is exact.  Let u ≠ v in W with N_W[u] ⊆ N_W[v], and write
    Δ = Ind(G[W]), D = Ind(G[W - v]) and L = Ind(G[W - N[v]]); then
    Δ = D ∪ v*L and L ⊆ D.
      (⇐) Let D be CM of dimension d and L CM of dimension d - 1, and F a
      face of Δ.  If v ∈ F, lk_Δ F = lk_L(F - v).  If F ∪ v ∉ Δ,
      lk_Δ F = lk_D F.  Otherwise lk_Δ F = lk_D F ∪ v*lk_L F, a union along
      lk_L F, and Mayer-Vietoris kills H̃_i for i < dim lk_D F.  So Δ is CM.
      (⇒) Let Δ be CM.  L is the link of v, so CM.  A facet I that contains
      v gives the independent set I - v + u, so the facets of D are exactly
      those of Δ that miss v: D is pure of Δ's dimension and L has one
      vertex fewer per facet.  Every σ ∈ L has σ ∪ u ∈ D, so L → D factors
      through the cone from u, and Mayer-Vietoris makes H̃_i(D) → H̃_i(Δ)
      injective: H̃_i(D) = 0 below dim D.  For a face F of D, lk_D F = lk_Δ F
      if v ∈ N[F]; otherwise u and v both lie outside N[F], u still
      dominates v in G[W - N[F]], whose independence complex is lk_Δ F, and
      the same argument applies to that CM link.  So D is CM.
    Every step holds over every field, and a state that is not CM makes
    every state above it not CM, so the first failing state still ends the
    walk.
    """
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    homology: dict[int, dict[int, int]] = {}  # folded mask -> nonzero ranks

    def ranks(w: int) -> dict[int, int]:
        w = _fold(nbr, w)
        if w in homology:
            return homology[w]
        if any(not nbr[v] & w for v in _bits(w)):
            out = {}  # a cone
        else:
            out = {-1: 1}
            for part in _components(nbr, w, w):
                if part not in homology:
                    faces = _faces_by_dim(_maximal_independent_subsets(closed, part), face_budget)
                    homology[part] = {
                        d: h for d, h in _homology_of_faces(faces, field).ranks if h
                    }
                out = _join_ranks(out, homology[part])
        homology[w] = out
        return out

    # the seeds (_components) a parent knows for the state it last yielded;
    # seeds depend on the mask alone, so they hold whichever parent yields it
    hinted = hint = 0

    def walk(w: int):
        nonlocal hinted, hint
        parts = _components(nbr, w, hint if w == hinted else w)
        if len(parts) > 1:
            total = 0
            for part in parts:
                hinted, hint = part, part & -part
                total += yield part
            return total
        for u in _bits(w):
            # the v with N_W[u] ⊆ N[v] are those in N[x] for every x in N_W[u]
            over = w
            for x in _bits(closed[u] & w):
                over &= closed[x]
            over ^= 1 << u
            if over:
                v = (over & -over).bit_length() - 1
                hinted, hint = w ^ 1 << v, nbr[v]
                s = yield w ^ 1 << v
                t = yield w & ~closed[v]
                return s if t == s - 1 else None
        common = None
        for v in _bits(w):
            s = yield w & ~closed[v]
            if common is not None and s != common:
                return None
            common = s
        if common and any(d < common for d in ranks(w)):
            return None
        return common + 1

    root = (1 << len(nbr)) - 1
    memo = _memo_walk(root, walk, face_budget)
    return None if memo is None else memo.get(root, root.bit_count())


def is_cohen_macaulay(
    cx: SimplicialComplex,
    field: FieldChoice = GF2,
    face_budget: int = DEFAULT_FACE_BUDGET,
) -> CMCertificate:
    """Reisner's local-homology criterion over the chosen field, with a minimal witness.

    Reisner: the complex is CM iff no link of a face, the empty face
    included, has reduced homology below its dimension.  A flag complex in
    which every vertex lies in a facet is Ind(G) for the graph G of the
    vertex pairs that share no facet, and its verdict comes from the graph
    walk (_cm_by_graph), which never lists the faces of the whole complex.
    A complex from graphs.independence_complex carries G's neighbourhood
    masks and the walk takes them as they are; for complexes without a
    recorded graph, _flag_graph derives G from the facet columns and lists
    its maximal independent sets again to confirm the complex is flag.
    Each of the walk's steps is exact over every field: a link is Ind(G[W])
    for a vertex mask W; Ind of a disconnected graph is a join, CM exactly
    when every factor is, and an isolated vertex makes it a cone, so
    acyclic; a dominated vertex v, N_W[u] ⊆ N_W[v], is shed, W being CM
    exactly when W - v and W - N[v] are, of sizes s and s - 1; with no
    dominated vertex, the complex is CM iff its vertex links are CM, of one
    dimension since CM complexes are pure, and it has no homology below its
    dimension; and folding v away when N(u) ⊆ N(v) keeps the homotopy type
    (Engström's fold lemma), so that homology is ranked only on fold-free
    components and combined by the Künneth formula for joins.  A positive
    verdict gives the pure size α of the complex, and every facet must have
    α vertices, or InternalMismatchError is raised.

    Any other complex, {∅} included, goes to the face walk (_cm_by_faces).
    On a negative verdict the face walk also gives the witness: the
    lexicographically smallest offending (face, dimension) pair, as labels.
    If it finds none, the two walks disagree and InternalMismatchError is
    raised.  On success purity is asserted, since the criterion implies it.
    """
    _check_face_budget(face_budget)
    nbr = cx._graph_nbr
    if nbr is None:
        nbr = _flag_graph(cx)
    if nbr is None:
        return _cm_by_faces(cx, field, face_budget)
    size = _cm_by_graph(nbr, field, face_budget)
    if size is None:
        cert = _cm_by_faces(cx, field, face_budget)
        if cert.verdict:
            raise InternalMismatchError(
                "the graph walk finds a flag complex not CM that the face walk finds CM"
            )
        return cert
    if any(f.bit_count() != size for f in cx.facets):
        raise InternalMismatchError(
            f"the graph walk finds Ind(G) CM of size {size}, "
            f"but the complex has facet sizes {sorted(is_pure(cx)[1])}"
        )
    return CMCertificate(True, field)
