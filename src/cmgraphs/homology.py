"""Reduced simplicial homology over a field and the depth criterion oracle.

Ranks are computed from boundary-matrix ranks with exact arithmetic and two
kernels.  GF(2) rows are int bitsets eliminated by XOR.  GF(p) and Q share
one sparse elimination of integer rows held as dicts: each row is reduced
against the pivot row of its highest column, then taken mod p, or over Q
divided by the gcd of its entries.  GF(2), the default field, keeps its own
kernel because XOR on ints is much cheaper than dict updates: routing it
through the dict kernel made CM checks on the benchmark graphs 1.3-1.8
times slower.
Floating point never enters.  The empty face lives at dimension -1 and the
augmentation map is included, so the profile of a nonempty connected
complex starts with zeros.

The Cohen-Macaulay verdict follows the local-homology criterion: a complex
is CM over the field iff for every face, every reduced homology rank of its
link vanishes strictly below the link's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .duality import SimplicialComplex, subset_closure
from .errors import (
    InternalMismatchError,
    NotFaceError,
    ParseError,
    RangeError,
    SizeBudgetError,
)

DEFAULT_FACE_BUDGET = 1 << 20
_LATTICE_BITS_MAX = 24


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
        elif self.p is not None:
            raise RangeError(f"field {self.tag} takes no modulus")

    def __str__(self) -> str:
        return f"gfp:{self.p}" if self.tag == "gfp" else self.tag


def _is_prime(p) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
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

    def as_dict(self) -> dict:
        return dict(self.ranks)

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
# face enumeration (compressed to the vertices the facets actually use)
# ---------------------------------------------------------------------------


def _remap_bits(mask: int, target) -> int:
    """The mask with each set bit k moved to bit target[k]."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << target[low.bit_length() - 1]
    return out


def _faces_by_dim(facets, face_budget: int) -> list[list[int]]:
    """Faces grouped by dimension, as masks in the ORIGINAL bit positions.

    Index 0 of the result holds dimension -1 (the empty face).  Raises when
    the facets use more vertex bits than the subset lattice can afford or
    when the total face count exceeds the budget.
    """
    used = 0
    for f in facets:
        used |= f
    positions = [k for k in range(used.bit_length()) if used >> k & 1]
    bits = len(positions)
    if bits > _LATTICE_BITS_MAX:
        raise SizeBudgetError(
            f"{bits} occupied vertices exceed the {_LATTICE_BITS_MAX}-bit lattice limit"
        )
    compress = {pos: k for k, pos in enumerate(positions)}
    flags = np.zeros(1 << bits, dtype=bool)
    for f in facets:
        flags[_remap_bits(f, compress)] = True
    faces = subset_closure(flags, bits)
    total = int(faces.sum())
    if total > face_budget:
        raise SizeBudgetError(f"{total} faces exceed the budget of {face_budget}")
    by_dim: list[list[int]] = [[] for _ in range(bits + 1)]
    for small in np.flatnonzero(faces):
        small = int(small)
        by_dim[small.bit_count()].append(_remap_bits(small, positions))
    while len(by_dim) > 1 and not by_dim[-1]:
        by_dim.pop()
    for bucket in by_dim:
        bucket.sort()
    return by_dim


# ---------------------------------------------------------------------------
# boundary-matrix ranks over the three field kinds
# ---------------------------------------------------------------------------


def _rank_gf2(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = (row & -row).bit_length() - 1
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def _rank_sparse(rows, p: int) -> int:
    """Rank over GF(p), or over Q when p is 0, of integer rows of (column, value) pairs.

    Each row is reduced against the stored pivot row for its highest column
    as b*row - a*pivot.  Over GF(p) its entries are then taken mod p; over Q
    it is divided by the gcd of its entries.  Zero entries are dropped, and
    what is left nonzero becomes a new pivot.  Row operations with nonzero
    multipliers keep the row space, so the rank is exact.
    """
    pivots: dict[int, dict[int, int]] = {}
    for entries in rows:
        row = {c: v % p for c, v in entries if v % p} if p else dict(entries)
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
            if p:
                row = {c: v % p for c, v in row.items() if v % p}
            else:
                content = gcd(*row.values())
                if content > 1:
                    row = {c: v // content for c, v in row.items()}
    return len(pivots)


def _boundary_rank(d_faces, lower_index: dict[int, int], field: FieldChoice) -> int:
    """Rank of the boundary map from the d-faces into the (d-1)-faces."""
    if not d_faces or not lower_index:
        return 0
    if field.tag == "gf2":
        rows = []
        for f in d_faces:
            row = 0
            m = f
            while m:
                bit = m & -m
                m &= m - 1
                row |= 1 << lower_index[f ^ bit]
            rows.append(row)
        return _rank_gf2(rows)
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
    return _rank_sparse(sparse, field.p or 0)


def reduced_homology(
    cx: SimplicialComplex,
    field: FieldChoice = GF2,
    face_budget: int = DEFAULT_FACE_BUDGET,
) -> HomologyProfile:
    """Reduced Betti numbers of a nonvoid complex over the chosen field.

    The empty face is a genuine generator at dimension -1 and the
    augmentation map is the boundary out of dimension 0, so rank(-1) is 1
    exactly for the complex {∅}.  An internal Euler-characteristic
    consistency assertion runs on every call.
    """
    if cx.is_void():
        raise ValueError("the void complex has no reduced homology profile")
    return _homology_of_facets(cx.facets, field, face_budget)


def _homology_of_facets(facets, field: FieldChoice, face_budget: int) -> HomologyProfile:
    by_dim = _faces_by_dim(facets, face_budget)
    top = len(by_dim) - 2  # top dimension of the complex
    bd_rank = [0] * (top + 3)  # bd_rank[d+1] = rank of boundary out of dim d
    for d in range(0, top + 1):
        lower_index = {f: k for k, f in enumerate(by_dim[d])}
        bd_rank[d + 1] = _boundary_rank(by_dim[d + 1], lower_index, field)
    ranks = []
    for d in range(-1, top + 1):
        f_d = len(by_dim[d + 1])
        h = f_d - bd_rank[d + 1] - bd_rank[d + 2]
        if h < 0:
            raise InternalMismatchError(
                f"negative homology rank {h} at dimension {d}"
            )
        ranks.append((d, h))
    euler_faces = sum(
        (-1) ** d * len(by_dim[d + 1]) for d in range(-1, top + 1)
    )
    euler_ranks = sum((-1) ** d * h for d, h in ranks)
    if euler_faces != euler_ranks:
        raise InternalMismatchError(
            f"Euler characteristic mismatch: faces give {euler_faces}, ranks give {euler_ranks}"
        )
    return HomologyProfile(field, tuple(ranks))


# ---------------------------------------------------------------------------
# links and the Cohen-Macaulay oracle
# ---------------------------------------------------------------------------


def _face_to_mask(cx: SimplicialComplex, face) -> int:
    """Accept a bitmask or an iterable of vertex labels."""
    if isinstance(face, int):
        return face
    mask = 0
    for label in face:
        mask |= 1 << cx.vertex_index(label)
    return mask


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


def is_cohen_macaulay(
    cx: SimplicialComplex,
    field: FieldChoice = GF2,
    face_budget: int = DEFAULT_FACE_BUDGET,
) -> CMCertificate:
    """Local-homology criterion over the chosen field, with a minimal witness.

    Every face is visited in ascending (size, mask) order, the empty face
    first; link homology profiles are memoized by the link's facet set.  On
    failure the witness is the lexicographically smallest offending
    (face, dimension) pair; on success purity is asserted, since the
    criterion implies it.
    """
    if cx.is_void():
        raise ValueError("the void complex has no Cohen-Macaulay verdict")
    by_dim = _faces_by_dim(cx.facets, face_budget)
    profile_memo: dict[frozenset, HomologyProfile] = {}
    witnesses = []
    for bucket in by_dim:
        for face_mask in bucket:
            link_facets = tuple(
                sorted(
                    (f & ~face_mask for f in cx.facets if face_mask & ~f == 0),
                    key=lambda m: (m.bit_count(), m),
                )
            )
            key = frozenset(link_facets)
            profile = profile_memo.get(key)
            if profile is None:
                profile = _homology_of_facets(link_facets, field, face_budget)
                profile_memo[key] = profile
            link_dim = max(f.bit_count() for f in link_facets) - 1
            for d, h in profile.ranks:
                if d < link_dim and h:
                    witnesses.append((face_mask, d, h))
    if witnesses:
        face_mask, d, h = min(
            witnesses,
            key=lambda w: (w[0].bit_count(), _labels_of(cx, w[0]), w[1]),
        )
        return CMCertificate(False, field, (_labels_of(cx, face_mask), d, h))
    pure, sizes = is_pure(cx)
    if not pure:
        raise InternalMismatchError(
            f"complex passed the local-homology criterion but is impure: sizes {sorted(sizes)}"
        )
    return CMCertificate(True, field)
