"""Finite index-monotone partial orders and their order ideals.

Ground set is {p_1, ..., p_n}.  A relation is stored as n bitmask rows:
bit j-1 of ``rows[i-1]`` is set iff p_i is related to p_j.  Order ideals
(downward-closed subsets) are plain int bitmasks over the same ground set,
bit k standing for p_{k+1}.

Everything here is immutable and pure, so values can be shared freely
across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .errors import (
    ChainError,
    IndexOrderError,
    InputError,
    InternalMismatchError,
    LevelError,
    ParseError,
    RangeError,
)


def mask_of(members) -> int:
    """Bitmask of a collection of 1-based indices."""
    m = 0
    for i in members:
        m |= 1 << (i - 1)
    return m


def members(mask: int) -> tuple[int, ...]:
    """1-based indices of a bitmask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def format_ideal(mask: int) -> str:
    return "{" + ",".join(f"p{i}" for i in members(mask)) + "}"


@dataclass(frozen=True)
class Relation:
    """Binary relation on {p_1..p_n}; rows[i] is the successor bitmask of p_{i+1}.

    Instances produced by :func:`close_relation` are genuine index-monotone
    partial orders.  :meth:`from_raw_pairs` builds unclosed relations so the
    hypothesis checkers can be exercised on inputs that fail transitivity.
    The down-sets (columns) and their per-byte unions are derived once per
    instance, for the order-ideal test.
    """

    n: int
    rows: tuple[int, ...]

    def holds(self, i: int, j: int) -> bool:
        """Whether p_i is related to p_j (1-based)."""
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All related (i, j) pairs, including the diagonal, sorted."""
        return tuple(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.holds(i, j)
        )

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in self.pairs() if i != j)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down[j] = bitmask of all i with p_{i+1} related-to p_{j+1} (0-based j).

        These are the columns of the rows, computed once per relation; the
        frozen instance keeps the result.
        """
        return tuple(_transpose(self.n, self.rows))

    @cached_property
    def down_bytes(self) -> tuple[tuple[int, ...], ...]:
        """Per 8-element byte k, the down-set union of every value of that byte.

        down_bytes[k][b] is the OR of down_masks[8k + j] over the set bits j
        of b, so the down-set of a subset is one lookup per byte of its
        mask.  The last byte's table covers only the elements it holds.
        Cached like down_masks.
        """
        tables = []
        for start in range(0, self.n, 8):
            table = [0]
            for down in self.down_masks[start : start + 8]:
                table += [t | down for t in table]
            tables.append(tuple(table))
        return tuple(tables)

    def is_reflexive(self) -> bool:
        return all(self.rows[i] >> i & 1 for i in range(self.n))

    def antisymmetry_witness(self):
        """A pair (i, j), i != j, related both ways, or None."""
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                if self.holds(i, j) and self.holds(j, i):
                    return (i, j)
        return None

    def transitivity_witness(self):
        """A triple (i, j, k) with i~j, j~k but not i~k, or None."""
        for i in range(self.n):
            for j in range(self.n):
                if self.rows[i] >> j & 1:
                    missing = self.rows[j] & ~self.rows[i]
                    if missing:
                        k = missing.bit_length() - 1
                        return (i + 1, j + 1, k + 1)
        return None

    def monotonicity_witness(self):
        """A related pair (i, j) with i > j, or None."""
        for i in range(1, self.n + 1):
            for j in range(1, i):
                if self.holds(i, j):
                    return (i, j)
        return None

    @classmethod
    def from_raw_pairs(cls, n: int, pairs) -> Relation:
        """Reflexive relation with exactly the given extra pairs; no closure.

        Intended for feeding the condition checkers inputs that violate
        transitivity or monotonicity on purpose.
        """
        _check_n(n)
        rows = [1 << i for i in range(n)]
        for i, j in pairs:
            _check_index(i, n)
            _check_index(j, n)
            rows[i - 1] |= 1 << (j - 1)
        return cls(n, tuple(rows))


def _check_n(n: int) -> None:
    # bool is a subclass of int, and JSON true would count as 1
    if type(n) is not int or n < 1:
        raise RangeError(f"ground set size must be a positive integer, got {n!r}")


def _check_index(i, n: int) -> None:
    if type(i) is not int or not 1 <= i <= n:
        raise RangeError(f"element index {i!r} out of range 1..{n}")


def identity_relation(n: int) -> Relation:
    _check_n(n)
    return Relation(n, tuple(1 << i for i in range(n)))


def close_relation(n: int, pairs) -> Relation:
    """Reflexive-transitive closure of generating pairs, as a Relation.

    Every pair (i, j) must have i <= j; the closure of such pairs is then
    automatically an index-monotone partial order (antisymmetry comes for
    free since all related pairs point upward in index).
    """
    _check_n(n)
    rows = [1 << i for i in range(n)]
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ParseError(f"pair {pair!r} is not a pair of indices") from None
        _check_index(i, n)
        _check_index(j, n)
        if i > j:
            raise IndexOrderError(
                f"pair ({i},{j}) has i > j; relations must respect the element numbering"
            )
        rows[i - 1] |= 1 << (j - 1)
    # Warshall closure on bitmask rows
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    rel = Relation(n, tuple(rows))
    witness = rel.transitivity_witness() or rel.monotonicity_witness()
    if witness is not None:
        raise InternalMismatchError(
            f"closure is not an index-monotone partial order: witness {witness}"
        )
    return rel


def _union_of_rows(rows, mask: int) -> int:
    """OR of rows[j] over the set bits j of the mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= rows[low.bit_length() - 1]
    return out


# _BIT_DIGITS[k] maps a byte to the ASCII digit of its bit k
_BIT_DIGITS = tuple(bytes(b"01"[x >> k & 1] for x in range(256)) for k in range(8))


def _transpose(size: int, rows) -> list[int]:
    """The bit matrix transposed: bit k of column v is set when rows[k] holds v.

    Every row lies below 1 << size.  The rows are packed big-endian, a whole
    number of bytes each and the last row first, so the strided byte slice
    holding bit v of every row, each byte read as the digit of v's bit, is
    column v in base 2: no Python loop runs over the bits of the rows.
    """
    width = (size + 7) >> 3
    packed = b"".join([row.to_bytes(width, "big") for row in reversed(rows)])
    if not packed:
        return [0] * size
    return [
        int(packed[width - 1 - (v >> 3) :: width].translate(_BIT_DIGITS[v & 7]), 2)
        for v in range(size)
    ]


def is_order_ideal(rel: Relation, mask: int) -> bool:
    """Whether the bitmask (a subset of the ground set) is downward closed.

    The down-set of the mask is read from the relation's byte tables, one
    lookup per 8 elements (see Relation.down_bytes).
    """
    below, rest = 0, mask
    for table in rel.down_bytes:
        below |= table[rest & 255]
        rest >>= 8
    return below & ~mask == 0


def order_ideals(rel: Relation) -> list[int]:
    """All downward-closed subsets, sorted by cardinality then by bitmask.

    Always includes the empty set and the full ground set.
    """
    out = [m for m in range(1 << rel.n) if is_order_ideal(rel, m)]
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def ideal_closure(rel: Relation, generators_mask: int) -> int:
    """Smallest order ideal of the relation containing the given elements."""
    return _union_of_rows(rel.down_masks, generators_mask) | generators_mask


@dataclass(frozen=True)
class RelationFamily:
    """A family of r-1 level relations on a common ground set of size n."""

    n: int
    r: int
    levels: tuple[Relation, ...]

    def __post_init__(self):
        _check_n(self.n)
        if type(self.r) is not int or self.r < 2:
            raise RangeError(f"number of parts r must be an integer >= 2, got {self.r!r}")
        if len(self.levels) != self.r - 1:
            raise RangeError(
                f"expected {self.r - 1} level relations, got {len(self.levels)}"
            )
        for rel in self.levels:
            if rel.n != self.n:
                raise RangeError("all level relations must share the ground set size")

    def level(self, a: int) -> Relation:
        """The relation at level a (1-based, a in [r-1])."""
        if not 1 <= a <= self.r - 1:
            raise LevelError(f"level {a} out of range 1..{self.r - 1}")
        return self.levels[a - 1]

    @classmethod
    def from_pairs(cls, n: int, r: int, level_pairs: dict) -> RelationFamily:
        """Build a family from {level: [(i, j), ...]}; closure applied per level.

        Levels absent from the mapping default to the identity relation.
        """
        if type(r) is not int or r < 2:
            raise RangeError(f"number of parts r must be an integer >= 2, got {r!r}")
        for a in level_pairs:
            if type(a) is not int or not 1 <= a <= r - 1:
                raise LevelError(f"relation level {a!r} out of range 1..{r - 1}")
        levels = tuple(
            close_relation(n, level_pairs.get(a, ())) for a in range(1, r)
        )
        return cls(n, r, levels)


@dataclass(frozen=True)
class CompositeRelation:
    """The relation reachable through consecutive levels a..b of a family.

    Reflexive, antisymmetric and index-monotone, but in general not
    transitive, so not necessarily a poset.
    """

    a: int
    b: int
    rel: Relation


def composite_rows(family: RelationFamily, a: int):
    """Rows of the composite relations of the windows a..a, a..a+1, ..., a..r-1.

    p_i is related to p_j through levels a..b iff there is a chain
    p_i <=_a p_{t_1} <=_{a+1} ... <=_b p_j with one intermediate element per
    level boundary.  Each window is the one before it composed with the next
    level.  Because every level relation only relates smaller indices to
    larger ones, the indices along any such chain are automatically
    non-decreasing, so plain boolean relation composition computes exactly
    the chain-reachability relation; no extra ordering constraint on the
    intermediates is needed.
    """
    rows = family.level(a).rows
    yield rows
    for rel in family.levels[a:]:
        rows = tuple(_union_of_rows(rel.rows, row) for row in rows)
        yield rows


def composite_relation(family: RelationFamily, a: int, b: int) -> CompositeRelation:
    """Compose the level relations a, a+1, ..., b (see :func:`composite_rows`)."""
    if not 1 <= a <= b <= family.r - 1:
        raise LevelError(
            f"level window [{a},{b}] out of range 1 <= a <= b <= {family.r - 1}"
        )
    rows = next(islice(composite_rows(family, a), b - a, None))
    return CompositeRelation(a, b, Relation(family.n, rows))


def reach_pairs(family: RelationFamily):
    """(a, b, i, j) for all a < b with p_i reaching p_j through levels a..b-1."""
    for a in range(1, family.r):
        for b, rows in enumerate(composite_rows(family, a), start=a + 1):
            for i, row in enumerate(rows, start=1):
                for j in members(row):
                    yield a, b, i, j


def validate_chain(family: RelationFamily, chain) -> tuple[int, ...]:
    """Check a chain of ideal bitmasks (I_1, ..., I_{r-1}) against a family.

    Each I_a must be an order ideal of level a and the masks must be nested
    descending.  Returns the chain as a tuple.
    """
    chain = tuple(chain)
    if len(chain) != family.r - 1:
        raise ChainError(
            f"chain has {len(chain)} components, expected {family.r - 1}"
        )
    full = (1 << family.n) - 1
    for a, (mask, rel) in enumerate(zip(chain, family.levels), start=1):
        if type(mask) is not int or not 0 <= mask <= full:
            raise ChainError(f"component {a} is not a subset bitmask of [n]")
        if not is_order_ideal(rel, mask):
            raise ChainError(
                f"component {a} = {format_ideal(mask)} is not an order ideal of level {a}"
            )
    for a, (outer, inner) in enumerate(zip(chain, chain[1:]), start=2):
        if inner & ~outer:
            raise ChainError(
                f"chain not nested: component {a} is not contained in component {a - 1}"
            )
    return chain


# ---------------------------------------------------------------------------
# family file I/O
#
# {"n":3,"r":3,"relations":[{"level":1,"pairs":[[2,3]]},{"level":2,"pairs":[[1,2]]}]}
# Indices are 1-based; closure is applied on load; missing levels default to
# the identity relation.
# ---------------------------------------------------------------------------


def family_from_dict(doc) -> RelationFamily:
    if not isinstance(doc, dict):
        raise ParseError("family document must be an object")
    try:
        n = doc["n"]
        r = doc["r"]
    except KeyError as exc:
        raise ParseError(f"family document missing key {exc}") from None
    # JSON gives floats, strings and booleans too; bool is a subclass of int
    if type(n) is not int or type(r) is not int:
        raise ParseError(f"'n' and 'r' must be integers, got n={n!r}, r={r!r}")
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise ParseError("'relations' must be a list")
    level_pairs: dict[int, list] = {}
    for entry in relations:
        if not isinstance(entry, dict) or "level" not in entry:
            raise ParseError(f"malformed relation entry {entry!r}")
        level = entry["level"]
        if type(level) is not int:
            raise ParseError(f"relation level {level!r} is not an integer")
        pairs = entry.get("pairs", [])
        if not isinstance(pairs, list):
            raise ParseError(f"'pairs' of level {level} must be a list")
        if level in level_pairs:
            raise ParseError(f"duplicate relation level {level}")
        for p in pairs:
            if not (isinstance(p, list) and len(p) == 2 and all(type(i) is int for i in p)):
                raise ParseError(f"pair {p!r} of level {level} is not two integer indices")
        level_pairs[level] = [tuple(p) for p in pairs]
    return RelationFamily.from_pairs(n, r, level_pairs)


def family_to_dict(family: RelationFamily) -> dict:
    return {
        "n": family.n,
        "r": family.r,
        "relations": [
            {"level": a, "pairs": [list(p) for p in family.level(a).strict_pairs()]}
            for a in range(1, family.r)
        ],
    }


def read_json(path):
    """The JSON document in a file; unreadable files and bad JSON are input errors."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_family(path) -> RelationFamily:
    return family_from_dict(read_json(path))
