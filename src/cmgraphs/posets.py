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
from itertools import combinations

from .errors import (
    ChainError,
    IndexOrderError,
    InputError,
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

    def down_masks(self) -> tuple[int, ...]:
        """down[j] = bitmask of all i with p_{i+1} related-to p_{j+1} (0-based j)."""
        down = [0] * self.n
        for i in range(self.n):
            row = self.rows[i]
            for j in range(self.n):
                if row >> j & 1:
                    down[j] |= 1 << i
        return tuple(down)

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

    def is_poset(self) -> bool:
        return (
            self.is_reflexive()
            and self.antisymmetry_witness() is None
            and self.transitivity_witness() is None
        )

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
    if not isinstance(n, int) or n < 1:
        raise RangeError(f"ground set size must be a positive integer, got {n!r}")


def _check_index(i, n: int) -> None:
    if not isinstance(i, int) or not 1 <= i <= n:
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
    assert rel.transitivity_witness() is None
    assert rel.monotonicity_witness() is None
    return rel


def _union_of_rows(rows, mask: int) -> int:
    """OR of rows[j] over the set bits j of the mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= rows[low.bit_length() - 1]
    return out


def is_order_ideal(rel: Relation, mask: int) -> bool:
    """Whether the bitmask is downward closed in the relation."""
    return _union_of_rows(rel.down_masks(), mask) & ~mask == 0


def order_ideals(rel: Relation) -> list[int]:
    """All downward-closed subsets, sorted by cardinality then by bitmask.

    Always includes the empty set and the full ground set.
    """
    down = rel.down_masks()
    out = [m for m in range(1 << rel.n) if _union_of_rows(down, m) & ~m == 0]
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def ideal_closure(rel: Relation, generators_mask: int) -> int:
    """Smallest order ideal of the relation containing the given elements."""
    return _union_of_rows(rel.down_masks(), generators_mask) | generators_mask


@dataclass(frozen=True)
class RelationFamily:
    """A family of r-1 level relations on a common ground set of size n."""

    n: int
    r: int
    levels: tuple[Relation, ...]

    def __post_init__(self):
        _check_n(self.n)
        if not isinstance(self.r, int) or self.r < 2:
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
        if not isinstance(r, int) or r < 2:
            raise RangeError(f"number of parts r must be an integer >= 2, got {r!r}")
        for a in level_pairs:
            if not isinstance(a, int) or not 1 <= a <= r - 1:
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


def composite_relation(family: RelationFamily, a: int, b: int) -> CompositeRelation:
    """Compose the level relations a, a+1, ..., b.

    p_i is related to p_j iff there is a chain p_i <=_a p_{t_1} <=_{a+1}
    ... <=_b p_j with one intermediate element per level boundary.  Because
    every level relation only relates smaller indices to larger ones, the
    indices along any such chain are automatically non-decreasing, so plain
    boolean relation composition computes exactly the chain-reachability
    relation; no extra ordering constraint on the intermediates is needed.
    """
    if not 1 <= a <= b <= family.r - 1:
        raise LevelError(
            f"level window [{a},{b}] out of range 1 <= a <= b <= {family.r - 1}"
        )
    rows = list(family.level(a).rows)
    n = family.n
    for lvl in range(a + 1, b + 1):
        nxt = family.level(lvl).rows
        rows = [_union_of_rows(nxt, row) for row in rows]
    return CompositeRelation(a, b, Relation(n, tuple(rows)))


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
    for a, mask in enumerate(chain, start=1):
        if not isinstance(mask, int) or mask < 0 or mask > full:
            raise ChainError(f"component {a} is not a subset bitmask of [n]")
        if not is_order_ideal(family.level(a), mask):
            raise ChainError(
                f"component {a} = {format_ideal(mask)} is not an order ideal of level {a}"
            )
    for a in range(len(chain) - 1):
        if chain[a + 1] & ~chain[a]:
            raise ChainError(
                f"chain not nested: component {a + 2} is not contained in component {a + 1}"
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
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise ParseError("'relations' must be a list")
    level_pairs: dict[int, list] = {}
    for entry in relations:
        if not isinstance(entry, dict) or "level" not in entry:
            raise ParseError(f"malformed relation entry {entry!r}")
        level = entry["level"]
        pairs = entry.get("pairs", [])
        if not isinstance(pairs, list):
            raise ParseError(f"'pairs' of level {level!r} must be a list")
        if level in level_pairs:
            raise ParseError(f"duplicate relation level {level!r}")
        level_pairs[level] = [tuple(p) if isinstance(p, list) else p for p in pairs]
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


def ideals_lattice_closed(ideals) -> bool:
    """Whether a collection of ideal bitmasks is closed under union and intersection."""
    pool = set(ideals)
    return all(
        (x | y) in pool and (x & y) in pool for x, y in combinations(pool, 2)
    )
