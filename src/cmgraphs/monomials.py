"""Squarefree monomials in the doubly indexed variables X[a,i].

The polynomial ring has r*n variables X[a,i] with part index a in [r] and
element index i in [n].  A squarefree monomial is a bitmask over variable
slots, slot(a, i) = (a-1)*n + (i-1).  Text syntax is `X[a,i]*X[b,j]`, with
`1` for the empty product.

Ideals are masks end to end: a MonomialIdeal stores the canonical tuple of
its generators' masks, and its constructor, sort_gens and minimalize take
and give masks.  The Monomial dataclass is made only to parse and print, and
where a caller asks for `gens`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, RangeError

_FACTOR_RE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*\]")


def slot(a: int, i: int, n: int) -> int:
    return (a - 1) * n + (i - 1)


@dataclass(frozen=True, order=True)
class Monomial:
    """A squarefree monomial, as a bitmask over the r*n variable slots."""

    r: int
    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> (self.r * self.n):
            raise RangeError(
                f"monomial bitmask {self.mask:#x} out of range for r={self.r}, n={self.n}"
            )

    def degree(self) -> int:
        return self.mask.bit_count()

    def variables(self) -> tuple[tuple[int, int], ...]:
        """The (a, i) pairs of the support, sorted by (a, i)."""
        n, m = self.n, self.mask
        return tuple((s // n + 1, s % n + 1) for s in range(m.bit_length()) if m >> s & 1)

    def has_variable(self, a: int, i: int) -> bool:
        return bool(self.mask >> slot(a, i, self.n) & 1)

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "*".join(f"X[{a},{i}]" for a, i in self.variables())


def parse_monomial(text: str, r: int, n: int) -> Monomial:
    """Parse `X[a,i]*X[b,j]*...` or `1`; rejects repeated variables."""
    text = text.strip()
    if text == "1":
        return Monomial(r, n, 0)
    if not text:
        raise ParseError("empty monomial string")
    mask = 0
    for factor in text.split("*"):
        factor = factor.strip()
        m = _FACTOR_RE.fullmatch(factor)
        if not m:
            raise ParseError(f"malformed factor {factor!r}")
        a, i = int(m.group(1)), int(m.group(2))
        if not 1 <= a <= r:
            raise ParseError(f"part index {a} out of range 1..{r} in {factor!r}")
        if not 1 <= i <= n:
            raise ParseError(f"element index {i} out of range 1..{n} in {factor!r}")
        bit = 1 << slot(a, i, n)
        if mask & bit:
            raise ParseError(f"repeated variable X[{a},{i}]; monomials here are squarefree")
        mask |= bit
    return Monomial(r, n, mask)


@dataclass(frozen=True)
class MonomialIdeal:
    """A squarefree monomial ideal, stored as the tuple of its generators' masks.

    Generators are stored once each, sorted by (degree, support), however
    the ideal is built; they are minimal only if made by :func:`minimalize`.
    `gens` makes the Monomials on first use, for callers that print them.
    """

    r: int
    n: int
    gen_masks: tuple[int, ...]

    def __post_init__(self):
        masks = tuple(self.gen_masks)
        for m in masks:
            if type(m) is not int or m < 0 or m >> self.r * self.n:
                raise RangeError(
                    f"generator mask {m!r} is not a monomial of the ring r={self.r}, n={self.n}"
                )
        object.__setattr__(self, "gen_masks", sort_gens(set(masks)))

    def masks(self) -> tuple[int, ...]:
        return self.gen_masks

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(self.r, self.n, m) for m in self.gen_masks)

    def is_unit(self) -> bool:
        """Whether the empty monomial generates, i.e. the ideal is the whole ring."""
        return 0 in self.gen_masks


# _NREV[x] = 255 - (x with its 8 bits reversed): a byte holding a lower bit
# maps below one that does not, first differing bit deciding
_NREV = bytes(255 - sum((x >> k & 1) << (7 - k) for k in range(8)) for x in range(256))


def sort_gens(masks) -> tuple[int, ...]:
    """Masks in the canonical order: degree, then lexicographic on the
    sorted variable tuple.

    Two supports of one degree first differ at the lowest slot of their
    symmetric difference, and the one holding it comes first.  Packed
    little-endian over a common byte width, the lowest slots sit in the
    first byte, and _NREV makes a byte holding the lower of two differing
    bits the smaller one, so the bytes compare in that order.  A second,
    stable sort by degree keeps it within each degree.
    """
    masks = list(masks)
    nb = (max(masks, default=0).bit_length() + 7) >> 3
    masks.sort(key=lambda m: m.to_bytes(nb, "little").translate(_NREV))
    masks.sort(key=int.bit_count)
    return tuple(masks)


def minimalize(masks, r: int, n: int) -> MonomialIdeal:
    """Drop masks that contain another; dedupe; sort canonically."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return MonomialIdeal(r, n, kept)
