"""Squarefree monomials in the doubly indexed variables X[a,i].

The polynomial ring has r*n variables X[a,i] with part index a in [r] and
element index i in [n].  A squarefree monomial is a bitmask over variable
slots, slot(a, i) = (a-1)*n + (i-1).  Text syntax is `X[a,i]*X[b,j]`, with
`1` for the empty product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError, ParseError, RangeError

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
        out = []
        m = self.mask
        s = 0
        while m:
            if m & 1:
                out.append((s // self.n + 1, s % self.n + 1))
            m >>= 1
            s += 1
        return tuple(out)

    def has_variable(self, a: int, i: int) -> bool:
        return bool(self.mask >> slot(a, i, self.n) & 1)

    def divides(self, other: Monomial) -> bool:
        self._check_ring(other)
        return self.mask & ~other.mask == 0

    def quotient_generator(self, other: Monomial) -> Monomial:
        """Variables of self not dividing other; the colon-ideal generator.

        For squarefree monomials u, v the ideal quotient (v) : u is
        generated by v / gcd(u, v), whose support is v's support minus u's.
        """
        self._check_ring(other)
        return Monomial(self.r, self.n, self.mask & ~other.mask)

    def _check_ring(self, other: Monomial) -> None:
        if (self.r, self.n) != (other.r, other.n):
            raise RangeError(
                f"monomials live in different rings: ({self.r},{self.n}) vs ({other.r},{other.n})"
            )

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "*".join(f"X[{a},{i}]" for a, i in self.variables())

    @classmethod
    def from_variables(cls, r: int, n: int, variables) -> Monomial:
        mask = 0
        for a, i in variables:
            if not 1 <= a <= r:
                raise RangeError(f"part index {a} out of range 1..{r}")
            if not 1 <= i <= n:
                raise RangeError(f"element index {i} out of range 1..{n}")
            mask |= 1 << slot(a, i, n)
        return cls(r, n, mask)


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
    """A squarefree monomial ideal given by its generator list.

    Generators are stored sorted by (degree, support); they are not
    required to be minimal unless produced by :func:`minimalize`.
    """

    r: int
    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.gens:
            if (g.r, g.n) != (self.r, self.n):
                raise RangeError("generator lives in a different ring")

    def masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        """Whether the empty monomial generates, i.e. the ideal is the whole ring."""
        return any(g.mask == 0 for g in self.gens)

    @classmethod
    def from_masks(cls, r: int, n: int, masks) -> MonomialIdeal:
        return cls(r, n, sort_gens(Monomial(r, n, m) for m in masks))


def sort_gens(gens) -> tuple[Monomial, ...]:
    # canonical order: degree, then lexicographic on the sorted variable tuple.
    # Two supports of one degree first differ at the lowest slot of their
    # symmetric difference, and the one holding it comes first; with the ring's
    # slots reversed that is the highest differing bit.  One ring per call.
    gens = list(gens)
    if not gens:
        return ()
    width = gens[0].r * gens[0].n
    return tuple(
        sorted(gens, key=lambda g: (g.mask.bit_count(), -int(f"{g.mask:0{width}b}"[::-1], 2)))
    )


def minimalize(ms, r: int | None = None, n: int | None = None) -> MonomialIdeal:
    """Drop monomials divisible by another; dedupe; sort canonically.

    Ring dimensions are taken from the monomials themselves; pass r and n
    explicitly only when ms may be empty.
    """
    ms = list(ms)
    if ms:
        r, n = ms[0].r, ms[0].n
    elif r is None or n is None:
        raise RangeError("minimalize of an empty list needs explicit r and n")
    masks = sorted({g.mask for g in ms}, key=lambda m: m.bit_count())
    kept: list[int] = []
    for m in masks:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return MonomialIdeal.from_masks(r, n, kept)


# ---------------------------------------------------------------------------
# ideal file I/O: one monomial per line, '#' starts a comment, blank lines
# ignored.  The header comment records the ring size so files are
# self-describing, but r and n passed by the caller win.
# ---------------------------------------------------------------------------


def format_ideal_lines(ideal: MonomialIdeal) -> str:
    lines = [f"# ring: r={ideal.r} n={ideal.n} ({ideal.r * ideal.n} variables)"]
    lines += [str(g) for g in ideal.gens]
    return "\n".join(lines) + "\n"


def parse_ideal_lines(text: str, r: int, n: int) -> MonomialIdeal:
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            gens.append(parse_monomial(line, r, n))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}") from None
    return MonomialIdeal(r, n, sort_gens(gens))


def write_ideal(path, ideal: MonomialIdeal) -> None:
    with open(path, "w") as fh:
        fh.write(format_ideal_lines(ideal))


def read_ideal(path, r: int, n: int) -> MonomialIdeal:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read ideal file {path}: {exc}") from None
    return parse_ideal_lines(text, r, n)
