"""Nested chains of order ideals, their monomials, and linear-quotients checks.

A chain is a tuple (I_1, ..., I_{r-1}) with I_a an order ideal of level a
and I_1 ⊇ I_2 ⊇ ... ⊇ I_{r-1}.  Each chain yields a squarefree monomial of
degree n(r-1); together they generate the chain ideal of the family.

The partial order on chains is componentwise inclusion.  Conventions
I_0 = full ground set and I_r = ∅ are used throughout, so for every element
p_i there is exactly one level a with p_i in I_{a-1} but not I_a, and the
variable X[a,i] is exactly the one missing from the chain monomial.

Packed into one int P with I_a at bits (a-1)n..an-1, a chain gives its
monomial as P | ((~P & ((1 << (r-1)n) - 1)) << n), and componentwise
inclusion of two chains is the single test P_j & ~P_k == 0.  The canonical
order (total cardinality, then the mask tuple) is a linear extension of
inclusion without any pairwise comparison, because total cardinality
strictly increases along strict inclusion.

The layer works on ints throughout.  chain_monomial validates a caller's
chain in full (byte-table order-ideal tests, then nesting); build_hr packs
its own enumerated chains, valid by construction, and checks only that no
two monomials collide.  Random extensions walk the chains' cover relation.

Linear quotients in every linear extension are decided in one pass
(check_all_extensions).  The chains below k come before k in every
extension, and a chain j can come before k in some extension exactly when
j is neither k nor above k: the down-set of j with the chains below k is
then a prefix.  So every extension has linear quotients iff, for each k,
the one-variable quotients of the chains below k cover every chain that
is neither above k nor k itself.  That suffices at once.  It is necessary
because of the shape of chain monomials.  Let l_i(C) be the level a with
p_i in I_{a-1} but not I_a, so u_C lacks exactly the X[l_i(C), i], and
C <= D iff l_i(C) <= l_i(D) for every i.  The quotient of u_C by u_k is
one variable exactly when C and k differ at one index i only; it is
X[l_i(k), i], and it divides the quotient of u_j iff j and k differ at i.
A chain C <= j not below k with such a quotient has l_i(C) > l_i(k), so
l_i(j) > l_i(k) and l_h(j) >= l_h(k) at every other h: j lies above k.
Hence the extension that places the down-set of j and the chains
below k first, then k, fails at k (witness_extension).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .errors import (
    BudgetError,
    ChainError,
    DegreeError,
    InternalMismatchError,
    RangeError,
)
from .monomials import Monomial, MonomialIdeal
from .posets import (
    RelationFamily,
    _transpose,
    _union_of_rows,
    composite_rows,
    ideal_closure,
    members,
    order_ideals,
    validate_chain,
)


def _chain_sort_key(chain):
    return (sum(map(int.bit_count, chain)), chain)


def enumerate_chains(family: RelationFamily) -> list[tuple[int, ...]]:
    """All nested ideal chains of the family, canonically ordered.

    Grown level by level from the top downward: the chains (I_{r-1}), then
    each extended by every ideal I_a of level a containing its I_{a+1}, so
    the J(P_1) x ... x J(P_{r-1}) product is never built.  Sorted by total
    cardinality, then by the bitmask tuple.
    """
    per_level = [order_ideals(rel) for rel in family.levels]
    chains = [(mask,) for mask in per_level[-1]]
    for ideals in reversed(per_level[:-1]):
        chains = [(mask,) + chain for chain in chains for mask in ideals if chain[0] & ~mask == 0]
    chains.sort(key=_chain_sort_key)
    return chains


def _pack(chain, width: int) -> int:
    """The chain as one int, component a (0-based) at bits a*width."""
    packed = 0
    for ideal in reversed(chain):
        packed = packed << width | ideal
    return packed


def chain_monomial(family: RelationFamily, chain) -> Monomial:
    """The degree-n(r-1) squarefree monomial of a nested ideal chain.

    Support: X[a,i] for p_i in I_a, plus X[a+1,i] for p_i not in I_a,
    over a in [r-1].
    """
    chain = validate_chain(family, chain)
    n, r = family.n, family.r
    packed = _pack(chain, n)
    mask = packed | (~packed & ((1 << (r - 1) * n) - 1)) << n
    if mask.bit_count() != n * (r - 1):
        raise ChainError(
            f"chain monomial degree {mask.bit_count()} != n(r-1) = {n * (r - 1)}"
        )
    return Monomial(r, n, mask)


def _monomial_masks(family: RelationFamily, chains) -> list[int]:
    """The chain monomials' masks, packed without chain_monomial's validation."""
    n = family.n
    low = (1 << (family.r - 1) * n) - 1
    return [p | (~p & low) << n for p in (_pack(c, n) for c in chains)]


def build_hr(family: RelationFamily) -> MonomialIdeal:
    """The ideal generated by all chain monomials of the family.

    All generators share degree n(r-1), so distinct monomials are
    automatically minimal; the chain -> monomial map is checked injective.
    The enumerated chains are valid by construction, so their monomials are
    packed here directly, without chain_monomial's validation.
    """
    n, r = family.n, family.r
    masks = _monomial_masks(family, enumerate_chains(family))
    if len(set(masks)) != len(masks):
        raise InternalMismatchError(
            "chain -> monomial map failed to be injective; generators collide"
        )
    return MonomialIdeal.from_masks(r, n, masks)


def chain_compare(chain_j, chain_i) -> str:
    """Componentwise-inclusion verdict: less, greater, equal or incomparable."""
    chain_j, chain_i = tuple(chain_j), tuple(chain_i)
    if len(chain_j) != len(chain_i):
        raise ChainError("cannot compare chains of different lengths")
    if chain_j == chain_i:
        return "equal"
    j_below = all(a & ~b == 0 for a, b in zip(chain_j, chain_i))
    i_below = all(b & ~a == 0 for a, b in zip(chain_j, chain_i))
    if j_below:
        return "less"
    if i_below:
        return "greater"
    return "incomparable"


@dataclass(frozen=True)
class ChainOrder:
    """A total order on a chain set extending componentwise inclusion."""

    chains: tuple[tuple[int, ...], ...]


def linear_extension(chains) -> ChainOrder:
    """Canonical total order: total cardinality, then bitmask-tuple lex.

    Total cardinality strictly increases along componentwise strict
    inclusion, so this sort is always a linear extension.  One pass checks
    it: the sorted keys strictly increase, so the chains are pairwise
    distinct and no chain lies below an earlier one.  A chain given twice
    raises ChainError.
    """
    keys = sorted(map(_chain_sort_key, chains))
    for x, y in zip(keys, keys[1:]):
        if x >= y:
            raise ChainError(f"chain {y[1]} is given more than once")
    return ChainOrder(tuple(chain for _, chain in keys))


@functools.lru_cache(maxsize=1)
def _predecessors(chains: tuple) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """For each position k, the bitmask of positions j with chains[j] < chains[k],
    the bitmask of its lower covers, and the positions each chain covers.

    With the chains packed into one int each and transposed into one column
    per bit, the chains inside chains[k] are the positions outside the OR of
    the columns of the bits chains[k] lacks; below[k] is those less the
    chains equal to chains[k], so a repeated chain is incomparable with its
    copy.  The lower covers of k are below[k] minus everything below a
    member of below[k].  Cached for the last chain tuple, so repeated random
    extensions of one chain set build the masks once.
    """
    width = max((ideal.bit_length() for c in chains for ideal in c), default=0)
    packed = [_pack(c, width) for c in chains]
    everything = (1 << len(chains)) - 1
    union, columns = _columns(packed)
    equal: dict[int, int] = {}
    for k, pk in enumerate(packed):
        equal[pk] = equal.get(pk, 0) | 1 << k
    below = [
        everything & ~_union_of_rows(columns, union & ~pk) & ~equal[pk] for pk in packed
    ]
    covers = [b & ~_union_of_rows(below, b) for b in below]
    ups: list[list[int]] = [[] for _ in chains]
    for k, cover in enumerate(covers):
        while cover:
            low = cover & -cover
            cover ^= low
            ups[low.bit_length() - 1].append(k)
    return tuple(below), tuple(covers), tuple(map(tuple, ups))


def random_linear_extension(chains, rng: random.Random) -> ChainOrder:
    """A seeded random linear extension (random topological sort, not uniform).

    Incremental Kahn on the cover relation: track how many lower covers of
    each chain are unplaced and keep a pool of ready chains, picking
    randomly.  A chain is ready once its last strict predecessor is placed,
    and that one is always a cover, so walking covers gives the same orders
    as walking every successor.  The predecessors are read off the columns
    of the packed chains (see _predecessors).
    """
    chains = tuple(map(tuple, chains))
    m = len(chains)
    below, covers, ups = _predecessors(chains)
    counts = [c.bit_count() for c in covers]
    ready = [k for k in range(m) if counts[k] == 0]
    order: list[int] = []
    placed = 0
    while ready:
        pos = rng.randrange(len(ready))
        ready[pos], ready[-1] = ready[-1], ready[pos]
        pick = ready.pop()
        if below[pick] & ~placed:
            raise InternalMismatchError(
                f"chain {chains[pick]} placed before a chain below it"
            )
        placed |= 1 << pick
        order.append(pick)
        for k in ups[pick]:
            counts[k] -= 1
            if counts[k] == 0:
                ready.append(k)
    if len(order) != m:
        raise InternalMismatchError("componentwise inclusion has a cycle")
    return ChainOrder(tuple(chains[k] for k in order))


@dataclass(frozen=True)
class LinearQuotientsVerdict:
    passed: bool
    witness: tuple[int, int] | None = None  # 1-based (j, i): u_j blocks u_i

    def __bool__(self) -> bool:
        return self.passed


def _columns(masks: list[int]) -> tuple[int, list[int]]:
    """The union of the masks, and the masks transposed into variable columns.

    Column v has bit k set exactly when masks[k] holds v.  The union is read
    off the columns, one bit per variable, rather than ORed over the masks.
    """
    columns = _transpose(max(masks, default=0).bit_length(), masks)
    return sum(1 << v for v, col in enumerate(columns) if col), columns


def _blocked(columns: list[int], sources: int, targets: int, outside: int) -> int:
    """The positions of `targets` that no one-variable quotient from `sources` covers.

    For a generator u, the quotient of another u_k is the support of
    u_k/gcd(u_k,u): the variables of `outside` (the union minus u) whose
    column holds k.  Bit-sliced counters over those columns, restricted to
    the sources, give the sources whose quotient is exactly one variable; a
    variable whose column meets them is such a quotient itself, and every
    position its column holds is covered.  The exact sources lie inside the
    sources, so the full column meets them where its restriction does and is
    ORed in as it is.  A repeated generator has the empty quotient and is
    never covered.
    """
    ones = twos = 0
    fulls = []
    while outside:
        low = outside & -outside
        outside ^= low
        full = columns[low.bit_length() - 1]
        col = full & sources
        twos |= ones & col
        ones |= col
        fulls.append(full)
    exact = ones & ~twos
    cover = 0
    for full in fulls:
        if full & exact:
            cover |= full
    return targets & ~cover


def check_linear_quotients(gens) -> LinearQuotientsVerdict:
    """Check the linear-quotients condition for generators in the given order.

    Pass iff for every position i and every j < i some k < i has
    u_k/gcd(u_k,u_i) equal to a single variable dividing u_j/gcd(u_j,u_i).
    Positions are 1-based; on failure the first offending (j, i) is the
    witness.  Each i is decided at once over the variable columns of the
    generators (see _blocked), not pair by pair.
    """
    masks = [g.mask for g in gens]
    degs = {m.bit_count() for m in masks}
    if len(degs) > 1:
        raise DegreeError(f"generators are not equigenerated: degrees {sorted(degs)}")
    union, columns = _columns(masks)
    for i in range(1, len(masks)):
        earlier = (1 << i) - 1
        blocked = _blocked(columns, earlier, earlier, union & ~masks[i])
        if blocked:
            j = (blocked & -blocked).bit_length()  # 1-based lowest blocked
            return LinearQuotientsVerdict(False, (j, i + 1))
    return LinearQuotientsVerdict(True)


def check_all_extensions(family: RelationFamily, chains) -> LinearQuotientsVerdict:
    """Linear quotients of the chain monomials in every linear extension at once.

    Pass iff for each k the one-variable quotients of the chains below k
    cover every chain that is neither above k nor k itself (see the module
    docstring for the proof), which takes one _blocked call per chain.  On
    failure the witness is the first 1-based (j, k), positions in `chains`:
    u_j blocks u_k in witness_extension(chains, j, k).  The chains are the
    family's, as enumerate_chains lists them, in any order and not
    validated; any subset of them works too.
    """
    chains = tuple(map(tuple, chains))
    masks = _monomial_masks(family, chains)
    union, columns = _columns(masks)
    below = _predecessors(chains)[0]
    above = _transpose(len(chains), below)
    everything = (1 << len(chains)) - 1
    for k, mask in enumerate(masks):
        targets = everything & ~above[k] & ~(1 << k)
        blocked = _blocked(columns, below[k], targets, union & ~mask)
        if blocked:
            j = (blocked & -blocked).bit_length()  # 1-based lowest blocked
            return LinearQuotientsVerdict(False, (j, k + 1))
    return LinearQuotientsVerdict(True)


def witness_extension(chains, j: int, k: int) -> ChainOrder:
    """The linear extension in which u_j blocks u_k when the certificate fails there.

    The down-set of chain j together with the chains below k comes first,
    then k, then the rest, each part in canonical order.  j and k are
    1-based positions in `chains`; chain j must not be k or lie above it.
    """
    chains = tuple(map(tuple, chains))
    below = _predecessors(chains)[0]
    j, k = j - 1, k - 1
    if j == k or below[j] >> k & 1:
        raise ChainError(f"chain {chains[j]} is not placed before {chains[k]} by any extension")
    first = below[j] | 1 << j | below[k]
    rest = ((1 << len(chains)) - 1) & ~first & ~(1 << k)
    return ChainOrder(
        tuple(
            chain
            for part in (first, 1 << k, rest)
            for chain in sorted((chains[p - 1] for p in members(part)), key=_chain_sort_key)
        )
    )


def find_linear_quotients_order(
    ideal: MonomialIdeal, state_budget: int = 1 << 22
) -> tuple[Monomial, ...] | None:
    """Search for a generator ordering with linear quotients.

    Backtracking over placements, memoized on the set of already-placed
    generators: whether a generator may be appended depends only on that set,
    so a placed set that once failed to complete always fails.  Returns a
    passing order, or None when the search space is exhausted.  A None is
    only "no order exists", never "gave up": exceeding the state budget
    raises instead.
    """
    masks = ideal.masks()
    degs = {mask.bit_count() for mask in masks}
    if len(degs) > 1:
        raise DegreeError(f"generators are not equigenerated: degrees {sorted(degs)}")
    m = len(masks)
    if m <= 1:
        return ideal.gens
    union, columns = _columns(masks)
    full = (1 << m) - 1
    dead: set[int] = set()
    states_seen = 0

    def search(placed: int, order: list[int]) -> bool:
        nonlocal states_seen
        if placed == full:
            return True
        if placed in dead:
            return False
        states_seen += 1
        if states_seen > state_budget:
            raise BudgetError(
                f"linear-quotients search exceeded {state_budget} states"
            )
        for cand in range(m):
            if placed >> cand & 1:
                continue
            if not _blocked(columns, placed, placed, union & ~masks[cand]):
                order.append(cand)
                if search(placed | 1 << cand, order):
                    return True
                order.pop()
        dead.add(placed)
        return False

    order: list[int] = []
    if search(0, order):
        found = tuple(ideal.gens[k] for k in order)
        verdict = check_linear_quotients(found)
        if not verdict.passed:
            raise InternalMismatchError(
                f"search returned an order failing its own check at {verdict.witness}"
            )
        return found
    return None


def gamma_chain(family: RelationFamily, fset) -> tuple[int, ...]:
    """Chain of order ideals generated downward by a set of variables.

    fset is a collection of (level, index) variable pairs.  Working from the
    top: gamma_r = ∅, and gamma_{a-1} is the order ideal of level a-1
    generated by {p_i : (a, i) in fset} together with gamma_a.  Level-1
    variables never contribute.  The result is always a valid nested chain.
    """
    n, r = family.n, family.r
    per_level_gens = [0] * (r + 1)  # per_level_gens[a] = elements from X[a,*]
    for a, i in fset:
        if not 1 <= a <= r:
            raise RangeError(f"variable level {a} out of range 1..{r}")
        if not 1 <= i <= n:
            raise RangeError(f"variable index {i} out of range 1..{n}")
        per_level_gens[a] |= 1 << (i - 1)
    gammas = [0] * r  # gammas[a-1] = gamma_a for a in [r-1], plus scratch
    upper = 0  # gamma_r = ∅
    for a in range(r, 1, -1):
        upper = ideal_closure(family.level(a - 1), per_level_gens[a] | upper)
        gammas[a - 2] = upper
    chain = tuple(gammas[: r - 1])
    return validate_chain(family, chain)


def gamma_certificate(
    family: RelationFamily, fset, a: int, i: int
) -> tuple[int, int] | None:
    """Why p_i landed in gamma_a: a variable (b, j) in fset reaching it.

    Returns (b, j) with a+1 <= b <= r, (b, j) in fset and p_i related to p_j
    through levels a..b-1; None when p_i is not in gamma_a at all.  Raises
    when p_i is in gamma_a but no certificate exists, since the construction
    guarantees one.
    """
    chain = gamma_chain(family, fset)
    if not 1 <= a <= family.r - 1:
        raise RangeError(f"level {a} out of range 1..{family.r - 1}")
    if not chain[a - 1] >> (i - 1) & 1:
        return None
    fvars = sorted(set(fset))
    for b, rows in enumerate(composite_rows(family, a), start=a + 1):
        for bb, j in fvars:
            if bb == b and rows[i - 1] >> (j - 1) & 1:
                return (b, j)
    raise InternalMismatchError(
        f"p_{i} is in gamma_{a} but no generating variable reaches it"
    )
