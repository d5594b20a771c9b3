"""The universe of non-empty proper subsets of [n] and its star-based families.

Subsets are bitmasks over [n] (bit i-1 for element i).  A SetFamily is stored
as one big-integer bitset indexed by subset mask, so membership is one bit
test and layer statistics are mask-and-popcount.

Named families, all relative to the distinguished element 1 and the size-k
tail interval H = [n-k+1, n]:

  star(n)          every proper subset containing 1
  removed_part(p)  star members inside [n-k], the part dropped below
  hm_shadow(p)     (star - removed_part) together with the complements of
                   the removed part; the support-level shadow of the
                   Hilton-Milner style multiset family

The valuable part of a family keeps only layers q..k, the support sizes a
k-uniform multiset can realize.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from . import canonical
from .params import Params, ParameterError, frozen

__all__ = [
    "SetFamily", "mask_from_elements", "elements_from_mask", "complement_mask", "by_size_then_elements",
    "dual", "uniform_part", "valuable_part", "build_star", "build_removed_part",
    "build_hm_shadow", "hm_shadow_valuable", "hm_shadow_layer_size",
    "is_intersecting_sf", "is_up_set", "pair_rule_holds",
    "is_maximal_intersecting_sf", "is_maximal_intersecting_definitional",
    "is_down_set_in_star", "union_never_full", "twist",
    "set_families_isomorphic", "canonical_set_family",
]


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ParameterError(f"element {e} outside [{n}]")
        mask |= 1 << (e - 1)
    return mask


@lru_cache(maxsize=1 << 12)
def elements_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def complement_mask(mask: int, n: int) -> int:
    return ((1 << n) - 1) ^ mask


@lru_cache(maxsize=None)
def layer_bitsets(n: int) -> tuple[int, ...]:
    """layer_bitsets(n)[l] is the bitset of all size-l subsets of [n] (by mask index)."""
    layers = [0] * (n + 1)
    for x in range(1, 1 << n):
        layers[x.bit_count()] |= 1 << x
    return tuple(layers)


def by_size_then_elements(masks: Iterable[int]) -> list[tuple[int, ...]]:
    """The element tuples of masks, sorted by (size, elements).

    Two sorts in C, no key tuple per mask: by elements, then stably by size.
    """
    out = list(map(elements_from_mask, masks))
    out.sort()
    out.sort(key=len)
    return out


@frozen
class SetFamily:
    """Duplicate-free family of subsets of [n]; bit x of `bits` marks mask x as a member."""

    n: int
    bits: int

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int], require_proper: bool = True) -> "SetFamily":
        full = (1 << n) - 1
        bits = 0
        for x in masks:
            if not 0 <= x <= full:
                raise ParameterError(f"mask {x} outside the subset lattice of [{n}]")
            if require_proper and (x == 0 or x == full):
                raise ParameterError("member must be a non-empty proper subset")
            bits |= 1 << x
        return cls(n=n, bits=bits)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]], require_proper: bool = True) -> "SetFamily":
        return cls.from_masks(n, (mask_from_elements(s, n) for s in sets), require_proper)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, mask: int) -> bool:
        return (self.bits >> mask) & 1 == 1

    def members(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            yield (bits & -bits).bit_length() - 1
            bits &= bits - 1

    def member_sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as element tuples, sorted by (size, elements)."""
        return tuple(by_size_then_elements(self.members()))

    def layer_count(self, l: int) -> int:
        if l < 0 or l > self.n:
            return 0
        return (self.bits & layer_bitsets(self.n)[l]).bit_count()


def dual(fam: SetFamily) -> SetFamily:
    full = (1 << fam.n) - 1
    bits = 0
    rest = fam.bits
    while rest:
        x = (rest & -rest).bit_length() - 1
        bits |= 1 << (full ^ x)
        rest &= rest - 1
    return SetFamily(n=fam.n, bits=bits)


def uniform_part(fam: SetFamily, l: int) -> SetFamily:
    if l < 0 or l > fam.n:
        return SetFamily(n=fam.n, bits=0)
    return SetFamily(n=fam.n, bits=fam.bits & layer_bitsets(fam.n)[l])


def valuable_part(fam: SetFamily, p: Params) -> SetFamily:
    if fam.n != p.n:
        raise ParameterError("family and parameters disagree on n")
    layers = layer_bitsets(fam.n)
    mask = 0
    for l in range(p.q, p.k + 1):
        if l <= fam.n:
            mask |= layers[l]
    return SetFamily(n=fam.n, bits=fam.bits & mask)


def build_star(n: int) -> SetFamily:
    """All proper subsets of [n] containing element 1."""
    if n < 2:
        raise ParameterError("star needs n >= 2")
    full = (1 << n) - 1
    bits = 0
    for x in range(1, full):
        if x & 1:
            bits |= 1 << x
    return SetFamily(n=n, bits=bits)


def build_removed_part(p: Params) -> SetFamily:
    """Star members contained in [n-k]; non-degenerate only when n > k."""
    p.require_tail()
    low = (1 << (p.n - p.k)) - 1
    bits = 0
    x = low
    # all submasks of [n-k] containing element 1
    while x:
        if x & 1:
            bits |= 1 << x
        x = (x - 1) & low
    return SetFamily(n=p.n, bits=bits)


def build_hm_shadow(p: Params) -> SetFamily:
    """(star - removed_part) together with the dual of the removed part."""
    p.require_tail()
    star = build_star(p.n)
    removed = build_removed_part(p)
    kept = star.bits & ~removed.bits
    return SetFamily(n=p.n, bits=kept | dual(removed).bits)


def hm_shadow_valuable(p: Params) -> SetFamily:
    return valuable_part(build_hm_shadow(p), p)


def hm_shadow_layer_size(p: Params, l: int) -> int:
    """Closed-form size of layer l of the shadow family.

    Composed of the star layer minus the removed layer plus the dual of the
    removed layer at size n-l; degenerate l yields 0.
    """
    n, k = p.n, p.k

    def c(a: int, b: int) -> int:
        return comb(a, b) if 0 <= b <= a else 0

    if l < 1 or l > n - 1:
        return 0
    return c(n - 1, l - 1) - c(n - k - 1, l - 1) + c(n - k - 1, n - l - 1)


def is_intersecting_sf(fam: SetFamily) -> bool:
    members = list(fam.members())
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if not x & y:
                return False
    return True


def is_up_set(fam: SetFamily) -> bool:
    """Closed upward within the proper non-empty subsets."""
    full = (1 << fam.n) - 1
    for x in fam.members():
        rest = full ^ x
        t = rest
        while t:
            y = x | t
            if y != full and y not in fam:
                return False
            t = (t - 1) & rest
    return True


def pair_rule_holds(fam: SetFamily) -> bool:
    """Exactly one of each complementary pair {B, [n]-B} belongs to the family."""
    full = (1 << fam.n) - 1
    for x in range(1, full):
        if ((fam.bits >> x) & 1) + ((fam.bits >> (full ^ x)) & 1) != 1:
            return False
    return True


def is_maximal_intersecting_definitional(fam: SetFamily) -> bool:
    """Intersecting and not extendable by any outside subset; checks all of the universe."""
    if not is_intersecting_sf(fam):
        return False
    full = (1 << fam.n) - 1
    members = list(fam.members())
    for x in range(1, full):
        if x in fam:
            continue
        if all(x & y for y in members):
            return False
    return True


def is_maximal_intersecting_sf(fam: SetFamily) -> bool:
    """Fast path when the size matches 2^(n-1) - 1: pair rule + up-set + intersecting.

    Any family satisfying those three is maximal; any maximal family satisfies
    them.  Other sizes fall back to the definitional check.
    """
    if len(fam) == (1 << (fam.n - 1)) - 1:
        return pair_rule_holds(fam) and is_up_set(fam) and is_intersecting_sf(fam)
    return is_maximal_intersecting_definitional(fam)


def _require_star_subfamily(d: SetFamily) -> None:
    for x in d.members():
        if not x & 1:
            raise ParameterError("family must consist of subsets containing element 1")


def is_down_set_in_star(d: SetFamily) -> bool:
    """Closed downward within the star: every 1-containing subset of a member belongs."""
    _require_star_subfamily(d)
    for x in d.members():
        inner = x & ~1
        t = inner
        while True:
            t = (t - 1) & inner  # proper submasks of inner, 0 included ({1} itself)
            if (1 | t) not in d:
                return False
            if t == 0:
                break
    return True


def union_never_full(d: SetFamily) -> bool:
    full = (1 << d.n) - 1
    members = list(d.members())
    for i, x in enumerate(members):
        for y in members[i:]:
            if x | y == full:
                return False
    return True


def twist(star: SetFamily, d: SetFamily) -> SetFamily:
    """(star - d) together with the complements of d's members."""
    if star.n != d.n:
        raise ParameterError("families disagree on n")
    if d.bits & ~star.bits:
        raise ParameterError("twist requires the removed family to sit inside the star")
    return SetFamily(n=star.n, bits=(star.bits & ~d.bits) | dual(d).bits)


def _member_vectors(fam: SetFamily) -> list[tuple[int, ...]]:
    """The 0/1 vector of each member, position e for element e+1."""
    return [tuple((x >> e) & 1 for e in range(fam.n)) for x in fam.members()]


def _permute_mask(x: int, perm: Sequence[int], n: int) -> int:
    y = 0
    for i in range(n):
        if (x >> i) & 1:
            y |= 1 << perm[i]
    return y


@lru_cache(maxsize=None)
def _transpositions(n: int) -> tuple[tuple[int, int], ...]:
    """Each adjacent transposition (e e+1) as a delta swap (shift, mask) on family bitsets.

    It sends every subset mask x that holds e but not e+1 to x + 2^e and back,
    so bit x of a family bitset trades places with bit x + 2^e for x in mask.
    """
    return tuple(
        (1 << e, sum(1 << x for x in range(1 << n) if (x >> e) & 3 == 1))
        for e in range(n - 1)
    )


def _relabel(bits: int, perm: Sequence[int], n: int) -> int:
    """The family bitset with element e of every member moved to position perm[e].

    A bubble sort of perm, applying each adjacent swap it makes to bits.
    """
    moves = _transpositions(n)
    target = list(perm)
    for end in range(n - 1, 0, -1):
        for i in range(end):
            if target[i] > target[i + 1]:
                target[i], target[i + 1] = target[i + 1], target[i]
                shift, mask = moves[i]
                t = (bits ^ (bits >> shift)) & mask
                bits ^= t ^ (t << shift)
    return bits


def _swap_closure(bits: int, runs: Sequence[Sequence[tuple[int, int]]]) -> set[int]:
    """The orbit of a family bitset under the symmetric groups of runs of positions.

    A run of positions b..b+L-1 is given as the delta swaps of its adjacent
    transpositions (b b+1), ..., (b+L-2 b+L-1), and the group is the product
    of the runs' symmetric groups.  The orbit is built along the stabiliser
    chain S_1 < S_2 < ... of each run: the orbit under the first k positions
    goes to the first k+1 through the coset representatives (k k-1 ... j),
    j = k..0 of the run, each one adjacent swap more than the one before, and
    each level is deduplicated.  An orbit member costs about one swap.
    """
    level = {bits}
    for run in runs:
        for k in range(len(run)):
            images = list(level)
            for shift, mask in run[k::-1]:
                images = [f ^ (t := (f ^ (f >> shift)) & mask) ^ (t << shift) for f in images]
                level.update(images)
    return level


def set_families_isomorphic(fam: SetFamily, other: SetFamily) -> tuple[bool, tuple[int, ...] | None]:
    """Relabeling of [n] mapping one family onto the other, as a 1-based witness."""
    if fam.n != other.n:
        raise ParameterError("families disagree on n")
    sigma = canonical.find_isomorphism(_member_vectors(fam), _member_vectors(other), fam.n)
    return sigma is not None, sigma


def canonical_set_family(fam: SetFamily) -> tuple[tuple[int, ...], ...]:
    """Canonical encoding: members as element tuples, least over relabelings.

    The encoding is that of canonical.canonical_vectors on the member vectors:
    the least sorted member list over the relabelings that send each colour
    class onto its position block.  Those images are the orbit of one of
    them under the symmetric groups of the blocks, closed here on the family
    bitset by _swap_closure's coset chain, one run per block.  Position p is
    written as bit n-1-p, so that the vector order of members is the integer
    order of their masks; then of two families of equal size the one with
    the smaller sorted member list holds the lowest bit of their XOR.  The
    block relabelling and the final bit reversal are adjacent delta swaps
    on the family bitset too (_relabel).  The colours are taken from the
    member masks as they are, the single value plane of
    canonical._element_colors.
    """
    n = fam.n
    colors = canonical._element_colors([list(fam.members())], n)
    image = [0] * n  # the block order of positions, position p as bit n-1-p
    runs = []
    bit = n
    for _, cls in canonical._groups(colors):
        for e in range(n):
            if cls >> e & 1:
                bit -= 1
                image[e] = bit
        runs.append(_transpositions(n)[bit:bit + cls.bit_count() - 1])
    start = _relabel(fam.bits, image, n)
    best = start
    for g in _swap_closure(start, runs):
        diff = g ^ best
        if g & diff & -diff:
            best = g
    least = _relabel(best, range(n - 1, -1, -1), n)
    return SetFamily(n=n, bits=least).member_sets()
