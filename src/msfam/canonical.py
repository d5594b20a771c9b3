"""Canonical forms and explicit isomorphisms for families under relabelings of [n].

A family is a list of member vectors (length-n tuples of non-negative ints;
subsets use 0/1 vectors).  Relabelings permute the n positions.  The canonical
form is the least sorted member list over a canonically restricted set of
relabelings: positions are first partitioned by an iteratively refined
isomorphism-invariant color, and only bijections mapping color classes onto
fixed position blocks are searched.  Two families get the same canonical form
iff they are isomorphic; the search space is the product of class factorials
rather than n!.

Colors are condensed to fixed-width digests after every refinement round:
the blake2b digest of the repr of a sorted tuple of (value, color) pairs.
Digests are value-determined (no process-salted hashing), so they compare
consistently across families, runs, and worker processes; a digest collision
could only merge color classes, which widens the search but never changes
results.  Such a tuple is fixed by how often each pair occurs, so
_element_colors works on per-value position masks, takes every count as a
popcount and writes each distinct digested string straight from its counts.
Set families pass their member masks as they are; member vectors are turned
into per-value masks once (_planes).

Set families get the same encoding without the permutation search below
(subsets.canonical_set_family).  The class-consistent images of a family are
the orbit of any one of them under the symmetric groups of the position
blocks, so they are closed on the family bitset by a coset chain of delta
swaps; with position p written as bit n-1-p the least sorted member list is
a single reduce over that orbit.

Multiset families and set_families_isomorphic go through one search,
_least_image, which returns the least image and the first relabeling that
gives it.  canonical_vectors is the least image.  find_isomorphism compares
two least images: the families are isomorphic iff they are equal, and then
a's relabeling followed by the inverse of b's is the witness.
"""

from __future__ import annotations

from functools import reduce
from _blake2 import blake2b  # what hashlib.blake2b is, without loading OpenSSL
from itertools import chain, permutations, product
from operator import or_
from typing import Iterable, Sequence

Vector = tuple[int, ...]

_REFINE_ROUNDS = 2


def _digest(text: str) -> int:
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


def _tuple_repr(pieces: Sequence[str], counts: Sequence[int], total: int) -> str:
    """repr of the tuple holding counts[i] copies of the pair whose repr is
    pieces[i] minus its trailing ", ", in the order of pieces; total is the
    sum of counts."""
    body = "".join([piece * c for piece, c in zip(pieces, counts) if c])
    if total > 1:
        return "(" + body[:-2] + ")"
    return "(" + body[:-1] + ")" if total else "()"


def _groups(labels: Sequence[int]) -> list[tuple[int, int]]:
    """(label, bitset of the indices holding it), by label."""
    out: dict[int, int] = {}
    for i, label in enumerate(labels):
        out[label] = out.get(label, 0) | 1 << i
    return sorted(out.items())


def _binary_count(bitsets: Iterable[int]) -> list[int]:
    """The binary digits, least significant first, of how many of the
    bitsets hold each index, each digit as the bitset of the indices at
    which it is 1."""
    digits: list[int] = []
    for x in bitsets:
        i = 0
        while x:
            if i == len(digits):
                digits.append(x)
                break
            carry = digits[i] & x
            digits[i] ^= x
            x = carry
            i += 1
    return digits


def _element_colors(planes: Sequence[Sequence[int]], n: int) -> list[int]:
    """Iso-invariant color per position, refined a fixed number of rounds.

    planes[v-1][j] is the mask of the positions (position e as bit e) at
    which member j holds value v, for v = 1, 2, ...; member j holds 0 at
    the other positions.  A set family is the single plane of its member
    masks.  A color is the digest of the repr of a sorted tuple of pairs:
    a position's starts as its (member size, value) pairs over the members;
    each round a member gets its (value, position color) pairs over the
    positions, and then a position the pair (its color, its (value, member
    color) pairs over the members).  Such a tuple is fixed by how many
    members (positions) of each class hold each value at a position
    (member), so it is written from those counts, and equal counts share
    a digest.  A position's counts are popcounts of per-value bitsets of
    members.  The members with equal counts are found all at once: per
    value and position class, the binary digits of each member's count
    are bitsets over the members, and members split wherever a digit does.
    """
    m = len(planes[0])
    everyone = (1 << m) - 1
    full = (1 << n) - 1
    values = range(len(planes) + 1)
    zeros = [full] * m
    sizes = [0] * m
    for v, masks in enumerate(planes, 1):
        zeros = [z ^ x for z, x in zip(zeros, masks)]
        sizes = [s + v * x.bit_count() for s, x in zip(sizes, masks)]
    # rows[j][v]: the positions at which member j holds v
    rows = list(zip(zeros, *planes))
    # cols[e][v]: the members that hold v at position e
    cols = [[0] * len(values) for _ in range(n)]
    for v, masks in enumerate(planes, 1):
        for j, x in enumerate(masks):
            while x:
                low = x & -x
                cols[low.bit_length() - 1][v] |= 1 << j
                x ^= low
    for col in cols:
        col[0] = everyone ^ reduce(or_, col)

    def position_colors(classes: list[tuple[int, int]], heads: Sequence[int] | None
                        ) -> list[int]:
        # A position's (member size, value) pairs when heads is None, else
        # its (value, member color) pairs headed by its color; classes are
        # the (size or color, members) in order.  The counts at values >= 1
        # key the memo; those at value 0 follow from them.
        groups = [group for _, group in classes]
        if heads is None:
            pieces = [f"({label}, {v}), " for label, _ in classes for v in values]
        else:
            pieces = [f"({v}, {label}), " for v in values for label, _ in classes]
        memo: dict = {}
        out = []
        for e, col in enumerate(cols):
            head = None if heads is None else heads[e]
            key = (head, *[(x & group).bit_count() for x in col[1:] for group in groups])
            d = memo.get(key)
            if d is None:
                counts = [(x & group).bit_count() for x in col for group in groups]
                if heads is None:
                    width = len(groups)
                    counts = [counts[g + v * width] for g in range(width) for v in values]
                text = _tuple_repr(pieces, counts, m)
                d = memo[key] = _digest(text if heads is None else f"({head}, {text})")
            out.append(d)
        return out

    def member_colors(classes: list[tuple[int, int]]) -> list[tuple[int, int]]:
        # (color, members) by color; classes are the (color, positions) in order
        parts = [everyone] if m else []
        for v in values[1:]:
            for _, mask in classes:
                column = []
                while mask:
                    low = mask & -mask
                    column.append(cols[low.bit_length() - 1][v])
                    mask ^= low
                for digit in _binary_count(column):
                    split = []
                    for part in parts:
                        inside = part & digit
                        if inside and inside != part:
                            split += (inside, part ^ inside)
                        else:
                            split.append(part)
                    parts = split
        pieces = [f"({v}, {label}), " for v in values for label, _ in classes]
        out: dict[int, int] = {}
        for part in parts:
            row = rows[(part & -part).bit_length() - 1]
            d = _digest(_tuple_repr(pieces, [(x & mask).bit_count() for x in row
                                             for _, mask in classes], n))
            out[d] = out.get(d, 0) | part
        return sorted(out.items())

    colors = position_colors(_groups(sizes), None)
    for _ in range(_REFINE_ROUNDS):
        colors = position_colors(member_colors(_groups(colors)), colors)
    return colors


def _planes(items: Sequence[Vector]) -> list[list[int]]:
    """The member vectors as _element_colors takes them: per value v >= 1,
    the mask of the positions at which each member holds v."""
    top = max((v for it in items for v in it), default=0)
    planes = [[0] * len(items) for _ in range(max(top, 1))]
    for j, it in enumerate(items):
        for e, v in enumerate(it):
            if v:
                planes[v - 1][j] |= 1 << e
    return planes


def _remap_sorted(items: Sequence[Vector], perm: Sequence[int]) -> tuple[Vector, ...]:
    """Sorted member list after sending position e to perm[e]."""
    n = len(perm)
    out = []
    for it in items:
        vec = [0] * n
        for e in range(n):
            if it[e]:
                vec[perm[e]] = it[e]
        out.append(tuple(vec))
    out.sort()
    return tuple(out)


def _least_image(items: Sequence[Vector], n: int) -> tuple[tuple[Vector, ...], list[int]]:
    """The least sorted member list over the class-consistent relabelings,
    and the first relabeling that gives it, position e going to perm[e]."""
    items = [tuple(it) for it in items]
    if not items:
        return (), list(range(n))
    classes = [[e for e in range(n) if mask >> e & 1]
               for _, mask in _groups(_element_colors(_planes(items), n))]
    best = None
    for arrangement in product(*map(permutations, classes)):
        perm = [0] * n
        for i, e in enumerate(chain.from_iterable(arrangement)):
            perm[e] = i
        enc = _remap_sorted(items, perm)
        if best is None or enc < best[0]:
            best = enc, perm
    return best


def canonical_vectors(items: Sequence[Vector], n: int) -> tuple[Vector, ...]:
    """Least sorted member list over class-consistent relabelings."""
    return _least_image(items, n)[0]


def find_isomorphism(items_a: Sequence[Vector], items_b: Sequence[Vector], n: int
                     ) -> tuple[int, ...] | None:
    """A relabeling sending family a onto family b, or None: position e goes
    to sigma[e] - 1.

    The families are isomorphic iff their least images are equal; then a's
    relabeling followed by the inverse of b's sends a onto b.
    """
    if len(items_a) != len(items_b):
        return None
    if sorted(map(tuple, items_a)) == sorted(map(tuple, items_b)):
        return tuple(range(1, n + 1))
    least_a, perm_a = _least_image(items_a, n)
    least_b, perm_b = _least_image(items_b, n)
    if least_a != least_b:
        return None
    inverse_b = [0] * n
    for e, image in enumerate(perm_b):
        inverse_b[image] = e
    return tuple(inverse_b[image] + 1 for image in perm_a)
