"""Canonical forms and explicit isomorphisms for families under relabelings of [n].

A family is a list of member vectors (length-n tuples of non-negative ints;
subsets use 0/1 vectors).  Relabelings permute the n positions.  The canonical
form is the least sorted member list over a canonically restricted set of
relabelings: positions are first partitioned by an iteratively refined
isomorphism-invariant color, and only bijections mapping color classes onto
fixed position blocks are searched.  Two families get the same canonical form
iff they are isomorphic; the search space is the product of class factorials
rather than n!.

Colors are condensed to fixed-width digests after every refinement round.
Digests are value-determined (no process-salted hashing), so they compare
consistently across families, runs, and worker processes; a digest collision
could only merge color classes, which widens the search but never changes
results.  Many positions and members share a signature, so one call of
_element_colors digests each distinct value once.

Set families get the same encoding without the permutation search below
(subsets.canonical_set_family).  The class-consistent images of a family are
the orbit of any one of them under the transpositions inside the position
blocks, so they are closed on the family bitset by delta swaps; with
position p written as bit n-1-p the least sorted member list is a single
reduce over that orbit.  canonical_vectors and find_isomorphism serve
multiset families and set_families_isomorphic.
"""

from __future__ import annotations

from hashlib import blake2b
from itertools import permutations
from typing import Sequence

Vector = tuple[int, ...]

_REFINE_ROUNDS = 2


def _digest(value) -> int:
    return int.from_bytes(blake2b(repr(value).encode(), digest_size=8).digest(), "big")


def _element_colors(items: Sequence[Vector], n: int) -> list[int]:
    """Iso-invariant color per position, refined a fixed number of rounds.

    Many positions and members share a signature, so each distinct value is
    digested once per call.
    """
    memo: dict = {}

    def digest(value) -> int:
        d = memo.get(value)
        if d is None:
            d = memo[value] = _digest(value)
        return d

    sizes = [sum(it) for it in items]
    colors = [
        digest(tuple(sorted((sizes[j], it[e]) for j, it in enumerate(items))))
        for e in range(n)
    ]
    for _ in range(_REFINE_ROUNDS):
        item_colors = [
            digest(tuple(sorted((it[e], colors[e]) for e in range(n))))
            for it in items
        ]
        colors = [
            digest((colors[e], tuple(sorted((it[e], item_colors[j]) for j, it in enumerate(items)))))
            for e in range(n)
        ]
    return colors


def _color_classes(colors: list[int]) -> list[list[int]]:
    """Positions grouped by color, classes ordered by color value."""
    by_color: dict[int, list[int]] = {}
    for e, c in enumerate(colors):
        by_color.setdefault(c, []).append(e)
    return [by_color[c] for c in sorted(by_color)]


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


def canonical_vectors(items: Sequence[Vector], n: int) -> tuple[Vector, ...]:
    """Least sorted member list over class-consistent relabelings."""
    items = [tuple(it) for it in items]
    if not items:
        return ()
    classes = _color_classes(_element_colors(items, n))
    starts = []
    pos = 0
    for cls in classes:
        starts.append(pos)
        pos += len(cls)
    best = None
    perm = [0] * n

    def rec(ci: int):
        nonlocal best
        if ci == len(classes):
            enc = _remap_sorted(items, perm)
            if best is None or enc < best:
                best = enc
            return
        cls = classes[ci]
        base = starts[ci]
        for arrangement in permutations(cls):
            for offset, e in enumerate(arrangement):
                perm[e] = base + offset
            rec(ci + 1)

    rec(0)
    return best


def find_isomorphism(items_a: Sequence[Vector], items_b: Sequence[Vector], n: int) -> list[int] | None:
    """A 0-based position bijection sending family a onto family b, or None.

    Candidates are restricted to color-compatible assignments; each complete
    assignment is verified against the full member lists.
    """
    items_a = [tuple(it) for it in items_a]
    items_b = [tuple(it) for it in items_b]
    if len(items_a) != len(items_b):
        return None
    if sorted(items_a) == sorted(items_b):
        return list(range(n))
    colors_a = _element_colors(items_a, n)
    colors_b = _element_colors(items_b, n)
    if sorted(colors_a) != sorted(colors_b):
        return None
    candidates_by_color: dict[int, list[int]] = {}
    for e, c in enumerate(colors_b):
        candidates_by_color.setdefault(c, []).append(e)
    # assign positions of a in order of increasing candidate-set size
    order = sorted(range(n), key=lambda e: (len(candidates_by_color[colors_a[e]]), e))
    target = tuple(sorted(items_b))
    perm = [-1] * n
    used = [False] * n

    def rec(idx: int) -> bool:
        if idx == n:
            return _remap_sorted(items_a, perm) == target
        e = order[idx]
        for f in candidates_by_color[colors_a[e]]:
            if not used[f]:
                perm[e] = f
                used[f] = True
                if rec(idx + 1):
                    return True
                used[f] = False
        perm[e] = -1
        return False

    if rec(0):
        return perm
    return None
