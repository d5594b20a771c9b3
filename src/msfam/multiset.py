"""Multiset algebra over the ground set [n] with a multiplicity cap.

A multiset is a length-n tuple of non-negative multiplicities; element i has
multiplicity mult[i-1].  Intersection is the pointwise minimum, cardinality
the multiplicity sum, and the support the set of elements with positive
multiplicity (returned as a bitmask, bit i-1 for element i).

Enumeration of the k-uniform multisets is ascending lexicographic on the
multiplicity vector with position 1 most significant; this order is stable
and is relied on for deterministic family encodings.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator

from . import canonical
from .coeffs import coeff_table
from .params import Params, ParameterError, Sentinel, frozen

Multiset = tuple[int, ...]
Permutation = tuple[int, ...]  # sigma[i-1] is the image of element i, values 1..n


class _UniversalType(Sentinel, name="UNIVERSAL"):
    """Total intersection of the empty family; treated as non-empty."""


UNIVERSAL = _UniversalType()


def cardinality(a: Multiset) -> int:
    return sum(a)


def intersect(a: Multiset, b: Multiset) -> Multiset:
    if len(a) != len(b):
        raise ParameterError(f"multisets live on different ground sets: {len(a)} vs {len(b)}")
    return tuple(x if x < y else y for x, y in zip(a, b))


def support(a: Multiset) -> int:
    """Bitmask of elements with positive multiplicity."""
    mask = 0
    for i, mu in enumerate(a):
        if mu:
            mask |= 1 << i
    return mask


def enumerate_k_multisets(p: Params) -> Iterator[Multiset]:
    """Yield every k-uniform multiset under p, ascending lexicographic, exactly once."""
    n, k, cap = p.n, p.k, p.m_eff
    prefix = [0] * n

    def rec(pos: int, remaining: int) -> Iterator[Multiset]:
        if pos == n - 1:
            if remaining <= cap:
                prefix[pos] = remaining
                yield tuple(prefix)
            return
        # remaining multiplicity must fit in the positions left
        slots = n - pos - 1
        low = max(0, remaining - cap * slots)
        for mu in range(low, min(cap, remaining) + 1):
            prefix[pos] = mu
            yield from rec(pos + 1, remaining - mu)
        prefix[pos] = 0

    return rec(0, k)


def count_k_multisets(p: Params) -> int:
    """Number of k-uniform multisets: sum over support sizes l of coeff(k,l) * C(n,l)."""
    table = coeff_table(p.k, p.m)
    return sum(table.values[l] * comb(p.n, l) for l in range(1, p.k + 1))


def validate_permutation(sigma: Permutation, n: int) -> None:
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ParameterError(f"not a permutation of [{n}]: {sigma!r}")


def apply_permutation(sigma: Permutation, a: Multiset) -> Multiset:
    """Relabel: the image has multiplicity mult[i-1] at position sigma[i-1]."""
    if len(sigma) != len(a):
        raise ParameterError(f"permutation length {len(sigma)} does not match ground set {len(a)}")
    out = [0] * len(a)
    for i, mu in enumerate(a):
        out[sigma[i] - 1] = mu
    return tuple(out)


@frozen
class MultisetFamily:
    """A duplicate-free collection of k-uniform multisets, kept in ascending lex order."""

    params: Params
    members: tuple[Multiset, ...]

    @classmethod
    def from_iterable(cls, p: Params, items: Iterable[Multiset], validate: bool = True) -> "MultisetFamily":
        members = tuple(sorted(set(tuple(a) for a in items)))
        if validate:
            cap = p.m_eff
            for a in members:
                if len(a) != p.n:
                    raise ParameterError(f"member has {len(a)} positions, expected n={p.n}: {a}")
                if sum(a) != p.k:
                    raise ParameterError(f"member is not {p.k}-uniform: {a}")
                if any(mu < 0 or mu > cap for mu in a):
                    raise ParameterError(f"member violates the multiplicity cap {cap}: {a}")
        return cls(params=p, members=members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Multiset]:
        return iter(self.members)

    def __contains__(self, a: Multiset) -> bool:
        return tuple(a) in set(self.members)

    def support_masks(self) -> tuple[int, ...]:
        return tuple(support(a) for a in self.members)


def permute_family(sigma: Permutation, fam: MultisetFamily) -> MultisetFamily:
    validate_permutation(sigma, fam.params.n)
    return MultisetFamily.from_iterable(
        fam.params, (apply_permutation(sigma, a) for a in fam.members), validate=False
    )


def total_intersection(fam: MultisetFamily):
    """Pointwise minimum over all members; UNIVERSAL for the empty family."""
    if not fam.members:
        return UNIVERSAL
    out = fam.members[0]
    for a in fam.members[1:]:
        out = tuple(x if x < y else y for x, y in zip(out, a))
    return out


def is_trivial(fam: MultisetFamily) -> bool:
    """True when the total intersection is non-empty (the empty family counts as trivial)."""
    core = total_intersection(fam)
    if core is UNIVERSAL:
        return True
    return any(core)


def is_intersecting_mf(fam: MultisetFamily) -> bool:
    masks = fam.support_masks()
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if not mi & masks[j]:
                return False
    return True


def is_maximal_intersecting_mf(fam: MultisetFamily) -> bool:
    """Intersecting, and every k-multiset outside the family misses some member entirely."""
    if not is_intersecting_mf(fam):
        return False
    masks = fam.support_masks()
    members = set(fam.members)
    for x in enumerate_k_multisets(fam.params):
        if x in members:
            continue
        xm = support(x)
        if all(xm & m for m in masks):
            return False
    return True


def families_isomorphic(fam: MultisetFamily, other: MultisetFamily) -> tuple[bool, Permutation | None]:
    """Decide whether a relabeling of [n] maps one family onto the other; return a witness."""
    if fam.params != other.params:
        raise ParameterError("families must share parameters")
    sigma = canonical.find_isomorphism(fam.members, other.members, fam.params.n)
    return sigma is not None, sigma


def canonical_form(fam: MultisetFamily) -> tuple[Multiset, ...]:
    """Lexicographically least relabeling of the member list; equal iff isomorphic."""
    return canonical.canonical_vectors(fam.members, fam.params.n)
