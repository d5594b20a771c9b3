"""Canonical forms: equality exactly on isomorphism classes, witnesses valid."""

from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from msfam import (
    Params, SetFamily, UNBOUNDED, canonical_set_family, enumerate_maximal_families,
    set_families_isomorphic, uniqueness_condition,
)
from msfam import search
from msfam.canonical import canonical_vectors, find_isomorphism
from msfam.subsets import _member_vectors


def _permute_mask(x, perm, n):
    y = 0
    for i in range(n):
        if (x >> i) & 1:
            y |= 1 << perm[i]
    return y


def _brute_iso_masks(masks_a, masks_b, n):
    a, b = sorted(masks_a), sorted(masks_b)
    return any(sorted(_permute_mask(x, perm, n) for x in a) == b
               for perm in permutations(range(n)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_separates_classes(data):
    n = data.draw(st.integers(2, 5))
    full = (1 << n) - 1
    pool = st.integers(1, full - 1)
    masks_a = data.draw(st.sets(pool, min_size=1, max_size=5))
    perm = data.draw(st.permutations(list(range(n))))
    option = data.draw(st.booleans())
    if option:
        masks_b = {_permute_mask(x, perm, n) for x in masks_a}
    else:
        masks_b = data.draw(st.sets(pool, min_size=1, max_size=5))
    fam_a = SetFamily.from_masks(n, masks_a)
    fam_b = SetFamily.from_masks(n, masks_b)
    expected = _brute_iso_masks(masks_a, masks_b, n)
    assert (canonical_set_family(fam_a) == canonical_set_family(fam_b)) == expected
    ok, witness = set_families_isomorphic(fam_a, fam_b)
    assert ok == expected
    if ok:
        image = {_permute_mask(x, [w - 1 for w in witness], n) for x in masks_a}
        assert image == masks_b


def test_canonical_vectors_fixed_point():
    items = [(2, 0, 1), (0, 1, 1)]
    canon = canonical_vectors(items, 3)
    # canonical of the canonical is itself
    assert canonical_vectors(list(canon), 3) == canon


def test_find_isomorphism_none_on_different_shapes():
    assert find_isomorphism([(1, 0)], [(1, 1)], 2) is None
    assert find_isomorphism([(1, 0)], [(1, 0), (0, 1)], 2) is None


def _vector_encoding(fam):
    """The encoding of the vector path: canonical_vectors on the member vectors,
    turned into element tuples sorted by (size, elements)."""
    vectors = canonical_vectors(_member_vectors(fam), fam.n)
    out = [tuple(e + 1 for e in range(fam.n) if vec[e]) for vec in vectors]
    out.sort(key=lambda t: (len(t), t))
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bitset_encoding_equals_vector_path_on_maximal_families(n):
    for fam in enumerate_maximal_families(n):
        assert canonical_set_family(fam) == _vector_encoding(fam), fam.member_sets()


def test_bitset_encoding_equals_vector_path_on_n7_achievers():
    # the theorem cells whose uniqueness clause applies; at (7,6,6) and (7,6,inf)
    # every one of the 1.42M maximal families achieves the bound
    cells = [p for k in range(4, 7) for m in (*range(2, k + 1), UNBOUNDED)
             for p in [Params(7, k, m)] if 7 >= k + p.q and uniqueness_condition(p)]
    assert len(cells) == 8
    jobs = [(search.THEOREM, p) for p in cells]
    hist, kept, _ = search._run_pass(7, jobs, 1)
    layout = search._key_layout(jobs)
    achievers = set()
    for job in jobs:
        found = search._tally(job, hist, kept, layout)[1]
        assert found[search.ACHIEVER], job
        achievers.update(bits for bits, in found[search.ACHIEVER])
    for bits in sorted(achievers):
        fam = SetFamily(n=7, bits=bits)
        assert canonical_set_family(fam) == _vector_encoding(fam), fam.member_sets()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_bitset_encoding_equals_vector_path_at_the_lattice_ends(n):
    full = (1 << n) - 1
    for masks in ((), (0,), (full,), (0, full), (0, 1, full), (1, full - 1), (0, 1 << (n - 1))):
        fam = SetFamily.from_masks(n, masks, require_proper=False)
        assert canonical_set_family(fam) == _vector_encoding(fam), masks


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bitset_encoding_equals_vector_path_on_drawn_families(data):
    n = data.draw(st.integers(2, 7))
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=2 * n + 4))
    fam = SetFamily.from_masks(n, masks, require_proper=False)
    assert canonical_set_family(fam) == _vector_encoding(fam)


@lru_cache(maxsize=None)
def _maximal_bits(n):
    return [fam.bits for fam in enumerate_maximal_families(n)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bitset_encoding_of_relabelled_maximal_families(data):
    # maximal families are regular enough that two refinement rounds leave
    # colour classes wider than orbits, so the block search has real work
    n = data.draw(st.integers(4, 6))
    fam = SetFamily(n=n, bits=data.draw(st.sampled_from(_maximal_bits(n))))
    perm = data.draw(st.permutations(list(range(n))))
    image = SetFamily.from_masks(n, (_permute_mask(x, perm, n) for x in fam.members()))
    assert canonical_set_family(image) == _vector_encoding(image) == canonical_set_family(fam)
