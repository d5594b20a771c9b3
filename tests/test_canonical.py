"""Canonical forms: equality exactly on isomorphism classes, witnesses valid."""

import re
from functools import lru_cache
from hashlib import blake2b
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from msfam import (
    MultisetFamily, Params, SetFamily, UNBOUNDED, canonical_form, canonical_set_family,
    enumerate_maximal_families, families_isomorphic, permute_family, set_families_isomorphic,
    uniqueness_condition,
)
from msfam import canonical, search
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


C6 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))
TWO_TRIANGLES = ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))


def _edge_vectors(edges):
    return [tuple(int(e + 1 in edge) for e in range(6)) for edge in edges]


def test_pair_that_colour_refinement_cannot_settle():
    # both graphs are 2-regular on 6 edges: every position of both gets the
    # same single colour, so only the least-image search tells them apart
    cycle, triangles = (SetFamily.from_sets(6, edges) for edges in (C6, TWO_TRIANGLES))
    colors = [canonical._element_colors([list(fam.members())], 6) for fam in (cycle, triangles)]
    assert colors[0] == colors[1] and len(set(colors[0])) == 1
    assert canonical_set_family(cycle) != canonical_set_family(triangles)
    assert set_families_isomorphic(cycle, triangles) == (False, None)
    p = Params(6, 2, 1)
    cycle_mf, triangles_mf = (MultisetFamily.from_iterable(p, _edge_vectors(edges))
                              for edges in (C6, TWO_TRIANGLES))
    assert canonical_form(cycle_mf) != canonical_form(triangles_mf)
    assert families_isomorphic(cycle_mf, triangles_mf) == (False, None)

    # relabel C6 by a permutation that is no automorphism: the witness must
    # send the cycle onto that image, not onto the cycle itself
    perm = [0, 2, 4, 1, 3, 5]
    image = SetFamily.from_masks(6, (_permute_mask(x, perm, 6) for x in cycle.members()))
    assert image != cycle
    ok, witness = set_families_isomorphic(cycle, image)
    assert ok
    assert SetFamily.from_masks(6, (_permute_mask(x, [w - 1 for w in witness], 6)
                                    for x in cycle.members())) == image
    image_mf = permute_family(tuple(e + 1 for e in perm), cycle_mf)
    ok, sigma = families_isomorphic(cycle_mf, image_mf)
    assert ok
    assert permute_family(sigma, cycle_mf) == image_mf


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
    windows = search._windows(jobs)
    achievers = set()
    for job in jobs:
        found = search._tally(job, hist, kept, windows)[1]
        assert found[search.ACHIEVER], job
        achievers.update(found[search.ACHIEVER])
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


# The colouring as it was written over member vectors, sorting and repr-ing
# tuples of pairs; canonical._element_colors must give the same digests.

def _digest(value) -> int:
    return int.from_bytes(blake2b(repr(value).encode(), digest_size=8).digest(), "big")


def _reference_element_colors(items, n):
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
    for _ in range(canonical._REFINE_ROUNDS):
        item_colors = [
            digest(tuple(sorted((it[e], colors[e]) for e in range(n))))
            for it in items
        ]
        colors = [
            digest((colors[e], tuple(sorted((it[e], item_colors[j]) for j, it in enumerate(items)))))
            for e in range(n)
        ]
    return colors


def _colors_match(fam):
    return (canonical._element_colors([list(fam.members())], fam.n)
            == _reference_element_colors(_member_vectors(fam), fam.n))


def _vector_colors_match(items, n):
    return (canonical._element_colors(canonical._planes(items), n)
            == _reference_element_colors(items, n))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_colors_equal_the_reference_on_drawn_set_families(data):
    n = data.draw(st.integers(1, 7))
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=2 * n + 4))
    assert _colors_match(SetFamily.from_masks(n, masks, require_proper=False))


@pytest.mark.parametrize("n", range(1, 8))
def test_colors_equal_the_reference_on_empty_and_one_member_families(n):
    assert _colors_match(SetFamily(n=n, bits=0))
    for x in range(1 << n):
        assert _colors_match(SetFamily(n=n, bits=1 << x)), x


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_colors_equal_the_reference_on_drawn_vectors(data):
    n = data.draw(st.integers(1, 6))
    items = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=8))
    assert _vector_colors_match(items, n)


def test_colors_equal_the_reference_on_all_zero_vectors():
    assert _vector_colors_match([], 3)
    assert _vector_colors_match([(0, 0, 0)], 3)
    assert _vector_colors_match([(0, 0), (0, 2)], 2)


def _control_families():
    """Families the negative controls run on: the empty and the one-member
    families at n = 1..3 and the maximal families at n = 2..5."""
    for n in range(1, 4):
        yield SetFamily(n=n, bits=0)
        for x in range(1 << n):
            yield SetFamily(n=n, bits=1 << x)
    for n in range(2, 6):
        yield from enumerate_maximal_families(n)


def _colour_first(tuple_repr):
    # writes each (value, colour) pair as (colour, value); a colour is a
    # 64-bit digest, and no value or member size comes near 2^32
    def swapped(pieces, counts, total):
        return tuple_repr([re.sub(r"^\((\d+), (\d{10,})\)", r"(\2, \1)", piece)
                           for piece in pieces], counts, total)
    return swapped


def _no_trailing_comma(tuple_repr):
    def dropped(pieces, counts, total):
        text = tuple_repr(pieces, counts, total)
        return text[:-2] + ")" if total == 1 else text
    return dropped


@pytest.mark.parametrize("mutant", [_colour_first, _no_trailing_comma])
def test_colors_reference_check_rejects_a_wrong_repr(monkeypatch, mutant):
    assert all(_colors_match(fam) for fam in _control_families())
    monkeypatch.setattr(canonical, "_tuple_repr", mutant(canonical._tuple_repr))
    assert not all(_colors_match(fam) for fam in _control_families())
