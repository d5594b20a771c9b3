"""Multiset algebra: examples from the contract plus property checks."""

import pytest
from hypothesis import given, settings, strategies as st

from msfam import (
    MultisetFamily, Params, ParameterError, UNBOUNDED, UNIVERSAL, apply_permutation,
    canonical_form, cardinality, count_k_multisets, enumerate_k_multisets, families_isomorphic,
    intersect, is_intersecting_mf, is_maximal_intersecting_mf, is_trivial,
    permute_family, support, total_intersection,
)
from msfam.families import build_ekr, build_hm

from conftest import brute_isomorphic, brute_multisets


def masks(*elements):
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def test_cardinality_examples():
    assert cardinality((2, 0, 1, 0)) == 3
    assert cardinality((0, 0, 0, 0)) == 0
    assert cardinality((1, 1, 1, 1)) == 4


def test_intersect_examples():
    assert intersect((2, 0, 1), (1, 0, 2)) == (1, 0, 1)
    a = (2, 1, 0, 1)
    assert intersect(a, a) == a
    assert intersect((2, 0), (0, 2)) == (0, 0)
    with pytest.raises(ParameterError):
        intersect((1, 0), (1, 0, 0))


def test_support_examples():
    assert support((2, 0, 1, 1)) == masks(1, 3, 4)
    assert support((0, 0, 0, 0)) == 0
    # cap 1 multisets are plain sets: support has k elements
    for a in enumerate_k_multisets(Params(5, 3, 1)):
        assert support(a).bit_count() == 3


@pytest.mark.parametrize("n,k,m,expected", [
    (4, 4, 2, 19),
    (5, 4, UNBOUNDED, 70),
    (3, 3, 1, 1),
    (6, 4, 2, 90),
])
def test_enumeration_counts(n, k, m, expected):
    p = Params(n, k, m)
    items = list(enumerate_k_multisets(p))
    assert len(items) == expected
    assert count_k_multisets(p) == expected


def test_enumeration_matches_brute_force_and_order():
    for n in range(1, 7):
        for k in range(1, 6):
            for m in [1, 2, 3, k, UNBOUNDED]:
                p = Params(n, k, m)
                got = list(enumerate_k_multisets(p))
                assert got == sorted(set(got)), (n, k, m)  # ascending, duplicate-free
                assert got == sorted(brute_multisets(n, k, m)), (n, k, m)
                assert count_k_multisets(p) == len(got)


def test_caps_above_k_enumerate_identically():
    for m in (4, 6, UNBOUNDED):
        assert list(enumerate_k_multisets(Params(5, 4, m))) == \
            list(enumerate_k_multisets(Params(5, 4, UNBOUNDED)))


def test_count_round_trip_full_grid():
    # the convolution count and the recursive enumeration are independent routes
    for n in range(1, 9):
        for k in range(1, 7):
            for m in (1, 2, 3, k):
                p = Params(n, k, m)
                assert count_k_multisets(p) == sum(1 for _ in enumerate_k_multisets(p)), (n, k, m)


def test_apply_permutation_examples():
    identity = (1, 2, 3)
    assert apply_permutation(identity, (2, 1, 0)) == (2, 1, 0)
    swap = (2, 1, 3)
    assert apply_permutation(swap, (2, 1, 0)) == (1, 2, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permutation_action_properties(data):
    n = data.draw(st.integers(2, 6))
    a = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    sigma = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    tau = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    assert cardinality(apply_permutation(sigma, a)) == cardinality(a)
    # composition: applying tau then sigma equals applying sigma o tau
    comp = tuple(sigma[tau[i] - 1] for i in range(n))
    assert apply_permutation(sigma, apply_permutation(tau, a)) == apply_permutation(comp, a)


def test_total_intersection_conventions():
    p = Params(2, 2, 2)
    empty = MultisetFamily.from_iterable(p, [])
    assert total_intersection(empty) is UNIVERSAL
    assert is_trivial(empty)
    single = MultisetFamily.from_iterable(p, [(1, 1)])
    assert total_intersection(single) == (1, 1)
    pair = MultisetFamily.from_iterable(p, [(2, 0), (0, 2)])
    assert total_intersection(pair) == (0, 0)
    assert not is_trivial(pair)


def test_star_family_is_trivially_intersecting():
    p = Params(5, 2, 1)
    star = build_ekr(p)
    assert len(star) == 4
    assert is_intersecting_mf(star)
    assert is_trivial(star)


def test_disjoint_pair_not_intersecting():
    p = Params(4, 2, 1)
    fam = MultisetFamily.from_iterable(p, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert not is_intersecting_mf(fam)


def test_hm_family_is_maximal_intersecting():
    assert is_maximal_intersecting_mf(build_hm(Params(6, 4, 2)))


def test_star_not_maximal_when_extension_exists():
    # the tail interval extends the sub-star built from tail-meeting members
    p = Params(6, 4, 2)
    hm = build_hm(p)
    members = [a for a in hm.members if a[0] >= 1]
    assert not is_maximal_intersecting_mf(MultisetFamily.from_iterable(p, members))


def test_families_isomorphic_reflexive_with_identity():
    fam = build_hm(Params(5, 4, 2))
    ok, sigma = families_isomorphic(fam, fam)
    assert ok
    assert sigma == tuple(range(1, 6))


def test_families_isomorphic_star_relabeling():
    p = Params(5, 2, 1)
    star1 = build_ekr(p)
    swap = (2, 1, 3, 4, 5)
    star2 = permute_family(swap, star1)
    ok, sigma = families_isomorphic(star1, star2)
    assert ok
    assert permute_family(sigma, star1).members == star2.members


def test_star_not_isomorphic_to_tail_family():
    p = Params(5, 2, 1)
    star = build_ekr(p)
    hm = build_hm(p)
    assert len(star) == 4 and len(hm) == 3  # sizes already differ
    ok, sigma = families_isomorphic(star, hm)
    assert not ok and sigma is None
    assert not brute_isomorphic(star.members, hm.members, 5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_families_isomorphic_matches_brute_force(data):
    n = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 3))
    p = Params(n, k, 2)
    universe = list(enumerate_k_multisets(p))
    if not universe:
        return
    fam_a = MultisetFamily.from_iterable(
        p, data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4)))
    fam_b = MultisetFamily.from_iterable(
        p, data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4)))
    ok, sigma = families_isomorphic(fam_a, fam_b)
    assert ok == brute_isomorphic(fam_a.members, fam_b.members, n)
    if ok:
        assert permute_family(sigma, fam_a).members == fam_b.members


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_form_and_isomorphism_match_brute_force(data):
    # multiplicities 0..3; half the time the second family is a relabelling
    # of the first, so that isomorphic pairs are drawn often
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 3))
    p = Params(n, k, 3)
    universe = list(enumerate_k_multisets(p))
    fam_a = MultisetFamily.from_iterable(
        p, data.draw(st.lists(st.sampled_from(universe), max_size=6)))
    if data.draw(st.booleans()):
        sigma = tuple(e + 1 for e in data.draw(st.permutations(range(n))))
        fam_b = permute_family(sigma, fam_a)
    else:
        fam_b = MultisetFamily.from_iterable(
            p, data.draw(st.lists(st.sampled_from(universe), max_size=6)))
    expected = brute_isomorphic(fam_a.members, fam_b.members, n)
    assert (canonical_form(fam_a) == canonical_form(fam_b)) == expected
    ok, witness = families_isomorphic(fam_a, fam_b)
    assert ok == expected
    if ok:
        assert permute_family(witness, fam_a).members == fam_b.members


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersect_algebra(data):
    n = data.draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(0, 3)] * n)
    a, b, c = data.draw(vec), data.draw(vec), data.draw(vec)
    assert intersect(a, b) == intersect(b, a)
    assert intersect(a, intersect(b, c)) == intersect(intersect(a, b), c)
    assert intersect(a, a) == a
    assert cardinality(intersect(a, b)) <= min(cardinality(a), cardinality(b))
    assert support(intersect(a, b)) == support(a) & support(b)


def test_permutation_preserves_family_predicates():
    p = Params(6, 4, 2)
    hm = build_hm(p)
    sigma = (3, 1, 2, 6, 4, 5)
    image = permute_family(sigma, hm)
    assert is_intersecting_mf(image)
    assert is_trivial(image) == is_trivial(hm)
    assert is_maximal_intersecting_mf(image)


def test_families_isomorphic_is_an_equivalence():
    p = Params(6, 4, 2)
    base = build_hm(p)
    g1 = permute_family((3, 1, 2, 6, 4, 5), base)
    g2 = permute_family((2, 3, 4, 5, 6, 1), g1)
    ok_ab, s_ab = families_isomorphic(base, g1)
    ok_ba, s_ba = families_isomorphic(g1, base)
    ok_bc, _ = families_isomorphic(g1, g2)
    ok_ac, _ = families_isomorphic(base, g2)
    assert ok_ab and ok_ba and ok_bc and ok_ac
    assert permute_family(s_ba, g1).members == base.members


def test_family_validation():
    p = Params(3, 3, 2)
    with pytest.raises(ParameterError):
        MultisetFamily.from_iterable(p, [(1, 1, 0)])  # not 3-uniform
    with pytest.raises(ParameterError):
        MultisetFamily.from_iterable(p, [(3, 0, 0)])  # cap exceeded
    with pytest.raises(ParameterError):
        MultisetFamily.from_iterable(p, [(1, 1, 1, 0)])  # wrong ground set
