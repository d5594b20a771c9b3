"""Subset universe: duals, layers, the shadow family, and structural predicates."""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from msfam import (
    Params, ParameterError, SetFamily, build_hm_shadow, build_removed_part, build_star,
    complement_mask, dual, hm_shadow_layer_size, hm_shadow_valuable,
    is_down_set_in_star, is_intersecting_sf, is_maximal_intersecting_definitional,
    is_maximal_intersecting_sf, is_up_set, mask_from_elements, pair_rule_holds, twist,
    uniform_part, union_never_full, valuable_part,
)
from msfam.subsets import _permute_mask, _relabel, _swap_closure, _transpositions

from conftest import brute_shadow_members


def fam(n, *sets):
    return SetFamily.from_sets(n, sets)


def test_complement_and_dual():
    assert complement_mask(mask_from_elements([1, 3], 4), 4) == mask_from_elements([2, 4], 4)
    f = fam(4, [1, 2], [3], [1, 3, 4])
    assert dual(dual(f)) == f
    # the dual of the star is exactly the 1-avoiding non-empty proper subsets
    star = build_star(4)
    for x in dual(star).members():
        assert not x & 1
    assert len(dual(star)) == len(star)


def test_uniform_and_valuable_parts():
    star5 = build_star(5)
    assert list(uniform_part(star5, 1).members()) == [1]  # just {1}
    for l in range(1, 5):
        assert len(uniform_part(star5, l)) == comb(4, l - 1)
    # cap 1 means q = k: single-layer valuable part
    p = Params(7, 4, 1)
    shadow = build_hm_shadow(p)
    assert valuable_part(shadow, p) == uniform_part(shadow, 4)


def test_star_size():
    for n in range(2, 11):
        assert len(build_star(n)) == 2 ** (n - 1) - 1


def test_removed_part_small_cases():
    p = Params(5, 4, 2)
    removed = build_removed_part(p)
    assert list(removed.members()) == [1]  # only {1}
    shadow = build_hm_shadow(p)
    assert mask_from_elements([2, 3, 4, 5], 5) in shadow

    p7 = Params(7, 4, 2)
    removed7 = build_removed_part(p7)
    assert set(removed7.members()) == {
        mask_from_elements(s, 7) for s in ([1], [1, 2], [1, 3], [1, 2, 3])
    }
    assert len(removed7) == 4


def test_shadow_matches_definition():
    for n in range(3, 9):
        for k in range(2, n):
            p = Params(n, k, 2)
            assert set(build_hm_shadow(p).members()) == brute_shadow_members(n, k)


@pytest.mark.parametrize("n,k,l,expected", [
    (9, 4, 4, 53),
    (7, 4, 3, 14),
    (7, 4, 4, 21),
])
def test_shadow_layer_examples(n, k, l, expected):
    assert hm_shadow_layer_size(Params(n, k, 2), l) == expected


def test_shadow_layer_formula_matches_enumeration():
    for n in range(3, 9):
        for k in range(2, min(n, 7)):
            p = Params(n, k, 2)
            shadow = build_hm_shadow(p)
            for l in range(0, n + 2):
                assert hm_shadow_layer_size(p, l) == shadow.layer_count(l), (n, k, l)


def test_shadow_layer_degenerate_is_zero():
    p = Params(7, 4, 2)
    assert hm_shadow_layer_size(p, 0) == 0
    assert hm_shadow_layer_size(p, 7) == 0
    assert hm_shadow_layer_size(p, -1) == 0
    assert hm_shadow_layer_size(p, 8) == 0


def test_star_is_maximal_intersecting():
    star = build_star(5)
    assert is_intersecting_sf(star)
    assert is_maximal_intersecting_sf(star)
    assert is_maximal_intersecting_definitional(star)
    assert pair_rule_holds(star)
    assert is_up_set(star)


def test_small_family_not_maximal():
    f = fam(4, [1, 2], [1, 3])
    assert is_intersecting_sf(f)
    assert not is_maximal_intersecting_sf(f)


def test_pair_rule_failure_example():
    f = fam(3, [1])
    assert not pair_rule_holds(f)


def test_fast_and_definitional_maximality_agree():
    # every subfamily of the star of correct size, plus assorted families
    star = build_star(4)
    families = [star, fam(4, [1, 2], [1, 3]), fam(4, [1], [1, 2], [1, 3], [1, 4],
                [1, 2, 3], [1, 2, 4], [1, 3, 4])]
    shadow = build_hm_shadow(Params(5, 4, 2))
    families.append(shadow)
    for f in families:
        assert is_maximal_intersecting_sf(f) == is_maximal_intersecting_definitional(f)


def test_twist_empty_returns_star():
    star = build_star(5)
    empty = SetFamily(n=5, bits=0)
    assert twist(star, empty) == star
    assert is_down_set_in_star(empty)
    assert union_never_full(empty)


def test_twist_removed_part_gives_shadow():
    p = Params(7, 4, 2)
    star = build_star(7)
    removed = build_removed_part(p)
    assert twist(star, removed) == build_hm_shadow(p)
    assert is_down_set_in_star(removed)
    assert union_never_full(removed)
    assert is_maximal_intersecting_sf(build_hm_shadow(p))


def test_twist_requires_star_subfamily():
    star = build_star(4)
    outside = fam(4, [2, 3])
    with pytest.raises(ParameterError):
        twist(star, outside)


def test_twist_equivalence_exhaustive_n4():
    """Maximality of the twist holds exactly when the removed family is a
    star-down-set whose member unions never cover [n]."""
    star = build_star(4)
    members = list(star.members())
    for picks in range(1 << len(members)):
        bits = 0
        for i, x in enumerate(members):
            if (picks >> i) & 1:
                bits |= 1 << x
        d = SetFamily(n=4, bits=bits)
        twisted = twist(star, d)
        condition = is_down_set_in_star(d) and union_never_full(d)
        assert is_maximal_intersecting_sf(twisted) == condition, picks
        if condition:
            assert len(twisted) == 2 ** 3 - 1


def test_dual_layer_interaction():
    f = fam(5, [1, 2], [2, 3, 4], [1, 2, 3, 5], [4])
    for i in range(0, 6):
        assert uniform_part(dual(f), i) == dual(uniform_part(f, 5 - i))


def test_down_set_checks_the_bottom():
    # contains {1,2} but not {1}: not downward closed
    d = fam(4, [1, 2])
    assert not is_down_set_in_star(d)


def test_valuable_shadow_characterization():
    """The valuable shadow is exactly the tail-meeting star members of sizes
    q..k together with the tail interval itself."""
    for (n, k, m) in ((7, 4, 2), (6, 4, 3), (5, 4, 2), (8, 5, 2)):
        p = Params(n, k, m)
        h_mask = p.h_mask
        expected = {h_mask}
        full = (1 << n) - 1
        for x in range(1, full):
            if x & 1 and x & h_mask and p.q <= x.bit_count() <= p.k:
                expected.add(x)
        assert set(hm_shadow_valuable(p).members()) == expected, (n, k, m)


def test_removed_part_survives_in_star_minus_shadow():
    # the star keeps the removed part outside the shadow, so the layer at
    # size n-k of that difference is never empty
    p = Params(7, 4, 2)
    star = build_star(7)
    shadow = build_hm_shadow(p)
    diff = SetFamily(n=7, bits=star.bits & ~shadow.bits)
    assert diff == build_removed_part(p)
    assert uniform_part(diff, p.n - p.k).bits != 0


def _bfs_closure(bits, moves):
    """Reference orbit: every bitset reachable from bits by the delta swaps in moves."""
    seen = {bits}
    todo = [bits]
    while todo:
        f = todo.pop()
        for shift, mask in moves:
            t = (f ^ (f >> shift)) & mask
            g = f ^ t ^ (t << shift)
            if g not in seen:
                seen.add(g)
                todo.append(g)
    return seen


def _chain_skipping_last_representative(bits, runs):
    """_swap_closure without the last coset representative (k ... 0) of each level."""
    level = {bits}
    for run in runs:
        for k in range(len(run)):
            images = list(level)
            for shift, mask in run[k:0:-1]:
                images = [f ^ (t := (f ^ (f >> shift)) & mask) ^ (t << shift) for f in images]
                level.update(images)
    return level


def _check_closure_equals_bfs(closure):
    """closure against the reference on random family bitsets at n <= 6, under
    a random layout of consecutive position blocks and under the whole of S_n."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 6), label="n")
        bits = random.Random(data.draw(st.integers(0, 2**32), label="seed")).getrandbits(1 << n)
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)), label="cuts"))
        moves = _transpositions(n)
        for bounds in (zip([0, *cuts], [*cuts, n]), [(0, n)]):
            runs = [moves[start:stop - 1] for start, stop in bounds]
            flat = [move for run in runs for move in run]
            assert closure(bits, runs) == _bfs_closure(bits, flat), (n, bits, cuts)

    check()


def test_coset_chain_closure_equals_bfs_closure():
    _check_closure_equals_bfs(_swap_closure)


def test_closure_check_catches_a_skipped_coset_representative():
    with pytest.raises(AssertionError):
        _check_closure_equals_bfs(_chain_skipping_last_representative)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_relabel_by_delta_swaps_equals_per_member_permutation(n):
    rng = random.Random(4113 + n)
    for _ in range(40):
        perm = list(range(n))
        rng.shuffle(perm)
        bits = rng.getrandbits(1 << n)
        members = [x for x in range(1 << n) if bits >> x & 1]
        assert _relabel(bits, perm, n) == sum(1 << _permute_mask(x, perm, n) for x in members)
