"""Enumeration and verification: generator soundness, oracles, theorem checks."""

import os
import subprocess
import sys
from collections import Counter
from math import factorial

import pytest

from msfam import (
    CHECK_LAYER_DOMINANCE, CHECK_REMOVED_LAYER, CHECK_VALUABLE_RIGIDITY, LEMMA_CHECKS,
    InvariantError, MultisetFamily, Params, SearchCapError, SetFamily, UNBOUNDED,
    canonical_set_family, count_iso_classes, enumerate_maximal_families,
    is_maximal_intersecting_definitional, is_maximal_intersecting_sf, is_trivial,
    naive_enumerate_maximal, preimage_family, raw_max_nontrivial, run_verification,
    uniqueness_condition, valuable_part,
    verify_hm_theorem, verify_layer_dominance, verify_lemma_bundle, verify_removed_layer,
    verify_valuable_rigidity, verify_grid,
)
from msfam import search
from msfam.reporting import to_canonical_json
from msfam.subsets import layer_bitsets


MAXIMAL_COUNTS = {2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}
ISO_CLASS_COUNTS = {3: 2, 4: 3, 5: 7, 6: 30}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generator_matches_naive_oracle(n):
    fast = sorted(f.bits for f in enumerate_maximal_families(n))
    naive = sorted(f.bits for f in naive_enumerate_maximal(n))
    assert fast == naive
    assert len(fast) == MAXIMAL_COUNTS[n]


def test_generator_counts_regression():
    for n, expected in MAXIMAL_COUNTS.items():
        assert sum(1 for _ in enumerate_maximal_families(n)) == expected


def test_n3_families_are_three_stars_and_the_triangle():
    found = {frozenset(f.member_sets()) for f in enumerate_maximal_families(3)}
    stars = {
        frozenset({(e,), tuple(sorted({e, o1})), tuple(sorted({e, o2}))})
        for e, o1, o2 in ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    }
    triangle = frozenset({(1, 2), (1, 3), (2, 3)})
    assert found == stars | {triangle}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generator_soundness_definitional(n):
    for fam in enumerate_maximal_families(n):
        assert is_maximal_intersecting_definitional(fam)


def test_generator_soundness_fast_n6():
    for fam in enumerate_maximal_families(6):
        assert is_maximal_intersecting_sf(fam)


def test_iso_class_counts():
    for n, expected in ISO_CLASS_COUNTS.items():
        assert count_iso_classes(n) == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_up_to_iso_matches_class_count(n):
    reps = list(enumerate_maximal_families(n, up_to_iso=True))
    assert len(reps) == ISO_CLASS_COUNTS[n]
    # representatives are pairwise non-isomorphic
    encodings = {canonical_set_family(f) for f in reps}
    assert len(encodings) == len(reps)


def test_iso_classes_match_canonical_dedup():
    for n in (4, 5):
        encodings = {canonical_set_family(f) for f in enumerate_maximal_families(n)}
        assert len(encodings) == ISO_CLASS_COUNTS[n]


def _achievers(n, k, m_key):
    _, (accum,) = search._run_pass(n, [search._JobSpec("theorem", n, k, m_key)], 1)
    return accum.achievers


@pytest.mark.parametrize("n,k,m_key", [(5, 4, None), (6, 4, 2)])
def test_orbit_classes_match_canonical_grouping(n, k, m_key):
    achievers = _achievers(n, k, m_key)
    classes = search._achiever_classes(n, achievers)
    by_canonical = Counter(canonical_set_family(SetFamily(n=n, bits=b)) for b in achievers)
    assert {enc: size for _, size, enc in classes} == by_canonical
    assert all(factorial(n) % size == 0 for _, size, _ in classes)
    assert sum(size for _, size, _ in classes) == len(achievers)
    # the representative is the least member of its class
    for fam, _, _ in classes:
        assert fam.bits == min(search._orbit(n, fam.bits))


def test_achiever_classes_reject_a_broken_orbit():
    achievers = _achievers(5, 4, None)
    rep = max(search._achiever_classes(5, achievers), key=lambda c: c[1])[0]
    victim = max(search._orbit(5, rep.bits))
    assert victim != rep.bits
    with pytest.raises(InvariantError):
        search._achiever_classes(5, [b for b in achievers if b != victim])


def _off_by_one_burnside(monkeypatch):
    original = search._burnside_nonidentity
    monkeypatch.setattr(search, "_burnside_nonidentity",
                        lambda n, qualifiers: [t + 1 for t in original(n, qualifiers)])


def test_burnside_divisibility_raises(monkeypatch):
    _off_by_one_burnside(monkeypatch)
    with pytest.raises(InvariantError):
        count_iso_classes(4)
    with pytest.raises(InvariantError):
        run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)])


def test_burnside_divisibility_raises_under_optimize():
    script = """
import sys
from msfam import InvariantError, Params, UNBOUNDED, count_iso_classes, run_verification, search
original = search._burnside_nonidentity
search._burnside_nonidentity = lambda n, qs: [t + 1 for t in original(n, qs)]
caught = 0
for call in (lambda: count_iso_classes(4),
             lambda: run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)])):
    try:
        call()
    except InvariantError:
        caught += 1
print(sys.flags.optimize, caught)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["1", "2"]


def test_enumeration_cap():
    with pytest.raises(SearchCapError):
        list(enumerate_maximal_families(8))


def test_nontriviality_bridge():
    """Empty valuable-part intersection at the subset level must coincide with
    the emptiness of the preimage family's total intersection."""
    for n in (5, 6):
        for m in (2, UNBOUNDED):
            p = Params(n, 4, m)
            layers = layer_bitsets(n)
            window = 0
            for l in range(p.q, p.k + 1):
                window |= layers[l]
            for fam in enumerate_maximal_families(n):
                vp = valuable_part(fam, p)
                if len(vp) == 0:
                    subset_nontrivial = False
                else:
                    core = (1 << n) - 1
                    for mask in vp.members():
                        core &= mask
                    subset_nontrivial = core == 0
                multi = preimage_family(fam, p)
                assert subset_nontrivial == (len(multi) > 0 and not is_trivial(multi)), (n, m, fam.bits)


def test_theorem_boundary_records_achievers():
    report = verify_hm_theorem(6, 4, 2)
    assert report.bound == 45
    assert report.passed
    assert report.uniqueness_verdict == "not-applicable"
    assert len(report.achievers) == 28
    assert report.families_checked == 2634
    assert report.iso_classes_checked == 28


def test_theorem_unique_at_divisibility_break():
    report = verify_hm_theorem(6, 4, 3)
    assert report.bound == 53
    assert report.uniqueness_verdict == "unique-iso"
    assert report.achiever_class_sizes == (30,)
    assert report.passed


def test_theorem_unbounded_boundary():
    report = verify_hm_theorem(5, 4, UNBOUNDED)
    assert report.bound == 35
    assert report.uniqueness_verdict == "not-applicable"
    assert len(report.achievers) == 6
    assert report.passed


def test_oracle_agreement():
    for (n, k, m) in ((6, 4, 2), (6, 4, 3), (5, 4, UNBOUNDED)):
        size, witness = raw_max_nontrivial(Params(n, k, m))
        assert size == verify_hm_theorem(n, k, m).bound
        assert not is_trivial(witness)
        assert len(witness) == size


def test_oracle_guard():
    with pytest.raises(SearchCapError):
        raw_max_nontrivial(Params(7, 4, 2))  # 161 vertices


def test_oracle_witness_is_maximal_nontrivial():
    from msfam import is_intersecting_mf
    size, witness = raw_max_nontrivial(Params(5, 4, UNBOUNDED))
    assert is_intersecting_mf(witness)
    assert size == 35


@pytest.mark.parametrize("n,k,m", [(6, 4, 2), (5, 4, UNBOUNDED), (6, 4, UNBOUNDED)])
def test_lemma_bundle_passes(n, k, m):
    bundle = verify_lemma_bundle(n, k, m)
    for name in LEMMA_CHECKS:
        assert bundle[name].passed, (name, bundle[name].violations)


def test_lemma_wrappers_match_bundle():
    bundle = verify_lemma_bundle(5, 4, UNBOUNDED)
    assert verify_removed_layer(5, 4, UNBOUNDED) == bundle[CHECK_REMOVED_LAYER]
    assert verify_layer_dominance(5, 4, UNBOUNDED) == bundle[CHECK_LAYER_DOMINANCE]
    assert verify_valuable_rigidity(5, 4, UNBOUNDED) == bundle[CHECK_VALUABLE_RIGIDITY]


def test_rigidity_vacuous_when_bottom_layer_empty():
    report = verify_valuable_rigidity(5, 4, UNBOUNDED)
    assert report.candidates == 0
    assert report.notices
    assert report.passed


def test_rigidity_candidates_at_capped_boundary():
    report = verify_valuable_rigidity(6, 4, 2)
    assert report.candidates == 30  # the shadow's isomorphism class
    assert report.passed


def test_removed_layer_example_shadow():
    # the shadow family itself always qualifies and keeps the removed layer
    report = verify_removed_layer(6, 4, 2)
    assert report.passed
    assert report.families_checked == 2634


def test_worker_determinism_small():
    def blob(workers):
        res = run_verification(
            5, theorem_params=[Params(5, 4, UNBOUNDED)],
            lemma_params=[Params(5, 4, UNBOUNDED)], workers=workers)
        parts = [to_canonical_json(r) for r in res.theorem_reports]
        parts.extend(to_canonical_json(res.lemma_bundles[0][name]) for name in LEMMA_CHECKS)
        return "".join(parts)

    assert blob(1) == blob(2) == blob(4)


def test_uniqueness_condition():
    assert uniqueness_condition(Params(7, 4, 2))          # n > k + q
    assert not uniqueness_condition(Params(6, 4, 2))      # boundary, min(k,m) divides k
    assert uniqueness_condition(Params(6, 4, 3))          # boundary, 3 does not divide 4
    assert not uniqueness_condition(Params(5, 4, UNBOUNDED))
    assert uniqueness_condition(Params(6, 4, UNBOUNDED))


def test_verify_grid_batches():
    reports = verify_grid([4], [2, 3], 6)
    labels = {(r.params.n, r.params.k, r.params.m_text) for r in reports}
    assert labels == {(6, 4, "2"), (6, 4, "3")}
    assert all(r.passed for r in reports)


def test_report_serialization_shape():
    report = verify_hm_theorem(5, 4, UNBOUNDED)
    payload = report.to_json_dict()
    for key in ("params", "bound", "families_checked", "iso_classes_checked",
                "achievers", "uniqueness_verdict", "lemma_violations", "runtime_ms"):
        assert key in payload
    assert payload["runtime_ms"] is None
    timed = verify_hm_theorem(5, 4, UNBOUNDED, timing=True)
    assert timed.runtime_ms is not None
