"""Enumeration and verification: generator soundness, oracles, theorem checks."""

import hashlib
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import comb, factorial
from operator import and_

import pytest

from msfam import (
    CHECK_LAYER_DOMINANCE, CHECK_REMOVED_LAYER, CHECK_VALUABLE_RIGIDITY, LEMMA_CHECKS,
    InvariantError, MultisetFamily, ParameterError, Params, SearchCapError, SetFamily, UNBOUNDED,
    build_hm_shadow, build_star, canonical_set_family, coeff, count_iso_classes,
    count_maximal_families, enumerate_maximal_families, hm_shadow_layer_size, hm_size,
    is_maximal_intersecting_definitional, is_maximal_intersecting_sf, is_trivial,
    naive_enumerate_maximal, preimage_family, raw_max_nontrivial, run_verification,
    hm_shadow_valuable, uniqueness_condition, valuable_part,
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


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_iso_class_count_rejects_n_below_two(n):
    with pytest.raises(ParameterError):
        count_iso_classes(n)
    with pytest.raises(ParameterError):
        list(enumerate_maximal_families(n))


def _fixes(bits, image):
    return sum(1 << image[x] for x in range(len(image)) if bits >> x & 1) == bits


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_systems_yield_exactly_the_fixed_families(n):
    families = [f.bits for f in enumerate_maximal_families(n)]
    for perm, _ in search._cycle_type_reps(n):
        if perm == tuple(range(n)):
            continue
        image = [search._permute_mask(x, perm, n) for x in range(1 << n)]
        fixed = sorted(bits for bits in families if _fixes(bits, image))
        system = search._orbit_system(n, perm)
        leaves = [] if system is None else _rejected_outcomes(system)[0]
        assert sorted(leaves) == fixed, perm


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_up_to_iso_matches_class_count(n):
    reps = list(enumerate_maximal_families(n, up_to_iso=True))
    assert len(reps) == ISO_CLASS_COUNTS[n]
    # representatives are pairwise non-isomorphic
    encodings = {canonical_set_family(f) for f in reps}
    assert len(encodings) == len(reps)


@pytest.mark.parametrize("up_to_iso, count, digest", [
    (False, 2646, "261a76d2ccb6acbad30f5d1218db23fd8a1092f282ddd7296becf91337df10da"),
    (True, 30, "702c3a1665115aadc72a2f16bd6dfadce63e6aa10132f985e73a4a8f5a41f226"),
])
def test_enumeration_order_is_pinned_n6(up_to_iso, count, digest):
    h = hashlib.sha256()
    yielded = 0
    for fam in enumerate_maximal_families(6, up_to_iso=up_to_iso):
        h.update(fam.bits.to_bytes(8, "big"))
        yielded += 1
    assert (yielded, h.hexdigest()) == (count, digest)


@pytest.mark.slow
@pytest.mark.parametrize("up_to_iso, count, digest", [
    (False, 1422564, "ff23345fccee1e66aab6bbc21cdb931daae919b26c396babab06b05351ad811b"),
    (True, 716, "26d6a46d81d65255c7a39cfd1a2f7f2d4e321c395d066fcef5d3c7ee996ba566"),
])
def test_enumeration_order_is_pinned_n7(up_to_iso, count, digest):
    """The whole n=7 stream, each family's bits as 16 bytes big-endian
    (2-core Xeon, Python 3.11: about 1.5 s each)."""
    h = hashlib.sha256()
    yielded = 0
    for fam in enumerate_maximal_families(7, up_to_iso=up_to_iso):
        h.update(fam.bits.to_bytes(16, "big"))
        yielded += 1
    assert (yielded, h.hexdigest()) == (count, digest)


def test_leaves_stream_in_the_oracles_order():
    """_leaves over the subset system and every orbit system for n = 2..6,
    from the whole proper set in decision order: the (in, out) oracle's
    leaves, in its order and not just as a set."""
    systems = 0
    for n in range(2, 7):
        proper = (1 << ((1 << n) - 1)) - 2
        for system in [search._orbit_system(n, perm) for perm, _ in search._cycle_type_reps(n)]:
            if system is None:
                continue
            leaves = list(search._leaves(search._decision_steps(n, system), 0, proper))
            assert leaves == _rejected_outcomes(system)[0], (n, system[:1])
            systems += 1
    assert systems == 22


@pytest.mark.parametrize("n, error", [(9, SearchCapError), (1, ParameterError)])
def test_enumeration_guard_raises_at_the_call(n, error):
    """Before any family is asked for: the iterator is never advanced."""
    with pytest.raises(error):
        enumerate_maximal_families(n)


@pytest.mark.parametrize("n", [5.0, "5", True])
def test_non_integer_n_rejected(n):
    for call in (count_maximal_families, count_iso_classes, run_verification,
                 enumerate_maximal_families):
        with pytest.raises(ParameterError, match="integer"):
            call(n)


def test_up_to_iso_yields_first_member_of_each_class_n6():
    seen, expected = set(), []
    for bits in _rejected_outcomes(search._orbit_system(6, tuple(range(6))))[0]:
        enc = canonical_set_family(SetFamily(n=6, bits=bits))
        if enc not in seen:
            seen.add(enc)
            expected.append(bits)
    assert len(expected) == 30
    assert [f.bits for f in enumerate_maximal_families(6, up_to_iso=True)] == expected


def test_iso_classes_match_canonical_dedup():
    for n in (4, 5):
        encodings = {canonical_set_family(f) for f in enumerate_maximal_families(n)}
        assert len(encodings) == ISO_CLASS_COUNTS[n]


@lru_cache(maxsize=None)
def _qualifying(n, p):
    """Layer counts and weighted size of each maximal family on [n] whose valuable
    part is non-trivial, by bits, straight from the definitions."""
    out = {}
    for fam in enumerate_maximal_families(n):
        vp = valuable_part(fam, p)
        core = (1 << n) - 1
        for mask in vp.members():
            core &= mask
        if len(vp) == 0 or core:
            continue
        members = fam.member_sets()
        layers = Counter(len(s) for s in members)
        # coeff(k, l, m) counts the k-multisets whose support is a given l-set
        size = sum(coeff(p.k, len(s), p.m) for s in members)
        out[fam.bits] = (layers, size, members)
    return out


def _achievers(n, k, m_key):
    p = Params(n, k, UNBOUNDED if m_key is None else m_key)
    return [bits for bits, (_, size, _) in _qualifying(n, p).items() if size == hm_size(p)]


@pytest.mark.parametrize("n,k,m_key", [(5, 4, None), (6, 4, 2)])
def test_orbit_classes_match_canonical_grouping(n, k, m_key):
    achievers = sorted(_achievers(n, k, m_key))
    [classes] = search._achiever_classes(n, [achievers])
    by_canonical = Counter(canonical_set_family(SetFamily(n=n, bits=b)) for b in achievers)
    assert {enc: size for _, size, enc in classes} == by_canonical
    assert all(factorial(n) % size == 0 for _, size, _ in classes)
    assert sum(size for _, size, _ in classes) == len(achievers)
    # the representative is the least member of its class
    for fam, _, _ in classes:
        assert fam.bits == min(search._orbit(n, fam.bits))


def test_each_orbit_encoded_once_every_n6_cell(monkeypatch):
    """One _achiever_classes call over every admissible n=6 cell encodes
    each distinct orbit once, through its least member, and gives each
    cell the classes it gets alone."""
    jobs = [(search.THEOREM, p) for p in _admissible_cells(6)]
    kept, _, _ = search._run_pass(6, jobs, 1)
    codec = search._key_codec(6, search._windows(jobs))
    cells = [search._tally(job, kept, codec)[search.ACHIEVER] for job in jobs]
    assert all(type(bits) is int for cell in cells for bits in cell)
    alone = [classes for achievers in cells for classes in search._achiever_classes(6, [achievers])]
    encoded = []
    original = search.canonical_set_family
    monkeypatch.setattr(search, "canonical_set_family",
                        lambda fam: encoded.append(fam.bits) or original(fam))
    assert search._achiever_classes(6, cells) == alone
    reps = {fam.bits for classes in alone for fam, _, _ in classes}
    assert sorted(encoded) == sorted(reps)
    assert all(bits == min(search._orbit(6, bits)) for bits in encoded)
    assert len(reps) < sum(map(len, alone))  # some orbit lies in more than one cell


def test_achiever_classes_reject_a_broken_orbit():
    achievers = sorted(_achievers(5, 4, None))
    [classes] = search._achiever_classes(5, [achievers])
    rep = max(classes, key=lambda c: c[1])[0]
    victim = max(search._orbit(5, rep.bits))
    assert victim != rep.bits
    with pytest.raises(InvariantError):
        search._achiever_classes(5, [[b for b in achievers if b != victim]])


# the n=6 job set of the benchmark: its four theorem cells hold 59 achiever
# classes of 29 distinct orbits
N6_THEOREM_CELLS = (Params(6, 4, 2), Params(6, 4, 3), Params(6, 4, UNBOUNDED), Params(6, 5, UNBOUNDED))
N6_LEMMA_CELLS = (Params(6, 4, 2), Params(6, 4, UNBOUNDED))


def test_n6_job_set_closes_each_orbit_once_per_pass(monkeypatch):
    closed = []
    original = search._orbit

    def orbit(n, bits):
        closed.append(original(n, bits))
        return closed[-1]

    monkeypatch.setattr(search, "_orbit", orbit)
    res = run_verification(6, N6_THEOREM_CELLS, N6_LEMMA_CELLS)
    assert [len(r.achiever_class_sizes) for r in res.theorem_reports] == [28, 1, 1, 29]
    # the 29 achiever orbits, and the one orbit of the shadow's valuable part
    # that the (6,4,3) and (6,4,inf) theorem cells and both lemma cells ask for
    assert len(closed) == 30
    assert sum(map(len, closed)) == 2670
    assert len({min(orbit) for orbit in closed}) == 30


@pytest.mark.parametrize("victim_of", [min, max])
def test_broken_orbit_in_the_second_cell_sharing_it_raises(monkeypatch, victim_of):
    # (6,4,3) and (6,4,inf) hold the same 30-member achiever orbit; one of
    # its members, its least or another, is dropped from the second cell only
    first, second = Params(6, 4, 3), Params(6, 4, UNBOUNDED)
    original = search._tally

    def tally(job, *args):
        found = original(job, *args)
        if job == (search.THEOREM, second):
            # the achievers are plain family bitsets
            found[search.ACHIEVER].remove(victim_of(found[search.ACHIEVER]))
        return found

    assert run_verification(6, [first, second]).theorem_reports[1].achiever_class_sizes == (30,)
    monkeypatch.setattr(search, "_tally", tally)
    with pytest.raises(InvariantError):
        run_verification(6, [first, second])


# workers > 1 are forked, so a patch of the module reaches them
FORKED_WORKERS = (1, 2) if hasattr(os, "fork") else (1,)
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers > 1 are forked")


def _assert_no_child_left():
    """Every child this process forked has been reaped: waitpid finds none,
    running or exited."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_burnside_divisibility_raises(monkeypatch):
    original = search._cycle_type_totals
    monkeypatch.setattr(search, "_cycle_type_totals",
                        lambda *args: [t + 1 for t in original(*args)])
    with pytest.raises(InvariantError):
        count_iso_classes(4)
    for workers in FORKED_WORKERS:
        with pytest.raises(InvariantError):
            run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=workers)


def test_burnside_divisibility_raises_under_optimize():
    script = """
import os, sys
from msfam import InvariantError, Params, UNBOUNDED, count_iso_classes, run_verification, search
original = search._cycle_type_totals
search._cycle_type_totals = lambda *args: [t + 1 for t in original(*args)]
workers = (1, 2) if hasattr(os, "fork") else (1,)
calls = [lambda: count_iso_classes(4)]
calls += [lambda w=w: run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=w)
          for w in workers]
caught = 0
for call in calls:
    try:
        call()
    except InvariantError:
        caught += 1
print(sys.flags.optimize, caught, 1 + len(workers))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    optimize, caught, calls = out.stdout.split()
    assert optimize == "1" and caught == calls == str(1 + len(FORKED_WORKERS))


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


def test_uniqueness_counts_valuable_part_orbits():
    # the k=3 Hilton-Milner pair at n=7: eight achiever classes of subset
    # families, whose valuable parts (layers q..k) fall into two orbits,
    # the HM family's and the triangle family's
    report = verify_hm_theorem(7, 3, 1, check=False)
    assert len(report.achievers) == len(report.achiever_class_sizes) == 8
    assert report.uniqueness_verdict == "multiple-iso"
    assert [v for v in report.lemma_violations if v["type"] == "uniqueness-failed"] == [
        {"type": "uniqueness-failed", "achiever_classes": 2}]
    # the triangle classes are the achievers outside the shadow's orbit: their
    # valuable part (layer 3) is every 3-set meeting some 3-set T in two points
    triples = [frozenset(t) for t in combinations(range(1, 8), 3)]

    def triangle_part(family):
        part = {frozenset(m) for m in family if len(m) == 3}
        return any(part == {a for a in triples if len(a & t) >= 2} for t in triples)

    assert not triangle_part(hm_shadow_valuable(Params(7, 3, 1)).member_sets())
    triangles = [i for i, enc in enumerate(report.achievers) if triangle_part(enc)]
    assert triangles == [0, 4, 5, 6]
    assert [report.achiever_class_sizes[i] for i in triangles] == [105, 35, 105, 35]
    assert [v for v in report.lemma_violations if v["type"] == "achiever-not-shadow"] == [
        {"type": "achiever-not-shadow", "family": [list(m) for m in report.achievers[i]]}
        for i in triangles]


@pytest.mark.slow
def test_keep_everything_cell_7_6_inf():
    # every family but the 7 stars qualifies and achieves, so the pass keeps
    # and groups 1,422,557 families
    report = verify_hm_theorem(7, 6, UNBOUNDED)
    assert len(report.achievers) == len(report.achiever_class_sizes) == 715
    assert sum(report.achiever_class_sizes) == report.families_checked == 1422557
    assert report.iso_classes_checked == 715
    assert report.uniqueness_verdict == "not-applicable"
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

    assert blob(1) == blob(2) == blob(3) == blob(4)


def _reports_blob(n, theorem_cells, lemma_cells, workers, check=True):
    """The theorem reports and then the lemma reports of one pass, concatenated."""
    res = run_verification(n, theorem_params=theorem_cells, lemma_params=lemma_cells,
                           workers=workers, check=check)
    parts = [to_canonical_json(r) for r in res.theorem_reports]
    parts.extend(to_canonical_json(bundle[name])
                 for bundle in res.lemma_bundles for name in LEMMA_CHECKS)
    return "".join(parts)


def _every_cell_blob(n, workers):
    """The theorem and lemma reports of every admissible cell at n, concatenated."""
    cells = _admissible_cells(n)
    return _reports_blob(n, cells, cells, workers, check=False)


def test_worker_determinism_every_n6_cell():
    blobs = [_every_cell_blob(6, workers) for workers in (1, 2, 3, 4)]
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


@pytest.mark.parametrize("n,digest", [
    (5, "578b356b987b60da9cca4c170db591e1a0aee134515ce8e808b73fb647a8eb30"),
    (6, "6b8d3f4af9c3d8dd530dacd7fae1c98282152e6383f0cd7be162bce6ed7ef758"),
])
def test_every_cell_report_bytes_pinned(n, digest):
    """Every cell's reports at 1 to 4 workers hash to the digest pinned from
    the vector-path encodings."""
    for workers in (1, 2, 3, 4):
        assert hashlib.sha256(_every_cell_blob(n, workers).encode()).hexdigest() == digest, workers


# the six-job n=7 pass of the benchmark
N7_THEOREM_CELLS = (Params(7, 4, 2), Params(7, 4, 3), Params(7, 4, UNBOUNDED),
                    Params(7, 5, 3), Params(7, 5, UNBOUNDED))
N7_LEMMA_CELLS = (Params(7, 4, 2),)


@pytest.mark.parametrize("workers", [1, 2])
def test_n7_job_set_report_bytes_pinned(workers):
    """The six-job n=7 reports hash to a pinned digest at one and two
    workers, so a change of encoding or class order at n=7 fails here."""
    blob = _reports_blob(7, N7_THEOREM_CELLS, N7_LEMMA_CELLS, workers)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "5d2edd6a7193329919ec9f3bf63e41c2fce107b9fd48eb1747222dece21645cc")


@pytest.mark.parametrize("workers", [0, -1, 2.0, "2", True])
def test_workers_below_one_rejected(monkeypatch, workers):
    def refuse(*args):
        raise AssertionError("no enumeration pass may start")
    monkeypatch.setattr(search, "_run_pass", refuse)
    with pytest.raises(ParameterError):
        run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=workers)



def test_shared_pass_counts_each_window_by_definition():
    cells = [Params(6, 4, 2), Params(6, 4, UNBOUNDED), Params(6, 5, UNBOUNDED), Params(6, 4, 3)]
    reports = run_verification(6, theorem_params=cells).theorem_reports
    assert [r.families_checked for r in reports] == [len(_qualifying(6, p)) for p in cells]


def _window_part(fam, q, k):
    """The members with size in [q, k]."""
    layers = layer_bitsets(fam.n)
    return SetFamily(n=fam.n, bits=fam.bits & sum(layers[q:k + 1]))


def _qualifies(part):
    """Non-empty with empty total intersection."""
    core = (1 << part.n) - 1
    for mask in part.members():
        core &= mask
    return len(part) > 0 and core == 0


def _packed_key(codec, bits):
    """A family's packed key, one member at a time from the codec's weights."""
    key = 0
    for x in SetFamily(n=codec.n, bits=bits).members():
        key = (key + codec.add[x]) | codec.cov[x]
    return key


@pytest.mark.parametrize("n", [4, 5, 6])
def test_window_flags_need_only_layer_k(n):
    windows = tuple((q, k) for k in range(1, n) for q in range(1, k + 1))
    by_cap = {(p.q, p.k): p for k in range(1, n) for m in (1, 2, 3, UNBOUNDED)
              for p in [Params(n, k, m)]}
    codec = search._KeyCodec(n, windows)
    full = (1 << n) - 1
    for fam in enumerate_maximal_families(n):
        expected = []
        for q, k in windows:
            part = _window_part(fam, q, k)
            if (q, k) in by_cap:
                assert valuable_part(fam, by_cap[q, k]) == part
            expected.append(_qualifies(part))
        expected = tuple(expected)
        # the flag read from the cover mask of layer k alone
        key = _packed_key(codec, fam.bits)
        assert tuple(key >> codec.cover_shift[k] & full == full for _, k in windows) == expected
        assert codec.decode(key)[1] == expected, fam.bits


def _star_layer_inside(fam, s):
    """Whether every s-subset of [n] holding element 1 is a member, from member sets."""
    members = set(fam.member_sets())
    return all((1, *rest) in members for rest in combinations(range(2, fam.n + 1), s - 1))


def _key_by_definition(fam, windows):
    """(layer counts 0..n, window flags)."""
    sizes = [len(s) for s in fam.member_sets()]
    return (tuple(sizes.count(l) for l in range(fam.n + 1)),
            tuple(_qualifies(_window_part(fam, q, k)) for q, k in windows))


def _leaf_by_leaf(n, jobs):
    """The pass's histogram and kept families, one family at a time from the definitions."""
    windows = search._windows(jobs)
    hist, kept = Counter(), {}
    for fam in enumerate_maximal_families(n):
        key = _key_by_definition(fam, windows)
        hist[key] += 1
        if any(search._findings(job, key, windows) for job in jobs):
            kept.setdefault(key, []).append(fam.bits)
    return hist, {key: sorted(fams) for key, fams in kept.items()}


def _all_cells(n):
    return [(kind, p) for k in range(2, n) for m in (1, 2, 3, UNBOUNDED)
            for p in [Params(n, k, m)] if n >= k + p.q
            for kind in (search.THEOREM, search.LEMMAS)]


def _window_columns(hist, windows):
    """The column sums of a histogram by decoded key: all its families, then
    those qualifying for each window."""
    return [sum(hist.values())] + [sum(count for (_, flags), count in hist.items() if flags[i])
                                   for i in range(len(windows))]


def _decoded_kept(codec, kept):
    """Kept families by decoded key, sorted; packed keys may share a decoding."""
    out = {}
    for key, fams in kept.items():
        out.setdefault(codec.decode(key), []).extend(fams)
    return _sorted_kept(out)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pass_equals_leaf_by_leaf_histogram(n):
    """The pass's kept families and family totals, from the leaf-by-leaf
    histogram's kept families and column sums."""
    jobs = _all_cells(n)
    assert len(jobs) >= 8
    windows = search._windows(jobs)
    codec = search._key_codec(n, windows)
    hist, kept = _leaf_by_leaf(n, jobs)
    assert sum(hist.values()) == MAXIMAL_COUNTS[n]
    orbit_totals = []
    for workers in (1, 2, 3):
        got_kept, got_totals, got_orbits = search._run_pass(n, jobs, workers)
        assert got_totals == _window_columns(hist, windows), workers
        assert _decoded_kept(codec, got_kept) == kept, workers
        orbit_totals.append(got_orbits)
    assert orbit_totals[0] and orbit_totals[0] == orbit_totals[1] == orbit_totals[2]


def _tally_by_definition(n, jobs):
    """Per job, its findings in the form of _tally and the number of
    families it checks, one family at a time from the definitions."""
    windows = search._windows(jobs)
    found, checked = [defaultdict(list) for _ in jobs], [0] * len(jobs)
    for fam in enumerate_maximal_families(n):
        key = _key_by_definition(fam, windows)
        for i, job in enumerate(jobs):
            findings = search._findings(job, key, windows)
            if findings is None:
                continue
            checked[i] += 1
            for finding in findings:
                if finding in (search.ACHIEVER, search.RIGIDITY_CANDIDATE):
                    found[i][finding].append(fam.bits)
                else:
                    found[i][finding["type"]].append((fam.bits, finding))
    return list(zip(found, checked))


def _by_family(found):
    """Findings with empty lists dropped and each list sorted stably by
    family bits, as _violations sorts them."""
    return {name: sorted(items, key=lambda item: item if type(item) is int else item[0])
            for name, items in found.items() if items}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("workers", FORKED_WORKERS)
def test_tally_from_kept_families_equals_findings_by_definition(n, workers):
    """Every admissible job at n, theorem and lemmas, in one pass: each
    job's findings from the pass's kept families alone, and its checked
    count from the pass's totals, against the same computed family by
    family; the totals against the leaf-by-leaf histogram's column sums."""
    jobs = [(kind, p) for p in _admissible_cells(n) for kind in (search.THEOREM, search.LEMMAS)]
    windows = search._windows(jobs)
    codec = search._key_codec(n, windows)
    kept, totals, _ = search._run_pass(n, jobs, workers)
    assert totals == _window_columns(_leaf_by_leaf(n, jobs)[0], windows)
    marked = 0
    for job, (found, checked) in zip(jobs, _tally_by_definition(n, jobs)):
        got = search._tally(job, kept, codec)
        assert _by_family(got) == _by_family(found), job
        for marker in (search.ACHIEVER, search.RIGIDITY_CANDIDATE):
            assert got[marker] == sorted(got[marker]), job
        assert totals[1 + windows.index((job[1].q, job[1].k))] == checked, job
        marked += sum(map(len, found.values()))
    assert marked or n < 4


def _admissible_cells(n):
    """Every (n, k, m) with n >= k + q, each cap m up to k and unbounded."""
    return [p for k in range(1, n) for m in (*range(1, k + 1), UNBOUNDED)
            for p in [Params(n, k, m)] if n >= k + p.q]


@lru_cache(maxsize=None)
def _keys_by_definition(n, windows):
    """(bits, key by definition) of every maximal family on [n]."""
    return [(fam.bits, _key_by_definition(fam, windows)) for fam in enumerate_maximal_families(n)]


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("marks", ["jobs", "every key", "no key"])
def test_walk_equals_leaf_by_leaf_under_every_cell(monkeypatch, n, marks):
    """Every admissible cell's windows at once, so that ORing cover masks
    sends many node keys to one, with the jobs' keep, a keep that marks
    every key and one that marks none.  _share over the root decides keep
    through _findings, which the last two patch."""
    jobs = tuple((kind, p) for p in _admissible_cells(n) for kind in (search.THEOREM, search.LEMMAS))
    windows = search._windows(jobs)
    findings = search._findings
    keep = {"jobs": lambda key: any(findings(job, key, windows) for job in jobs),
            "every key": lambda key: True, "no key": lambda key: False}[marks]
    expected_hist, expected_kept = Counter(), {}
    for bits, key in _keys_by_definition(n, windows):
        expected_hist[key] += 1
        if keep(key):
            expected_kept.setdefault(key, []).append(bits)
    if marks != "jobs":
        monkeypatch.setattr(search, "_findings",
                            lambda job, key, windows: [("kept",)] if keep(key) else [])
    codec = search._key_codec(n, windows)
    root = search._KeyWalk(n, search._key_codec(n, ())).root
    kept, totals, orbits = search._share(n, jobs, root, [])
    assert (_decoded_kept(codec, kept), totals, orbits) == (
        _sorted_kept(expected_kept), _window_columns(expected_hist, windows), [])
    # the walk's own histogram, which _share reduces to those totals
    hist = Counter()
    for key, count in search._KeyWalk(n, codec).histogram(root)[0].items():
        hist[codec.decode(key)] += count
    assert hist == expected_hist


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("untested", [0, 10**6])
def test_collection_is_independent_of_the_reach_test(monkeypatch, n, untested):
    """The reach test only prunes: with it applied at every U (0 untested
    pairs) and at none (10**6), the collection keeps exactly the families
    whose key, by definition, the jobs' keep marks.  Each admissible job is
    its own job set, so that few keys are kept and a reach test that prunes
    too much loses families, and all of them are one more."""
    monkeypatch.setattr(search, "_UNTESTED_PAIRS", untested)
    every = tuple((kind, p) for p in _admissible_cells(n) for kind in (search.THEOREM, search.LEMMAS))
    for jobs in [(job,) for job in every] + [every]:
        windows = search._windows(jobs)
        codec = search._key_codec(n, windows)

        def keep(key):
            return any(search._findings(job, key, windows) for job in jobs)
        expected, kept = {}, {}
        for bits, key in _keys_by_definition(n, windows):
            if keep(key):
                expected.setdefault(key, []).append(bits)
        for key, fams in search._KeyWalk(n, codec, lambda key: keep(codec.decode(key))).histogram()[1].items():
            kept.setdefault(codec.decode(key), []).extend(fams)  # packed keys may share a decoding
        assert _sorted_kept(kept) == _sorted_kept(expected), jobs
    assert expected


def _step_orders(steps):
    """A pair system's steps in decision order, in the walk's frontier order
    and in reversed decision order; checks that the frontier order is a
    permutation of steps and the same on every call."""
    frontier = search._frontier_order(steps)
    assert len(frontier) == len(steps) and Counter(frontier) == Counter(steps)
    assert search._frontier_order(steps) == frontier
    return steps, frontier, steps[::-1]


def _sorted_kept(kept):
    return {key: sorted(fams) for key, fams in kept.items()}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_walk_is_independent_of_the_step_order(n):
    jobs = [(kind, p) for p in _admissible_cells(n) for kind in (search.THEOREM, search.LEMMAS)]
    windows = search._windows(jobs)
    codec = search._key_codec(n, windows)

    def keep(key):
        return any(search._findings(job, codec.decode(key), windows) for job in jobs)
    steps = search._decision_steps(n, search._orbit_system(n, tuple(range(n))))
    orders = _step_orders(steps)
    assert search._walk_steps(n, tuple(range(n))) == (steps, orders[1])
    if n >= 4:
        assert orders[1] != steps  # the orders really differ
    results = []
    for order in orders:
        hist, kept = search._KeyWalk(n, codec, keep, steps=(order, order)).histogram()
        results.append((hist, _sorted_kept(kept)))
    # by default the walk counts in frontier order and collects in decision order
    walk = search._KeyWalk(n, codec, keep)
    assert (walk.steps, walk.collect_steps) == (orders[1], steps)
    hist, kept = walk.histogram()
    results.append((hist, _sorted_kept(kept)))
    assert sum(results[0][0].values()) == MAXIMAL_COUNTS[n]
    assert results[0][1] or n < 4
    assert results[0] == results[1] == results[2] == results[3]


def _frontier_order_reference(steps):
    """The frontier order straight from its definition: adjacency by testing
    every step's bit, and each next pair chosen among all steps not yet
    placed, the least boundary first and ties by position."""
    bits = [bit for bit, _ in steps]
    adjacent = []
    for _, outcomes in steps:
        decides = ~reduce(and_, (rest for _, rest in outcomes), -1)
        adjacent.append(sum(1 << j for j, bit in enumerate(bits) if bit & decides))
    order, placed, reach = [], 0, 0
    for _ in steps:
        _, i = min((((reach | adjacent[i]) & ~(placed | 1 << i)).bit_count(), i)
                   for i in range(len(steps)) if not placed >> i & 1)
        order.append(i)
        placed |= 1 << i
        reach |= adjacent[i]
    return tuple(steps[i] for i in order)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_frontier_order_equals_its_reference(n):
    """The subset system and every orbit system: the same order, tie for tie."""
    systems = [system for perm, _ in search._cycle_type_reps(n)
               for system in [search._orbit_system(n, perm)] if system is not None]
    for system in systems:
        steps = search._decision_steps(n, system)
        assert search._frontier_order(steps) == _frontier_order_reference(steps)
    assert len(systems) > 1 or n == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orbit_walk_is_independent_of_the_step_order(n):
    """Every non-identity cycle type, with every key kept so that the
    invariant families themselves are compared too."""
    windows = search._windows([(search.THEOREM, p) for p in _admissible_cells(n)])
    codec = search._key_codec(n, windows)
    walked = 0
    for perm, _ in search._nonidentity_types(n):
        system = search._orbit_system(n, perm)
        if system is None:
            continue
        results = []
        for order in _step_orders(search._decision_steps(n, system)):
            hist, kept = search._KeyWalk(n, codec, lambda key: True, steps=(order, order)).histogram()
            results.append((hist, _sorted_kept(kept)))
        assert results[0] == results[1] == results[2], perm
        walked += 1
    assert walked or n < 3


@needs_fork
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_orbits_counted_in_workers_tree_in_caller(monkeypatch, n):
    """At two workers the caller's _share walks a strict part of the tree,
    the last of the root's two subtrees, and counts no orbits; the worker
    walks the rest and counts every cycle type."""
    jobs = [(search.THEOREM, p) for p in _admissible_cells(n)]
    windows = search._windows(jobs)
    serial_kept, serial_totals, serial = search._run_pass(n, jobs, 1)
    original_totals, original_share = search._cycle_type_totals, search._share
    caller = os.getpid()
    shares = []

    def in_worker(*args):
        if os.getpid() == caller:
            raise AssertionError("a pass at two workers counts orbits in its worker, not in the caller")
        return original_totals(*args)

    def share(*args):
        kept, totals, orbits = original_share(*args)
        # forked workers append to their own copy of shares
        shares.append((os.getpid(), args[2], args[3], totals[0]))
        return kept, totals, orbits
    monkeypatch.setattr(search, "_cycle_type_totals", in_worker)
    monkeypatch.setattr(search, "_share", share)
    kept, totals, orbits = search._run_pass(n, jobs, 2)
    assert (_sorted_kept(kept), totals, orbits) == (_sorted_kept(serial_kept), serial_totals, serial)
    assert len(serial) == len(serial_totals) == 1 + len(windows)
    [(pid, block, types, families)] = shares
    assert pid == caller and types == []
    # the second child of the root: (step index, U, family bits) without the key
    assert len(block) == 1 and block[0][:3] == search._KeyWalk(n, search._key_codec(n, ())).split(2)[1][:3]
    assert 0 < families < serial_totals[0]
    _assert_no_child_left()


@pytest.mark.parametrize("n", [4, 6])
def test_one_worker_computes_one_share_in_the_caller(monkeypatch, n):
    """At one worker the pass is the caller's _share of the root with every
    non-identity cycle type, returned as it is, and no process starts."""
    jobs = [(search.THEOREM, p) for p in _admissible_cells(n)]
    original = search._share
    shares = []

    def share(*args):
        shares.append((args, original(*args)))
        return shares[-1][1]

    def refuse():
        raise AssertionError("a pass at one worker starts no process")
    monkeypatch.setattr(search, "_share", share)
    monkeypatch.setattr(os, "fork", refuse)
    kept, totals, orbits = search._run_pass(n, jobs, 1)
    [((got_n, got_jobs, block, types), (share_kept, share_totals, share_orbits))] = shares
    proper = (1 << ((1 << n) - 1)) - 2
    assert (got_n, got_jobs, block) == (n, tuple(jobs), [(0, proper, 0, 0)])
    assert types == search._nonidentity_types(n) and len(types) > 1
    assert kept is share_kept and totals == share_totals and orbits == share_orbits
    assert totals[0] == MAXIMAL_COUNTS[n] and kept
    windows = search._windows(jobs)
    assert len(orbits) == 1 + len(windows) and orbits[0] > 0


def _all_keys_codec(n):
    return search._key_codec(n, search._windows(
        [(kind, p) for p in _admissible_cells(n) for kind in (search.THEOREM, search.LEMMAS)]))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_start_states_partition_the_tree(n):
    """Each start state walked on its own, with every key kept: the kept
    families are disjoint, together they are the oracle's leaves, and the
    histograms add up to the root's."""
    walk = search._KeyWalk(n, _all_keys_codec(n), lambda key: True)
    root_hist, root_kept = walk.histogram()
    leaves = sorted(_rejected_outcomes(search._orbit_system(n, tuple(range(n))))[0])
    assert sorted(fam for fams in root_kept.values() for fam in fams) == leaves
    sizes = []
    for parts in (2, 4, 8):
        starts = walk.split(parts)
        sizes.append(len(starts))
        hist, families = Counter(), []
        for start in starts:
            part_hist, part_kept = walk.histogram([start])
            hist += part_hist
            families += [fam for fams in part_kept.values() for fam in fams]
            assert sum(part_hist.values()) == sum(map(len, part_kept.values())) > 0
        assert len(set(families)) == len(families), parts
        assert sorted(families) == leaves, parts
        assert hist == root_hist, parts
    assert sizes == [2, 4, 8]  # depths 1 to 3: no leaf that shallow for n >= 4
    # many start states walked as one block, some sharing a U, merge as paths do
    for block_walk in (walk, search._KeyWalk(n, search._key_codec(n, ()))):
        starts = block_walk.split(64)
        assert max(Counter(u for _, u, _, _ in starts).values()) > 1
        hist, kept = block_walk.histogram(starts)
        expected_hist, expected_kept = block_walk.histogram()
        assert (hist, _sorted_kept(kept)) == (expected_hist, _sorted_kept(expected_kept))


@needs_fork
@pytest.mark.parametrize("n", [2, 3])
def test_split_beyond_the_leaves_terminates(n):
    """More processes than leaves: the split stops at the leaves, some
    processes get no start state, and the reports are those of one worker."""
    leaves = MAXIMAL_COUNTS[n]
    starts = search._KeyWalk(n, search._key_codec(n, ())).split(8)
    assert len(starts) == leaves and not any(u for _, u, _, _ in starts)
    blobs = [_every_cell_blob(n, workers) for workers in (1, 2, 3, 4)]
    assert blobs[0] and blobs[0] == blobs[1] == blobs[2] == blobs[3]
    jobs = [(kind, p) for p in _admissible_cells(n) for kind in (search.THEOREM, search.LEMMAS)]
    serial = search._run_pass(n, jobs, 1)
    for workers in (2, 3, 4):
        kept, totals, orbits = search._run_pass(n, jobs, workers)
        assert (_sorted_kept(kept), totals, orbits) == (_sorted_kept(serial[0]), serial[1], serial[2])
    _assert_no_child_left()


@needs_fork
def test_pass_at_n7_equal_across_workers():
    """The benchmark's n=7 job set, whose kept achievers lie in both of the
    root's subtrees, at one to four workers."""
    jobs = [(search.THEOREM, Params(7, k, m))
            for k, m in ((4, 2), (4, 3), (4, UNBOUNDED), (5, 3), (5, UNBOUNDED))]
    jobs.append((search.LEMMAS, Params(7, 4, 2)))
    kept, totals, orbits = search._run_pass(7, jobs, 1)
    assert totals[0] == 1422564 and orbits
    starts = search._KeyWalk(7, search._key_codec(7, search._windows(jobs))).split(2)
    halves = [sum(map(len, search._share(7, tuple(jobs), [start], [])[0].values()))
              for start in starts]
    assert all(halves) and sum(halves) == sum(map(len, kept.values()))
    for workers in (2, 3, 4):
        got_kept, got_totals, got_orbits = search._run_pass(7, jobs, workers)
        assert got_totals == totals, workers
        assert _sorted_kept(got_kept) == _sorted_kept(kept), workers
        assert got_orbits == orbits, workers
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
def test_worker_exception_raised_in_caller(monkeypatch, workers):
    def broken(*args):
        raise InvariantError("broken orbit count")
    monkeypatch.setattr(search, "_cycle_type_totals", broken)
    with pytest.raises(InvariantError, match="broken orbit count"):
        run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=workers)
    _assert_no_child_left()


def _script_stdout(script: str) -> str:
    """The standard output of script run in its own interpreter on this
    msfam, block-buffered; a hang fails on the timeout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True).stdout


@needs_fork
def test_worker_exit_without_sending_raises_in_caller():
    out = _script_stdout("""
import os
from msfam import Params, UNBOUNDED, run_verification, search
search._cycle_type_totals = lambda *args: os._exit(3)
try:
    run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=2)
except RuntimeError as exc:
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = 0
    print(type(exc).__name__, exc, left, sep="|")
""")
    name, message, left = out.strip().split("|")
    assert name == "RuntimeError" and "code 3" in message and left == "0"


@needs_fork
def test_worker_system_exit_never_unwinds_into_the_caller():
    """A worker stopped by SystemExit, which _share does not catch, exits
    without sending: the caller raises RuntimeError, and the child never
    returns into the script, whose last line prints once."""
    out = _script_stdout("""
import os
from msfam import Params, UNBOUNDED, run_verification, search
caller, original = os.getpid(), search._share

def share(*args):
    if os.getpid() != caller:
        raise SystemExit(0)
    return original(*args)
search._share = share
try:
    run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=2)
except BaseException as exc:
    print(type(exc).__name__, exc, sep="|")
print("last line")
""")
    assert out.splitlines() == [
        "RuntimeError|a pass worker exited with code 1 before sending its results", "last line"]


@needs_fork
def test_pending_stdout_written_once_across_a_fork():
    """Text the caller left in its stdout buffer before a pass is not
    written again by a worker, even one that flushes its copy."""
    out = _script_stdout("""
import sys
from msfam import Params, UNBOUNDED, run_verification, search
original = search._share

def share(*args):
    sys.stdout.flush()
    return original(*args)
search._share = share
assert not (sys.stdout.line_buffering or sys.stdout.write_through)  # block-buffered
print("before the pass")
run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=2)
print("after the pass")
""")
    assert out.splitlines() == ["before the pass", "after the pass"]


def test_workers_above_one_need_fork(monkeypatch):
    """Without os.fork, workers > 1 is refused before anything is walked,
    and one worker still runs."""
    passes = []
    original = search._run_pass
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(search, "_run_pass", lambda *args: passes.append(args) or original(*args))
    for workers in (2, 3):
        with pytest.raises(ParameterError, match="os.fork"):
            run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=workers)
    assert not passes
    serial = run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=1)
    assert len(passes) == 1 and serial.families_total == MAXIMAL_COUNTS[5]


@needs_fork
def test_caller_exception_leaves_no_worker_running(monkeypatch):
    caller = os.getpid()

    def broken(*share):
        if os.getpid() == caller:
            raise InvariantError("broken tree walk")
        # forked workers stay busy, so only stopping them leaves none running
        time.sleep(60)
    monkeypatch.setattr(search, "_share", broken)
    for workers in (2, 3):
        with pytest.raises(InvariantError, match="broken tree walk"):
            run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=workers)
        _assert_no_child_left()


@needs_fork
def test_no_child_left_check_fails_on_an_unreaped_worker(monkeypatch):
    """Negative control: a pass whose finally signals its workers but never
    reaps them leaves a child that _assert_no_child_left reports."""
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (pid, 0))
    run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=2)
    monkeypatch.undo()
    try:
        with pytest.raises(pytest.fail.Exception):
            _assert_no_child_left()
    finally:
        with pytest.raises(ChildProcessError):
            while True:
                os.waitpid(-1, 0)


def _flags_by_definition(n, windows):
    """Per window (q, k), whether a family's members of size in [q, k] are
    non-empty with empty total intersection, from each layer's intersection:
    one pass over the members serves every window, which keeps the 54k
    invariant families at n=7 quick (_qualifies takes one pass per window)."""
    full = (1 << n) - 1

    def flags(bits):
        core, seen = [full] * (n + 1), [False] * (n + 1)
        for x in SetFamily(n=n, bits=bits).members():
            core[x.bit_count()] &= x
            seen[x.bit_count()] = True
        return tuple(any(seen[q:k + 1]) and not reduce(and_, core[q:k + 1]) for q, k in windows)

    return flags


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_orbit_walk_equals_leaf_by_leaf_count(n):
    windows = search._windows([(search.THEOREM, p) for p in _admissible_cells(n)])
    assert windows
    flags = _flags_by_definition(n, windows)
    for perm, size in search._nonidentity_types(n):
        system = search._orbit_system(n, perm)
        tally = Counter() if system is None else Counter(map(flags, _rejected_outcomes(system)[0]))
        expected = [size * sum(tally.values())]
        expected += [size * sum(c for f, c in tally.items() if f[i]) for i in range(len(windows))]
        assert search._cycle_type_totals(n, windows, perm, size) == expected, perm
        assert search._cycle_type_totals(n, (), perm, size) == expected[:1], perm


def _rejected_outcomes(decisions):
    """The oracle for the walk over undecided sets: a pair system walked in
    the state (in, out) of the family bitsets decided in and out, which
    checks every branch for a conflict (in & out non-empty).  decisions
    lists one (bit, outcomes) per complementary pair: the pair is decided
    once bit lies in in | out, and each outcome is the closures (in, out)
    it adds.  Returns the leaves' families (their in), depth first with
    the first outcome's subtree before the second's, and the outcome of
    each rejected branch."""
    leaves, rejected = [], []

    def rec(idx, fin, fout):
        while idx < len(decisions) and decisions[idx][0] & (fin | fout):
            idx += 1
        if idx == len(decisions):
            leaves.append(fin)
            return
        for add_in, add_out in decisions[idx][1]:
            if (fin | add_in) & (fout | add_out):
                rejected.append((add_in, add_out))
            else:
                rec(idx + 1, fin | add_in, fout | add_out)

    rec(0, 0, 0)
    return leaves, rejected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orbit_systems_conflict_only_inside_one_outcome(n):
    """The premise of walking orbit systems by undecided set: a branch fails
    only when the outcome's own closures meet, never against the state."""
    proper = (1 << ((1 << n) - 1)) - 2
    conflicts = 0
    for perm, _ in search._nonidentity_types(n):
        system = search._orbit_system(n, perm)
        if system is None:
            continue
        leaves, rejected = _rejected_outcomes(system)
        assert all(add_in & add_out for add_in, add_out in rejected), perm
        conflicts += len(rejected)
        # so the walk, which never looks at the state, completes to the oracle's leaves
        assert sorted(search._leaves(search._walk_steps(n, perm)[1], 0, proper)) == sorted(leaves), perm
    assert conflicts or n < 4


@needs_fork
def test_off_by_one_cycle_type_count_raises_at_two_workers(monkeypatch):
    original = search._cycle_type_totals
    monkeypatch.setattr(search, "_cycle_type_totals",
                        lambda *args: [t + 1 for t in original(*args)])
    with pytest.raises(InvariantError):
        run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=2)


def test_key_codec_fields_fit_at_n9():
    # n=9 lies past the enumeration guard; building the weights enumerates nothing
    n = 9
    windows = search._windows(_all_cells(n))
    codec = search._KeyCodec(n, windows)
    # every subset at once: each field at its maximum, nothing spilling into the next
    everything = (1 << ((1 << n) - 1)) - 2
    counts, flags = codec.decode(_packed_key(codec, everything))
    assert counts[1:(n + 1) // 2] == tuple(comb(n, l) for l in range(1, (n + 1) // 2))
    assert all(flags)
    for p in (Params(9, 4, 2), Params(9, 5, UNBOUNDED), Params(9, 7, 3)):
        for fam in (build_star(n), build_hm_shadow(p)):
            assert is_maximal_intersecting_sf(fam)
            assert codec.decode(_packed_key(codec, fam.bits)) == _key_by_definition(fam, windows)
        # the lemma's own layer: the shadow qualifies and leaves part of the star's layer n-k out
        shadow = build_hm_shadow(p)
        assert _qualifies(_window_part(shadow, p.q, p.k))
        assert not _star_layer_inside(shadow, n - p.k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_count_maximal_families_from_the_memo(n):
    """Counted with the codec of no window, which packs no field and no
    cover mask, so that the walk's only key is 0."""
    codec = search._key_codec(n, ())
    assert (codec.fields, codec.low, codec.guards, codec.cover_shift) == ([], 0, 0, {})
    assert not any(codec.add) and not any(codec.cov)
    total = {**MAXIMAL_COUNTS, 7: 1422564}[n]
    assert search._KeyWalk(n, codec).histogram() == (Counter({0: total}), {})
    assert count_maximal_families(n) == total


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_identity_orbit_system_is_the_subset_system(n):
    """The subset system by its own rule: one decision per complementary
    pair, through its smaller side by (size, mask), the pairs in that
    order, each outcome the closures it takes in and leaves out."""
    full = (1 << n) - 1
    proper = range(1, full)
    up = {x: sum(1 << y for y in proper if y & x == x) for x in proper}
    down = {x: sum(1 << y for y in proper if y & x == y) for x in proper}

    def side(x):
        return x.bit_count(), x
    reps = sorted((x for x in proper if side(x) < side(full ^ x)), key=side)
    expected = tuple((1 << x, ((up[x], down[full ^ x]), (up[full ^ x], down[x]))) for x in reps)
    assert search._orbit_system(n, tuple(range(n))) == expected


def _patch_constants(monkeypatch, change):
    """Make every job see altered constants, as a wrong bound or closed form would give."""
    original = search._job_constants
    monkeypatch.setattr(search, "_job_constants", lambda p: change(original(p)))


def _reported(violations, kind, *fields):
    return [(SetFamily.from_sets(6, v["family"]).bits, *(v[f] for f in fields))
            for v in violations if v["type"] == kind]


def test_lowered_bound_reports_every_family_above_it(monkeypatch):
    p = Params(6, 4, 3)
    bound = hm_size(p) - 1
    _patch_constants(monkeypatch, lambda c: c._replace(bound=c.bound - 1))
    report = verify_hm_theorem(6, 4, 3)
    expected = sorted((bits, size) for bits, (_, size, _) in _qualifying(6, p).items()
                      if size > bound)
    assert len(expected) == 30  # the shadow's class, all at the true bound
    assert _reported(report.lemma_violations, "bound-exceeded", "size") == expected
    assert {v["bound"] for v in report.lemma_violations if "bound" in v} == {bound}
    assert not report.passed


def test_perturbed_shadow_layer_fails_dominance_and_rigidity(monkeypatch):
    p = Params(6, 4, 2)
    shrunk = 2  # the bottom layer q, also checked by dominance on 2..w
    v = [hm_shadow_layer_size(p, l) - (l == shrunk) for l in range(7)]
    _patch_constants(monkeypatch, lambda c: c._replace(
        v_sizes=tuple(s - (l == shrunk) for l, s in enumerate(c.v_sizes))))
    bundle = verify_lemma_bundle(6, 4, 2)
    dominance, mismatch = [], []
    for bits, (layers, _, _) in sorted(_qualifying(6, p).items()):
        dominance += [(bits, l, layers[l], v[l]) for l in range(2, p.w + 1) if layers[l] > v[l]]
        if v[p.q] and layers[p.q] == v[p.q]:
            l = next(l for l in range(p.q, p.k + 1) if layers[l] != v[l])
            mismatch.append((bits, l, layers[l], v[l]))
    assert dominance and mismatch
    got = bundle[CHECK_LAYER_DOMINANCE].violations
    assert _reported(got, "layer-dominance-failed", "layer", "count", "shadow_layer_size") == dominance
    got = bundle[CHECK_VALUABLE_RIGIDITY].violations
    assert _reported(got, "valuable-layer-mismatch", "layer", "count", "shadow_layer_size") == mismatch
    assert bundle[CHECK_VALUABLE_RIGIDITY].candidates == 0
    assert bundle[CHECK_REMOVED_LAYER].passed


def _holding_star_layer(n, p, s):
    """The qualifying families on [n] for p's window that hold the star's layer s."""
    return [bits for bits in _qualifying(n, p) if _star_layer_inside(SetFamily(n=n, bits=bits), s)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_no_qualifying_family_holds_the_star_layer_n_minus_k(n):
    """The removed-layer lemma from the definitions, without the codec: at
    every admissible lemma cell no qualifying maximal family holds every
    (n-k)-subset with element 1, and the report says the same."""
    cells = _admissible_cells(n)
    for p in cells:
        assert _holding_star_layer(n, p, n - p.k) == [], p
    assert sum(len(_qualifying(n, p)) for p in cells) or n < 4
    bundles = run_verification(n, lemma_params=cells, check=False).lemma_bundles
    for p, bundle in zip(cells, bundles):
        report = bundle[CHECK_REMOVED_LAYER]
        assert report.violations == ()
        assert report.candidates == report.families_checked == len(_qualifying(n, p)), p


def test_star_layer_above_n_minus_k_is_held_by_qualifying_families():
    """The negative control of the test above: the same predicate one layer
    higher finds families."""
    p = Params(6, 4, 2)
    assert (len(_holding_star_layer(6, p, 3)), len(_qualifying(6, p))) == (31, 2634)


def test_star_as_shadow_fails_rigidity_and_uniqueness(monkeypatch):
    """With the star's valuable part standing in for the shadow's, every
    rigidity candidate at (6,4,2) has a valuable part outside its orbit, and
    the one achiever class at (6,4,3) is no longer the shadow's."""
    p = Params(6, 4, 2)
    monkeypatch.setattr(search, "hm_shadow_valuable", lambda p: valuable_part(build_star(p.n), p))
    report = verify_valuable_rigidity(6, 4, 2)
    v_q = hm_shadow_layer_size(p, p.q)
    candidates = sorted(bits for bits, (layers, _, _) in _qualifying(6, p).items()
                        if layers[p.q] == v_q)
    assert report.candidates == len(candidates) == 30
    assert _reported(report.violations, "valuable-part-not-isomorphic") == [(b,) for b in candidates]
    theorem = verify_hm_theorem(6, 4, 3)
    assert [v["type"] for v in theorem.lemma_violations] == ["achiever-not-shadow"]
    assert theorem.lemma_violations[0]["family"] == [list(m) for m in theorem.achievers[0]]
    # these entries are cut like the other per-family lists, after the sort
    monkeypatch.setattr(search, "_VIOLATION_CAP", 3)
    report = verify_valuable_rigidity(6, 4, 2)
    assert _reported(report.violations, "valuable-part-not-isomorphic") == [(b,) for b in candidates[:3]]


def test_violation_cap_applies_after_sorting(monkeypatch):
    monkeypatch.setattr(search, "_VIOLATION_CAP", 3)
    _patch_constants(monkeypatch, lambda c: c._replace(
        bound=c.bound - 1, v_sizes=tuple(s - (l == 2) for l, s in enumerate(c.v_sizes))))

    def run(workers):
        res = run_verification(6, theorem_params=[Params(6, 4, 2)],
                               lemma_params=[Params(6, 4, 2)], workers=workers)
        return res.theorem_reports[0], res.lemma_bundles[0]

    def blob(reports):
        theorem, bundle = reports
        return to_canonical_json(theorem) + "".join(
            to_canonical_json(bundle[name]) for name in LEMMA_CHECKS)

    theorem, bundle = reports = run(1)
    assert blob(reports) == blob(run(2)) == blob(run(3)) == blob(run(4))
    p = Params(6, 4, 2)
    smallest = sorted(bits for bits, (_, size, _) in _qualifying(6, p).items()
                      if size >= hm_size(p))[:3]
    assert _reported(theorem.lemma_violations, "bound-exceeded") == [(b,) for b in smallest]
    for name, kind in ((CHECK_LAYER_DOMINANCE, "layer-dominance-failed"),
                       (CHECK_VALUABLE_RIGIDITY, "valuable-layer-mismatch")):
        assert len(_reported(bundle[name].violations, kind)) == 3
    assert bundle[CHECK_REMOVED_LAYER].violations == ()


def test_rigidity_list_at_the_unchecked_631_is_cut_to_1000():
    """At (6,3,1) the window is layer 3 alone, so every family matching the
    shadow's layer 3 is a candidate, and 1,968 of them have a valuable part
    outside the shadow's orbit (found here over all 720 relabellings); the
    report lists the smallest 1000."""
    p = Params(6, 3, 1)
    shadow = hm_shadow_valuable(p).member_sets()
    orbit = {SetFamily.from_sets(6, [[perm[x - 1] for x in m] for m in shadow]).bits
             for perm in permutations(range(1, 7))}
    v_q = hm_shadow_layer_size(p, p.q)
    outside = sorted(bits for bits, (layers, _, _) in _qualifying(6, p).items()
                     if layers[p.q] == v_q and valuable_part(SetFamily(n=6, bits=bits), p).bits not in orbit)
    assert len(outside) == 1968
    report = verify_valuable_rigidity(6, 3, 1, check=False)
    assert len(report.violations) == 1000
    assert _reported(report.violations, "valuable-part-not-isomorphic") == [(b,) for b in outside[:1000]]


VIOLATION_FIELDS = {
    "bound-exceeded": {"type", "size", "bound", "family"},
    "layer-dominance-failed": {"type", "layer", "count", "shadow_layer_size", "family"},
    "valuable-layer-mismatch": {"type", "layer", "count", "shadow_layer_size", "family"},
    "valuable-part-not-isomorphic": {"type", "family"},
    "achiever-not-shadow": {"type", "family"},
    "uniqueness-failed": {"type", "achiever_classes"},
}


def test_violation_entries_have_exactly_their_fields(monkeypatch):
    """Every violation type a report can list, fired by the perturbations of
    the tests above, carries exactly its fields: none added, none dropped."""
    fields: dict[str, set] = {}

    def collect(violations):
        assert violations
        for v in violations:
            fields.setdefault(v["type"], set()).add(frozenset(v))

    collect(verify_hm_theorem(7, 3, 1, check=False).lemma_violations)
    with monkeypatch.context() as patch:
        _patch_constants(patch, lambda c: c._replace(bound=c.bound - 1))
        collect(verify_hm_theorem(6, 4, 3).lemma_violations)
    with monkeypatch.context() as patch:
        _patch_constants(patch, lambda c: c._replace(
            v_sizes=tuple(s - (l == 2) for l, s in enumerate(c.v_sizes))))
        bundle = verify_lemma_bundle(6, 4, 2)
        collect(bundle[CHECK_LAYER_DOMINANCE].violations)
        collect(bundle[CHECK_VALUABLE_RIGIDITY].violations)
    with monkeypatch.context() as patch:
        patch.setattr(search, "hm_shadow_valuable", lambda p: valuable_part(build_star(p.n), p))
        collect(verify_valuable_rigidity(6, 4, 2).violations)
        collect(verify_hm_theorem(6, 4, 3).lemma_violations)
    assert fields == {kind: {frozenset(keys)} for kind, keys in VIOLATION_FIELDS.items()}


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
