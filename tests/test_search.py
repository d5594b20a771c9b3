"""Enumeration and verification: generator soundness, oracles, theorem checks."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from math import comb, factorial

import pytest

from msfam import (
    CHECK_LAYER_DOMINANCE, CHECK_REMOVED_LAYER, CHECK_VALUABLE_RIGIDITY, LEMMA_CHECKS,
    InvariantError, MultisetFamily, ParameterError, Params, SearchCapError, SetFamily, UNBOUNDED,
    build_hm_shadow, build_star, canonical_set_family, coeff, count_iso_classes,
    count_maximal_families, enumerate_maximal_families, hm_shadow_layer_size, hm_size,
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
        leaves = []
        if system is not None:
            assert search._dfs(system, leaves.append) == len(leaves)
        assert sorted(leaves) == fixed, perm


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_up_to_iso_matches_class_count(n):
    reps = list(enumerate_maximal_families(n, up_to_iso=True))
    assert len(reps) == ISO_CLASS_COUNTS[n]
    # representatives are pairwise non-isomorphic
    encodings = {canonical_set_family(f) for f in reps}
    assert len(encodings) == len(reps)


def _one_dfs(n):
    out = []
    search._dfs_subsets(n, out.append)
    return out


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("prefixes", [2, 16, 256])
def test_enumeration_order_is_one_dfs(monkeypatch, n, prefixes):
    monkeypatch.setattr(search, "_ENUMERATION_PREFIXES", prefixes)
    assert [f.bits for f in enumerate_maximal_families(n)] == _one_dfs(n)


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


def test_up_to_iso_yields_first_member_of_each_class_n6():
    seen, expected = set(), []
    for bits in _one_dfs(6):
        enc = canonical_set_family(SetFamily(n=6, bits=bits))
        if enc not in seen:
            seen.add(enc)
            expected.append(bits)
    assert len(expected) == 30
    assert [f.bits for f in enumerate_maximal_families(6, up_to_iso=True)] == expected


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("target", [2, 16, 128])
def test_split_prefixes_partition_the_tree(n, target):
    prefixes = search._split_prefixes(n, target)
    assert prefixes == search._split_prefixes(n, target)
    assert len(prefixes) == min(target, MAXIMAL_COUNTS[n])
    decisions = search._tables(n).decisions
    for prefix in prefixes:
        fin = fout = 0
        for idx, v in prefix:
            add_in, add_out = decisions[idx][1][v]
            fin, fout = fin | add_in, fout | add_out
            assert not fin & fout
    as_set = set(prefixes)
    assert len(as_set) == len(prefixes)
    for prefix in prefixes:
        assert not any(prefix[:i] in as_set for i in range(len(prefix)))
    leaves = [search._dfs_subsets(n, lambda bits: None, prefix) for prefix in prefixes]
    assert sum(leaves) == MAXIMAL_COUNTS[n]
    if (n, target) == (6, 128):
        assert max(leaves) <= 0.1 * MAXIMAL_COUNTS[n]


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
    achievers = _achievers(n, k, m_key)
    classes = search._achiever_classes(n, achievers)
    by_canonical = Counter(canonical_set_family(SetFamily(n=n, bits=b)) for b in achievers)
    assert {enc: size for _, size, enc in classes} == by_canonical
    assert all(factorial(n) % size == 0 for _, size, _ in classes)
    assert sum(size for _, size, _ in classes) == len(achievers)
    # the representative is the least member of its class
    for fam, _, _ in classes:
        assert fam.bits == min(search._orbit(n, fam.bits))


def test_orbit_encoding_cache_is_exact_every_n6_cell(monkeypatch):
    jobs = [(search.THEOREM, p) for p in _admissible_cells(6)]
    hist, kept, _ = search._run_pass(6, jobs, 1)
    layout = search._key_layout(jobs)
    cells = [[bits for bits, in search._tally(job, hist, kept, layout)[1][search.ACHIEVER]]
             for job in jobs]
    cold = []
    for achievers in cells:
        search._orbit_encoding.cache_clear()
        cold.append(search._achiever_classes(6, achievers))
    encoded = []
    original = search.canonical_set_family
    monkeypatch.setattr(search, "canonical_set_family",
                        lambda fam: encoded.append(fam.bits) or original(fam))
    search._orbit_encoding.cache_clear()
    # the cache stays warm from one cell to the next
    for achievers, expected in zip(cells, cold):
        assert search._achiever_classes(6, achievers) == expected
        assert search._achiever_classes(6, achievers) == expected
    assert search._orbit_encoding.cache_info().hits > 0
    # each orbit is encoded once, through its least member
    reps = {fam.bits for classes in cold for fam, _, _ in classes}
    assert sorted(encoded) == sorted(reps)


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

    assert blob(1) == blob(2) == blob(3) == blob(4)


def _every_cell_blob(n, workers):
    """The theorem and lemma reports of every admissible cell at n, concatenated."""
    cells = _admissible_cells(n)
    res = run_verification(n, theorem_params=cells, lemma_params=cells,
                           workers=workers, check=False)
    parts = [to_canonical_json(r) for r in res.theorem_reports]
    parts.extend(to_canonical_json(bundle[name])
                 for bundle in res.lemma_bundles for name in LEMMA_CHECKS)
    return "".join(parts)


def test_worker_determinism_every_n6_cell():
    blobs = [_every_cell_blob(6, workers) for workers in (1, 2, 3, 4)]
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


@pytest.mark.parametrize("n,digest", [
    (5, "578b356b987b60da9cca4c170db591e1a0aee134515ce8e808b73fb647a8eb30"),
    (6, "e180041d8b580623d597f703c7df2dc1aa9b1b39efc84e81594b47ade0da19b2"),
])
def test_every_cell_report_bytes_pinned(n, digest):
    """Every cell's reports at 1 to 4 workers hash to the digest pinned from
    the vector-path encodings."""
    for workers in (1, 2, 3, 4):
        assert hashlib.sha256(_every_cell_blob(n, workers).encode()).hexdigest() == digest, workers


@pytest.mark.parametrize("workers", [0, -1])
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
    flags = search._window_flags(n, windows)
    codec = search._KeyCodec(n, windows, ())
    for fam in enumerate_maximal_families(n):
        expected = []
        for q, k in windows:
            part = _window_part(fam, q, k)
            if (q, k) in by_cap:
                assert valuable_part(fam, by_cap[q, k]) == part
            expected.append(_qualifies(part))
        expected = tuple(expected)
        assert flags(fam.bits) == expected, fam.bits
        assert codec.decode(_packed_key(codec, fam.bits))[1] == expected, fam.bits


def _key_by_definition(fam, windows, removed):
    """(layer counts 0..n, window flags, star counts at the removed layers)."""
    sizes = [len(s) for s in fam.member_sets()]
    return (tuple(sizes.count(l) for l in range(fam.n + 1)),
            tuple(_qualifies(_window_part(fam, q, k)) for q, k in windows),
            tuple(sum(1 for s in fam.member_sets() if len(s) == r and 1 in s) for r in removed))


def _leaf_by_leaf(n, jobs):
    """The pass's histogram and kept families, one family at a time from the definitions."""
    windows, removed = search._key_layout(jobs)
    hist, kept = Counter(), {}
    for fam in enumerate_maximal_families(n):
        key = _key_by_definition(fam, windows, removed)
        hist[key] += 1
        if any(search._findings(job, key, (windows, removed)) for job in jobs):
            kept.setdefault(key, []).append(fam.bits)
    return hist, {key: sorted(fams) for key, fams in kept.items()}


def _all_cells(n):
    return [(kind, p) for k in range(2, n) for m in (1, 2, 3, UNBOUNDED)
            for p in [Params(n, k, m)] if n >= k + p.q
            for kind in (search.THEOREM, search.LEMMAS)]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pass_equals_leaf_by_leaf_histogram(n):
    jobs = _all_cells(n)
    assert len(jobs) >= 8
    hist, kept = _leaf_by_leaf(n, jobs)
    assert sum(hist.values()) == MAXIMAL_COUNTS[n]
    for workers in (1, 2, 3):
        got_hist, got_kept, _ = search._run_pass(n, jobs, workers)
        assert got_hist == hist, workers
        assert {key: sorted(fams) for key, fams in got_kept.items()} == kept, workers


def _merged(parts):
    """Histograms summed and kept lists joined, as the pool's merge should give them."""
    hist, kept = Counter(), {}
    for sub_hist, sub_kept in parts:
        hist.update(sub_hist)
        for key, fams in sub_kept.items():
            kept.setdefault(key, []).extend(fams)
    return hist, {key: sorted(fams) for key, fams in kept.items()}


@pytest.mark.parametrize("n", [5, 6])
def test_one_pass_state_serves_prefixes_in_any_order(n):
    jobs = _all_cells(n)
    expected = _leaf_by_leaf(n, jobs)
    assert _merged([search._run_pass(n, jobs, 1)[:2]]) == expected
    state = search._Pass(n, jobs)
    prefixes = sorted(search._split_prefixes(n, 64))  # DFS order
    memo_sizes = []
    for order in (prefixes, prefixes[::-1]):
        assert _merged(state(prefix) for prefix in order) == expected
        memo_sizes.append(len(state.walk.memo))
    # the second round meets only undecided sets the first one memoised
    assert memo_sizes[0] == memo_sizes[1] > 0


def _admissible_cells(n):
    """Every (n, k, m) with n >= k + q, each cap m up to k and unbounded."""
    return [p for k in range(1, n) for m in (*range(1, k + 1), UNBOUNDED)
            for p in [Params(n, k, m)] if n >= k + p.q]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pool_counts_orbits_in_its_workers(monkeypatch, n):
    jobs = [(search.THEOREM, p) for p in _admissible_cells(n)]
    windows = search._key_layout(jobs)[0]
    serial = search._burnside_nonidentity(n, windows)

    def refuse(*args):
        raise AssertionError("a pooled pass counts orbits in its workers, not in the parent")
    monkeypatch.setattr(search, "_burnside_nonidentity", refuse)
    assert search._run_pass(n, jobs, 2)[2] == serial
    assert search._worker_pass is None  # no pass state is left in the caller


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched count reaches pool workers only through fork")
def test_off_by_one_cycle_type_count_raises_at_two_workers(monkeypatch):
    original = search._cycle_type_totals
    monkeypatch.setattr(search, "_cycle_type_totals",
                        lambda *args: [t + 1 for t in original(*args)])
    with pytest.raises(InvariantError):
        run_verification(5, theorem_params=[Params(5, 4, UNBOUNDED)], workers=2)


def test_key_codec_fields_fit_at_n9():
    # n=9 lies past the enumeration guard; building the weights enumerates nothing
    n = 9
    windows, removed = search._key_layout(_all_cells(n))
    codec = search._KeyCodec(n, windows, removed)
    # every subset at once: each field at its maximum, nothing spilling into the next
    everything = (1 << ((1 << n) - 1)) - 2
    counts, flags, stars = codec.decode(_packed_key(codec, everything))
    assert counts[1:(n + 1) // 2] == tuple(comb(n, l) for l in range(1, (n + 1) // 2))
    assert stars == tuple(comb(n - 1, r - 1) for r in removed)
    assert all(flags)
    for p in (Params(9, 4, 2), Params(9, 5, UNBOUNDED), Params(9, 7, 3)):
        for fam in (build_star(n), build_hm_shadow(p)):
            assert is_maximal_intersecting_sf(fam)
            assert codec.decode(_packed_key(codec, fam.bits)) == \
                _key_by_definition(fam, windows, removed)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_count_maximal_families_from_the_memo(n):
    assert count_maximal_families(n) == {**MAXIMAL_COUNTS, 7: 1422564}[n]


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


def test_lowered_removed_layer_cap_reports_removed_layer_empty(monkeypatch):
    p = Params(6, 4, 2)
    cap = comb(5, 1) - 1  # the star's layer n-k = 2 has C(5, 1) members
    _patch_constants(monkeypatch, lambda c: c._replace(star_cap=c.star_cap - 1))
    report = verify_removed_layer(6, 4, 2)
    expected = sorted(
        bits for bits, (_, _, members) in _qualifying(6, p).items()
        if sum(1 for s in members if len(s) == 2 and 1 in s) >= cap
    )
    assert expected
    assert _reported(report.violations, "removed-layer-empty") == [(b,) for b in expected]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched constants reach pool workers only through fork")
def test_violation_cap_applies_after_sorting(monkeypatch):
    monkeypatch.setattr(search, "_VIOLATION_CAP", 3)
    _patch_constants(monkeypatch, lambda c: c._replace(
        bound=c.bound - 1, star_cap=c.star_cap - 1,
        v_sizes=tuple(s - (l == 2) for l, s in enumerate(c.v_sizes))))

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
    for name, kind in ((CHECK_REMOVED_LAYER, "removed-layer-empty"),
                       (CHECK_LAYER_DOMINANCE, "layer-dominance-failed"),
                       (CHECK_VALUABLE_RIGIDITY, "valuable-layer-mismatch")):
        assert len(_reported(bundle[name].violations, kind)) == 3


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
