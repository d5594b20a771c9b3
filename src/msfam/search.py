"""Exhaustive enumeration of maximal intersecting subset families and the
verification passes built on top of it.

A maximal intersecting family of proper non-empty subsets of [n] contains
exactly one side of every complementary pair and is closed upward; conversely
any family with those two properties is maximal intersecting.  The enumerator
therefore walks a binary decision tree over complementary pairs, propagating
two implications after every assignment: a member forces all its supersets in,
a non-member forces all its subsets out.  Every leaf is a maximal family and
every maximal family appears exactly once.

Verification jobs ride along on a single enumeration pass.  The bound and the
lemmas see a family only through its layer counts, whether its valuable part
qualifies for a job's window [q, k] (non-empty with empty total
intersection), and how many star members of size n-k it holds.  Each leaf
therefore adds that key to a histogram, and keeps the family bitset only
under a key that some job marks as interesting (an achiever, a violation or
a rigidity candidate), which is decided the first time the key is seen.  The
jobs then run once per distinct key: n=7 has a few hundred keys among its
1.42M families.  Isomorphism classes are S_n-orbits under relabelling of
[n].  Their counts come from the orbit-counting lemma: for each cycle type
the invariant families are enumerated over a collapsed pair system whose
items are the orbits of subsets under the permutation.  Achievers are
grouped into classes by orbit closure under the adjacent transpositions.

Work splits deterministically across processes by partitioning the decision
tree at a shallow prefix depth; all per-family collections are sorted before
reporting, and violation lists are cut to their first entries only after that
sort, so report bytes do not depend on the worker count.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from multiprocessing import get_context
from typing import Callable, Iterator, Sequence

from .coeffs import coeff_table
from .families import hm_size
from .multiset import MultisetFamily, enumerate_k_multisets, count_k_multisets, support
from .params import Cap, InvariantError, Params, ParameterError, SearchCapError
from .reporting import LemmaReport, TheoremReport
from .subsets import (
    SetFamily, canonical_set_family, hm_shadow_layer_size, hm_shadow_valuable,
    is_intersecting_sf, is_maximal_intersecting_definitional, layer_bitsets,
    pair_rule_holds, valuable_part,
)
# not called here; perfbench/tracer.py and selftest.py address it as msfam.search's attribute
from .subsets import set_families_isomorphic  # noqa: F401

__all__ = [
    "DEFAULT_ENUMERATION_CAP", "DEFAULT_ORACLE_VERTEX_CAP",
    "enumerate_maximal_families", "naive_enumerate_maximal", "count_iso_classes",
    "run_verification", "VerificationResults", "verify_hm_theorem",
    "verify_lemma_bundle", "verify_removed_layer", "verify_layer_dominance",
    "verify_valuable_rigidity", "verify_grid", "raw_max_nontrivial",
    "uniqueness_condition",
]

DEFAULT_ENUMERATION_CAP = 7
DEFAULT_ORACLE_VERTEX_CAP = 120
_VIOLATION_CAP = 1000

CHECK_REMOVED_LAYER = "removed-layer"
CHECK_LAYER_DOMINANCE = "layer-dominance"
CHECK_VALUABLE_RIGIDITY = "valuable-rigidity"
LEMMA_CHECKS = (CHECK_REMOVED_LAYER, CHECK_LAYER_DOMINANCE, CHECK_VALUABLE_RIGIDITY)


def _check_cap(n: int, cap_override: bool) -> None:
    if n > DEFAULT_ENUMERATION_CAP and not cap_override:
        raise SearchCapError(
            f"enumeration at n={n} exceeds the guard (n <= {DEFAULT_ENUMERATION_CAP}); "
            "pass cap_override=True (CLI: --cap-override) to force it"
        )


# ---------------------------------------------------------------------------
# pair-implication systems
# ---------------------------------------------------------------------------

_Tables = namedtuple("_Tables", "n full comp sup sub bit reps layers star_layers")


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    full = (1 << n) - 1
    comp = [full ^ x for x in range(full + 1)]
    sup = [()] * (full + 1)
    sub = [()] * (full + 1)
    for x in range(1, full):
        rest = full ^ x
        sups = []
        t = rest
        while t:
            y = x | t
            if y != full:
                sups.append(y)
            t = (t - 1) & rest
        sup[x] = tuple(sorted(sups))
        subs = []
        t = (x - 1) & x
        while t:
            subs.append(t)
            t = (t - 1) & x
        sub[x] = tuple(sorted(subs))
    # one decision per complementary pair: the smaller side, ties by mask value
    reps = []
    for x in range(1, full):
        c = comp[x]
        px, pc = x.bit_count(), c.bit_count()
        if px < pc or (px == pc and x < c):
            reps.append((px, x))
    reps.sort()
    layers = layer_bitsets(n)
    star_layers = tuple(
        sum(1 << x for x in range(1, full) if x & 1 and x.bit_count() == l)
        for l in range(n + 1)
    )
    return _Tables(
        n=n, full=full, comp=tuple(comp), sup=tuple(sup), sub=tuple(sub),
        bit=tuple(1 << x for x in range(full + 1)), reps=tuple(x for _, x in reps),
        layers=layers, star_layers=star_layers,
    )


@lru_cache(maxsize=None)
def _absent_valuable(n: int, q: int, k: int) -> tuple[int, ...]:
    """Per element: bitset of subsets with size in [q, k] avoiding that element."""
    full = (1 << n) - 1
    out = []
    for e in range(n):
        mask = 0
        for x in range(1, full):
            if not (x >> e) & 1 and q <= x.bit_count() <= k:
                mask |= 1 << x
        out.append(mask)
    return tuple(out)


def _window_flags(n: int, windows: Sequence[tuple[int, int]]) -> Callable[[int], tuple[bool, ...]]:
    """Per window (q, k), whether a family's valuable part qualifies: non-empty
    with empty total intersection.  Both hold exactly when every element is
    avoided by some member with size in [q, k].

    Every window contains the common part [max q, min k], so when that part
    qualifies all of them do; this covers nearly every family, so it is
    tested first.
    """
    absents = [_absent_valuable(n, q, k) for q, k in windows]
    q0 = max((q for q, _ in windows), default=1)
    k0 = min((k for _, k in windows), default=0)
    common = _absent_valuable(n, q0, k0) if q0 <= k0 else ()
    everywhere = (True,) * len(windows)

    def flags(bits: int) -> tuple[bool, ...]:
        band = bits.__and__
        if common and all(map(band, common)):
            return everywhere
        return tuple([all(map(band, absent)) for absent in absents])

    return flags


def _propagator(size, comp, sup, sub, bits_of):
    """Decisions on one pair system, each followed by its two implications.

    Returns (st, trail, assign, undo).  st[x] is 0 while item x is undecided,
    1 once it is a member and 2 once it is not; trail lists the decided items
    in order.  assign(x, v, bits) decides x as v, propagates, and returns the
    family bitset bits with the new members added, or -1 on a conflict.
    undo(mark) takes back every decision after the first mark items of trail.
    """
    st = bytearray(size)
    trail: list[int] = []

    def assign(x0: int, v0: int, bits: int) -> int:
        stack = [(x0, v0)]
        while stack:
            x, v = stack.pop()
            s = st[x]
            if s:
                if s != v:
                    return -1
                continue
            c = comp[x]
            st[x] = v
            st[c] = 3 - v
            trail.append(x)
            if v == 1:
                bits |= bits_of[x]
                for y in sup[x]:
                    if st[y] != 1:
                        stack.append((y, 1))
                for y in sub[c]:
                    if st[y] != 2:
                        stack.append((y, 2))
            else:
                bits |= bits_of[c]
                for y in sub[x]:
                    if st[y] != 2:
                        stack.append((y, 2))
                for y in sup[c]:
                    if st[y] != 1:
                        stack.append((y, 1))
        return bits

    def undo(mark: int) -> None:
        for y in trail[mark:]:
            st[y] = 0
            st[comp[y]] = 0
        del trail[mark:]

    return st, trail, assign, undo


def _dfs(size, comp, sup, sub, bits_of, reps, on_leaf, prefix=()) -> int:
    """Enumerate all completions of the pair system; returns the leaf count.

    comp, sup, sub, bits_of are indexable by item id; reps lists one item per
    complementary pair in decision order.  prefix is replayed first and an
    inconsistent prefix contributes nothing.
    """
    floor = 2 * len(reps) + 500
    if sys.getrecursionlimit() < floor:
        sys.setrecursionlimit(floor)
    st, trail, assign, undo = _propagator(size, comp, sup, sub, bits_of)
    bits = 0
    for x, v in prefix:
        bits = assign(x, v, bits)
        if bits < 0:
            return 0

    leaves = 0
    nreps = len(reps)

    def rec(idx: int, bits: int) -> None:
        nonlocal leaves
        while idx < nreps and st[reps[idx]]:
            idx += 1
        if idx == nreps:
            leaves += 1
            on_leaf(bits)
            return
        x = reps[idx]
        for v in (1, 2):
            mark = len(trail)
            child = assign(x, v, bits)
            if child >= 0:
                rec(idx + 1, child)
            undo(mark)

    rec(0, bits)
    return leaves


def _dfs_subsets(n: int, on_leaf, prefix=()) -> int:
    t = _tables(n)
    return _dfs(t.full + 1, t.comp, t.sup, t.sub, t.bit, t.reps, on_leaf, prefix)


def _split_prefixes(n: int, target: int) -> list[tuple]:
    """Partition the decision tree into at least `target` consistent prefixes."""
    t = _tables(n)
    prefixes: list[tuple] = [()]
    for _ in range(4 * max(1, target).bit_length()):
        if len(prefixes) >= target:
            break
        nxt: list[tuple] = []
        expanded = False
        for pre in prefixes:
            st, trail, assign, undo = _propagator(t.full + 1, t.comp, t.sup, t.sub, t.bit)
            for x, v in pre:  # consistent: only consistent children are kept below
                assign(x, v, 0)
            x = next((r for r in t.reps if not st[r]), None)
            if x is None:
                nxt.append(pre)
                continue
            expanded = True
            mark = len(trail)
            for v in (1, 2):
                if assign(x, v, 0) >= 0:
                    nxt.append(pre + ((x, v),))
                undo(mark)
        prefixes = nxt
        if not expanded:
            break
    return prefixes


# ---------------------------------------------------------------------------
# relabellings: orbit systems for invariant-family counting, orbit closure
# ---------------------------------------------------------------------------

def _permute_mask(x: int, perm: Sequence[int], n: int) -> int:
    y = 0
    for i in range(n):
        if (x >> i) & 1:
            y |= 1 << perm[i]
    return y


def _cycle_type_reps(n: int) -> list[tuple[tuple[int, ...], int]]:
    """One permutation per cycle type of S_n, with conjugacy class size."""

    def partitions(total: int, largest: int):
        if total == 0:
            yield []
            return
        for part in range(min(total, largest), 0, -1):
            for rest in partitions(total - part, part):
                yield [part] + rest

    out = []
    for pt in partitions(n, n):
        perm = list(range(n))
        pos = 0
        for c in pt:
            for j in range(c):
                perm[pos + j] = pos + (j + 1) % c
            pos += c
        size = factorial(n)
        counts: dict[int, int] = {}
        for c in pt:
            counts[c] = counts.get(c, 0) + 1
        for length, cnt in counts.items():
            size //= (length ** cnt) * factorial(cnt)
        out.append((tuple(perm), size))
    return out


def _orbit_system(n: int, perm: Sequence[int]):
    """Collapse the subset pair system along a permutation; None if no invariant family exists."""
    t = _tables(n)
    orbit_of: dict[int, int] = {}
    orbits: list[tuple[int, ...]] = []
    for x in range(1, t.full):
        if x in orbit_of:
            continue
        members = []
        y = x
        while y not in orbit_of:
            orbit_of[y] = len(orbits)
            members.append(y)
            y = _permute_mask(y, perm, n)
        orbits.append(tuple(members))
    count = len(orbits)
    comp = [0] * count
    bits_of = [0] * count
    sup = [()] * count
    sub = [()] * count
    for oi, members in enumerate(orbits):
        c = orbit_of[t.comp[members[0]]]
        if c == oi:
            return None  # a self-complementary orbit blocks the pair rule
        comp[oi] = c
        acc = 0
        for x in members:
            acc |= 1 << x
        bits_of[oi] = acc
        ups, downs = set(), set()
        for x in members:
            for y in t.sup[x]:
                ups.add(orbit_of[y])
            for y in t.sub[x]:
                downs.add(orbit_of[y])
        ups.discard(oi)
        downs.discard(oi)
        sup[oi] = tuple(sorted(ups))
        sub[oi] = tuple(sorted(downs))
    seen = set()
    reps = []
    for oi in range(count):
        if oi in seen:
            continue
        seen.add(oi)
        seen.add(comp[oi])
        reps.append(oi)
    return count, tuple(comp), tuple(sup), tuple(sub), tuple(bits_of), tuple(reps)


def _burnside_nonidentity(n: int, windows: Sequence[tuple[int, int]]) -> list[int]:
    """Sum over non-identity cycle types of class_size * invariant-family count:
    first over all invariant families, then over those qualifying for each window."""
    flags = _window_flags(n, windows)
    totals = [0] * (1 + len(windows))
    for perm, class_size in _cycle_type_reps(n):
        if all(perm[i] == i for i in range(n)):
            continue
        system = _orbit_system(n, perm)
        if system is None:
            continue
        size, comp, sup, sub, bits_of, reps = system
        tally: Counter = Counter()

        def on_leaf(bits: int) -> None:
            tally[flags(bits)] += 1

        _dfs(size, comp, sup, sub, bits_of, reps, on_leaf)
        for qualified, count in tally.items():
            for i, ok in enumerate((True, *qualified)):
                if ok:
                    totals[i] += class_size * count
    return totals


def count_iso_classes(n: int, cap_override: bool = False) -> int:
    """Number of isomorphism classes of maximal intersecting families on [n]."""
    _check_cap(n, cap_override)
    identity = _dfs_subsets(n, lambda bits: None)
    return _orbit_count(n, identity + _burnside_nonidentity(n, ())[0])


def _orbit_count(n: int, burnside_total: int) -> int:
    """Burnside's lemma: the fixed-point total over S_n divided by n!."""
    classes, rest = divmod(burnside_total, factorial(n))
    if rest:
        raise InvariantError(f"orbit-counting total {burnside_total} is not a multiple of {n}!")
    return classes


@lru_cache(maxsize=None)
def _transpositions(n: int) -> tuple[tuple[int, int], ...]:
    """Each adjacent transposition (e e+1) as a delta swap (shift, mask) on family bitsets.

    It sends every subset mask x that holds e but not e+1 to x + 2^e and back,
    so bit x of a family bitset trades places with bit x + 2^e for x in mask.
    """
    return tuple(
        (1 << e, sum(1 << x for x in range(1 << n) if (x >> e) & 3 == 1))
        for e in range(n - 1)
    )


def _orbit(n: int, bits: int) -> set[int]:
    """The S_n-orbit of a family bitset: breadth-first closure under the transpositions."""
    moves = _transpositions(n)
    seen = {bits}
    frontier = [bits]
    while frontier:
        nxt = []
        for f in frontier:
            for shift, mask in moves:
                t = (f ^ (f >> shift)) & mask
                g = f ^ t ^ (t << shift)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# enumeration front ends
# ---------------------------------------------------------------------------

def enumerate_maximal_families(n: int, up_to_iso: bool = False,
                               cap_override: bool = False) -> Iterator[SetFamily]:
    """Yield every maximal intersecting family on [n] exactly once.

    With up_to_iso, yield the first-enumerated representative of each
    isomorphism class instead.  Enumeration order is the decision order of the
    pair search and is stable across runs.
    """
    if n < 2:
        raise ParameterError("enumeration needs n >= 2")
    _check_cap(n, cap_override)
    collected: list[int] = []
    _dfs_subsets(n, collected.append)
    if not up_to_iso:
        for bits in collected:
            yield SetFamily(n=n, bits=bits)
        return
    # every relabelling of a maximal family is maximal, hence enumerated once
    claimed: set[int] = set()
    for bits in collected:
        if bits in claimed:
            claimed.remove(bits)
            continue
        orbit = _orbit(n, bits)
        orbit.remove(bits)
        claimed |= orbit
        yield SetFamily(n=n, bits=bits)
    if claimed:
        raise InvariantError(f"{len(claimed)} relabelled maximal families were never enumerated")


def naive_enumerate_maximal(n: int) -> list[SetFamily]:
    """Independent oracle: filter all up-sets of the proper-subset lattice.

    Generates every upward-closed family by scanning subsets in decreasing
    size and keeping track of which subsets an exclusion forbids, then keeps
    the families that satisfy the pair rule, are intersecting, and pass the
    definitional maximality check.  Exponential; intended for n <= 5.
    """
    full = (1 << n) - 1
    order = sorted(range(1, full), key=lambda x: (-x.bit_count(), x))
    # closure[x]: bitset of all non-empty subsets of x (including x)
    closure = [0] * (full + 1)
    for x in range(1, full):
        acc = 1 << x
        t = (x - 1) & x
        while t:
            acc |= 1 << t
            t = (t - 1) & x
        closure[x] = acc
    out: list[SetFamily] = []

    def rec(idx: int, fam_bits: int, forbidden: int) -> None:
        if idx == len(order):
            fam = SetFamily(n=n, bits=fam_bits)
            if pair_rule_holds(fam) and is_intersecting_sf(fam) \
                    and is_maximal_intersecting_definitional(fam):
                out.append(fam)
            return
        x = order[idx]
        rec(idx + 1, fam_bits, forbidden | closure[x])
        if not (forbidden >> x) & 1:
            rec(idx + 1, fam_bits | (1 << x), forbidden)

    rec(0, 0, 0)
    out.sort(key=lambda f: f.bits)
    return out


# ---------------------------------------------------------------------------
# verification jobs
# ---------------------------------------------------------------------------

def uniqueness_condition(p: Params) -> bool:
    """True when the bound's uniqueness clause applies: n > k+q, or n = k+q with min(k,m) not dividing k."""
    if p.n > p.k + p.q:
        return True
    m_min = min(p.k, p.m_eff)
    return p.n == p.k + p.q and p.k % m_min != 0


THEOREM, LEMMAS = "theorem", "lemmas"
ACHIEVER, RIGIDITY_CANDIDATE = "achiever", "rigidity-candidate"

_JobConstants = namedtuple("_JobConstants", "coeffs bound v_sizes star_cap")


@lru_cache(maxsize=None)
def _job_constants(p: Params) -> _JobConstants:
    return _JobConstants(
        coeffs=coeff_table(p.k, p.m).values,
        bound=hm_size(p),
        v_sizes=tuple(hm_shadow_layer_size(p, l) for l in range(p.n + 1)),
        star_cap=comb(p.n - 1, p.n - p.k - 1),
    )


def _key_layout(jobs: Sequence[tuple[str, Params]]) -> tuple[tuple, tuple]:
    """The windows (q, k) and the removed layers n-k that a pass's keys record, in job order."""
    windows = tuple(dict.fromkeys((p.q, p.k) for _, p in jobs))
    removed = tuple(dict.fromkeys(p.n - p.k for kind, p in jobs if kind == LEMMAS))
    return windows, removed


def _findings(job: tuple[str, Params], key: tuple, layout: tuple) -> list[tuple] | None:
    """What a family with this key means to one job.

    None when the family does not qualify for the job's window; otherwise
    its findings as (name, *details), empty when it is neither an achiever,
    a violation nor a rigidity candidate.  The key is (layer counts 0..n,
    window flags, star counts at the removed layers) as laid out by layout.
    """
    kind, p = job
    windows, removed = layout
    counts, flags, stars = key
    if not flags[windows.index((p.q, p.k))]:
        return None
    c = _job_constants(p)
    if kind == THEOREM:
        size = sum(c.coeffs[l] * counts[l] for l in range(p.q, p.k + 1))
        if size == c.bound:
            return [(ACHIEVER,)]
        return [("bound-exceeded", size)] if size > c.bound else []
    v = c.v_sizes
    found = []
    if stars[removed.index(p.n - p.k)] >= c.star_cap:
        found.append(("removed-layer-empty",))
    found += [("layer-dominance-failed", l, counts[l])
              for l in range(2, p.w + 1) if counts[l] > v[l]]
    if v[p.q] and counts[p.q] == v[p.q]:
        bad = [l for l in range(p.q, p.k + 1) if counts[l] != v[l]]
        if bad:
            found.append(("valuable-layer-mismatch", bad[0], counts[bad[0]], v[bad[0]]))
        else:
            found.append((RIGIDITY_CANDIDATE,))
    return found


def _histogram_leaf(n: int, jobs: Sequence[tuple[str, Params]], hist: Counter, kept: dict):
    """The leaf callback of a pass: count each family under its key in hist,
    and append its bits to kept[key] when some job finds the key interesting."""
    t = _tables(n)
    layout = _key_layout(jobs)
    windows, removed = layout
    flags = _window_flags(n, windows)
    layer_masks = t.layers
    star_masks = [t.star_layers[l] for l in removed]

    def on_leaf(bits: int) -> None:
        key = (tuple([(bits & m).bit_count() for m in layer_masks]), flags(bits),
               tuple([(bits & m).bit_count() for m in star_masks]))
        if key in hist:
            hist[key] += 1
        else:
            hist[key] = 1
            if any(_findings(job, key, layout) for job in jobs):
                kept[key] = []
        if key in kept:
            kept[key].append(bits)

    return on_leaf


def _pass_worker(payload) -> tuple[Counter, dict[tuple, list[int]]]:
    n, jobs, prefixes = payload
    hist: Counter = Counter()
    kept: dict[tuple, list[int]] = {}
    on_leaf = _histogram_leaf(n, jobs, hist, kept)
    for prefix in prefixes:
        _dfs_subsets(n, on_leaf, prefix)
    return hist, kept


def _run_pass(n: int, jobs: Sequence[tuple[str, Params]], workers: int
              ) -> tuple[Counter, dict[tuple, list[int]]]:
    """One enumeration pass: the key histogram of the maximal families on [n]
    and the bits of the families under interesting keys."""
    if workers <= 1:
        return _pass_worker((n, jobs, [()]))
    prefixes = _split_prefixes(n, 8 * workers)
    chunks = [prefixes[i::workers] for i in range(workers)]
    chunks = [c for c in chunks if c]
    ctx = get_context()
    with ctx.Pool(processes=len(chunks)) as pool:
        results = pool.map(_pass_worker, [(n, tuple(jobs), chunk) for chunk in chunks])
    hist: Counter = Counter()
    kept: dict[tuple, list[int]] = {}
    for sub_hist, sub_kept in results:
        hist.update(sub_hist)
        for key, fams in sub_kept.items():
            kept.setdefault(key, []).extend(fams)
    return hist, kept


def _tally(job: tuple[str, Params], hist: Counter, kept: dict, layout: tuple
           ) -> tuple[int, dict[str, list[tuple]]]:
    """The families one job checked, and its findings by name as sorted (bits, *details)."""
    checked = 0
    found: dict[str, list[tuple]] = defaultdict(list)
    for key, count in hist.items():
        findings = _findings(job, key, layout)
        if findings is None:
            continue
        checked += count
        for name, *details in findings:
            found[name] += [(bits, *details) for bits in kept[key]]
    for entries in found.values():
        entries.sort()
    return checked, found


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _family_json(bits: int, n: int) -> list[list[int]]:
    return [list(m) for m in SetFamily(n=n, bits=bits).member_sets()]


def _achiever_classes(n: int, achiever_bits: Sequence[int]) -> list[tuple[SetFamily, int, tuple]]:
    """Achievers as S_n-orbits: (least member, orbit size, canonical encoding), by encoding.

    Achieving is invariant under relabelling, so the achievers must be a union of orbits.
    """
    unclaimed = set(achiever_bits)
    classes = []
    for bits in sorted(achiever_bits):
        if bits not in unclaimed:
            continue
        orbit = _orbit(n, bits)
        if not orbit <= unclaimed:
            raise InvariantError(f"a relabelling of achiever {bits:#x} is not an achiever")
        unclaimed -= orbit
        fam = SetFamily(n=n, bits=bits)
        classes.append((fam, len(orbit), canonical_set_family(fam)))
    classes.sort(key=lambda item: item[2])
    return classes


def _finalize_theorem(p: Params, checked: int, found: dict, families_total: int,
                      iso_classes: int, runtime_ms: int | None) -> TheoremReport:
    n = p.n
    bound = _job_constants(p).bound
    violations = [
        {"type": "bound-exceeded", "size": size, "bound": bound, "family": _family_json(bits, n)}
        for bits, size in found["bound-exceeded"][:_VIOLATION_CAP]
    ]
    classes = _achiever_classes(n, [bits for bits, in found[ACHIEVER]])
    unique_required = uniqueness_condition(p)
    if unique_required:
        verdict = "unique-iso" if len(classes) == 1 else "multiple-iso"
        if len(classes) != 1:
            violations.append({
                "type": "uniqueness-failed",
                "achiever_classes": len(classes),
            })
        shadow_orbit = _orbit(n, hm_shadow_valuable(p).bits)
        for fam, size, enc in classes:
            if valuable_part(fam, p).bits not in shadow_orbit:
                violations.append({
                    "type": "achiever-not-shadow",
                    "family": [list(m) for m in enc],
                })
    else:
        verdict = "not-applicable"
    return TheoremReport(
        params=p,
        bound=bound,
        families_total=families_total,
        families_checked=checked,
        iso_classes_checked=iso_classes,
        achievers=tuple(enc for _, _, enc in classes),
        achiever_class_sizes=tuple(size for _, size, _ in classes),
        uniqueness_verdict=verdict,
        lemma_violations=tuple(violations),
        runtime_ms=runtime_ms,
    )


def _finalize_lemmas(p: Params, checked: int, found: dict, families_total: int,
                     iso_classes: int, runtime_ms: int | None) -> dict[str, LemmaReport]:
    n = p.n
    v_sizes = _job_constants(p).v_sizes
    removed = [
        {"type": "removed-layer-empty", "family": _family_json(bits, n)}
        for bits, in found["removed-layer-empty"][:_VIOLATION_CAP]
    ]
    dominance = [
        {
            "type": "layer-dominance-failed", "layer": l, "count": c,
            "shadow_layer_size": v_sizes[l],
            "family": _family_json(bits, n),
        }
        for bits, l, c in found["layer-dominance-failed"][:_VIOLATION_CAP]
    ]
    rigid = [
        {
            "type": "valuable-layer-mismatch", "layer": l, "count": got,
            "shadow_layer_size": want, "family": _family_json(bits, n),
        }
        for bits, l, got, want in found["valuable-layer-mismatch"][:_VIOLATION_CAP]
    ]
    shadow_orbit = _orbit(n, hm_shadow_valuable(p).bits)
    candidates = found[RIGIDITY_CANDIDATE]
    for bits, in candidates:
        if valuable_part(SetFamily(n=n, bits=bits), p).bits not in shadow_orbit:
            rigid.append({"type": "valuable-part-not-isomorphic", "family": _family_json(bits, n)})
    notices = []
    if v_sizes[p.q] == 0:
        notices.append(
            "bottom shadow layer is empty (q=%d); the inhabited-layer hypothesis holds vacuously"
            % p.q
        )

    def make(check: str, violations: list[dict], cands: int) -> LemmaReport:
        return LemmaReport(
            check=check, params=p, families_total=families_total,
            families_checked=checked, candidates=cands,
            violations=tuple(violations),
            notices=tuple(notices) if check == CHECK_VALUABLE_RIGIDITY else (),
            runtime_ms=runtime_ms,
        )

    return {
        CHECK_REMOVED_LAYER: make(CHECK_REMOVED_LAYER, removed, checked),
        CHECK_LAYER_DOMINANCE: make(CHECK_LAYER_DOMINANCE, dominance, checked),
        CHECK_VALUABLE_RIGIDITY: make(CHECK_VALUABLE_RIGIDITY, rigid, len(candidates)),
    }


@dataclass(frozen=True)
class VerificationResults:
    families_total: int
    theorem_reports: tuple[TheoremReport, ...]
    lemma_bundles: tuple[dict, ...]  # one dict of LemmaReports per lemma spec


def _validate_verify_params(p: Params, check: bool) -> None:
    if check:
        p.require_theorem_range()
    else:
        # the layer decomposition itself still needs n >= k + q
        if p.n < p.k + p.q:
            raise ParameterError(
                f"n >= k + q = {p.k + p.q} is required even unchecked (layer decomposition)"
            )


def run_verification(n: int, theorem_params: Sequence[Params] = (),
                     lemma_params: Sequence[Params] = (), *, workers: int = 1,
                     cap_override: bool = False, check: bool = True,
                     timing: bool = False) -> VerificationResults:
    """Run one enumeration pass at n serving all requested verification jobs."""
    _check_cap(n, cap_override)
    started = time.monotonic()
    jobs: list[tuple[str, Params]] = []
    for kind, label, params in ((THEOREM, "theorem", theorem_params),
                                (LEMMAS, "lemma", lemma_params)):
        for p in params:
            if p.n != n:
                raise ParameterError(f"{label} parameters disagree with the pass ground set")
            _validate_verify_params(p, check)
            jobs.append((kind, p))

    hist, kept = _run_pass(n, jobs, workers)
    families_total = sum(hist.values())

    # isomorphism classes of qualifying families per distinct window, via orbit counting
    layout = _key_layout(jobs)
    windows = layout[0]
    nonidentity = _burnside_nonidentity(n, windows) if windows else []

    runtime_ms = int((time.monotonic() - started) * 1000) if timing else None

    theorem_reports = []
    lemma_bundles = []
    for kind, p in jobs:
        checked, found = _tally((kind, p), hist, kept, layout)
        iso_classes = _orbit_count(n, checked + nonidentity[1 + windows.index((p.q, p.k))])
        if kind == THEOREM:
            theorem_reports.append(
                _finalize_theorem(p, checked, found, families_total, iso_classes, runtime_ms)
            )
        else:
            lemma_bundles.append(
                _finalize_lemmas(p, checked, found, families_total, iso_classes, runtime_ms)
            )
    return VerificationResults(
        families_total=families_total,
        theorem_reports=tuple(theorem_reports),
        lemma_bundles=tuple(lemma_bundles),
    )


def verify_hm_theorem(n: int, k: int, m: Cap, *, workers: int = 1,
                      cap_override: bool = False, check: bool = True,
                      timing: bool = False) -> TheoremReport:
    """Exhaustively check the extremal bound and its uniqueness clause at (n, k, m)."""
    results = run_verification(
        n, theorem_params=[Params(n, k, m)], workers=workers,
        cap_override=cap_override, check=check, timing=timing,
    )
    return results.theorem_reports[0]


def verify_lemma_bundle(n: int, k: int, m: Cap, *, workers: int = 1,
                        cap_override: bool = False, check: bool = True,
                        timing: bool = False) -> dict[str, LemmaReport]:
    """Run all three structural checks over one enumeration pass."""
    results = run_verification(
        n, lemma_params=[Params(n, k, m)], workers=workers,
        cap_override=cap_override, check=check, timing=timing,
    )
    return results.lemma_bundles[0]


def verify_removed_layer(n: int, k: int, m: Cap, **kwargs) -> LemmaReport:
    """For every qualifying maximal family, the part of the star outside it
    has a non-empty layer at size n-k."""
    return verify_lemma_bundle(n, k, m, **kwargs)[CHECK_REMOVED_LAYER]


def verify_layer_dominance(n: int, k: int, m: Cap, **kwargs) -> LemmaReport:
    """For every qualifying maximal family, shadow layers dominate family layers on 2..w."""
    return verify_lemma_bundle(n, k, m, **kwargs)[CHECK_LAYER_DOMINANCE]


def verify_valuable_rigidity(n: int, k: int, m: Cap, **kwargs) -> LemmaReport:
    """Matching the shadow's inhabited bottom layer forces an isomorphic valuable part."""
    return verify_lemma_bundle(n, k, m, **kwargs)[CHECK_VALUABLE_RIGIDITY]


def verify_grid(k_values: Sequence[int], m_values: Sequence[Cap], n_max: int, *,
                workers: int = 1, cap_override: bool = False, check: bool = True,
                timing: bool = False) -> list[TheoremReport]:
    """Theorem verification over every admissible (n, k, m), one pass per n."""
    by_n: dict[int, list[Params]] = {}
    for k in k_values:
        for m in m_values:
            p0 = Params(max(1, k), k, m)
            for n in range(k + p0.q, n_max + 1):
                by_n.setdefault(n, []).append(Params(n, k, m))
    reports: list[TheoremReport] = []
    for n in sorted(by_n):
        results = run_verification(
            n, theorem_params=by_n[n], workers=workers,
            cap_override=cap_override, check=check, timing=timing,
        )
        reports.extend(results.theorem_reports)
    reports.sort(key=lambda r: (r.params.n, r.params.k, r.params.m_text))
    return reports


# ---------------------------------------------------------------------------
# independent multiset-level oracle
# ---------------------------------------------------------------------------

def raw_max_nontrivial(p: Params, max_vertices: int = DEFAULT_ORACLE_VERTEX_CAP
                       ) -> tuple[int, MultisetFamily]:
    """Definitional search for the largest non-trivial intersecting multiset family.

    Enumerates all maximal intersecting families of the k-multiset universe
    directly (maximal cliques of the compatibility graph, pivoting
    Bron-Kerbosch) and keeps the largest one whose total intersection is
    empty.  Independent of the subset-level machinery; guarded by a vertex
    cap because the clique count grows quickly.
    """
    total = count_k_multisets(p)
    if total > max_vertices:
        raise SearchCapError(
            f"universe has {total} vertices, oracle guard is {max_vertices}; "
            "raise max_vertices to force the search"
        )
    vertices = list(enumerate_k_multisets(p))
    nv = len(vertices)
    smask = [support(v) for v in vertices]
    adj = [0] * nv
    for i in range(nv):
        si = smask[i]
        for j in range(i + 1, nv):
            if si & smask[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best_size = 0
    best_members: list | None = None
    element_full = (1 << p.n) - 1

    def bk(r: list[int], cand: int, excl: int, kern: int) -> None:
        nonlocal best_size, best_members
        if not cand and not excl:
            if kern == 0 and len(r) >= best_size:
                members = sorted(vertices[i] for i in r)
                if len(r) > best_size or best_members is None \
                        or members < best_members:
                    best_size = len(r)
                    best_members = members
            return
        # pivot on the highest-degree vertex in cand|excl
        px = cand | excl
        pivot, best_deg = -1, -1
        t = px
        while t:
            b = t & -t
            i = b.bit_length() - 1
            t ^= b
            d = (cand & adj[i]).bit_count()
            if d > best_deg:
                best_deg, pivot = d, i
        t = cand & ~adj[pivot]
        while t:
            b = t & -t
            i = b.bit_length() - 1
            t ^= b
            r.append(i)
            bk(r, cand & adj[i], excl & adj[i], kern & smask[i])
            r.pop()
            cand ^= b
            excl |= b

    bk([], (1 << nv) - 1, 0, element_full)
    witness = MultisetFamily.from_iterable(p, best_members or [], validate=False)
    return best_size, witness
