"""Exhaustive enumeration of maximal intersecting subset families and the
verification passes built on top of it.

A maximal intersecting family of proper non-empty subsets of [n] contains
exactly one side of every complementary pair and is closed upward; conversely
any family with those two properties is maximal intersecting.  The enumerator
therefore walks a binary decision tree over complementary pairs, propagating
two implications after every assignment: a member forces all its supersets in,
a non-member forces all its subsets out.  Every leaf is a maximal family and
every maximal family appears exactly once.

Verification jobs ride along on a single enumeration pass: per leaf they see
the family bitset together with its layer counts and decide qualification
(empty total intersection of the valuable part) from precomputed element
masks.  Isomorphism classes are S_n-orbits under relabelling of [n].  Their
counts come from the orbit-counting lemma: for each cycle type the invariant
families are enumerated over a collapsed pair system whose items are the
orbits of subsets under the permutation.  Achievers are grouped into classes
by orbit closure under the adjacent transpositions.

Work splits deterministically across processes by partitioning the decision
tree at a shallow prefix depth; all per-family collections are sorted before
reporting, so report bytes do not depend on the worker count.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from multiprocessing import get_context
from typing import Callable, Iterator, Sequence

from .coeffs import coeff_table
from .families import hm_size
from .multiset import MultisetFamily, enumerate_k_multisets, count_k_multisets, support
from .params import Cap, InvariantError, Params, ParameterError, SearchCapError, UNBOUNDED
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

_Tables = namedtuple("_Tables", "n full comp sup sub reps layers star_layers")


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
        reps=tuple(x for _, x in reps), layers=layers, star_layers=star_layers,
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


@lru_cache(maxsize=None)
def _window_mask(n: int, q: int, k: int) -> int:
    layers = layer_bitsets(n)
    mask = 0
    for l in range(q, min(k, n) + 1):
        mask |= layers[l]
    return mask


def _dfs(size, comp, sup, sub, bits_of, reps, on_leaf, prefix=()) -> int:
    """Enumerate all completions of the pair system; returns the leaf count.

    comp, sup, sub, bits_of are indexable by item id; reps lists one item per
    complementary pair in decision order.  prefix is replayed first and an
    inconsistent prefix contributes nothing.
    """
    floor = 2 * len(reps) + 500
    if sys.getrecursionlimit() < floor:
        sys.setrecursionlimit(floor)
    st = bytearray(size)
    trail: list[int] = []
    bits_box = [0]

    def assign(x0: int, v0: int) -> bool:
        stack = [(x0, v0)]
        bits = bits_box[0]
        ok = True
        while stack:
            x, v = stack.pop()
            s = st[x]
            if s:
                if s != v:
                    ok = False
                    break
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
        bits_box[0] = bits
        return ok

    for x, v in prefix:
        if not assign(x, v):
            return 0

    leaves = 0
    nreps = len(reps)

    def rec(idx: int) -> None:
        nonlocal leaves
        while idx < nreps and st[reps[idx]]:
            idx += 1
        if idx == nreps:
            leaves += 1
            on_leaf(bits_box[0])
            return
        x = reps[idx]
        for v in (1, 2):
            mark = len(trail)
            saved = bits_box[0]
            if assign(x, v):
                rec(idx + 1)
            for i in range(len(trail) - 1, mark - 1, -1):
                y = trail[i]
                st[y] = 0
                st[comp[y]] = 0
            del trail[mark:]
            bits_box[0] = saved

    rec(0)
    return leaves


def _dfs_subsets(n: int, on_leaf, prefix=()) -> int:
    t = _tables(n)
    bits_of = tuple(1 << x for x in range(t.full + 1))
    return _dfs(t.full + 1, t.comp, t.sup, t.sub, bits_of, t.reps, on_leaf, prefix)


def _probe_prefix(n: int, prefix) -> tuple[int | None, bool]:
    """Replay a prefix; return (next undecided pair item or None, consistent?)."""
    t = _tables(n)
    st = bytearray(t.full + 1)

    def assign(x0, v0):
        stack = [(x0, v0)]
        while stack:
            x, v = stack.pop()
            s = st[x]
            if s:
                if s != v:
                    return False
                continue
            st[x] = v
            st[t.comp[x]] = 3 - v
            if v == 1:
                for y in t.sup[x]:
                    if st[y] != 1:
                        stack.append((y, 1))
                for y in t.sub[t.comp[x]]:
                    if st[y] != 2:
                        stack.append((y, 2))
            else:
                for y in t.sub[x]:
                    if st[y] != 2:
                        stack.append((y, 2))
                for y in t.sup[t.comp[x]]:
                    if st[y] != 1:
                        stack.append((y, 1))
        return True

    for x, v in prefix:
        if not assign(x, v):
            return None, False
    for x in t.reps:
        if not st[x]:
            return x, True
    return None, True


def _split_prefixes(n: int, target: int) -> list[tuple]:
    """Partition the decision tree into at least `target` consistent prefixes."""
    prefixes: list[tuple] = [()]
    for _ in range(4 * max(1, target).bit_length()):
        if len(prefixes) >= target:
            break
        nxt: list[tuple] = []
        expanded = False
        for pre in prefixes:
            x, ok = _probe_prefix(n, pre)
            if not ok:
                continue
            if x is None:
                nxt.append(pre)
                continue
            expanded = True
            for v in (1, 2):
                child = pre + ((x, v),)
                _, child_ok = _probe_prefix(n, child)
                if child_ok:
                    nxt.append(child)
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


def _qualifier(n: int, q: int, k: int) -> Callable[[int], bool]:
    """Non-trivial valuable part: a non-empty window with empty total intersection."""
    window = _window_mask(n, q, k)
    absent = _absent_valuable(n, q, k)

    def qualifies(bits: int) -> bool:
        if not bits & window:
            return False
        for am in absent:
            if not bits & am:
                return False
        return True

    return qualifies


def _burnside_nonidentity(n: int, qualifiers: Sequence[Callable[[int], bool]]) -> list[int]:
    """Sum over non-identity cycle types of class_size * invariant-family count."""
    totals = [0] * len(qualifiers)
    for perm, class_size in _cycle_type_reps(n):
        if all(perm[i] == i for i in range(n)):
            continue
        system = _orbit_system(n, perm)
        if system is None:
            continue
        size, comp, sup, sub, bits_of, reps = system
        counts = [0] * len(qualifiers)

        def on_leaf(bits: int) -> None:
            for i, fn in enumerate(qualifiers):
                if fn(bits):
                    counts[i] += 1

        _dfs(size, comp, sup, sub, bits_of, reps, on_leaf)
        for i, c in enumerate(counts):
            totals[i] += class_size * c
    return totals


def count_iso_classes(n: int, cap_override: bool = False) -> int:
    """Number of isomorphism classes of maximal intersecting families on [n]."""
    _check_cap(n, cap_override)
    identity = _dfs_subsets(n, lambda bits: None)
    rest = _burnside_nonidentity(n, [lambda bits: True])[0]
    return _orbit_count(n, identity + rest)


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


def _family_encoding(bits: int, n: int) -> tuple[tuple[int, ...], ...]:
    return SetFamily(n=n, bits=bits).member_sets()


@dataclass(frozen=True)
class _JobSpec:
    """Picklable description of one verification job."""

    kind: str  # "theorem" or "lemmas"
    n: int
    k: int
    m_key: int | None  # None encodes the unbounded cap

    def params(self) -> Params:
        return Params(self.n, self.k, UNBOUNDED if self.m_key is None else self.m_key)


@lru_cache(maxsize=None)
def _job_constants(spec: _JobSpec) -> dict:
    p = spec.params()
    n, k, q = p.n, p.k, p.q
    table = coeff_table(k, p.m)
    consts = {
        "q": q,
        "k": k,
        "w": p.w,
        "coeffs": table.values,
        "window": (q, k),
        "bound": hm_size(p),
        "v_sizes": tuple(hm_shadow_layer_size(p, l) for l in range(n + 1)),
    }
    t = _tables(n)
    consts["star_removed_mask"] = t.star_layers[n - k]
    consts["star_removed_cap"] = comb(n - 1, n - k - 1)
    return consts


class _JobAccum:
    """Per-worker accumulation for one job; merged across workers by summing and concatenating."""

    def __init__(self, spec: _JobSpec):
        self.spec = spec
        self.qual = 0
        self.achievers: list[int] = []
        self.bound_violations: list[tuple[int, int]] = []
        self.bound_violation_count = 0
        self.removed_violations: list[int] = []
        self.removed_violation_count = 0
        self.dominance_violations: list[tuple[int, int, int]] = []
        self.dominance_violation_count = 0
        self.rigid_candidates: list[int] = []
        self.rigid_layer_violations: list[tuple[int, int, int, int]] = []
        self.rigid_violation_count = 0

    def partial(self) -> dict:
        return self.__dict__.copy()

    def merge(self, other: dict) -> None:
        self.qual += other["qual"]
        self.achievers.extend(other["achievers"])
        self.bound_violations.extend(other["bound_violations"])
        self.bound_violation_count += other["bound_violation_count"]
        self.removed_violations.extend(other["removed_violations"])
        self.removed_violation_count += other["removed_violation_count"]
        self.dominance_violations.extend(other["dominance_violations"])
        self.dominance_violation_count += other["dominance_violation_count"]
        self.rigid_candidates.extend(other["rigid_candidates"])
        self.rigid_layer_violations.extend(other["rigid_layer_violations"])
        self.rigid_violation_count += other["rigid_violation_count"]


def _compile_leaf(n: int, specs: Sequence[_JobSpec], accums: Sequence[_JobAccum]):
    """Build the single per-leaf closure shared by all jobs of one pass.

    Per-job constants are unpacked into flat tuples; the closure runs a few
    million times, so it avoids dictionary lookups and attribute access.
    """
    t = _tables(n)
    lmasks = tuple(t.layers[l] for l in range(1, n))  # counts[l-1] is layer l

    windows: list[tuple[int, tuple[int, ...]]] = []
    window_index: dict[tuple[int, int], int] = {}
    theorem_recs = []
    lemma_recs = []
    for spec, accum in zip(specs, accums):
        consts = _job_constants(spec)
        wkey = consts["window"]
        if wkey not in window_index:
            window_index[wkey] = len(windows)
            windows.append((_window_mask(n, *wkey), _absent_valuable(n, *wkey)))
        wi = window_index[wkey]
        if spec.kind == "theorem":
            theorem_recs.append((wi, consts["q"], consts["k"], consts["coeffs"],
                                 consts["bound"], accum))
        else:
            lemma_recs.append((wi, consts["q"], consts["k"], consts["w"],
                               consts["v_sizes"], consts["star_removed_mask"],
                               consts["star_removed_cap"], accum))

    def on_leaf(bits: int) -> None:
        counts = [(bits & lm).bit_count() for lm in lmasks]
        flags = []
        for wmask, absent in windows:
            ok = (bits & wmask) != 0
            if ok:
                for am in absent:
                    if not bits & am:
                        ok = False
                        break
            flags.append(ok)
        for wi, q, k, coeffs, bound, acc in theorem_recs:
            if not flags[wi]:
                continue
            acc.qual += 1
            size = 0
            for l in range(q, k + 1):
                c = coeffs[l]
                if c:
                    size += c * counts[l - 1]
            if size == bound:
                acc.achievers.append(bits)
            elif size > bound:
                acc.bound_violation_count += 1
                if len(acc.bound_violations) < _VIOLATION_CAP:
                    acc.bound_violations.append((bits, size))
        for wi, q, k, w, v_sizes, star_mask, star_cap, acc in lemma_recs:
            if not flags[wi]:
                continue
            acc.qual += 1
            if (bits & star_mask).bit_count() >= star_cap:
                acc.removed_violation_count += 1
                if len(acc.removed_violations) < _VIOLATION_CAP:
                    acc.removed_violations.append(bits)
            for l in range(2, w + 1):
                if counts[l - 1] > v_sizes[l]:
                    acc.dominance_violation_count += 1
                    if len(acc.dominance_violations) < _VIOLATION_CAP:
                        acc.dominance_violations.append((bits, l, counts[l - 1]))
            vq = v_sizes[q]
            if vq > 0 and counts[q - 1] == vq:
                mismatch = 0
                for l in range(q, k + 1):
                    if counts[l - 1] != v_sizes[l]:
                        mismatch = l
                        break
                if mismatch == 0:
                    acc.rigid_candidates.append(bits)
                else:
                    acc.rigid_violation_count += 1
                    if len(acc.rigid_layer_violations) < _VIOLATION_CAP:
                        acc.rigid_layer_violations.append(
                            (bits, mismatch, counts[mismatch - 1], v_sizes[mismatch])
                        )

    return on_leaf


def _pass_worker(payload) -> tuple[int, list[dict]]:
    n, specs, prefixes = payload
    accums = [_JobAccum(spec) for spec in specs]
    on_leaf = _compile_leaf(n, specs, accums)
    total = 0
    for prefix in prefixes:
        total += _dfs_subsets(n, on_leaf, prefix)
    return total, [a.partial() for a in accums]


def _run_pass(n: int, specs: Sequence[_JobSpec], workers: int) -> tuple[int, list[_JobAccum]]:
    accums = [_JobAccum(spec) for spec in specs]
    if workers <= 1:
        on_leaf = _compile_leaf(n, specs, accums)
        total = _dfs_subsets(n, on_leaf)
        return total, accums
    prefixes = _split_prefixes(n, 8 * workers)
    chunks = [prefixes[i::workers] for i in range(workers)]
    chunks = [c for c in chunks if c]
    ctx = get_context()
    with ctx.Pool(processes=len(chunks)) as pool:
        results = pool.map(_pass_worker, [(n, tuple(specs), chunk) for chunk in chunks])
    total = 0
    for sub_total, partials in results:
        total += sub_total
        for accum, partial in zip(accums, partials):
            accum.merge(partial)
    return total, accums


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

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


def _finalize_theorem(spec: _JobSpec, accum: _JobAccum, families_total: int,
                      iso_classes: int, runtime_ms: int | None) -> TheoremReport:
    p = spec.params()
    n = p.n
    violations: list[dict] = []
    for bits, size in sorted(accum.bound_violations):
        violations.append({
            "type": "bound-exceeded",
            "size": size,
            "bound": _job_constants(spec)["bound"],
            "family": [list(m) for m in _family_encoding(bits, n)],
        })
    classes = _achiever_classes(n, accum.achievers)
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
        bound=_job_constants(spec)["bound"],
        families_total=families_total,
        families_checked=accum.qual,
        iso_classes_checked=iso_classes,
        achievers=tuple(enc for _, _, enc in classes),
        achiever_class_sizes=tuple(size for _, size, _ in classes),
        uniqueness_verdict=verdict,
        lemma_violations=tuple(violations),
        runtime_ms=runtime_ms,
    )


def _finalize_lemmas(spec: _JobSpec, accum: _JobAccum, families_total: int,
                     iso_classes: int, runtime_ms: int | None) -> dict[str, LemmaReport]:
    p = spec.params()
    n = p.n
    consts = _job_constants(spec)
    removed = [
        {"type": "removed-layer-empty", "family": [list(m) for m in _family_encoding(bits, n)]}
        for bits in sorted(accum.removed_violations)
    ]
    dominance = [
        {
            "type": "layer-dominance-failed", "layer": l, "count": c,
            "shadow_layer_size": consts["v_sizes"][l],
            "family": [list(m) for m in _family_encoding(bits, n)],
        }
        for bits, l, c in sorted(accum.dominance_violations)
    ]
    rigid: list[dict] = []
    for bits, l, got, want in sorted(accum.rigid_layer_violations):
        rigid.append({
            "type": "valuable-layer-mismatch", "layer": l, "count": got,
            "shadow_layer_size": want,
            "family": [list(m) for m in _family_encoding(bits, n)],
        })
    shadow_orbit = _orbit(n, hm_shadow_valuable(p).bits)
    candidates = sorted(accum.rigid_candidates)
    for bits in candidates:
        if valuable_part(SetFamily(n=n, bits=bits), p).bits not in shadow_orbit:
            rigid.append({
                "type": "valuable-part-not-isomorphic",
                "family": [list(m) for m in _family_encoding(bits, n)],
            })
    notices = []
    if consts["v_sizes"][p.q] == 0:
        notices.append(
            "bottom shadow layer is empty (q=%d); the inhabited-layer hypothesis holds vacuously"
            % p.q
        )

    def make(check: str, violations: list[dict], cands: int) -> LemmaReport:
        return LemmaReport(
            check=check, params=p, families_total=families_total,
            families_checked=accum.qual, candidates=cands,
            violations=tuple(violations),
            notices=tuple(notices) if check == CHECK_VALUABLE_RIGIDITY else (),
            runtime_ms=runtime_ms,
        )

    return {
        CHECK_REMOVED_LAYER: make(CHECK_REMOVED_LAYER, removed, accum.qual),
        CHECK_LAYER_DOMINANCE: make(CHECK_LAYER_DOMINANCE, dominance, accum.qual),
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
    specs: list[_JobSpec] = []
    for p in theorem_params:
        if p.n != n:
            raise ParameterError("theorem parameters disagree with the pass ground set")
        _validate_verify_params(p, check)
        specs.append(_JobSpec("theorem", p.n, p.k, None if p.unbounded else p.m))
    for p in lemma_params:
        if p.n != n:
            raise ParameterError("lemma parameters disagree with the pass ground set")
        _validate_verify_params(p, check)
        specs.append(_JobSpec("lemmas", p.n, p.k, None if p.unbounded else p.m))

    families_total, accums = _run_pass(n, specs, workers)

    # isomorphism classes of qualifying families per distinct window, via orbit counting
    qualifiers = []
    seen_windows = {}
    for spec in specs:
        wkey = (_job_constants(spec)["q"], _job_constants(spec)["k"])
        if wkey not in seen_windows:
            seen_windows[wkey] = len(qualifiers)
            qualifiers.append(_qualifier(n, *wkey))
    nonidentity = _burnside_nonidentity(n, qualifiers) if qualifiers else []

    runtime_ms = int((time.monotonic() - started) * 1000) if timing else None

    theorem_reports = []
    lemma_bundles = []
    for spec, accum in zip(specs, accums):
        wkey = (_job_constants(spec)["q"], _job_constants(spec)["k"])
        iso_classes = _orbit_count(n, accum.qual + nonidentity[seen_windows[wkey]])
        if spec.kind == "theorem":
            theorem_reports.append(
                _finalize_theorem(spec, accum, families_total, iso_classes, runtime_ms)
            )
        else:
            lemma_bundles.append(
                _finalize_lemmas(spec, accum, families_total, iso_classes, runtime_ms)
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
