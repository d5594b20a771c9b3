"""Exhaustive enumeration of maximal intersecting subset families and the
verification passes built on top of it.

A maximal intersecting family of proper non-empty subsets of [n] contains
exactly one side of every complementary pair and is closed upward; conversely
any family with those two properties is maximal intersecting.  The enumerator
therefore walks a binary decision tree over complementary pairs, with the
state a pair (in, out) of family bitsets.  Taking x in forces exactly x and
its supersets in and the complement of x and its subsets out; taking x out
is the same with the roles of x and its complement swapped.  These closures
are precomputed, so a decision is two ORs and a branch is consistent iff in
and out are disjoint; there is no trail and nothing to undo.  Every leaf is
a maximal family and every maximal family appears exactly once.

Verification jobs ride along on a single enumeration pass.  The bound and the
lemmas see a family only through its key: its layer counts, whether its
valuable part qualifies for a job's window [q, k] (non-empty with empty total
intersection, which for an up-set depends on layer k alone), and how many
star members of size n-k it holds.  The pass counts the keys, and keeps the
family bitset only under a key that some job marks as interesting (an
achiever, a violation or a rigidity candidate), decided the first time the
key is seen.  The jobs then run once per distinct key: n=7 has 240 keys
among its 1.42M families.  No branch of the subset tree conflicts, so a
node's completions depend only on its set U of undecided subsets, and the
key of a family adds up over its members.  The pass therefore counts
top-down over U rather than over the tree: each U pushes its node keys,
with the number of paths to each, into its children, down to U = 0.  How
many U it meets depends only on the order in which the pairs are decided,
so the walk takes its own order, the one the frontier-based search of
Kawahara et al. uses: each next pair is the one that leaves the fewest
undecided pairs bordering the decided ones.  At n=7 that is about 12k U
and 49k (U, key) states (34k and 90k in decision order, which takes the
singletons first), where the tree has 1.42M leaves.  The families under
interesting keys are then collected by a descent in the same order that
enters only the states from which such a key is still reachable, and takes
the last _MEMO_PAIRS pairs from a memo over U.  Counting the families alone
uses the same walk.  Isomorphism classes are S_n-orbits under relabelling
of [n].  Their counts come from the orbit-counting lemma: for each cycle
type the invariant families are counted by the same walk over a pair
system whose items are the orbits of subsets under the permutation, an
orbit's closure being the union of its members' closures.  Such a system
conflicts only inside one outcome (an orbit holding two disjoint subsets),
so once those outcomes are dropped its completions too depend on U alone.
Achievers are grouped into classes by orbit closure under the adjacent
transpositions, and each class is encoded once per process through its
least member, so theorem cells that share an achiever orbit share its
encoding.

Work splits across processes by partitioning the decision tree into about 8
prefixes per worker, taken in decision order; the walk below a prefix
replays it and goes on in its own order.  The tree is lopsided, so the
prefix with the most undecided pairs is always split next.  Each worker
process builds the pass state once (the key codec, the verdicts on keys and
the memo over U with its verdicts) and keeps it for every prefix it is
given.  The orbit counting runs in the same pool, one task per non-identity
cycle type, ahead of the prefixes, which follow largest first; the parent
sums the totals and merges each result as it arrives.  The n=7
verification of six jobs takes about 0.12 s at one worker and 0.13 s at
two (benchmark medians, 2-core Xeon, Python 3.11): at two, starting the
pool costs what the second worker saves.  All per-family
collections are sorted before reporting, and violation lists are cut to
their first entries only after that sort, so report bytes do not depend on
the worker count.
"""

from __future__ import annotations

import heapq
import sys
import time
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, factorial
from multiprocessing import get_context
from operator import add, and_, or_
from typing import Callable, Iterator, Sequence

from .coeffs import coeff_table
from .families import hm_size
from .multiset import MultisetFamily, enumerate_k_multisets, count_k_multisets, support
from .params import Cap, InvariantError, Params, ParameterError, SearchCapError
from .reporting import LemmaReport, TheoremReport
from .subsets import (
    SetFamily, _permute_mask, _swap_closure, _transpositions, canonical_set_family,
    hm_shadow_layer_size, hm_shadow_valuable, is_intersecting_sf,
    is_maximal_intersecting_definitional, pair_rule_holds, valuable_part,
)
# not called here; perfbench/tracer.py and selftest.py address it as msfam.search's attribute
from .subsets import set_families_isomorphic  # noqa: F401

__all__ = [
    "DEFAULT_ENUMERATION_CAP", "DEFAULT_ORACLE_VERTEX_CAP",
    "enumerate_maximal_families", "naive_enumerate_maximal", "count_maximal_families",
    "count_iso_classes",
    "run_verification", "VerificationResults", "verify_hm_theorem",
    "verify_lemma_bundle", "verify_removed_layer", "verify_layer_dominance",
    "verify_valuable_rigidity", "verify_grid", "raw_max_nontrivial",
    "uniqueness_condition",
]

DEFAULT_ENUMERATION_CAP = 7
DEFAULT_ORACLE_VERTEX_CAP = 120
_VIOLATION_CAP = 1000
_ENUMERATION_PREFIXES = 256  # the largest holds 5.6% of the n=7 families
# _KeyWalk collects the families of subtrees with at most this many undecided
# pairs from a memo of their completions.  _Pass(7, [(7,6,inf)]), which keeps
# all 1.42M families, took 2.6-3.0, 1.9-2.4, 1.6-2.0 and 1.4-1.8 s at 2, 3, 4
# and 5 (three to six runs each, 2-core Xeon), but the collection of the
# six-job n=7 pass, the common case, took 12.6, 11.8, 12.6 and 13.7 ms (medians
# of nine), and the n=6 one was fastest at 2 to 4
_MEMO_PAIRS = 3

CHECK_REMOVED_LAYER = "removed-layer"
CHECK_LAYER_DOMINANCE = "layer-dominance"
CHECK_VALUABLE_RIGIDITY = "valuable-rigidity"
LEMMA_CHECKS = (CHECK_REMOVED_LAYER, CHECK_LAYER_DOMINANCE, CHECK_VALUABLE_RIGIDITY)


def _check_cap(n: int, cap_override: bool) -> None:
    if n < 2:
        raise ParameterError("enumeration needs n >= 2")
    if n > DEFAULT_ENUMERATION_CAP and not cap_override:
        raise SearchCapError(
            f"enumeration at n={n} exceeds the guard (n <= {DEFAULT_ENUMERATION_CAP}); "
            "pass cap_override=True (CLI: --cap-override) to force it"
        )


# ---------------------------------------------------------------------------
# pair-implication systems
# ---------------------------------------------------------------------------

_Tables = namedtuple("_Tables", "full up down decisions steps")


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """Closure bitsets over the proper non-empty subsets of [n], and the subset pair system.

    up[x] is the family bitset of x and its proper supersets short of [n],
    down[x] that of x and its non-empty subsets.  Both are transitively
    closed: a member forces exactly up[x] in, a non-member exactly down[x] out.
    steps is decisions as _KeyWalk walks them (see _walk_steps).
    """
    full = (1 << n) - 1
    singles = [1 << e for e in range(n)]
    down = [0] * (full + 1)
    for x in range(1, full):
        down[x] = reduce(or_, (down[x ^ b] for b in singles if x & b), 1 << x)
    up = [0] * (full + 1)  # up[full] stays empty: [n] itself is never a member
    for x in range(full - 1, 0, -1):
        up[x] = reduce(or_, (up[x | b] for b in singles if not x & b), 1 << x)

    def side(x: int) -> tuple[int, int]:
        return x.bit_count(), x

    # one decision per complementary pair: the smaller side, ties by mask value
    reps = sorted((x for x in range(1, full) if side(x) < side(full ^ x)), key=side)
    decisions = tuple((1 << x, ((up[x], down[full ^ x]), (up[full ^ x], down[x]))) for x in reps)
    return _Tables(full=full, up=tuple(up), down=tuple(down), decisions=decisions,
                   steps=_walk_steps(n, decisions))


def _walk_steps(n: int, decisions) -> tuple:
    """A pair system as _KeyWalk walks it, in the order of _frontier_order."""
    return _frontier_order(_decision_steps(n, decisions))


def _decision_steps(n: int, decisions) -> tuple:
    """A pair system's steps in decision order: per decision (bit, outcomes),
    each outcome as the closure it takes in and the mask of the items it
    leaves undecided.  An outcome whose own closures meet is dropped, and
    that is the only conflict a branch can meet: in is an up-set and out a
    down-set, both unions of items, so an undecided item's closures cannot
    meet them.  The subset system drops nothing; an orbit system drops the
    outcomes of orbits that hold two disjoint subsets.
    """
    proper = (1 << ((1 << n) - 1)) - 2
    return tuple((bit, tuple((add_in, proper ^ (add_in | add_out))
                             for add_in, add_out in outcomes if not add_in & add_out))
                 for bit, outcomes in decisions)


def _frontier_order(steps: tuple) -> tuple:
    """steps reordered so that few undecided pairs border the decided ones.

    Pair j is adjacent to pair i when some outcome of i decides j, and the
    boundary of a set of decided pairs is the undecided pairs adjacent to
    one of them.  Only a boundary pair can be decided on one path and not
    on another, so the boundary bounds how many undecided sets the walk
    meets after those pairs.  The order is greedy: each next pair is the
    one that leaves the smallest boundary, ties by position in steps
    (Kawahara et al., frontier-based search, IEICE Trans. 2017).
    """
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


class _KeyCodec:
    """Leaf keys packed into one int: additive fields below, cover masks above.

    The fields count a family's members on each layer l < n/2 and its star
    members (those holding element 1) on each removed layer; the pair rule
    gives the other layers, count[n-l] = C(n, l) - count[l] and, for even n,
    count[n/2] = C(n, n/2) / 2.  Above the fields sits, per distinct k of the
    windows, the n-bit mask of the elements some k-member avoids.  The
    window (q, k) qualifies (its part of the family is non-empty with empty
    total intersection) iff that mask is full: only layer k matters, since
    the family is an up-set and k <= n-1, so a member of size in [q, k] that
    avoids an element lies inside a k-subset avoiding it, which is a member
    too.  A member x turns key into (key + add[x]) | cov[x], so the key of a
    disjoint union of member sets is the sum of their fields and the union
    of their masks.
    Each field is as wide as its largest possible value, which the
    constructor checks: the contributions of all subsets together must
    decode to exactly those maxima.  One zero guard bit sits above each
    field, so that fields can be compared all at once by subtraction (see
    _KeyWalk._collect).
    """

    def __init__(self, n: int, windows: tuple, removed: tuple):
        full = (1 << n) - 1
        self.n, self.full, self.windows = n, full, windows
        self.layers = range(1, (n + 1) // 2)
        maxima = [comb(n, l) for l in self.layers] + [comb(n - 1, s - 1) for s in removed]
        fields, width, self.guards = [], 0, 0
        for most in maxima:
            fields.append((width, (1 << most.bit_length()) - 1))
            width += most.bit_length()
            self.guards |= 1 << width
            width += 1
        self.fields = fields
        self.low = (1 << width) - 1  # the additive fields and their guard bits
        self.layer_fields = fields[:len(self.layers)]
        self.star_fields = fields[len(self.layers):]
        ks = dict.fromkeys(k for _, k in windows)
        self.cover_shift = {k: width + j * n for j, k in enumerate(ks)}
        self.add, self.cov = [0] * full, [0] * full
        for x in range(1, full):
            size = x.bit_count()
            if size in self.layers:
                self.add[x] += 1 << self.layer_fields[size - 1][0]
            for s, (shift, _) in zip(removed, self.star_fields):
                if x & 1 and size == s:
                    self.add[x] += 1 << shift
            if size in self.cover_shift:
                self.cov[x] = (full ^ x) << self.cover_shift[size]
        total = sum(self.add)
        if total > self.low or [total >> s & m for s, m in fields] != maxima:
            raise InvariantError(f"a packed key field at n={n} is too narrow for its count")

    def decode(self, key: int) -> tuple:
        """The key as (layer counts 0..n, window flags, star counts at the removed layers)."""
        n, full = self.n, self.full
        counts = [0] * (n + 1)
        for l, (shift, mask) in zip(self.layers, self.layer_fields):
            counts[l] = key >> shift & mask
            counts[n - l] = comb(n, l) - counts[l]
        if n % 2 == 0:
            counts[n // 2] = comb(n, n // 2) // 2
        flags = tuple(key >> self.cover_shift[k] & full == full for _, k in self.windows)
        stars = tuple(key >> shift & mask for shift, mask in self.star_fields)
        return tuple(counts), flags, stars


@lru_cache(maxsize=None)
def _key_codec(n: int, windows: tuple, removed: tuple) -> _KeyCodec:
    return _KeyCodec(n, windows, removed)


class _KeyWalk:
    """The packed keys of the maximal families on [n] below a prefix, counted,
    and the bits of the families under keys that keep marks.  With codec
    None every key is 0, so the histogram holds just the leaf count.  steps
    is the pair system walked (see _walk_steps), the subset system by
    default; the orbit systems are walked the same way.  The walk takes
    the pairs in steps order, whatever it is, and gives the same histogram
    and kept families in any order; _walk_steps puts them in frontier order.

    No branch conflicts once _walk_steps has dropped the outcomes whose own
    closures meet, so a node's completions depend only on its undecided set
    U: every leaf below it is in | T for a completion T of U.  The count
    therefore runs top-down over U rather than over the tree.  Each U holds
    its node keys with the number of paths to each, and pushes them through
    each outcome into the child's keys, summing where two keys meet (ORing
    cover masks can send two keys to one); the keys of the members an
    outcome takes in are added through a cache (588 member sets at n=7).
    The U are taken largest first, so a U is complete before it is pushed,
    and the keys that reach U = 0 are the histogram.  The merging depends
    only on the order of the steps: a U is one set of decided pairs, and
    the frontier order keeps few pairs whose being decided varies from
    path to path.  For the n=7 pass of six jobs that is about 49k distinct
    (U, key) over 12k distinct U, at most 10k of them held at once, where
    the tree has 1.42M leaves (90k over 34k, 21k at once, in decision order).

    The families under kept keys are then collected by a second descent,
    which enters a state only if some kept key of the histogram is still
    reachable from it: each additive field grows by at most the members of
    U that feed it, and cover bits are only added.  That verdict is
    memoised per (U, key) for the call.  Once at most _MEMO_PAIRS pairs are
    undecided, the descent takes the completions of U, with their keys, from
    a memo over U, together with the exact verdict per (key, U): whether a
    completion gives a kept key.

    The memo over U, its verdicts and the cached keys hold for the whole
    tree, so one walk serves every prefix it is given, in any order; a call
    owns only its keys per U, its reach verdicts and its kept families.
    """

    def __init__(self, n: int, codec: _KeyCodec | None = None,
                 keep: Callable[[int], bool] = lambda key: False, steps: tuple | None = None):
        t = _tables(n)
        self.steps = t.steps if steps is None else steps
        self.decisions = t.decisions  # what a prefix's indices refer to
        self.proper, self.codec, self.keep = (1 << t.full) - 2, codec, keep
        self.low = self.guards = 0
        self.feeds: list[tuple[int, int]] = []  # per field: (its shift, the items that add to it)
        if codec is not None:
            self.low, self.guards = codec.low, codec.guards
            self.feeds = [(shift, sum(1 << x for x in range(1, t.full) if codec.add[x] >> shift & mask))
                          for shift, mask in codec.fields]
        # U -> (its completions with their keys; per node key met with U,
        # whether a completion gives a kept key)
        self.memo: dict[int, tuple[list, dict[int, bool]]] = {}
        # a member set taken in at once -> its key as (cover masks, fields)
        self.deltas: dict[int, tuple[int, int]] = {}

    def _delta(self, new: int) -> tuple[int, int]:
        masks = fields = 0
        if self.codec is not None:
            add, cov = self.codec.add, self.codec.cov
            while new:
                bit = new & -new
                x = bit.bit_length() - 1
                masks |= cov[x]
                fields += add[x]
                new ^= bit
        return masks, fields

    def _plus(self, key: int, new: int) -> int:
        # the cover masks are ORed in; the fields add without carrying out
        # of their widths, which the codec checked
        deltas = self.deltas
        masks, fields = deltas.get(new) or deltas.setdefault(new, self._delta(new))
        return (key | masks) + fields

    def _join(self, key: int, part: int) -> int:  # a node's key and one of its completions'
        low = self.low
        return ((key | part) & ~low) | ((key + part) & low)

    def _completions(self, idx: int, undecided: int) -> list[tuple[int, int]]:
        """The completions T of an undecided set, each with its key, in walk order."""
        if not undecided:
            return [(0, 0)]
        steps, plus = self.steps, self._plus
        while not steps[idx][0] & undecided:
            idx += 1
        out = []
        for add_in, rest in steps[idx][1]:
            new = add_in & undecided
            out += [(new | t, plus(part, new)) for t, part in self._completions(idx + 1, undecided & rest)]
        return out

    def histogram(self, prefix=()) -> tuple[Counter, dict[int, list[int]]]:
        """The key histogram below prefix, and the families under kept keys.

        prefix holds (decision index, outcome index) pairs of the subset
        system, as _split_prefixes gives them; it is replayed through the
        decisions, and the pairs it leaves undecided are walked in steps order.
        """
        undecided, fam = self.proper, 0
        for idx, v in prefix:
            add_in, add_out = self.decisions[idx][1][v]
            undecided &= ~(add_in | add_out)
            fam |= add_in
        key = self._plus(0, fam)
        hist = self._count(undecided, key)
        targets = [k for k in hist if self.keep(k)]
        return hist, self._collect(undecided, fam, key, targets) if targets else {}

    def _count(self, undecided: int, key: int) -> Counter:
        steps, deltas, delta = self.steps, self.deltas, self._delta
        # per number of undecided items: U -> [a step index at or before
        # U's first undecided decision, {node key: paths}]
        levels: list = [{} for _ in range(undecided.bit_count() + 1)]
        levels[-1][undecided] = [0, {key: 1}]
        for size in range(len(levels) - 1, 0, -1):
            for u, (idx, keys) in levels[size].items():
                while not steps[idx][0] & u:
                    idx += 1
                for add_in, rest in steps[idx][1]:
                    new = add_in & u
                    masks, fields = deltas.get(new) or deltas.setdefault(new, delta(new))
                    child = u & rest
                    level = levels[child.bit_count()]
                    entry = level.get(child)
                    if entry is None:
                        entry = level[child] = [idx + 1, {}]
                    into = entry[1]
                    for k, paths in keys.items():
                        k = (k | masks) + fields
                        into[k] = into.get(k, 0) + paths
            levels[size] = None
        return Counter(levels[0][0][1]) if levels[0] else Counter()

    def _collect(self, undecided: int, fam: int, key: int, targets: list[int]
                 ) -> dict[int, list[int]]:
        """The families below a state under the keys targets that keep
        marks.  A state (U, key) is entered only if some target is still
        reachable from it, which is memoised per (U, key) for the call; the
        fields are compared all at once, since with the guard bits set in
        the minuend a field's guard survives the subtraction iff that field
        did not go negative."""
        steps, memo, keep, plus, join = self.steps, self.memo, self.keep, self._plus, self._join
        low, guards, feeds = self.low, self.guards, self.feeds
        limit = 2 * _MEMO_PAIRS
        lifted = [(t & low | guards, t) for t in targets]
        reachable: dict[tuple[int, int], bool] = {}
        kept: dict[int, list[int]] = defaultdict(list)

        def descend(idx: int, u: int, fam: int, key: int) -> None:
            if u.bit_count() <= limit:
                entry = memo.get(u)
                if entry is None:
                    entry = memo[u] = (self._completions(idx, u), {})
                completions, walks = entry
                walk = walks.get(key)
                if walk is None:
                    walk = walks[key] = any(keep(join(key, part)) for _, part in completions)
                if walk:
                    for t, part in completions:
                        leaf = join(key, part)
                        if keep(leaf):
                            kept[leaf].append(fam | t)
                return
            verdict = reachable.get((u, key))
            if verdict is None:
                # guards plus, per field, how many members of U could still add to it
                room = guards | sum((u & feed).bit_count() << shift for shift, feed in feeds)
                fields = key & low
                verdict = reachable[u, key] = any(
                    (gap := target - fields) & guards == guards
                    and (room - (gap ^ guards)) & guards == guards and (key & ~t) <= low
                    for target, t in lifted)
            if not verdict:
                return
            while not steps[idx][0] & u:
                idx += 1
            for add_in, rest in steps[idx][1]:
                new = add_in & u
                descend(idx + 1, u & rest, fam | new, plus(key, new))

        descend(0, undecided, fam, key)
        del descend  # it refers to itself; break the cycle so this call's state goes now
        return kept


def _dfs(decisions, on_leaf, prefix=()) -> int:
    """Enumerate all completions of a pair system; returns the leaf count.

    The state is the pair (in, out) of family bitsets of the items decided
    in and out.  decisions lists one (bit, outcomes) per complementary pair
    in decision order: the pair is decided once bit lies in in | out, and
    outcomes holds the closures (in, out) that taking bit's side in, or
    out, adds.  A state is consistent iff in & out is empty, and a leaf's
    family is its in.  In the subset system every branch is consistent (in
    is an up-set and out a down-set, so an undecided pair can go either
    way); conflicts arise in the orbit systems, whose orbits can hold two
    disjoint subsets.  prefix, a sequence of (decision index, outcome
    index), is replayed first; an inconsistent prefix contributes nothing.

    Counting goes through _KeyWalk instead; this leaf-by-leaf walk serves
    enumerate_maximal_families, which yields every family, and the tests,
    which use it as the oracle for the walk.
    """
    floor = len(decisions) + 500
    if sys.getrecursionlimit() < floor:
        sys.setrecursionlimit(floor)
    fin = fout = 0
    for idx, v in prefix:
        add_in, add_out = decisions[idx][1][v]
        fin |= add_in
        fout |= add_out
    if fin & fout:
        return 0

    leaves = 0
    count = len(decisions)

    def rec(idx: int, fin: int, fout: int) -> None:
        nonlocal leaves
        decided = fin | fout
        while idx < count and decisions[idx][0] & decided:
            idx += 1
        if idx == count:
            leaves += 1
            on_leaf(fin)
            return
        for add_in, add_out in decisions[idx][1]:
            child_in = fin | add_in
            child_out = fout | add_out
            if not child_in & child_out:
                rec(idx + 1, child_in, child_out)

    rec(0, fin, fout)
    del rec  # rec refers to itself; break that cycle so on_leaf is released now
    return leaves


def _dfs_subsets(n: int, on_leaf, prefix=()) -> int:
    return _dfs(_tables(n).decisions, on_leaf, prefix)


def _split_prefixes(n: int, target: int) -> list[tuple]:
    """Partition the decision tree into about `target` consistent prefixes.

    The prefix with the most undecided complementary pairs, the estimate of
    its subtree's size, is split next, until there are `target` prefixes or
    every prefix is a leaf.  The tree is lopsided (deciding a singleton as a
    member closes a whole star in one leaf), so splitting by depth would
    leave most leaves under one prefix.  Returned largest estimate first, ties in DFS order;
    DFS order itself is the sorted order, since siblings differ only in
    (i, 0) against (i, 1).
    """
    decisions = _tables(n).decisions
    pairs = len(decisions)
    heap = [(-pairs, (), 0, 0)]
    while len(heap) < target and heap[0][0] < 0:
        _, pre, fin, fout = heapq.heappop(heap)
        decided = fin | fout
        idx = next(i for i, (bit, _) in enumerate(decisions) if not bit & decided)
        for v, (add_in, add_out) in enumerate(decisions[idx][1]):
            child_in, child_out = fin | add_in, fout | add_out
            if not child_in & child_out:
                undecided = pairs - (child_in | child_out).bit_count() // 2
                heapq.heappush(heap, (-undecided, pre + ((idx, v),), child_in, child_out))
    return [pre for _, pre, _, _ in sorted(heap)]


# ---------------------------------------------------------------------------
# relabellings: orbit systems for invariant-family counting, orbit closure
# ---------------------------------------------------------------------------

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
    """The pair system of the families invariant under perm; None if there are none.

    Its items are the orbits of subsets under perm, each decided through its
    least member.  An orbit's closure is the union of its members' closures,
    which is again a union of orbits.
    """
    t = _tables(n)
    claimed = 0
    decisions = []
    for x in range(1, t.full):
        if claimed >> x & 1:
            continue
        # the orbit of x and, through complements, its complementary orbit
        bits = comp_bits = up = down = comp_up = comp_down = 0
        y = x
        while not bits >> y & 1:
            c = t.full ^ y
            bits |= 1 << y
            comp_bits |= 1 << c
            up |= t.up[y]
            down |= t.down[y]
            comp_up |= t.up[c]
            comp_down |= t.down[c]
            y = _permute_mask(y, perm, n)
        if bits & comp_bits:
            return None  # a self-complementary orbit blocks the pair rule
        claimed |= bits | comp_bits
        decisions.append((1 << x, ((up, comp_down), (comp_up, down))))
    return tuple(decisions)


def _nonidentity_types(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The non-identity cycle types as (permutation, class size), those with
    the most cycles first; the transposition, whose invariant families are
    by far the most, leads."""
    return [(perm, size) for perm, size in reversed(_cycle_type_reps(n))
            if any(perm[i] != i for i in range(n))]


def _cycle_type_totals(n: int, windows: Sequence[tuple[int, int]],
                       perm: Sequence[int], class_size: int) -> list[int]:
    """class_size times the number of families invariant under perm: first
    all of them, then those qualifying for each window."""
    totals = [0] * (1 + len(windows))
    system = _orbit_system(n, perm)
    if system is None:
        return totals
    codec = _key_codec(n, tuple(windows), ())
    hist = _KeyWalk(n, codec, steps=_walk_steps(n, system)).histogram()[0]
    for key, count in hist.items():
        for i, ok in enumerate((True, *codec.decode(key)[1])):
            if ok:
                totals[i] += class_size * count
    return totals


def _burnside_nonidentity(n: int, windows: Sequence[tuple[int, int]]) -> list[int]:
    """Sum over non-identity cycle types of class_size * invariant-family count:
    first over all invariant families, then over those qualifying for each window."""
    totals = [0] * (1 + len(windows))
    for perm, class_size in _nonidentity_types(n):
        totals = list(map(add, totals, _cycle_type_totals(n, windows, perm, class_size)))
    return totals


def count_maximal_families(n: int, cap_override: bool = False) -> int:
    """Number of maximal intersecting families on [n], counted over undecided sets."""
    _check_cap(n, cap_override)
    return _KeyWalk(n).histogram()[0][0]


def count_iso_classes(n: int, cap_override: bool = False) -> int:
    """Number of isomorphism classes of maximal intersecting families on [n]."""
    identity = count_maximal_families(n, cap_override)
    return _orbit_count(n, identity + _burnside_nonidentity(n, ())[0])


def _orbit_count(n: int, burnside_total: int) -> int:
    """Burnside's lemma: the fixed-point total over S_n divided by n!."""
    classes, rest = divmod(burnside_total, factorial(n))
    if rest:
        raise InvariantError(f"orbit-counting total {burnside_total} is not a multiple of {n}!")
    return classes


def _orbit(n: int, bits: int) -> set[int]:
    """The S_n-orbit of a family bitset: its closure under the adjacent transpositions."""
    return _swap_closure(bits, _transpositions(n))


# ---------------------------------------------------------------------------
# enumeration front ends
# ---------------------------------------------------------------------------

def enumerate_maximal_families(n: int, up_to_iso: bool = False,
                               cap_override: bool = False) -> Iterator[SetFamily]:
    """Yield every maximal intersecting family on [n] exactly once.

    With up_to_iso, yield the first-enumerated representative of each
    isomorphism class instead.  Enumeration order is the decision order of the
    pair search and is stable across runs.  The tree is walked one split
    prefix at a time, in DFS order, so at most one prefix's families are
    held at once.
    """
    _check_cap(n, cap_override)

    def walk() -> Iterator[int]:
        for prefix in sorted(_split_prefixes(n, _ENUMERATION_PREFIXES)):
            collected: list[int] = []
            _dfs_subsets(n, collected.append, prefix)
            yield from collected

    if not up_to_iso:
        for bits in walk():
            yield SetFamily(n=n, bits=bits)
        return
    # every relabelling of a maximal family is maximal, hence enumerated once
    claimed: set[int] = set()
    for bits in walk():
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


class _Pass:
    """One process's share of an enumeration pass over jobs: the key codec,
    whether each key is interesting (decided the first time it is seen) and
    a key walk, all kept across the prefixes the process is given.  Calling
    it with a prefix gives the key histogram below that prefix and the
    families under interesting keys, both keyed by decoded key.
    """

    def __init__(self, n: int, jobs: Sequence[tuple[str, Params]]):
        self.n, self.jobs = n, tuple(jobs)
        self.layout = _key_layout(jobs)
        self.codec = _key_codec(n, *self.layout)
        self.decoded: dict[int, tuple] = {}
        self.verdicts: dict[int, bool] = {}
        self.walk = _KeyWalk(n, self.codec, self.keep)

    def decode(self, key: int) -> tuple:
        decoded = self.decoded.get(key)
        if decoded is None:
            decoded = self.decoded[key] = self.codec.decode(key)
        return decoded

    def keep(self, key: int) -> bool:
        verdict = self.verdicts.get(key)
        if verdict is None:
            decoded = self.decode(key)
            verdict = self.verdicts[key] = any(
                _findings(job, decoded, self.layout) for job in self.jobs)
        return verdict

    def __call__(self, prefix=()) -> tuple[Counter, dict[tuple, list[int]]]:
        packed, packed_kept = self.walk.histogram(prefix)
        hist: Counter = Counter()
        kept: dict[tuple, list[int]] = {}
        for key, count in packed.items():
            hist[self.decode(key)] += count
        for key, fams in packed_kept.items():
            kept.setdefault(self.decode(key), []).extend(fams)
        return hist, kept


_worker_pass: _Pass | None = None  # a pool worker's pass state, built by _start_worker


def _start_worker(n: int, jobs: tuple) -> None:
    global _worker_pass
    _worker_pass = _Pass(n, jobs)


def _pool_task(task: tuple):
    """One task of a pooled pass, run in a worker: ("prefix", prefix) gives
    the pass below that prefix, ("orbits", perm, class_size) the weighted
    invariant-family totals of one non-identity cycle type."""
    if task[0] == "orbits":
        return _cycle_type_totals(_worker_pass.n, _worker_pass.layout[0], *task[1:])
    return _worker_pass(task[1])


def _run_pass(n: int, jobs: Sequence[tuple[str, Params]], workers: int
              ) -> tuple[Counter, dict[tuple, list[int]], list[int]]:
    """One enumeration pass: the key histogram of the maximal families on [n],
    the bits of the families under interesting keys, and the orbit-counting
    totals over the non-identity cycle types (see _burnside_nonidentity;
    empty when the jobs have no windows).

    With several workers each worker process builds one _Pass and keeps it
    for the pool's lifetime.  The tree is split into about 8 prefixes per
    worker, and each non-identity cycle type is one more task.  More
    prefixes balance better but recount more, since a prefix recounts the
    states it shares with others: the n=7 pass of six jobs over 1, 8, 16, 32
    and 64 prefixes took 0.087, 0.089, 0.096, 0.107 and 0.126 s in one
    process, the largest prefix 0.087, 0.088, 0.069, 0.019 and 0.006 s.  At
    two workers, 4, 8 and 16 prefixes per worker gave the pass in 0.13,
    0.11 and 0.11 s of wall time for 0.14, 0.16 and 0.19 s of CPU (medians
    of 21 runs, 2-core Xeon), and 32 per worker 0.13 s for 0.24 s: from 8
    per worker the orbit tasks and the small prefixes keep the second busy
    while the first counts the largest prefix, and more prefixes only add
    CPU.  The cycle types go first, then the prefixes largest first, one
    task at a time.  Each result is merged as it arrives, so the parent
    holds one result at a time.
    """
    windows = _key_layout(jobs)[0]
    if workers == 1:
        hist, kept = _Pass(n, jobs)()
        return hist, kept, _burnside_nonidentity(n, windows) if windows else []
    tasks = [("orbits", perm, size) for perm, size in _nonidentity_types(n)] if windows else []
    tasks += [("prefix", prefix) for prefix in _split_prefixes(n, 8 * workers)]
    hist: Counter = Counter()
    kept: dict[tuple, list[int]] = {}
    nonidentity = [0] * (1 + len(windows)) if windows else []
    with get_context().Pool(processes=min(workers, len(tasks)), initializer=_start_worker,
                            initargs=(n, tuple(jobs))) as pool:
        for task, result in zip(tasks, pool.imap(_pool_task, tasks, chunksize=1)):
            if task[0] == "orbits":
                nonidentity = list(map(add, nonidentity, result))
                continue
            sub_hist, sub_kept = result
            hist.update(sub_hist)
            for key, fams in sub_kept.items():
                kept.setdefault(key, []).extend(fams)
    return hist, kept, nonidentity


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
        classes.append((SetFamily(n=n, bits=bits), len(orbit), _orbit_encoding(n, bits)))
    classes.sort(key=lambda item: item[2])
    return classes


@lru_cache(maxsize=None)
def _orbit_encoding(n: int, least: int) -> tuple:
    """The canonical encoding of the orbit whose least member is least.

    An encoding is invariant under relabelling, so one per orbit serves
    every theorem cell whose achievers hold that orbit.
    """
    return canonical_set_family(SetFamily(n=n, bits=least))


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
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
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

    # isomorphism classes of qualifying families per distinct window come
    # from orbit counting: nonidentity holds the non-identity cycle types' totals
    hist, kept, nonidentity = _run_pass(n, jobs, workers)
    families_total = sum(hist.values())
    layout = _key_layout(jobs)
    windows = layout[0]

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
