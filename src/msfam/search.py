"""Exhaustive enumeration of maximal intersecting subset families and the
verification passes built on top of it.

A maximal intersecting family of proper non-empty subsets of [n] contains
exactly one side of every complementary pair and is closed upward; conversely
any family with those two properties is maximal intersecting.  The enumerator
therefore walks a binary decision tree over complementary pairs, with the
state the family bitset U of the subsets still undecided.  Taking x in
forces exactly x and its supersets in and the complement of x and its
subsets out; taking x out is the same with the roles of x and its complement
swapped.  These closures are precomputed, so a decision is two ANDs: the
members it takes in are its in-closure's part of U, and the child's U is U
less both closures.  No branch of the subset tree conflicts, since the
members taken in form an up-set and those left out a down-set, so an
undecided subset can still go either way; there is no trail and nothing to
undo.  Every leaf, U = 0, is a maximal family and every maximal family
appears exactly once.  _leaves walks the completions of one U depth first;
enumeration streams the root's, in decision order.

Verification jobs ride along on a single enumeration pass.  The bound and
the lemmas see a family only through its key: its layer counts and, per size
k, the elements some k-member avoids.  Those masks say whether its valuable
part qualifies for a job's window [q, k] (non-empty with empty total
intersection, which for an up-set depends on layer k alone).  The
removed-layer lemma needs nothing more: a qualifying window has a k-member
avoiding element 1, whose complement, an (n-k)-subset holding 1, is then no
member by the pair rule, so the star's layer n-k never lies wholly inside a
qualifying maximal family.  The pass counts the keys, and keeps the family
bitset only under a key that some job marks as interesting (an achiever, a
violation or a rigidity candidate), decided the first time the key is seen.
The jobs then run once per distinct key: the six-job n=7 pass of the
benchmark has 91 keys among its 1.42M families.  A node's completions depend
only on its U, and the key of a family adds up over its members.  The pass
therefore counts top-down over U rather than over the tree: each U pushes
its node keys, with the number of paths to each, into its children, down to
U = 0.  How many U it meets depends only on the order in which the pairs are
decided, so the walk takes its own order, the one the frontier-based search
of Kawahara et al. uses: each next pair is the one that leaves the fewest
undecided pairs bordering the decided ones.  For that n=7 pass it is about
12k U and 26k (U, key) states (34k U in decision order, which takes the
singletons first), where the tree has 1.42M leaves.  The families under
interesting keys are then collected by the same sweep, with the family bits
that reach each (U, key) in place of its path count; it drops the states
from which no such key is still reachable, short of the last
_UNTESTED_PAIRS pairs.  It takes the pairs in decision order, singletons
first: its reach test compares layer counts, and those are fixed soonest
there (the six-job n=7 collection, 147 families, takes about 3-4 ms against
7-8 ms in frontier order).
Counting the families alone uses the same walk, with keys that record
nothing.  Isomorphism classes are S_n-orbits under relabelling of [n].
Their counts come from the orbit-counting lemma: for each cycle type the
invariant families are counted by the same walk over a pair system whose
items are the orbits of subsets under the permutation, an orbit's closure
being the union of its members' closures.  One builder makes every such
system, and the identity's, whose orbits are single subsets, is the subset
system itself.  An orbit system conflicts only inside one outcome (an orbit
holding two disjoint subsets), so once those outcomes are dropped its
completions too depend on U alone.  Achievers are grouped into classes by
orbit closure.  An S_n-orbit is built along the stabiliser chain
S_1 < S_2 < ... < S_n (Sims 1970; Butler, LNCS 559, 1991): the orbit under
the first k positions goes to the first k+1 through the k+1 coset
representatives (k k-1 ... j), each one adjacent delta swap on the image
before, so a member costs about one swap on the family bitset.  The theorem
cells of a pass are grouped together: each distinct orbit is closed once,
through its least member, encoded once, checked against every cell that
holds it and dropped.  The orbit of the shadow's valuable part, which the
uniqueness verdict and the rigidity lemma read, is closed once per pass
too.  So the benchmark's n=6 job set closes 30 orbits: the 29 distinct
orbits among the 59 achiever classes of its four theorem cells, and one
shadow orbit that two theorem cells and both lemma cells share.

A pass is the whole tree's key histogram with its kept families, and the
invariant-family totals of each non-identity cycle type.  At W workers it
is computed as W shares, one per process, each by the same function.  The
tree is split at its top into at least W start states whose subtrees
partition it (for W = 1, the root alone), and these are dealt to the W
processes in contiguous blocks.  The calling process forks W - 1 workers,
which divide the cycle types among them, computes its own share of the
last block meanwhile, counting the cycle types only when it is alone, and
merges into it the shares the workers send back, one pickle through one
pipe each.  So W > 1 needs os.fork, which POSIX systems have.  A subtree
walked on its own meets again the undecided sets it shares with the others,
but in the frontier order the root's two subtrees share few: at n=7 they
meet 3,658 and 9,283 U against 11,740 for the whole tree, at n=8 2.34M and
2.28M against 3.86M.  BENCH_split.json holds the (8,4,2) theorem and lemma
pass at two workers against a caller that walked the whole tree while a
worker only counted orbits, with the peak of each process.
A violation is built once per key, as its report entry without the family,
and paired with each family kept under the key.  One function, _violations,
sorts a per-family violation list by family bits, cuts it to its first
_VIOLATION_CAP entries and attaches each family; achievers are sorted before
their orbits are closed.  So every per-family collection is sorted before
reporting and cut only after that sort, and report bytes do not depend on
the worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from collections import Counter, defaultdict, namedtuple
from functools import lru_cache, reduce
from itertools import zip_longest
from math import comb, factorial
from operator import and_, or_
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .coeffs import coeff_table
from .families import hm_size
from .multiset import MultisetFamily, enumerate_k_multisets, count_k_multisets, support
from .params import Cap, InvariantError, Params, ParameterError, SearchCapError, frozen
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
# _KeyWalk._collect applies its reach test only while more than this many
# pairs are undecided.  At 0, 1, 2, 3, 4 and 5 (medians of 19 after a warm-up,
# three rounds, on a shared 2-core Xeon whose speed varied by half) the
# collection of the six-job n=7 pass, the common case, took 3.1-4.9, 2.9-4.6,
# 2.8-4.7, 2.8-4.7, 3.9-5.7 and 3.4-5.5 ms, that of the six-job n=6 pass
# 2.0-3.3, 2.0-3.4, 1.8-3.1, 1.7-2.8, 1.9-2.7 and 1.5-2.4 ms, and that of the
# (7,6,inf) pass, which keeps all 1.42M families, 0.60-0.91, 0.61-0.98,
# 0.69-0.95, 0.67-0.94, 0.57-0.85 and 0.55-0.80 s
_UNTESTED_PAIRS = 3

CHECK_REMOVED_LAYER = "removed-layer"
CHECK_LAYER_DOMINANCE = "layer-dominance"
CHECK_VALUABLE_RIGIDITY = "valuable-rigidity"
LEMMA_CHECKS = (CHECK_REMOVED_LAYER, CHECK_LAYER_DOMINANCE, CHECK_VALUABLE_RIGIDITY)


def _check_cap(n: int, cap_override: bool) -> None:
    if not isinstance(n, int):
        raise ParameterError(f"n must be an integer, got {n!r}")
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

_Tables = namedtuple("_Tables", "full up down")


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """Closure bitsets over the proper non-empty subsets of [n].

    up[x] is the family bitset of x and its proper supersets short of [n],
    down[x] that of x and its non-empty subsets.  Both are transitively
    closed: a member forces exactly up[x] in, a non-member exactly down[x] out.
    """
    full = (1 << n) - 1
    singles = [1 << e for e in range(n)]
    down = [0] * (full + 1)
    for x in range(1, full):
        down[x] = reduce(or_, (down[x ^ b] for b in singles if x & b), 1 << x)
    up = [0] * (full + 1)  # up[full] stays empty: [n] itself is never a member
    for x in range(full - 1, 0, -1):
        up[x] = reduce(or_, (up[x | b] for b in singles if not x & b), 1 << x)
    return _Tables(full=full, up=tuple(up), down=tuple(down))


def _orbit_system(n: int, perm: Sequence[int]):
    """The pair system of the families invariant under perm; None if there are none.

    Its items are the orbits of subsets under perm.  Each orbit and its
    complementary orbit form one pair, decided through their least member
    by (size, mask), the pairs in that order.  An orbit's closure is the
    union of its members' closures, which is again a union of orbits.  At
    the identity every orbit is one subset, so this is the subset system:
    one decision per complementary pair, through its smaller side.
    """
    t = _tables(n)
    claimed = 0
    decisions = []
    for x in sorted(range(1, t.full), key=lambda x: (x.bit_count(), x)):
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


@lru_cache(maxsize=None)
def _walk_steps(n: int, perm: tuple[int, ...]) -> tuple | None:
    """The orbit system of perm as _KeyWalk walks it: its steps in decision
    order (see _decision_steps) and the same in the order of
    _frontier_order, or None if no family is invariant under perm."""
    decisions = _orbit_system(n, perm)
    if decisions is None:
        return None
    steps = _decision_steps(n, decisions)
    return steps, _frontier_order(steps)


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
    index = {bit: j for j, (bit, _) in enumerate(steps)}  # an item's bit -> its step
    items = reduce(or_, index, 0)
    adjacent = []
    for _, outcomes in steps:
        decides = ~reduce(and_, (rest for _, rest in outcomes), -1) & items
        pairs = 0
        while decides:
            bit = decides & -decides
            pairs |= 1 << index[bit]
            decides ^= bit
        adjacent.append(pairs)
    order, reach, unplaced = [], 0, (1 << len(steps)) - 1
    candidates = [(1 << i, i) for i in range(len(steps))]  # the unplaced steps, in steps order
    for _ in steps:
        least = None
        for own, i in candidates:
            boundary = ((reach | adjacent[i]) & (unplaced ^ own)).bit_count()
            if least is None or boundary < least:
                least, pick = boundary, (own, i)
        candidates.remove(pick)
        unplaced ^= pick[0]
        reach |= adjacent[pick[1]]
        order.append(pick[1])
    return tuple(steps[i] for i in order)


class _KeyCodec:
    """Leaf keys packed into one int: additive fields below, cover masks above.

    The fields count a family's members on each layer l < n/2; the pair rule
    gives the other layers, count[n-l] = C(n, l) - count[l] and, for even n,
    count[n/2] = C(n, n/2) / 2.  Above the fields sits, per distinct size k
    of the windows, the n-bit mask of the elements some k-member avoids.
    The window (q, k) qualifies (its part of the family is non-empty with
    empty total intersection) iff that mask is full: only layer k matters,
    since the family is an up-set and k <= n-1, so a member of size in
    [q, k] that avoids an element lies inside a k-subset avoiding it, which
    is a member too.  A member x turns key into (key + add[x]) | cov[x], so
    the key of a disjoint union of member sets is the sum of their fields
    and the union of their masks.  Each field is as wide as its largest
    possible value, which the constructor checks: the contributions of all
    subsets together must decode to exactly those maxima.  One zero guard
    bit sits above each field, so that fields can be compared all at once
    by subtraction (see _KeyWalk._collect).  The counts serve the windows
    alone, so a codec with no windows packs no field and no mask: its only
    key is 0, and a walk with it counts the families and nothing else.
    """

    def __init__(self, n: int, windows: tuple):
        full = (1 << n) - 1
        self.n, self.full, self.windows = n, full, windows
        self.layers = range(1, (n + 1) // 2 if windows else 1)
        maxima = [comb(n, l) for l in self.layers]
        fields, width, self.guards = [], 0, 0
        for most in maxima:
            fields.append((width, (1 << most.bit_length()) - 1))
            width += most.bit_length()
            self.guards |= 1 << width
            width += 1
        self.fields = fields
        self.low = (1 << width) - 1  # the additive fields and their guard bits
        sizes = dict.fromkeys(k for _, k in windows)
        self.cover_shift = {k: width + j * n for j, k in enumerate(sizes)}
        self.add, self.cov = [0] * full, [0] * full
        for x in range(1, full):
            size = x.bit_count()
            if size in self.layers:
                self.add[x] = 1 << fields[size - 1][0]
            if size in self.cover_shift:
                self.cov[x] = (full ^ x) << self.cover_shift[size]
        total = sum(self.add)
        if total > self.low or [total >> s & m for s, m in fields] != maxima:
            raise InvariantError(f"a packed key field at n={n} is too narrow for its count")

    def decode(self, key: int) -> tuple:
        """The key as (layer counts 0..n, window flags); with no windows
        there are no flags and the counts are not the family's."""
        n, full, shift = self.n, self.full, self.cover_shift
        counts = [0] * (n + 1)
        for l, (at, mask) in zip(self.layers, self.fields):
            counts[l] = key >> at & mask
            counts[n - l] = comb(n, l) - counts[l]
        if n % 2 == 0:
            counts[n // 2] = comb(n, n // 2) // 2
        flags = tuple(key >> shift[k] & full == full for _, k in self.windows)
        return tuple(counts), flags


@lru_cache(maxsize=None)
def _key_codec(n: int, windows: tuple) -> _KeyCodec:
    return _KeyCodec(n, windows)


class _KeyWalk:
    """The packed keys of the maximal families on [n], counted, and the
    bits of the families under keys that keep marks.  steps is the pair
    system walked, as _walk_steps gives it: (decision order, frontier
    order), the identity's by default, which is the subset system; an
    orbit system is walked the same way.  The walk counts in frontier order
    and collects in decision order (collect_steps), where the reach test
    below prunes sooner; it gives the same histogram and kept families in
    any order of the steps.

    The walk starts from a list of start states (step index, U, family
    bits, key), the root [(0, proper, 0, 0)] by default.  split gives
    start states whose subtrees partition the tree, so walks from disjoint
    blocks of them count and keep disjoint sets of families; start states
    that share a U merge as two paths do.

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
    path to path.  For the n=7 pass of six jobs that is about 26k distinct
    (U, key) over 12k distinct U, at most 8k of them held at once, where
    the tree has 1.42M leaves (64k over 34k, 25k at once, in decision order).

    The families under kept keys are then collected by a second sweep of
    the same kind, which holds per (U, key) the bits of the families that
    reach it instead of their number.  While more than _UNTESTED_PAIRS
    pairs are undecided, it drops a (U, key) from which no kept key of the
    histogram is still reachable: each additive field grows by at most the
    members of U that feed it, and cover bits are only added.  The last
    pairs go untested, and at U = 0 keep picks the kept keys.
    """

    def __init__(self, n: int, codec: _KeyCodec,
                 keep: Callable[[int], bool] = lambda key: False, steps: tuple | None = None):
        self.collect_steps, self.steps = _walk_steps(n, tuple(range(n))) if steps is None else steps
        self.proper, self.codec, self.keep = (1 << codec.full) - 2, codec, keep
        self.root = [(0, self.proper, 0, 0)]
        self.low, self.guards = codec.low, codec.guards
        # per field: (its shift, the items that add to it)
        self.feeds = [(shift, sum(1 << x for x in range(1, codec.full) if codec.add[x] >> shift & mask))
                      for shift, mask in codec.fields]
        # a member set taken in at once -> its key as (cover masks, fields)
        self.deltas: dict[int, tuple[int, int]] = {}

    def _delta(self, new: int) -> tuple[int, int]:
        add, cov = self.codec.add, self.codec.cov
        masks = fields = 0
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

    def histogram(self, starts: list | None = None) -> tuple[Counter, dict[int, list[int]]]:
        """The key histogram of the leaves below starts, the root by default,
        and the families under kept keys among them."""
        starts = self.root if starts is None else starts
        hist = self._count(starts)
        targets = [k for k in hist if self.keep(k)]
        return hist, self._collect(targets, starts) if targets else {}

    def split(self, parts: int) -> list[tuple[int, int, int, int]]:
        """Start states (step index, U, family bits, key) whose subtrees
        partition the tree: the root's descendants level by level, until
        there are at least parts of them or all are leaves."""
        steps, plus = self.steps, self._plus
        starts = self.root
        while len(starts) < parts and any(u for _, u, _, _ in starts):
            children = []
            for idx, u, fam, key in starts:
                if not u:
                    children.append((idx, u, fam, key))
                    continue
                while not steps[idx][0] & u:
                    idx += 1
                for add_in, rest in steps[idx][1]:
                    new = add_in & u
                    children.append((idx + 1, u & rest, fam | new, plus(key, new)))
            starts = children
        return starts

    def _count(self, starts: list) -> Counter:
        steps, deltas, delta = self.steps, self.deltas, self._delta
        # per number of undecided items: U -> [a step index at or before
        # U's first undecided decision, {node key: paths}]
        levels: list = [{} for _ in range(self.proper.bit_count() + 1)]
        for idx, u, _, key in starts:  # start states that share a U merge as two paths do
            keys = levels[u.bit_count()].setdefault(u, [idx, {}])[1]
            keys[key] = keys.get(key, 0) + 1
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

    def _collect(self, targets: list[int], starts: list) -> dict[int, list[int]]:
        """The families below starts under the keys targets that keep marks.

        The same level sweep as _count in collect_steps order, each start
        state seeded at step 0 (a U's completions do not depend on the step
        order), with the list of family bits that reach each (U, key) where
        _count holds a path count.  While U holds more than 2 * _UNTESTED_PAIRS
        items, a (U, key) is kept only if some target is still reachable
        from it, and a U none of whose keys is kept has no children.  The
        fields are compared all at once, since with the guard bits set in
        the minuend a field's guard survives the subtraction iff that field
        did not go negative.  At U = 0 the keys that keep marks are the
        result."""
        steps, deltas, delta = self.collect_steps, self.deltas, self._delta
        low, guards, feeds = self.low, self.guards, self.feeds
        limit = 2 * _UNTESTED_PAIRS
        lifted = [(t & low | guards, t) for t in targets]
        # per number of undecided items: U -> [a step index at or before
        # U's first undecided decision, {node key: family bits}]
        levels: list = [{} for _ in range(self.proper.bit_count() + 1)]
        for _, u, fam, key in starts:
            levels[u.bit_count()].setdefault(u, [0, {}])[1].setdefault(key, []).append(fam)
        for size in range(len(levels) - 1, 0, -1):
            for u, (idx, keys) in levels[size].items():
                if size > limit:
                    # guards plus, per field, how many members of U could still add to it
                    room = guards | sum((u & feed).bit_count() << shift for shift, feed in feeds)
                    keys = {key: fams for key, fams in keys.items() if any(
                        (gap := target - (key & low)) & guards == guards
                        and (room - (gap ^ guards)) & guards == guards and (key & ~t) <= low
                        for target, t in lifted)}
                    if not keys:
                        continue
                while not steps[idx][0] & u:
                    idx += 1
                for add_in, rest in steps[idx][1]:
                    new = add_in & u
                    masks, fields = deltas.get(new) or deltas.setdefault(new, delta(new))
                    child = u & rest
                    into = levels[child.bit_count()].setdefault(child, [idx + 1, {}])[1]
                    for k, fams in keys.items():
                        into.setdefault((k | masks) + fields, []).extend([fam | new for fam in fams])
            levels[size] = None
        return {k: fams for k, fams in levels[0].get(0, (0, {}))[1].items() if self.keep(k)}


def _leaves(steps: tuple, idx: int, undecided: int) -> Iterator[int]:
    """Yield every completion T of an undecided set, depth first.

    steps is a pair system in the form of _decision_steps, and the walk
    starts at its step idx: no step before it may have its bit in
    undecided.  Each state is (step index, U, the members taken
    in so far); a leaf, U = 0, yields them.  Outcomes are taken in their
    listed order, the first outcome's subtree before the second's, so the
    order of the leaves is fixed by steps alone: from the identity's
    decision order and the whole proper set, it is the order
    enumerate_maximal_families yields.  The stack holds at most one
    state per step, and no leaf is held once yielded.  It serves
    enumeration alone: _KeyWalk counts and collects by sweeping U.
    """
    stack = [(idx, undecided, 0)]
    while stack:
        idx, u, fam = stack.pop()
        if not u:
            yield fam
            continue
        while not steps[idx][0] & u:
            idx += 1
        # pushed last outcome first, so that the first is walked first
        for add_in, rest in reversed(steps[idx][1]):
            stack.append((idx + 1, u & rest, fam | add_in & u))


# ---------------------------------------------------------------------------
# relabellings: cycle types for invariant-family counting, orbit closure
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


def _nonidentity_types(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The non-identity cycle types as (permutation, class size), those with
    the most cycles first; the transposition, whose invariant families are
    by far the most, leads."""
    return [(perm, size) for perm, size in reversed(_cycle_type_reps(n))
            if any(perm[i] != i for i in range(n))]


def _cycle_type_totals(n: int, windows: Sequence[tuple[int, int]],
                       perm: tuple[int, ...], class_size: int) -> list[int]:
    """class_size times the number of families invariant under perm: first
    all of them, then those qualifying for each window."""
    totals = [0] * (1 + len(windows))
    steps = _walk_steps(n, perm)
    if steps is None:
        return totals
    codec = _key_codec(n, tuple(windows))
    hist = _KeyWalk(n, codec, steps=steps).histogram()[0]
    for key, count in hist.items():
        for i, ok in enumerate((True, *codec.decode(key)[1])):
            if ok:
                totals[i] += class_size * count
    return totals


def _nonidentity_sum(totals: Iterable[list[int]]) -> list[int]:
    """The _cycle_type_totals of the non-identity cycle types summed entry by
    entry: the orbit-counting lemma's sum over those types of class_size *
    invariant-family count, first over all invariant families, then over
    those qualifying for each window.  An empty list, the sum over no cycle
    types, adds nothing."""
    return [sum(column) for column in zip_longest(*totals, fillvalue=0)]


def count_maximal_families(n: int, cap_override: bool = False) -> int:
    """Number of maximal intersecting families on [n], counted over undecided sets."""
    _check_cap(n, cap_override)
    return _KeyWalk(n, _key_codec(n, ())).histogram()[0][0]


def count_iso_classes(n: int, cap_override: bool = False) -> int:
    """Number of isomorphism classes of maximal intersecting families on [n],
    by the orbit-counting lemma over every cycle type, the identity's
    class of size 1 included."""
    _check_cap(n, cap_override)
    return _orbit_count(n, sum(_cycle_type_totals(n, (), *cycle_type)[0]
                               for cycle_type in _cycle_type_reps(n)))


def _orbit_count(n: int, burnside_total: int) -> int:
    """Burnside's lemma: the fixed-point total over S_n divided by n!."""
    classes, rest = divmod(burnside_total, factorial(n))
    if rest:
        raise InvariantError(f"orbit-counting total {burnside_total} is not a multiple of {n}!")
    return classes


def _orbit(n: int, bits: int) -> set[int]:
    """The S_n-orbit of a family bitset, by the coset chain over all n positions."""
    return _swap_closure(bits, (_transpositions(n),))


# ---------------------------------------------------------------------------
# enumeration front ends
# ---------------------------------------------------------------------------

def enumerate_maximal_families(n: int, up_to_iso: bool = False,
                               cap_override: bool = False) -> Iterator[SetFamily]:
    """An iterator over every maximal intersecting family on [n], each once.

    With up_to_iso, it yields the first-enumerated representative of each
    isomorphism class instead.  Enumeration order is the depth-first order
    of the pair search in decision order (see _leaves) and is stable across
    runs.  Each family is yielded as the walk reaches it; the walk keeps
    none.  n and the guard are checked at the call, before any family is
    asked for.
    """
    _check_cap(n, cap_override)
    return _stream(n, _leaves(_walk_steps(n, tuple(range(n)))[0], 0, (1 << ((1 << n) - 1)) - 2),
                   up_to_iso)


def _stream(n: int, leaves: Iterator[int], up_to_iso: bool) -> Iterator[SetFamily]:
    """The families of leaves, or with up_to_iso the first met of each orbit."""
    if not up_to_iso:
        for bits in leaves:
            yield SetFamily(n=n, bits=bits)
        return
    # every relabelling of a maximal family is maximal, hence enumerated once
    claimed: set[int] = set()
    for bits in leaves:
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

_JobConstants = namedtuple("_JobConstants", "coeffs bound v_sizes")


@lru_cache(maxsize=None)
def _job_constants(p: Params) -> _JobConstants:
    return _JobConstants(
        coeffs=coeff_table(p.k, p.m).values,
        bound=hm_size(p),
        v_sizes=tuple(hm_shadow_layer_size(p, l) for l in range(p.n + 1)),
    )


def _windows(jobs: Sequence[tuple[str, Params]]) -> tuple:
    """The windows (q, k) that a pass's keys record, in job order."""
    return tuple(dict.fromkeys((p.q, p.k) for _, p in jobs))


def _findings(job: tuple[str, Params], key: tuple, windows: tuple) -> list | None:
    """What a family with this key means to one job.

    None when the family does not qualify for the job's window; otherwise
    its findings, empty when it is neither an achiever, a violation nor a
    rigidity candidate.  An achiever or a rigidity candidate is its bare
    marker, ACHIEVER or RIGIDITY_CANDIDATE; a violation is its report entry
    without the family, one dict shared by every family under the key.  The
    key is (layer counts 0..n, window flags), one flag per entry of windows.
    A lemma job has no removed-layer finding: its window qualifies, so some
    k-member avoids element 1, and by the pair rule the complement of that
    member, an (n-k)-subset in the star's layer n-k, is no member.
    """
    kind, p = job
    counts, flags = key
    if not flags[windows.index((p.q, p.k))]:
        return None
    c = _job_constants(p)
    if kind == THEOREM:
        size = sum(c.coeffs[l] * counts[l] for l in range(p.q, p.k + 1))
        if size == c.bound:
            return [ACHIEVER]
        return [{"type": "bound-exceeded", "size": size, "bound": c.bound}] if size > c.bound else []
    v = c.v_sizes
    found = [{"type": "layer-dominance-failed", "layer": l, "count": counts[l], "shadow_layer_size": v[l]}
             for l in range(2, p.w + 1) if counts[l] > v[l]]
    if v[p.q] and counts[p.q] == v[p.q]:
        bad = [l for l in range(p.q, p.k + 1) if counts[l] != v[l]]
        found.append({"type": "valuable-layer-mismatch", "layer": bad[0], "count": counts[bad[0]],
                      "shadow_layer_size": v[bad[0]]} if bad else RIGIDITY_CANDIDATE)
    return found


def _share(n: int, jobs: tuple, block: list, types: list
           ) -> tuple[Counter, dict[tuple, list[int]], list[int]]:
    """One process's share of a pass over jobs: the key histogram of the
    maximal families on [n] below block, a list of start states (see
    _KeyWalk.split), and the bits of the families under interesting keys
    among them, both keyed by decoded key; then the _nonidentity_sum of the
    cycle types in types.  Whether a key is interesting is decided the first
    time it is seen."""
    windows = _windows(jobs)
    codec = _key_codec(n, windows)
    decode = lru_cache(maxsize=None)(codec.decode)

    @lru_cache(maxsize=None)
    def keep(key: int) -> bool:
        decoded = decode(key)
        return any(_findings(job, decoded, windows) for job in jobs)

    packed, packed_kept = _KeyWalk(n, codec, keep).histogram(block)
    hist, kept = Counter(), {}
    for key, count in packed.items():
        hist[decode(key)] += count
    for key, fams in packed_kept.items():
        kept.setdefault(decode(key), []).extend(fams)
    return hist, kept, _nonidentity_sum(_cycle_type_totals(n, windows, *cycle_type)
                                        for cycle_type in types)


def _worker(reader: int, writer: int, *share) -> NoReturn:
    """A forked worker of _run_pass: write the pickle of (True, its _share)
    or (False, the exception that stopped it) to its pipe in one write, and
    exit.  Every path, SystemExit and KeyboardInterrupt included, ends in
    os._exit, so the child never returns into the caller's code and never
    flushes the stdio buffers it inherited."""
    code = 1
    try:
        os.close(reader)  # else a worker whose caller died could block on a full pipe for ever
        try:
            result = (True, _share(*share))
        except Exception as exc:
            result = (False, exc)
        with open(writer, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


def _run_pass(n: int, jobs: Sequence[tuple[str, Params]], workers: int
              ) -> tuple[Counter, dict[tuple, list[int]], list[int]]:
    """One enumeration pass: the key histogram of the maximal families on [n],
    the bits of the families under interesting keys, and the orbit-counting
    totals over the non-identity cycle types (see _nonidentity_sum; empty
    when the jobs have no windows).

    The tree is split into at least workers start states (_KeyWalk.split;
    for one worker, the root alone), dealt to the processes in contiguous
    blocks.  This process forks workers - 1 workers with os.fork, each with
    a one-way pipe, its block and the static share types[i::workers-1] of
    the cycle types (most cycles first), computes its own _share of the last
    block meanwhile, with every cycle type if it is alone and none
    otherwise, and then reads each worker's pickled share to the end of its
    pipe and merges it into its own: it adds their histograms, joins their
    kept families and sums their orbit totals.  The start states partition
    the tree's root-to-leaf paths, and keep looks at the key alone, so each
    family is counted and kept by exactly one process; an undecided set met
    below two blocks is walked twice, but its paths are counted once.  A
    worker's exception is raised again here, and a worker that exits without
    sending raises RuntimeError.  Every worker is sent SIGTERM and reaped
    before this returns or raises.  It needs os.fork for workers > 1, which
    run_verification checks.
    """
    jobs = tuple(jobs)
    windows = _windows(jobs)
    types = _nonidentity_types(n) if windows else []
    # the subset system's steps and the codec are built here, so that every
    # forked worker inherits them instead of building its own
    starts = _KeyWalk(n, _key_codec(n, windows)).split(workers)
    blocks = [starts[len(starts) * i // workers:len(starts) * (i + 1) // workers]
              for i in range(workers)]
    procs = workers - 1
    if procs:
        # a worker holds a copy of these buffers: were it to flush them, the
        # caller's pending output would appear twice
        sys.stdout.flush()
        sys.stderr.flush()
    pids, readers = [], []  # the workers not yet reaped, and the read end of every pipe
    try:
        for i in range(procs):
            reader, writer = os.pipe()
            readers.append(reader)
            try:
                pid = os.fork()
                if not pid:
                    _worker(reader, writer, n, jobs, blocks[i], types[i::procs])
            finally:
                os.close(writer)  # so that a worker's exit without sending reads as EOF
            pids.append(pid)
        hist, kept, orbits = _share(n, jobs, blocks[-1], [] if procs else types)
        sums = [orbits]
        for pid, reader in zip(pids, readers):
            with open(reader, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                status = os.waitpid(pid, 0)[1]
                pids.remove(pid)  # reaped, so its pid may be reused: signal it no more
                raise RuntimeError(f"a pass worker exited with code "
                                   f"{os.waitstatus_to_exitcode(status)} before sending its results")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            part_hist, part_kept, part_sum = value
            hist.update(part_hist)
            for key, fams in part_kept.items():
                kept.setdefault(key, []).extend(fams)
            sums.append(part_sum)
    finally:
        for reader in readers:
            os.close(reader)
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
    return hist, kept, _nonidentity_sum(sums)


def _tally(job: tuple[str, Params], hist: Counter, kept: dict, windows: tuple
           ) -> tuple[int, dict[str, list]]:
    """The families one job checked, and its findings by name: under a
    marker its family bitsets, sorted; under a violation type the (family
    bits, entry) pair of each family, unsorted (_violations sorts them).
    Every family under one key shares that key's entry."""
    checked = 0
    found: dict[str, list] = defaultdict(list)
    for key, count in hist.items():
        findings = _findings(job, key, windows)
        if findings is None:
            continue
        checked += count
        for finding in findings:
            if finding in (ACHIEVER, RIGIDITY_CANDIDATE):
                found[finding] += kept[key]
            else:
                found[finding["type"]] += [(bits, finding) for bits in kept[key]]
    for marker in (ACHIEVER, RIGIDITY_CANDIDATE):
        found[marker].sort()
    return checked, found


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _violations(n: int, pairs: list[tuple[int, dict]]) -> list[dict]:
    """The report entries of one per-family violation list: the (family
    bits, entry) pairs sorted by family bits, stably, so that one family's
    entries keep their order, cut to the first _VIOLATION_CAP, and each
    entry copied with its family attached.  The entry itself is shared by
    every family under its key and is never changed."""
    return [{**entry, "family": [list(m) for m in SetFamily(n=n, bits=bits).member_sets()]}
            for bits, entry in sorted(pairs, key=lambda pair: pair[0])[:_VIOLATION_CAP]]


def _achiever_classes(n: int, cells: Sequence[Sequence[int]]
                      ) -> list[list[tuple[SetFamily, int, tuple]]]:
    """Each cell's achievers as S_n-orbits: (least member, orbit size, canonical encoding), by encoding.

    Each cell is a sorted list of family bitsets.  Achieving is invariant
    under relabelling, so a cell's achievers must be a union of orbits.  An
    orbit is closed when the first cell that holds it reaches its least
    member, checked against that cell and every later one holding the
    member, and dropped: each distinct orbit is closed once and encoded
    once, through its least member.
    """
    unclaimed = [set(cell) for cell in cells]
    classes: list[list] = [[] for _ in cells]
    for i, (cell, own) in enumerate(zip(cells, unclaimed)):
        for bits in cell:
            if bits not in own:
                continue
            orbit = _orbit(n, bits)
            least = SetFamily(n=n, bits=bits)
            encoding = canonical_set_family(least)
            for rest, out in zip(unclaimed[i:], classes[i:]):
                if bits not in rest:
                    continue
                if not orbit <= rest:
                    raise InvariantError(f"a relabelling of achiever {bits:#x} is not an achiever")
                rest -= orbit
                out.append((least, len(orbit), encoding))
    for out in classes:
        out.sort(key=lambda item: item[2])
    return classes


def _finalize_theorem(p: Params, checked: int, found: dict, families_total: int,
                      iso_classes: int, runtime_ms: int | None, classes: list,
                      shadow_orbit: Callable[[Params], set[int]]) -> TheoremReport:
    """The theorem report of one cell, from its achiever classes and its shadow's orbit."""
    n = p.n
    bound = _job_constants(p).bound
    violations = _violations(n, found["bound-exceeded"])
    if uniqueness_condition(p):
        # the multiset family is fixed by its valuable part, so uniqueness
        # counts the S_n-orbits of the achievers' valuable parts
        shadow = shadow_orbit(p)
        valuable = [valuable_part(fam, p).bits for fam, _, _ in classes]
        valuable_orbits = len({min(shadow if vp in shadow else _orbit(n, vp))
                               for vp in valuable})
        verdict = "unique-iso" if valuable_orbits == 1 else "multiple-iso"
        if valuable_orbits != 1:
            violations.append({"type": "uniqueness-failed", "achiever_classes": valuable_orbits})
        violations += [{"type": "achiever-not-shadow", "family": [list(m) for m in enc]}
                       for (_, _, enc), vp in zip(classes, valuable) if vp not in shadow]
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
                     iso_classes: int, runtime_ms: int | None,
                     shadow_orbit: Callable[[Params], set[int]]) -> dict[str, LemmaReport]:
    n = p.n
    v_sizes = _job_constants(p).v_sizes
    shadow = shadow_orbit(p)
    candidates = found[RIGIDITY_CANDIDATE]
    not_shadow = {"type": "valuable-part-not-isomorphic"}
    dominance = _violations(n, found["layer-dominance-failed"])
    rigid = _violations(n, found["valuable-layer-mismatch"]) + _violations(n, [
        (bits, not_shadow) for bits in candidates
        if valuable_part(SetFamily(n=n, bits=bits), p).bits not in shadow])
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
        # no qualifying family holds the star's layer n-k (see _findings)
        CHECK_REMOVED_LAYER: make(CHECK_REMOVED_LAYER, [], checked),
        CHECK_LAYER_DOMINANCE: make(CHECK_LAYER_DOMINANCE, dominance, checked),
        CHECK_VALUABLE_RIGIDITY: make(CHECK_VALUABLE_RIGIDITY, rigid, len(candidates)),
    }


@frozen
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
    if not isinstance(workers, int) or workers < 1:
        raise ParameterError(f"workers must be an integer of at least 1, got {workers!r}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ParameterError(f"workers > 1 needs os.fork, which this platform lacks, got {workers}")
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
    windows = _windows(jobs)

    runtime_ms = int((time.monotonic() - started) * 1000) if timing else None

    tallies = [_tally(job, hist, kept, windows) for job in jobs]
    # every distinct orbit is closed once per pass: the achiever orbits
    # across the theorem cells, and the shadow's valuable part per window.
    # The achievers leave their tallies, so that their lists are freed
    # once the orbits are claimed: (7,6,inf) has 1.42M of them.
    classes = iter(_achiever_classes(n, [found.pop(ACHIEVER, [])
                                         for (kind, _), (_, found) in zip(jobs, tallies)
                                         if kind == THEOREM]))
    shadow_orbits: dict[int, set[int]] = {}

    def shadow_orbit(p: Params) -> set[int]:
        bits = hm_shadow_valuable(p).bits
        if bits not in shadow_orbits:
            shadow_orbits[bits] = _orbit(n, bits)
        return shadow_orbits[bits]

    theorem_reports = []
    lemma_bundles = []
    for (kind, p), (checked, found) in zip(jobs, tallies):
        iso_classes = _orbit_count(n, checked + nonidentity[1 + windows.index((p.q, p.k))])
        if kind == THEOREM:
            theorem_reports.append(_finalize_theorem(
                p, checked, found, families_total, iso_classes, runtime_ms,
                next(classes), shadow_orbit))
        else:
            lemma_bundles.append(_finalize_lemmas(
                p, checked, found, families_total, iso_classes, runtime_ms, shadow_orbit))
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
    has a non-empty layer at size n-k.  The pair rule makes this hold for
    every one (see _findings), so the report lists no violation."""
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
    """Theorem verification over every admissible (n, k, m), one pass per n.

    A cell named more than once is verified and reported once.  A grid
    with no admissible cell is a ParameterError, not an empty report.
    """
    by_n: dict[int, list[Params]] = {}
    for k in k_values:
        for m in m_values:
            p0 = Params(max(1, k), k, m)
            for n in range(k + p0.q, n_max + 1):
                by_n.setdefault(n, []).append(Params(n, k, m))
    if not by_n:
        raise ParameterError(f"no cell of the grid is admissible (n >= k + q) with n <= {n_max}")
    reports: list[TheoremReport] = []
    for n in sorted(by_n):
        results = run_verification(
            n, theorem_params=list(dict.fromkeys(by_n[n])), workers=workers,
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
