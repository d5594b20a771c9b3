"""In-memory spans around msfam's layer boundaries, and the per-layer metrics.

Wrappers are installed by attribute name on the module that makes the call,
so they see exactly the calls one layer makes into another.  A name that no
longer exists is recorded as missing and its metrics read 0; the pass goes on.
Spans stay in memory and are reduced to metrics when the pass ends.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module:attribute path, layer name, what to count from the return value)
TARGETS = (
    ("msfam.search:set_families_isomorphic", "subsets.isomorphic", "match"),
    ("msfam.search:canonical_set_family", "subsets.canonical", None),
    ("msfam.canonical:find_isomorphism", "canonical.find_isomorphism", None),
    ("msfam.canonical:canonical_vectors", "canonical.canonical_vectors", None),
    ("msfam.search:hm_size", "families.hm_size", None),
    ("msfam.search:coeff_table", "coeffs.coeff_table", None),
    ("msfam.families:coeff_table", "coeffs.coeff_table", None),
    ("multiprocessing.pool:Pool.map", "pool.map", None),
    # count only: leaves of the identity enumeration, the families count_iso_classes visits
    ("msfam.search:_dfs_subsets", None, "leaves"),
)


class Tracer:
    """Spans as [name, start, end, parent index]; counters keyed by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def install(self, targets=TARGETS) -> None:
        for target, layer, count in targets:
            module_name, _, path = target.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            setattr(owner, attr, self._wrapper(original, layer, count))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, layer, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(layer) if layer else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                if layer:
                    tracer._close(idx)
            if count == "match":
                tracer.counters["subsets.isomorphic.matches"] += bool(result[0])
            elif count == "leaves":
                tracer.counters["search.leaves"] += result
            return result

        return traced

    def metrics(self, counts: dict[str, int], child_cpu_s: float) -> dict[str, float]:
        """Per-layer metrics of one pass.

        counts carries what the reports state (families, families_checked,
        achievers); child_cpu_s is the CPU time of the pass's child processes.
        """
        calls, busy, self_time = reduce_spans(self.spans)
        families = counts["families"] or self.counters["search.leaves"]
        iso_calls = calls["subsets.isomorphic"]
        map_s = busy["pool.map"]
        out = {
            "search.calls": calls["search"],
            "search.busy_s": busy["search"],
            "search.self_s": self_time["search"],
            "search.families_per_self_s": families / self_time["search"] if self_time["search"] else 0.0,
            "search.families": families,
            "search.families_checked": counts["families_checked"],
            "search.achievers": counts["achievers"],
            "subsets.isomorphic.match_ratio":
                self.counters["subsets.isomorphic.matches"] / iso_calls if iso_calls else 0.0,
            "reporting.json.bytes": counts["bytes"],
            "pool.map_s": map_s,
            "pool.child_cpu_s": child_cpu_s,
            "pool.busy_cores": child_cpu_s / map_s if map_s else 0.0,
            "pool.parent_s": pool_parent_s(self.spans),
        }
        for layer in ("subsets.isomorphic", "subsets.canonical", "canonical.find_isomorphism",
                      "canonical.canonical_vectors", "reporting.json"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
        out["families.hm_size.busy_s"] = busy["families.hm_size"]
        out["coeffs.coeff_table.busy_s"] = busy["coeffs.coeff_table"]
        return out


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def reduce_spans(spans) -> tuple[Counter, Counter, Counter]:
    """Calls, busy time and self time per layer name.

    Busy time counts only spans with no enclosing span of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration minus
    the time its direct children cover; children of one span never overlap,
    because every span opens and closes on the caller's stack.
    """
    calls, busy, self_time = Counter(), Counter(), Counter()
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - covered[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += end - start
    return calls, busy, self_time


def pool_parent_s(spans) -> float:
    """Time of the search calls that used the pool, outside Pool.map: the serial part."""
    in_map: dict[int, float] = {}
    for name, start, end, parent in spans:
        if name != "pool.map":
            continue
        while parent >= 0 and spans[parent][0] != "search":
            parent = spans[parent][3]
        if parent >= 0:
            in_map[parent] = in_map.get(parent, 0.0) + end - start
    return sum(spans[idx][2] - spans[idx][1] - t for idx, t in in_map.items())
