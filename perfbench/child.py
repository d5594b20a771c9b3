"""One pass of a workload in a fresh interpreter; prints one JSON line.

Usage: python3 -s perfbench/child.py ROOT SPAWNED_AT WORKLOAD SEED PASS TRACE
       python3 -s perfbench/child.py ROOT SPAWNED_AT --import-only

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_s covers interpreter start-up
and the import of msfam.  A fresh process per pass is what a CLI user pays,
and it keeps msfam's per-process caches from carrying over between passes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

root, spawned_at = sys.argv[1], float(sys.argv[2])
src = os.path.join(root, "src")
sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)), src]

import msfam  # noqa: E402

setup_s = time.monotonic() - spawned_at
if not os.path.abspath(msfam.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"msfam was imported from {msfam.__file__}, not from {src}")
if sys.argv[3] == "--import-only":
    print(json.dumps({"setup_s": setup_s}))
    sys.exit(0)

from tracer import Tracer  # noqa: E402
from workloads import check_reports, report_counts, run_workload  # noqa: E402

name, seed, pass_index, trace = sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6] == "1"


def cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


tracer = Tracer() if trace else None
if tracer:
    tracer.install()
cpu_self, cpu_children = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
started = time.perf_counter()
try:
    texts = run_workload(msfam, name, seed, pass_index, tracer.span if tracer else None)
    failures = check_reports(name, texts)
except Exception as exc:  # a raising pass is a failed pass, reported like a failed check
    texts, failures = {}, [f"raised {type(exc).__name__}: {exc}"]
wall_s = time.perf_counter() - started
child_cpu_s = cpu(resource.RUSAGE_CHILDREN) - cpu_children
result = {
    "ok": not failures,
    "failures": failures[:20],
    "wall_s": wall_s,
    "cpu_s": cpu(resource.RUSAGE_SELF) - cpu_self + child_cpu_s,
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped child
    "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024,
    "setup_s": setup_s,
}
if tracer:
    tracer.uninstall()
    result["layers"] = tracer.metrics(report_counts(texts), child_cpu_s)
    result["missing"] = tracer.missing
print(json.dumps(result))
