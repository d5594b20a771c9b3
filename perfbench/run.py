"""msfam verification benchmark: one workload, measured for a stated time.

Usage:
    python3 perfbench/run.py --workload verify-n7 --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh interpreter (perfbench/child.py): one client, a
closed loop, no warm-up, because a CLI user pays import and table building on
every invocation.  Passes repeat while the next one, taken as long as the
median pass so far, would end within --seconds (at least one).
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it makes one untraced pass and then traced passes, and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it give every metric by name with its unit and sample
count, and a `detail` line with the samples and the machine context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import FAMILIES_TOTAL, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9  # import-only interpreters per run, besides one per pass
RUN_LIMIT_S = 170  # a run must end within 180 s; no pass starts that would cross this
# No PYTHONPATH or start-up file from the caller; a fixed string-hash seed keeps
# dict layouts, and so the timings, the same from one interpreter to the next.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONHASHSEED"] = "0"


def machine_context() -> dict:
    """Read-only facts about the box, so a slow box can be told from slow code."""
    context = {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    context["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    context["usable_cpus"] = len(os.sched_getaffinity(0))
    return context


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others while this VM wanted it, summed over CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run child.py in its own session; returns (parsed last line, error text)."""
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), ROOT, repr(time.monotonic()), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=CHILD_ENV, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and any pool workers it started
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-500:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"unreadable output: {out.strip()[-200:]!r}"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "msfam", "__init__.py")):
        print(f"error: no msfam source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    context = machine_context()
    context["loadavg_start"] = loadavg()
    steal_start = steal_s()

    setup = []
    for _ in range(SETUP_SAMPLES):
        got, error = run_child(["--import-only"], RUN_LIMIT_S)
        if got is None:
            print(f"error: msfam does not import: {error}", file=sys.stderr)
            return 2
        setup.append(got["setup_s"])

    n = WORKLOADS[args.workload][0]
    untraced, traced, failures, missing = [], [], [], set()
    attempted = failed = 0
    durations = []
    while True:
        elapsed = time.monotonic() - started
        need_traced = args.trace and attempted < 2
        # No pass starts that, taking the median pass time so far, would end
        # after --seconds: the run's length, and so the whole evaluation's, stays
        # within its budget however long a pass takes on the machine at hand.
        if attempted and not need_traced and elapsed + median(durations) > args.seconds:
            break
        if attempted and elapsed + max(durations) > RUN_LIMIT_S:
            break
        trace_pass = args.trace and attempted > 0  # a traced run starts with one untraced pass
        pass_started = time.monotonic()
        got, error = run_child(
            [args.workload, str(args.seed), str(attempted), "1" if trace_pass else "0"],
            RUN_LIMIT_S + 5 - elapsed,
        )
        durations.append(time.monotonic() - pass_started)
        attempted += 1
        if got is None:
            failures.append(f"pass {attempted - 1}: {error}")
            failed += 1
            continue
        if not got["ok"]:
            failures += [f"pass {attempted - 1}: {f}" for f in got["failures"]]
            failed += 1
        setup.append(got["setup_s"])
        (traced if trace_pass else untraced).append(got)
        missing.update(got.get("missing", ()))

    samples = {
        "wall_s": [p["wall_s"] for p in untraced],
        "families_per_s": [FAMILIES_TOTAL[n] / p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "setup_s": setup,
    }
    values = {name: median(v) for name, v in samples.items()}
    counts = {name: len(v) for name, v in samples.items()}
    if args.trace:
        for name in traced[0]["layers"] if traced else ():
            layer_samples = [p["layers"][name] for p in traced]
            values[name], counts[name] = median(layer_samples), len(layer_samples)
        traced_wall = median([p["wall_s"] for p in traced])
        values["trace.overhead_frac"] = traced_wall / values["wall_s"] - 1 if values["wall_s"] else 0.0
        counts["trace.overhead_frac"] = len(traced)
    context["loadavg_end"] = loadavg()
    steal_end = steal_s()
    if steal_start is not None and steal_end is not None:
        context["steal_s"] = round(steal_end - steal_start, 2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {attempted}  elapsed {time.monotonic() - started:.1f} s")
    print("machine " + " ".join(f"{k}={v}" for k, v in context.items()))
    for metric in declared:
        name = metric["name"]
        print(f"  {name:<36} {values.get(name, 0.0):>14.6g} {metric['unit']:<6} "
              f"median of {counts.get(name, 0)}")
    print(f"  {'fail_frac':<36} {failed / attempted:>14.6g} {'frac':<6} {failed} of {attempted} passes")
    for note in sorted(missing):
        print(f"  missing: {note} (its metrics read 0)")
    for failure in failures:
        print(f"  FAILED {failure}")
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": context, "samples": samples,
        "fail_frac": failed / attempted, "missing": sorted(missing), "failures": failures,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
