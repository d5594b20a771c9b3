"""Compare two sets of benchmark runs, per workload and end-to-end metric.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved standard output of untraced runs
(`run.py ... --trace 0 > DIR/NAME.out`), one file per run.  Files are paired
in name order within each workload, so name them so that the i-th base run
and the i-th new run were made back to back, alternating which went first.

Verdicts, per the rules the benchmark follows:
  improved    at least 10 pairs, the new side wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the base side's interquartile distance;
  no worse    the new median is not worse than the base median by more than
              the metric's bound, and the base spread (interquartile distance
              over median) is within the bound; or every new run beats every
              base run;
  unresolved  the base spread is wider than the bound;
  worse       the new median is worse than the base median by more than the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory: str) -> dict[str, list[dict]]:
    """workload -> metric values of each untraced run, in file name order."""
    runs: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        detail = next((json.loads(line[len("detail "):]) for line in lines
                       if line.startswith("detail ")), None)
        if detail is None or detail["trace"]:
            continue
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(detail["workload"], []).append(values)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], lower_is_better: bool, bound: float) -> dict:
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    b1, b2, b3 = quartiles(base)
    n1, n2, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(better(nv, bv) for bv, nv in pairs)
    gain = (b2 - n2) if lower_is_better else (n2 - b2)
    spread = (b3 - b1) / abs(b2) if b2 else float("inf")
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        outcome = "improved"
    elif all(better(nv, bv) for nv in new for bv in base):
        outcome = "no worse"
    elif spread > bound:
        outcome = "unresolved"
    elif -gain <= bound * abs(b2):
        outcome = "no worse"
    else:
        outcome = "worse"
    return {
        "base": (b1, b2, b3), "new": (n1, n2, n3), "pairs": len(pairs),
        "won": wins / len(pairs) if pairs else 0.0, "base_spread": spread, "verdict": outcome,
    }


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':<14} {'metric':<16} {'base q1/median/q3':<32} {'new q1/median/q3':<32} "
          f"{'pairs':>5} {'won':>5} {'spread':>7} verdict")
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            name = m["name"]
            b = [r[name] for r in base[workload]]
            n = [r[name] for r in new[workload]]
            v = verdict(b, n, m["better"] == "lower", m["bound"])
            print(f"{workload:<14} {name:<16} {_fmt(v['base']):<32} {_fmt(v['new']):<32} "
                  f"{v['pairs']:>5} {v['won']:>5.0%} {v['base_spread']:>7.1%} {v['verdict']}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload:<14} runs on one side only; not compared")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
