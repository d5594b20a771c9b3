"""Workload definitions, the correctness anchors and the report check.

Every workload drives msfam only through its public functions
(`run_verification`, `count_iso_classes`, `to_canonical_json`).  The anchors
below come from the paper's statements and the seed commit's reports, not
from the code under test, so a change that alters a verdict, a bound or a
single report byte is counted as a failed pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext

INF = "inf"

# The {4,5} x {2,3,inf} grid of the acceptance suite, restricted to the cells
# that are admissible (n >= k + q) at each n.
THEOREM_CELLS = {
    6: ((4, "2"), (4, "3"), (4, INF), (5, INF)),
    7: ((4, "2"), (4, "3"), (4, INF), (5, "3"), (5, INF)),
}
LEMMA_CELLS = {
    6: ((4, "2"), (4, INF)),
    7: ((4, "2"),),
}

# name -> (n, workers); None means count_iso_classes instead of a verification pass
WORKLOADS = {
    "verify-n7": (7, 1),
    "verify-n6": (6, 1),
    "enum-n7": (7, None),
    "verify-n7-w2": (7, 2),
}

FAMILIES_TOTAL = {6: 2646, 7: 1422564}
ISO_CLASSES = {7: 716}
BOUNDS = {
    (6, 4, "2"): 45, (6, 4, "3"): 53, (6, 4, INF): 53, (6, 5, INF): 126,
    (7, 4, "2"): 67, (7, 4, "3"): 75, (7, 4, INF): 75, (7, 5, "3"): 196, (7, 5, INF): 206,
}
EXPECTED_VERDICTS = {
    (6, 4, "2"): "not-applicable",
    (6, 4, "3"): "unique-iso",
    (6, 4, INF): "unique-iso",
    (6, 5, INF): "not-applicable",
    (7, 4, "2"): "unique-iso",
    (7, 4, "3"): "unique-iso",
    (7, 4, INF): "unique-iso",
    (7, 5, "3"): "unique-iso",
    (7, 5, INF): "unique-iso",
}
CLASS_SIZES = {
    (7, 4, "2"): [105], (7, 4, "3"): [105], (7, 4, INF): [105],
    (7, 5, "3"): [42], (7, 5, INF): [42],
}

# sha256 of the keyed canonical report bytes (see report_bytes), recorded at
# the seed commit.  verify-n7-w2 must reproduce the verify-n7 bytes exactly.
DIGESTS = {
    "verify-n7": "39f24bdfa244615e33ad08b33bfd62b47738fb36be58ec05e56ac58e7aaf35fb",
    "verify-n6": "4cc1ffc8c3eb03640c7878aa63d4b3abd38535fb25c9f358f10c41778bc99743",
    "enum-n7": "1730670cce9bf3a6c06c04f1cabef3427d43ca8bd5f1ba4b5faea06e1dfde7e9",
}
DIGESTS["verify-n7-w2"] = DIGESTS["verify-n7"]


def cell_key(kind: str, n: int, k: int, m: str) -> str:
    return f"{kind} n={n} k={k} m={m}"


def cell_order(n: int, seed: int, pass_index: int) -> tuple[list, list]:
    """The theorem and lemma cells of one pass, in an order drawn from the seed."""
    rng = random.Random(f"{seed}/{pass_index}")
    theorem = list(THEOREM_CELLS[n])
    lemma = list(LEMMA_CELLS[n])
    rng.shuffle(theorem)
    rng.shuffle(lemma)
    return theorem, lemma


def run_workload(msfam, name: str, seed: int, pass_index: int, span=None) -> dict[str, str]:
    """One pass of a workload; returns canonical report text keyed by cell.

    `span(layer)` returns a context manager around each call into msfam, so a
    tracer can time the layers; untraced passes use a no-op.
    """
    span = span or (lambda layer: nullcontext())
    n, workers = WORKLOADS[name]
    if workers is None:
        with span("search"):
            classes = msfam.count_iso_classes(n)
        reports = {f"iso-classes n={n}": {"n": n, "iso_classes": classes}}
    else:
        theorem, lemma = cell_order(n, seed, pass_index)
        with span("search"):
            results = msfam.run_verification(
                n,
                theorem_params=[msfam.Params(n, k, msfam.parse_cap(m)) for k, m in theorem],
                lemma_params=[msfam.Params(n, k, msfam.parse_cap(m)) for k, m in lemma],
                workers=workers,
            )
        reports = {}
        for report in results.theorem_reports:
            p = report.params
            reports[cell_key("theorem", n, p.k, p.m_text)] = report
        for bundle in results.lemma_bundles:
            for check, report in bundle.items():
                p = report.params
                reports[cell_key(check, n, p.k, p.m_text)] = report
    texts = {}
    for key, report in reports.items():
        with span("reporting.json"):
            texts[key] = msfam.to_canonical_json(report)
    return texts


def report_bytes(texts: dict[str, str]) -> bytes:
    """Reports in key order, each after its key line, so the seed cannot change them."""
    return "".join(f"# {key}\n{texts[key]}" for key in sorted(texts)).encode()


def report_counts(texts: dict[str, str]) -> dict[str, int]:
    """Families visited and checked and achievers, as the reports state them, and their bytes."""
    families = families_checked = achievers = 0
    for key, text in texts.items():
        report = json.loads(text)
        if key.startswith("iso-classes"):
            continue
        families = report["families_total"]
        if report["kind"] == "theorem":
            families_checked += report["families_checked"]
            achievers += sum(report["achiever_class_sizes"])
        elif report["check"] == "removed-layer":  # one of the three reports per lemma cell
            families_checked += report["families_checked"]
    return {
        "families": families, "families_checked": families_checked, "achievers": achievers,
        "bytes": sum(len(text.encode()) for text in texts.values()),
    }


def check_reports(name: str, texts: dict[str, str]) -> list[str]:
    """Failures of one pass against the anchors and the recorded digest; empty when correct."""
    n, workers = WORKLOADS[name]
    failures = []
    if workers is None:
        expected_keys = {f"iso-classes n={n}"}
    else:
        expected_keys = {cell_key("theorem", n, k, m) for k, m in THEOREM_CELLS[n]}
        expected_keys |= {
            cell_key(check, n, k, m)
            for k, m in LEMMA_CELLS[n]
            for check in ("removed-layer", "layer-dominance", "valuable-rigidity")
        }
    if set(texts) != expected_keys:
        failures.append(f"report keys {sorted(set(texts) ^ expected_keys)} differ")
    for key in sorted(set(texts) & expected_keys):
        try:
            report = json.loads(texts[key])
        except ValueError:
            failures.append(f"{key}: not JSON")
            continue
        failures += [f"{key}: {f}" for f in _check_report(n, report)]
    digest = hashlib.sha256(report_bytes(texts)).hexdigest()
    if digest != DIGESTS[name]:
        failures.append(f"report digest {digest} differs from the recorded {DIGESTS[name]}")
    return failures


def _check_report(n: int, report: dict) -> list[str]:
    if "iso_classes" in report:
        got = report["iso_classes"]
        return [] if got == ISO_CLASSES[n] else [f"iso classes {got} != {ISO_CLASSES[n]}"]
    failures = []
    params = report.get("params", {})
    cell = (params.get("n"), params.get("k"), params.get("m"))
    if report.get("families_total") != FAMILIES_TOTAL[n]:
        failures.append(f"families_total {report.get('families_total')} != {FAMILIES_TOTAL[n]}")
    if report.get("kind") == "theorem":
        if report.get("bound") != BOUNDS.get(cell):
            failures.append(f"bound {report.get('bound')} != {BOUNDS.get(cell)}")
        if report.get("uniqueness_verdict") != EXPECTED_VERDICTS.get(cell):
            failures.append(f"verdict {report.get('uniqueness_verdict')} != {EXPECTED_VERDICTS.get(cell)}")
        if cell in CLASS_SIZES and report.get("achiever_class_sizes") != CLASS_SIZES[cell]:
            failures.append(f"class sizes {report.get('achiever_class_sizes')} != {CLASS_SIZES[cell]}")
        if report.get("lemma_violations") != []:
            failures.append("violations reported")
    elif report.get("violations") != [] or report.get("passed") is not True:
        failures.append("lemma check did not pass")
    return failures
