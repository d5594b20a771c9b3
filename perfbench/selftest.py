"""The benchmark's own checks, negative controls included.

Usage: python3 perfbench/selftest.py      (about 20 s: it runs verify-n6 once)

A changed bound or changed report bytes must be counted as a failed pass, and
a wrapped name that no longer exists must read as 0 calls, not raise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import msfam  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, reduce_spans  # noqa: E402
from workloads import DIGESTS, check_reports, run_workload  # noqa: E402

BOUND_KEY = "theorem n=6 k=4 m=2"


def with_bound(text: str, bound: int) -> str:
    report = json.loads(text)
    report["bound"] = bound
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class NegativeControls(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.texts = run_workload(msfam, "verify-n6", seed=1, pass_index=0)

    def test_seed_reports_pass(self):
        self.assertEqual(check_reports("verify-n6", self.texts), [])

    def test_changed_bound_fails(self):
        texts = dict(self.texts, **{BOUND_KEY: with_bound(self.texts[BOUND_KEY], 46)})
        failures = check_reports("verify-n6", texts)
        self.assertTrue(any("bound 46 != 45" in f for f in failures), failures)
        self.assertTrue(any("digest" in f for f in failures), failures)

    def test_changed_bytes_fail_although_anchors_hold(self):
        text = self.texts[BOUND_KEY]
        self.assertIn('"runtime_ms": null', text)
        texts = dict(self.texts, **{BOUND_KEY: text.replace('"runtime_ms": null', '"runtime_ms": 0')})
        failures = check_reports("verify-n6", texts)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("digest", failures[0])

    def test_missing_report_fails(self):
        texts = dict(self.texts)
        del texts[BOUND_KEY]
        self.assertTrue(check_reports("verify-n6", texts))

    def test_wrong_iso_count_fails(self):
        texts = {"iso-classes n=7": msfam.to_canonical_json({"n": 7, "iso_classes": 715})}
        self.assertTrue(any("715" in f for f in check_reports("enum-n7", texts)))

    def test_pool_run_must_reproduce_single_worker_bytes(self):
        self.assertEqual(DIGESTS["verify-n7-w2"], DIGESTS["verify-n7"])

    def test_failed_check_is_counted_in_the_result(self):
        bad = dict(self.texts, **{BOUND_KEY: with_bound(self.texts[BOUND_KEY], 46)})

        def fake_child(args, timeout):
            if args[0] == "--import-only":
                return {"setup_s": 0.1}, ""
            failures = check_reports("verify-n6", bad)
            return {"ok": not failures, "failures": failures, "wall_s": 1.0, "cpu_s": 1.0,
                    "peak_rss_mb": 20.0, "setup_s": 0.1}, ""

        out = io.StringIO()
        with mock.patch.object(run, "run_child", fake_child), contextlib.redirect_stdout(out):
            code = run.main(["--workload", "verify-n6", "--seed", "1", "--seconds", "0"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 1, 1))


class Wrappers(unittest.TestCase):
    def test_missing_name_reads_zero_calls(self):
        tracer = Tracer()
        tracer.install([
            ("msfam.search:no_such_function", "subsets.isomorphic", "match"),
            ("no_such_module:f", "canonical.find_isomorphism", None),
        ])
        self.assertEqual(tracer.missing, ["msfam.search:no_such_function", "no_such_module:f"])
        with tracer.span("search"):
            pass
        counts = {"families": 1, "families_checked": 0, "achievers": 0, "bytes": 0}
        metrics = tracer.metrics(counts, child_cpu_s=0.0)
        self.assertEqual(metrics["subsets.isomorphic.calls"], 0)
        self.assertEqual(metrics["canonical.find_isomorphism.calls"], 0)
        self.assertEqual(metrics["search.calls"], 1)

    def test_uninstall_restores_the_originals(self):
        original = msfam.search.set_families_isomorphic
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(msfam.search.set_families_isomorphic, original)
        tracer.uninstall()
        self.assertIs(msfam.search.set_families_isomorphic, original)

    def test_self_time_subtracts_direct_children(self):
        spans = [
            ["search", 0.0, 10.0, -1],
            ["subsets.isomorphic", 1.0, 4.0, 0],
            ["canonical.find_isomorphism", 2.0, 3.0, 1],
            ["subsets.isomorphic", 5.0, 6.0, 0],
        ]
        calls, busy, self_time = reduce_spans(spans)
        self.assertEqual(calls["subsets.isomorphic"], 2)
        self.assertEqual(busy["subsets.isomorphic"], 4.0)
        self.assertEqual(self_time["search"], 6.0)
        self.assertEqual(self_time["subsets.isomorphic"], 3.0)


if __name__ == "__main__":
    unittest.main()
