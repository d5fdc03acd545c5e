#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark (as perfbench/run.py does) and check:
  * exact counts: matrix.flops, the traced phase's operations attempted
    and, on paper-q80 (Het replays a fixed plan), sched.decisions and
    runtime.messages repeat exactly across two runs on one seed;
  * trace sanity: every span of the written Chrome trace lies inside its
    parent and belongs to the same operation, self times are >= 0, and
    the uncovered share of each product or job span is reported;
  * layer separation on the traced runs: runtime.efficiency is higher on
    paper-q80 than on fine-q16, serde and wire bytes are nonzero only on
    fine-q16-process, service.* and model.* read 0 off service-mix, and
    every worker performs updates on paper-q80 and fine-q16;
  * the result line's shape, and that a run in a directory holding only
    BENCHMARK.json and perfbench/ fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"))
SECONDS = "2"
WORKLOADS = ("paper-q80", "fine-q16", "fine-q16-process", "service-mix")
_results = {}


def run(workload, seed, trace, cwd=ROOT):
    """Runs perfbench/run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
        env=dict(os.environ, CARGO_TARGET_DIR=BUILD if cwd == ROOT else
                 os.path.join(cwd, ".bench_build")))
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload, seed, trace, fresh=False):
    """The result of one run; reused across tests unless `fresh`."""
    key = (workload, seed, trace)
    if fresh or key not in _results:
        code, lines = run(workload, seed, trace)
        assert code == 0, f"{workload} exited {code}"
        _results[key] = json.loads(lines[-1])
    return _results[key]


def values(res):
    return {name: metric["value"] for name, metric in res["metrics"].items()}


class ExactCounts(unittest.TestCase):
    def check_repeat(self, workload, names):
        first = values(result(workload, 11, 1))
        second = values(result(workload, 11, 1, fresh=True))
        for name in names:
            self.assertEqual(first[name], second[name], name)
            self.assertGreater(first[name], 0, name)

    def test_paper_q80(self):
        self.check_repeat("paper-q80", ["matrix.flops", "trace.ops_attempted",
                                        "sched.decisions", "runtime.messages"])

    def test_service_mix(self):
        self.check_repeat("service-mix",
                          ["matrix.flops", "trace.ops_attempted"])


def check_trace(test, path, op_span):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    test.assertTrue(events)
    by_id = {e["args"]["id"]: e for e in events}
    children = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent < 0 or parent not in by_id:
            continue
        p = by_id[parent]
        # Rounded microseconds: allow one unit of slack at each end.
        test.assertGreaterEqual(e["ts"], p["ts"] - 1e-3, e)
        test.assertLessEqual(e["ts"] + e["dur"], p["ts"] + p["dur"] + 1e-3, e)
        test.assertEqual(e["args"]["op"], p["args"]["op"], e)
        children.setdefault(parent, []).append(e)
    for parent, kids in children.items():
        covered = sum(k["dur"] for k in kids)
        test.assertGreaterEqual(by_id[parent]["dur"] - covered, -1e-2)
    test.assertTrue(any(e["name"] == op_span for e in events))


class TraceSanity(unittest.TestCase):
    def check(self, workload, op_span):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        res = result(workload, 5, 1)
        m = values(res)
        self.assertEqual(set(m), {x["name"] for x in spec["per_layer"]})
        self.assertEqual(m["trace.nesting_violations"], 0)
        self.assertEqual(m["trace.negative_self"], 0)
        self.assertGreater(m["trace.spans"], 0)
        self.assertGreaterEqual(m["trace.op_self_share"], 0.0)
        self.assertLessEqual(m["trace.op_self_share"], 1.0)
        self.assertIn("trace.overhead", m)
        check_trace(self, os.path.join(BUILD, f"trace-{workload}.json"),
                    op_span)

    def test_fine_q16(self):
        self.check("fine-q16", "product")

    def test_service_mix(self):
        self.check("service-mix", "job")


class LayerSeparation(unittest.TestCase):
    def test_layers(self):
        m = {w: values(result(w, 11, 1)) for w in WORKLOADS}
        self.assertGreater(m["paper-q80"]["runtime.efficiency"],
                           m["fine-q16"]["runtime.efficiency"])
        for w in WORKLOADS:
            serializing = w == "fine-q16-process"
            self.assertEqual(m[w]["runtime.serde_s"] > 0, serializing, w)
            self.assertEqual(m[w]["runtime.wire_bytes"] > 0, serializing, w)
            self.assertIn("trace.overhead", m[w])
            if w != "service-mix":
                for name, value in m[w].items():
                    if name.startswith(("service.", "model.")):
                        self.assertEqual(value, 0, (w, name))
        self.assertGreater(m["service-mix"]["model.price_job_us"], 0)
        self.assertGreater(m["service-mix"]["service.run_s_p50"], 0)
        for w in ("paper-q80", "fine-q16"):
            self.assertEqual(m[w]["runtime.workers_active_min"], 3, w)


class ResultShape(unittest.TestCase):
    def test_end_to_end_keys(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        res = result("fine-q16-process", 3, 0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        for metric in res["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_fails_without_sources(self):
        scratch = tempfile.mkdtemp(dir=BUILD)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"))
            code, lines = run("paper-q80", 1, 0, cwd=scratch)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    os.makedirs(BUILD, exist_ok=True)
    unittest.main()
