"""The benchmark's own tests.

    python3 -m unittest discover -s lakebench -p 'test_*.py'

- the same seed gives a byte-identical request and write sequence, and a
  different seed a different one, on every workload;
- the trace reader derives per-layer metrics from a known trace and flags
  the ones it cannot produce;
- BENCHMARK.json keeps the shape the runner relies on.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import trace_report  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class ScheduleDeterminism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def dump(self, workload, seed):
        return subprocess.run(
            [str(self.driver), "--workload", workload, "--seed", str(seed),
             "--seconds", str(SPEC["run_seconds"]), "--dump-schedule"],
            check=True, capture_output=True).stdout

    def test_same_seed_same_bytes_other_seed_differs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                first = self.dump(w["name"], 5)
                self.assertGreater(len(first.splitlines()), 100)
                self.assertEqual(first, self.dump(w["name"], 5))
                self.assertNotEqual(first, self.dump(w["name"], 6))


def synthetic_trace():
    """Two keyword requests and one Starmie request, plus registry counts."""
    lines = [{"t": "meta", "workload": "synthetic", "seed": 1}]
    sid = 0

    def span(name, parent, req, start, end):
        nonlocal sid
        sid += 1
        lines.append({"t": "span", "id": sid, "parent": parent, "req": req,
                      "name": name, "start_ns": start, "end_ns": end})
        return sid

    for req in (1, 2):
        root = span("request.keyword", 0, req, 0, 10_000_000)
        span("serve.execute", root, req, 0, 3_000_000)
        span("search.keyword", root, req, 3_000_000, 4_000_000)
    root = span("request.starmie", 0, 3, 0, 20_000_000)
    span("serve.execute", root, 3, 0, 9_000_000)
    parent = span("search.starmie", root, 3, 9_000_000, 17_000_000)
    span("embed.encode_table", parent, 3, 17_000_000, 19_000_000)
    for name, value in (("serve.cache.hits", 3), ("serve.cache.misses", 1),
                        ("serve.queries.admitted", 4), ("serve.brownout", 1),
                        ("serve.queue_wait_samples", 4),
                        ("serve.queue_wait_p50_us", 50), ("serve.queue_wait_p99_us", 900)):
        lines.append({"t": "count", "span": 0, "req": 0, "name": name, "value": value})
    return lines


class TraceReader(unittest.TestCase):
    def setUp(self):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as f:
            for rec in synthetic_trace():
                f.write(json.dumps(rec) + "\n")
            self.path = f.name
        _, spans, counts = trace_report.load(self.path)
        self.trace = trace_report.Trace(spans, counts)
        self.metrics, self.flagged = trace_report.per_layer(self.trace)

    def tearDown(self):
        os.unlink(self.path)

    def test_derived_values(self):
        m = {k: v[0] for k, v in self.metrics.items()}
        self.assertAlmostEqual(m["serve.cache_hit_ratio"], 0.75)
        self.assertAlmostEqual(m["serve.brownout_ratio"], 0.25)
        self.assertAlmostEqual(m["serve.queue_wait_p99_ms"], 0.9)
        # execute minus the direct engine call: 2, 2 and 1 ms.
        self.assertAlmostEqual(m["serve.overhead_p50_ms"], 2.0)
        self.assertAlmostEqual(m["serve.keyword_over_engine"], 3.0)
        self.assertAlmostEqual(m["search.starmie_p50_ms"], 8.0)
        self.assertAlmostEqual(m["embed.encode_share"], 0.25)

    def test_self_time_subtracts_separate_children(self):
        table = trace_report.self_time_table(self.trace)
        calls, duration, self_ms = table["search.starmie"]
        self.assertEqual(calls, 1)
        self.assertAlmostEqual(duration, 8.0)
        self.assertAlmostEqual(self_ms, 6.0)

    def test_unmeasurable_metrics_are_flagged(self):
        for name in ("cluster.scatter_p50_ms", "ingest.publish_p50_ms",
                     "index.josie.postings_per_query", "table.csv_parse_p50_ms"):
            self.assertNotIn(name, self.metrics)
            self.assertIn(name, self.flagged)

    def test_every_listed_metric_is_derived_or_flagged(self):
        known = set(self.metrics) | set(self.flagged)
        for m in SPEC["per_layer"]:
            self.assertIn(m["name"], known)


class BenchmarkSpec(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + \
            [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


if __name__ == "__main__":
    unittest.main()
