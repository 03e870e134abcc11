"""Tests of the benchmark's own accounting: python3 -m unittest hbench/test_run.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_known_vectors(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(run.percentile(xs, 0), 1)
        self.assertEqual(run.percentile(xs, 100), 10)
        self.assertAlmostEqual(run.percentile(xs, 50), 5.5)
        self.assertAlmostEqual(run.percentile(xs, 99), 9.91)
        self.assertAlmostEqual(run.percentile([3, 1, 2], 50), 2)
        self.assertEqual(run.percentile([7.5], 99), 7.5)

    def test_order_does_not_matter(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 25), run.percentile([1, 2, 3, 4, 5], 25))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # due at 0 and 1 ms; the generator stalled and sent both at 5 ms
        st = run.open_loop_stats([(0.0, 5.0, 6.0, True), (1.0, 5.0, 6.5, True)])
        self.assertEqual(st["latencies"], [6.0, 5.5])
        self.assertEqual(st["failed"], 0)
        self.assertAlmostEqual(st["late_tail_max"], 4.0)

    def test_lateness_is_sent_minus_due(self):
        recs = [(float(i), float(i) + 0.1 * i, float(i) + 1.0, True) for i in range(8)]
        st = run.open_loop_stats(recs)
        self.assertAlmostEqual(st["late_tail_max"], 0.7)
        self.assertAlmostEqual(st["late_p99"], run.percentile([0.1 * i for i in range(8)], 99))

    def test_unfinished_and_wrong_answers_fail(self):
        st = run.open_loop_stats([(0.0, 0.0, -1.0, False), (1.0, 1.0, 2.0, False),
                                  (2.0, 2.0, 2.5, True)])
        self.assertEqual(st["n"], 3)
        self.assertEqual(st["failed"], 2)
        self.assertEqual(st["latencies"], [0.5])


class Metrics(unittest.TestCase):
    TEXT = "\n".join([
        "# TYPE hoiho_serve_cache_hits counter",
        "hoiho_serve_cache_hits_total 10",
        "hoiho_net_batch_fill 3",
        'hoiho_net_request_ms{quantile="0.5"} 0.25',
        "hoiho_net_request_ms_count 7",
        "# EOF",
    ])

    def test_parse(self):
        m = run.parse_metrics(self.TEXT)
        self.assertEqual(m["hoiho_serve_cache_hits_total"], 10.0)
        self.assertEqual(m["hoiho_net_batch_fill"], 3.0)
        self.assertEqual(m['hoiho_net_request_ms{quantile="0.5"}'], 0.25)
        self.assertNotIn("# EOF", m)

    def test_delta(self):
        before = run.parse_metrics(self.TEXT)
        after = run.parse_metrics(self.TEXT.replace("hits_total 10", "hits_total 25"))
        self.assertEqual(run.metrics_delta(before, after, "serve.cache_hits"), 15.0)
        self.assertEqual(run.metrics_delta(before, after, "serve.cache_misses"), 0.0)


class Rows(unittest.TestCase):
    @staticmethod
    def span(name, i, parent, t0, t1):
        return {"name": name, "id": i, "parent": parent, "t0": t0, "t1": t1}

    def test_self_time_excludes_children(self):
        rows = run.layer_rows([
            self.span("step.a", 0, -1, 0.0, 1000.0),
            self.span("outer.x", 1, 0, 100.0, 600.0),
            self.span("inner.y", 2, 1, 200.0, 300.0),
        ])
        self.assertAlmostEqual(rows["outer.x"], 0.4)
        self.assertAlmostEqual(rows["inner.y"], 0.1)
        self.assertNotIn("step.a", rows)

    def test_rows_never_negative(self):
        # overlapping children, and a child overhanging its parent
        rows = run.layer_rows([
            self.span("step.a", 0, -1, 0.0, 100.0),
            self.span("p.x", 1, 0, 10.0, 20.0),
            self.span("c.y", 2, 1, 5.0, 30.0),
            self.span("c.z", 3, 1, 12.0, 18.0),
        ])
        self.assertTrue(all(v >= 0.0 for v in rows.values()), rows)
        self.assertEqual(rows["p.x"], 0.0)

    def test_unattributed_is_signed(self):
        self.assertAlmostEqual(run.unattributed(1.0, [0.7, 0.6]), -0.3)
        self.assertAlmostEqual(run.unattributed(1.0, [0.25, 0.5]), 0.25)
        self.assertEqual(run.unattributed(0.0, []), 0.0)

    def test_check_allows_noise_below_zero(self):
        self.assertTrue(run.accounting_ok(2.0, 0.3))
        self.assertTrue(run.accounting_ok(2.0, 0.0))
        self.assertTrue(run.accounting_ok(2.0, -0.9 * run.ROW_TOL * 2.0))

    def test_check_fails_when_rows_exceed_end_to_end(self):
        # two CLI steps of 1.2 s end to end in all, each replayed with a
        # 0.9 s load: the rows claim 1.8 s, more than the steps took
        rows = run.layer_rows([
            self.span("step.a", 0, -1, 0.0, 1000.0),
            self.span("itdk.load", 1, 0, 0.0, 900.0),
            self.span("step.b", 2, -1, 1000.0, 2000.0),
            self.span("itdk.load", 3, 2, 1000.0, 1900.0),
        ])
        self.assertAlmostEqual(rows["itdk.load"], 1.8)
        residual = run.unattributed(1.2, rows.values())
        self.assertAlmostEqual(residual, -0.6)
        self.assertFalse(run.accounting_ok(1.2, residual))
        self.assertTrue(run.accounting_ok(2.0, run.unattributed(2.0, rows.values())))

if __name__ == "__main__":
    unittest.main()
