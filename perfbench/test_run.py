"""Self-tests of the benchmark script.  Run: python3 -m unittest perfbench/test_run.py"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


UNCOMMITTED = 10**9


def child(sha="a" * 64, shards=1, sent=100, completed=100, seed=UNCOMMITTED, events=1000,
          budget=5000, **report):
    return {"report_sha256": sha, "shards_run": shards, "event_budget": budget,
            "report": {"seed": seed, "sent": sent, "completed": completed,
                       "events_processed": events} | report}


class Statistics(unittest.TestCase):
    def test_median_of_odd_and_even_samples(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartile_spread_matches_the_acceptance_rule(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.quartile_spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(run.quartile_spread([5.0] * 10), 0.0)
        # Exclusive-method quartiles of 1..8: 2.25 and 6.75 around 4.5.
        self.assertAlmostEqual(run.quartile_spread(list(range(1, 9))), 4.5 / 4.5)


class Names(unittest.TestCase):
    def test_metric_name_validation(self):
        for good in ("run_s", "sim.ns_per_event", "p99-ms", "9lives"):
            self.assertTrue(run.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "ms%", "x" * 65, "é"):
            self.assertFalse(run.valid_metric_name(bad), bad)

    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(run.valid_metric_name(m["name"]), m["name"])
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))


class Gate(unittest.TestCase):
    def test_uncommitted_seed_requires_agreement_between_runs(self):
        gate = run.Gate("poisson_paper", UNCOMMITTED)
        gate.check(child(), "first")
        gate.check(child(), "second")
        self.assertTrue(gate.result({})["correct"])
        gate.check(child(sha="b" * 64), "third")
        self.assertFalse(gate.result({})["correct"])

    def test_committed_seed_must_match_its_digest(self):
        expected = run.load_expected("poisson_paper")
        seed = next(iter(expected))
        gate = run.Gate("poisson_paper", int(seed))
        gate.check(child(sha=expected[seed], seed=int(seed)), "run")
        self.assertTrue(gate.result({})["correct"])
        gate.check(child(sha="0" * 64, seed=int(seed)), "run")
        self.assertFalse(gate.result({})["correct"])

    def test_a_collapsed_sharded_run_fails(self):
        gate = run.Gate("poisson_paper", UNCOMMITTED)
        gate.check(child(), "run")
        gate.check_shards(child(shards=2), 2)
        self.assertTrue(gate.result({})["correct"])
        gate.check_shards(child(shards=1), 2)
        self.assertFalse(gate.result({})["correct"])

    def test_sharded_report_must_equal_the_serial_one(self):
        gate = run.Gate("poisson_paper", UNCOMMITTED)
        gate.check(child(), "serial")
        self.assertEqual(gate.check_sharded(child(shards=2), child(), 2), [])
        self.assertTrue(gate.result({})["correct"])
        diff = gate.check_sharded(child(shards=2, mean_response_ms=2.0),
                                  child(mean_response_ms=1.0), 2)
        self.assertEqual(diff, ["mean_response_ms"])
        self.assertFalse(gate.result({})["correct"])

    def test_sharded_run_may_overshoot_only_a_reached_budget(self):
        ok = run.Gate("tier_faults", UNCOMMITTED)
        serial = child(events=5000, budget=5000)
        ok.check(serial, "serial")
        self.assertEqual(ok.check_sharded(child(shards=2, events=5001), serial, 2),
                         ["events_processed"])
        self.assertEqual(ok.check_sharded(child(shards=2, events=10000), serial, 2),
                         ["events_processed"])
        self.assertTrue(ok.result({})["correct"])
        for sharded, serial in [
                (child(shards=2, events=10001), serial),  # beyond S·n
                (child(shards=2, events=4999), serial),  # short of the budget
                (child(shards=2, events=1001), child(events=1000)),  # no budget cut
                (child(shards=2, events=5001, completed=99), serial)]:  # more than events
            gate = run.Gate("tier_faults", UNCOMMITTED)
            gate.check_sharded(sharded, serial, 2)
            self.assertFalse(gate.result({})["correct"], sharded)

    def test_unfinished_requests_count_as_failed(self):
        gate = run.Gate("tier_faults", UNCOMMITTED)
        gate.check(child(sent=100, completed=97), "lossy")
        result = gate.result({})
        self.assertEqual((result["attempted"], result["failed"]), (100, 3))


class Metadata(unittest.TestCase):
    def test_metadata_records_host_engine_and_source(self):
        runs = [{"available_parallelism": 2, "sim_threads": 2, "shards_run": 2,
                 "pool_policy": "Force", "build_profile": "release"}]
        meta = run.metadata("poisson_paper", 1, runs)
        for key in ("nproc", "available_parallelism", "shards_run", "srlb_sim_pool",
                    "build_profile", "commit", "source_sha256", "expected_report"):
            self.assertIn(key, meta)
        self.assertEqual(meta["shards_run"], 2)
        self.assertEqual(len(meta["source_sha256"]), 64)


if __name__ == "__main__":
    unittest.main()
