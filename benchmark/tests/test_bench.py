"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s benchmark/tests

They need no build: they cover the statistics, the metric catalogue and the
seeded generators, not the program under test.
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import stats  # noqa: E402


def log2_bucket_upper(samples, q):
    """A p95 read off power-of-two buckets, as a bucketed histogram gives
    it: the upper edge of the bucket holding the rank."""
    xs = sorted(samples)
    rank = max(1, -(-len(xs) * q // 100))
    v = xs[rank - 1]
    edge = 1
    while edge < v:
        edge *= 2
    return edge


class Percentiles(unittest.TestCase):
    def test_raw_samples_never_exceed_the_max(self):
        samples = [100 + i for i in range(300)]  # max 399
        self.assertGreater(log2_bucket_upper(samples, 95), max(samples))
        p95 = stats.percentile(samples, 95)
        self.assertLessEqual(p95, max(samples))
        self.assertIn(p95, samples)

    def test_nearest_rank(self):
        samples = list(range(1, 201))
        self.assertEqual(stats.percentile(samples, 50), 100)
        self.assertEqual(stats.percentile(samples, 95), 190)
        self.assertEqual(stats.percentile(list(reversed(samples)), 95), 190)

    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.percentile(list(range(200)), 95), 189)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(199)), 95)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(15)), 50)


class Catalogue(unittest.TestCase):
    def setUp(self):
        self.path = BENCH.parent / "BENCHMARK.json"
        self.doc = stats.load_catalogue(self.path)

    def test_round_trips(self):
        text = self.path.read_text()
        self.assertEqual(json.loads(json.dumps(json.loads(text))), json.loads(text))
        self.assertEqual(
            set(self.doc),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )

    def test_metric_names_and_units(self):
        for section in ("end_to_end", "per_layer"):
            for m in self.doc[section]:
                self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
                self.assertTrue(stats.UNIT_RE.fullmatch(m["unit"]), m)
                self.assertIn(m["better"], ("lower", "higher"))
        names = [m["name"] for m in self.doc["end_to_end"] + self.doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in self.doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.doc["end_to_end"]))

    def test_bad_names_are_refused(self):
        for bad in ("", "-x", "a b", "x" * 65, "p95(ms)"):
            self.assertIsNone(stats.NAME_RE.fullmatch(bad), bad)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (gen.cosim_spec, gen.traffic_spec, gen.serve_streams):
            self.assertEqual(json.dumps(make(7)), json.dumps(make(7)))
            self.assertNotEqual(json.dumps(make(7)), json.dumps(make(8)))

    def test_job_counts(self):
        self.assertEqual(gen.cosim_jobs(gen.cosim_spec(1)), 42)
        self.assertEqual(gen.traffic_jobs(gen.traffic_spec(1)), 60)

    def test_traffic_loads_stay_increasing(self):
        for seed in range(50):
            loads = gen.traffic_spec(seed)["offered_loads"]
            self.assertEqual(loads, sorted(set(loads)))

    def test_each_spec_is_submitted_fresh_then_repeated_by_one_client(self):
        specs, streams = gen.serve_streams(3)
        seen = {}
        for c, stream in enumerate(streams):
            for i, repeat in stream:
                self.assertEqual(i % len(streams), c)
                seen.setdefault(i, []).append(repeat)
        self.assertEqual(sorted(seen), list(range(len(specs))))
        self.assertTrue(all(v == [False, True] for v in seen.values()))


if __name__ == "__main__":
    unittest.main()
