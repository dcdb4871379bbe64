"""Checks of the benchmark harness itself, on tiny robustness-B-shaped grids.

    python3 -m unittest discover -s bench/tests -v

Each check runs the real CLI in child processes on 4x4 sweeps of 32x32
EPIs, so the whole file takes seconds.
"""

import configparser
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_workload(directory: Path, threads: int) -> Path:
    """robustness-B with 4x4 cells of 32x32 pixels and the given thread count."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(run.WORKLOADS / "robustness-B.ini")
    parser["grid"].update(n_s="32", n_u="32")
    parser["sweep"].update(depth_count="4", tilt_count="4")
    parser["run"]["threads"] = str(threads)
    path = directory / f"tiny-{threads}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_every_metric_printed_by_name_with_unit(self):
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            specs = {m["name"]: m["unit"] for m in SPEC[group]}
            result, record = run.measure(
                tiny_workload(self.tmp, 2), 1, 0.0, trace, None, specs,
                self.tmp / "work", setup_probes=1,
            )
            printed = json.loads(json.dumps(result))
            self.assertEqual(set(printed), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(printed["correct"])
            self.assertEqual(printed["failed"], 0)
            self.assertEqual(set(printed["metrics"]), set(specs))
            for name, metric in printed["metrics"].items():
                self.assertIsNotNone(NAME.fullmatch(name), name)
                self.assertLessEqual(len(name), 64)
                self.assertEqual(metric["unit"], specs[name])
                self.assertIsInstance(metric["value"], (int, float))
            self.assertEqual(set(record["spread"]), set(specs))

    def test_traced_self_times_within_wall(self):
        for threads in (1, 2):
            work = self.tmp / f"work-{threads}"
            work.mkdir()
            steps = run.load_steps(tiny_workload(self.tmp, threads), work)
            totals = run.run_pass(steps, 0, True, work, run.DigestCheck(None), run.Tally())
            layers = totals["layers"]
            self.assertGreater(layers["render.render_epi.calls"], 0)
            # pool workers run side by side, so at most threads x wall
            self.assertLessEqual(layers["self_s.total"], threads * totals["wall_s"])
            self.assertLessEqual(
                sum(v for k, v in layers.items() if k.endswith(".self_s")), threads * totals["wall_s"]
            )

    def test_sweeps_identical_across_thread_counts(self):
        digests = {}
        for threads in (1, 2):
            work = self.tmp / f"work-{threads}"
            work.mkdir()
            steps = run.load_steps(tiny_workload(self.tmp, threads), work)
            check = run.DigestCheck(None)
            run.run_pass(steps, 3, False, work, check, run.Tally())
            digests[threads] = check.first
        self.assertEqual(len(digests[1]), 3)
        self.assertEqual(digests[1], digests[2])

    def test_self_time_subtracts_child_coverage(self):
        spans = [
            (1, 0, 1, "cli.main", 0.0, 10.0, None),
            (2, 1, 1, "render.render_epi", 1.0, 3.0, None),
            (3, 1, 2, "render.render_epi", 2.0, 5.0, None),
            (4, 1, 1, "fileio.write", 7.0, 8.0, None),
            (5, 2, 1, "mapping.intersect_rays", 1.5, 2.5, None),
        ]
        selfs = tracer.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)

    def test_digest_check_uses_pins_then_first_pass(self):
        pins = {"s": {"a": {"sha256": "A", "seeded": False}, "b": {"sha256": "B", "seeded": True}}}
        check = run.DigestCheck(pins)
        self.assertTrue(check.ok("s", run.DEFAULT_SEED, {"a": "A", "b": "B", "extra": "x"}))
        self.assertFalse(check.ok("s", run.DEFAULT_SEED, {"a": "A", "b": "other"}))
        self.assertTrue(check.ok("s", 7, {"a": "A", "b": "B7"}))
        self.assertTrue(check.ok("s", 7, {"a": "A", "b": "B7"}))
        self.assertFalse(check.ok("s", 7, {"a": "A", "b": "changed"}))
        self.assertFalse(check.ok("s", 8, {"a": "not A", "b": "B8"}))
        self.assertFalse(check.ok("s", 9, {"b": "B9"}))

    def test_benchmark_names_are_valid(self):
        names = [m["name"] for g in ("end_to_end", "per_layer") for m in SPEC[g]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(
            sorted(w["name"] for w in SPEC["workloads"]),
            sorted(p.stem for p in run.WORKLOADS.glob("*.ini")),
        )


if __name__ == "__main__":
    unittest.main()
