"""Tests of the benchmark itself: its checks catch corrupted outputs, its
inputs follow the seed, and its output keeps one schema.

    python3 bench/selftest.py

Run from the root of a source tree; takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gridperc as gp  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class ChecksCatchCorruption(unittest.TestCase):
    def test_build_witness_with_one_bit_flipped_fails(self):
        build = wl.WORKLOADS["build"]
        req = ("perfect", (3, 3, 6))
        entry, text = build.run(req, gp.Builder())
        self.assertIsNone(build.check(req, (entry, text)))
        mask = entry.seeds.mask
        highest_seed, lowest_empty = mask.bit_length() - 1, ((mask + 1) & ~mask).bit_length() - 1
        for bit in (highest_seed, lowest_empty):
            seeds = gp.CellSet(entry.dims, entry.seeds.mask ^ (1 << bit))
            bad = dataclasses.replace(entry, seeds=seeds)
            self.assertIsNotNone(build.check(req, (bad, gp.write_set(seeds))), f"bit {bit}")
        # a text that does not match the witness fails too
        self.assertIsNotNone(build.check(req, (entry, text.replace("X", ".", 1))))

    def test_wrong_audit_verdict_fails(self):
        verify = wl.WORKLOADS["verify"]
        reqs = [r for r in verify.make_inputs(1) if wl.volume(r["dims"]) < 500]
        stuck_but_passing = perfect = None
        for req in reqs:
            out = verify.run(req, None)
            self.assertIsNone(verify.check(req, out), req["label"])
            if out[2] is gp.Status.PERFECT:
                perfect = (req, out)
            if out[2] is gp.Status.NOT_PERCOLATING and out[3]:
                stuck_but_passing = (req, out)
        for req, out in (perfect, stuck_but_passing):
            flipped = out[:3] + (not out[3],) + out[4:]
            self.assertIsNotNone(verify.check(req, flipped), req["label"])
        req, out = perfect
        wrong_status = out[:2] + (gp.Status.OPTIMAL,) + out[3:]
        self.assertIsNotNone(verify.check(req, wrong_status))

    def test_wrong_exhaustive_minimum_fails(self):
        search = wl.WORKLOADS["search"]
        req = ("exhaustive", (2, 3, 5))
        out = search.run(req, None)
        self.assertIsNone(search.check(req, out))
        self.assertIsNotNone(search.check(req, dataclasses.replace(out, min_size=out.min_size + 1)))
        self.assertIsNotNone(search.check(req, dataclasses.replace(out, min_size=out.min_size - 1)))

    def test_differing_repeat_counts_fail(self):
        same = [{"a": 1, "b.calls": 5}, {"a": 1, "b.calls": 5}]
        self.assertEqual(run.count_mismatches(same), [])
        self.assertEqual(len(run.count_mismatches(same + [{"a": 2, "b.calls": 5}])), 1)


class BenchmarkHelpers(unittest.TestCase):
    def test_text_and_edges_agree_with_the_package(self):
        rng = random.Random(7)
        for _ in range(50):
            d = tuple(rng.randint(1, 6) for _ in range(3))
            mask = rng.getrandbits(wl.volume(d))
            cset = gp.CellSet(gp.GridDims(*d), mask)
            self.assertEqual(wl.text_of(d, mask), gp.write_set(cset))
            self.assertEqual(2 * wl.edge_count(d, mask), gp.degree_pair_sum(cset.dims, cset))

    def test_thickness1_mask_is_the_doubling_witness(self):
        for k in range(1, 6):
            self.assertEqual(wl.thickness1_mask(k), gp.thickness1_entry(k).seeds.mask)

    def test_tracer_patches_every_binding_and_restores(self):
        import gridperc.bounds
        import gridperc.search

        originals = (gridperc.search.fixed_point_mask, gridperc.bounds.percolate, gp.Builder.perfect)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(gridperc.search.fixed_point_mask, originals[0])
            self.assertIsNot(gridperc.bounds.percolate, originals[1])
            builder = gp.Builder()
            t.active, t.request = True, 0
            builder.perfect(gp.GridDims(3, 3, 6))
            t.active = False
        finally:
            t.uninstall()
        self.assertEqual((gridperc.search.fixed_point_mask, gridperc.bounds.percolate, gp.Builder.perfect), originals)
        names = {span[0] for span in t.spans}
        self.assertIn("pipelines.perfect", names)
        self.assertIn("engine.percolate", names)
        top = [span for span in t.spans if span[3] is None]
        self.assertEqual([span[0] for span in top], ["pipelines.perfect"])


class HostScaling(unittest.TestCase):
    def test_request_times_are_divided_by_the_host_factor(self):
        search = wl.WORKLOADS["search"]
        inputs = [("exhaustive", (2, 3, 5)), ("exhaustive", (1, 4, 6))]
        original = hostspeed.sample
        hostspeed.sample = lambda: 2 * hostspeed.REFERENCE_S  # a host twice as slow as the quiet one
        try:
            summary = worker.run_pass(search, inputs)
        finally:
            hostspeed.sample = original
        self.assertEqual(summary["errors"], [])
        self.assertAlmostEqual(summary["host_factor"], 2.0)
        self.assertAlmostEqual(summary["time"], summary["raw_time"] / 2)
        self.assertAlmostEqual(sum(summary["latencies"]), summary["time"])

    def test_reference_is_fixed(self):
        self.assertEqual(hostspeed.reference(), hostspeed.reference())
        self.assertGreater(hostspeed.sample(), 0.0)


class InputsAndSchema(unittest.TestCase):
    def test_seed_decides_the_inputs(self):
        for name, workload in wl.WORKLOADS.items():
            first = workload.make_inputs(1)
            self.assertEqual(first, workload.make_inputs(1), name)
            self.assertNotEqual(first, workload.make_inputs(2), name)

    def test_benchmark_json_names_what_run_prints(self):
        spec = _bench_json()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {name: run.FIGURES[name] for name in run.END_TO_END})
        layer_names = list(tracer.layer_metrics([])) + ["catalog.load_s"] + [
            f"trace.overhead.{name}" for name in run.OVERHEAD]
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.layer_unit(name) for name in layer_names})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(tuple(wl.WORKLOADS), run.WORKLOADS)

    def test_second_seed_keeps_the_schema(self):
        records = []
        for seed in (1, 2):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "search", "--seed", str(seed),
                 "--seconds", "0.1", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        for record in records:
            self.assertEqual(set(record), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(record["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in records[0]["metrics"].items()},
            {k: v["unit"] for k, v in records[1]["metrics"].items()},
        )
        self.assertEqual(set(records[0]["metrics"]), set(run.END_TO_END))

    def test_tree_without_the_package_is_refused(self):
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
