"""Tests of the benchmark itself (not collected by the package's test run).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import sdelab  # noqa: E402


def _span(sid, name, start, end, parent=None, counts=None):
    return spans.Span(sid, name, start, end, parent, 0, counts or {})


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        tree = [
            _span(0, "runner.run_scenario", 0.0, 10.0),
            _span(1, "fpe.solve_fp_1d", 1.0, 3.0, parent=0),
            _span(2, "fpe.energy_monitor", 2.5, 4.0, parent=0),
            _span(3, "fpe.solve_kinetic", 6.0, 7.0, parent=0),
            _span(4, "laws.from_density_evolution", 6.2, 6.8, parent=3),
        ]
        selfs = spans.self_times(tree)
        # children cover [1, 4] and [6, 7]; the grandchild is not subtracted
        # from the root a second time
        self.assertAlmostEqual(selfs[0], 6.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[3], 0.4)
        self.assertAlmostEqual(selfs[4], 0.6)

    def test_layer_values_use_self_time_where_defined(self):
        tree = [
            _span(0, "norms.h1_norm", 0.0, 1.0),
            _span(1, "maxops.maximal", 0.2, 0.7, parent=0, counts={"radii": 6}),
            _span(2, "sde.cauchy_diagnostic", 2.0, 3.0),
            _span(3, "laws.from_ensemble", 2.1, 2.5, parent=2,
                  counts={"samples": 400}),
            _span(4, "sde.simulate_ensemble", 4.0, 6.0,
                  counts={"path_steps": 1000}),
        ]
        m = spans.pass_metrics(tree)
        self.assertAlmostEqual(m["norms.h1_s"], 0.5)
        self.assertAlmostEqual(m["maxops.maximal_s"], 0.5)
        self.assertEqual(m["maxops.radii"], 6)
        self.assertAlmostEqual(m["sde.pairwise_s"], 0.6)
        self.assertAlmostEqual(m["laws.samples_per_s"], 1000.0)
        self.assertAlmostEqual(m["sde.path_steps_per_s"], 500.0)
        self.assertEqual(m["fpe.steps"], 0)


class TracerInstall(unittest.TestCase):
    def test_wraps_and_restores_every_target(self):
        targets = spans.targets()
        before = [(o, a, vars(o)[a] if isinstance(o, type) else getattr(o, a))
                  for o, a, _, _ in targets]
        tracer = spans.Tracer()
        grid = sdelab.make_grid(1, (-4.0, 4.0), 64)
        field = sdelab.preset_field("ou", {}, grid)
        law = sdelab.Law.gaussian(grid, [0.0, 1.0])
        tracer.pass_id = 0
        with tracer.install(targets):
            sdelab.h1_norm(field.drift, law, T=1.0)
            sdelab.BrownianStore.generate(1, 10, 4, 0.25)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["norms.h1_norm", "maxops.maximal",
                                 "sde.generate"])
        self.assertEqual(tracer.spans[1].parent, tracer.spans[0].id)
        self.assertEqual(tracer.spans[2].counts, {"store_bytes": 10 * 4 * 8})
        after = [(o, a, vars(o)[a] if isinstance(o, type) else getattr(o, a))
                 for o, a, _, _ in targets]
        self.assertEqual([x[2] for x in before], [x[2] for x in after])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            for index in (0, 5):
                a, b, c = (pickle.dumps(wl.inputs(s, index)) for s in (7, 7, 8))
                self.assertEqual(a, b, name)
                self.assertNotEqual(a, c, name)

    def test_same_seed_same_noise(self):
        wl = workloads.McNorm()
        stores = [sdelab.BrownianStore.generate(
            wl.inputs(3, 1)["store_seed"], 50, 8, 0.125) for _ in range(2)]
        np.testing.assert_array_equal(stores[0].increments,
                                      stores[1].increments)


class CorruptedOutputs(unittest.TestCase):
    """A pass whose outputs are wrong is counted as failed."""

    def _measure_corrupted(self, cls, corrupt, scratch):
        class Corrupted(cls):
            def run(self, ctx, inp):
                out = super().run(ctx, inp)
                corrupt(out)
                return out

        wl = Corrupted()
        ctx = wl.setup(scratch)
        try:
            clean = worker.measure(cls(), ctx, seed=1, seconds=0)
            bad = worker.measure(wl, ctx, seed=1, seconds=0)
        finally:
            wl.teardown(ctx)
        self.assertEqual((clean["attempted"], clean["failed"]), (1, 0))
        self.assertEqual((bad["attempted"], bad["failed"]), (1, 1))
        return bad["problems"][0]["problems"]

    def setUp(self):
        run.RUNS.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.RUNS)
        self.scratch = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_perturbed_cauchy_entry(self):
        def corrupt(out):
            out["cauchy"].details["finest_entry"] = 0.05
        problems = self._measure_corrupted(workloads.CoupledFamily, corrupt,
                                           self.scratch)
        self.assertIn("finest Cauchy entry", problems[0])

    def test_cutoff_below_exceedance(self):
        def corrupt(out):
            fs = out["l"][1]
            out["l"][1] = dataclasses.replace(fs, values=fs.values * 0.5)
        problems = self._measure_corrupted(workloads.CoupledFamily, corrupt,
                                           self.scratch)
        self.assertIn("E L_eps < exceedance", problems[0])

    def test_incomplete_manifest(self):
        def corrupt(out):
            out["kinetic_langevin"].manifest["complete"] = False
        problems = self._measure_corrupted(workloads.ForwardPde, corrupt,
                                           self.scratch)
        self.assertEqual(problems,
                         ["kinetic_langevin: manifest incomplete or failed"])

    def test_estimators_disagree(self):
        def corrupt(out):
            q = out["quad"]
            out["quad"] = dataclasses.replace(
                q, value=q.value + 4 * out["path"].mc_stderr)
        self._measure_corrupted(workloads.McNorm, corrupt, self.scratch)

    def test_non_finite_maximal(self):
        def corrupt(out):
            out["maximal"][3, 3] = np.nan
        self._measure_corrupted(workloads.Maxops2d, corrupt, self.scratch)

    def test_raising_pass(self):
        def corrupt(out):
            raise FloatingPointError("diverged")
        problems = self._measure_corrupted(workloads.Maxops2d, corrupt,
                                           self.scratch)
        self.assertEqual(problems, ["FloatingPointError: diverged"])


class Reporting(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        times = list(range(1, 41))
        value, pct, n = run.tail(times)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertEqual((value, pct, n), (30, 75.0, 40))
        self.assertEqual(run.tail([3, 1, 2])[0], 3)

    def test_benchmark_json_matches_code(self):
        with open(HERE.parent / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(list(run.WORKLOADS), list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [m[:3] for m in spans.LAYER_METRICS])


if __name__ == "__main__":
    unittest.main()
