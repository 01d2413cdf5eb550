"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They use a small facet workload on A3 and the verify-suite workload, so they
take a few seconds, not the length of a benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from subwordlab import CoxeterSystem, coxeter, ring  # noqa: E402
from subwordlab.multicluster import facet_count_formula  # noqa: E402

MINI = workloads.FacetWorkload((("A3", 2),), flips=True, theta=(("A3", 2),))
MINI_PINS = {
    "FACETS": {("A3", 2): 84},
    "THETA_ORBITS": {("A3", 2): {2: 2, 4: 4, 8: 8}},
}

# Per-layer metrics that count work and so must repeat exactly.
EXACT_RATIOS = (
    "subword.enumerate_facets_dfs.mul_per_facet",
    "subword.root_table.per_flip",
    "subword.flip.mul_per_flip",
)


def _with_mini():
    patches = [mock.patch.dict(workloads.WORKLOADS, {"mini": MINI})]
    patches += [mock.patch.dict(getattr(workloads, name), pins) for name, pins in MINI_PINS.items()]
    return patches


def _bindings(namespaces) -> dict:
    """Identity of every name (and module-level dict entry) the tracer may patch."""
    out = {}
    for namespace in namespaces:
        for name, value in vars(namespace).items():
            out[(namespace.__name__, name)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    out[(namespace.__name__, name, repr(key))] = id(item)
    return out


class TracedRunTest(unittest.TestCase):
    def setUp(self):
        for patch in _with_mini():
            patch.start()
            self.addCleanup(patch.stop)

    def _assert_traced_run_is_clean(self, workload: str):
        namespaces = (*tracer.MODULES, coxeter.CoxeterSystem, coxeter.Element, ring.GoldenInt)
        before = _bindings(namespaces)
        result = child.measure(workload, 0, 0.0, trace=True)
        self.assertEqual(result["failures"], [])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(_bindings(namespaces), before)
        return result

    def test_traced_and_untraced_outputs_agree_and_wrappers_are_restored(self):
        result = self._assert_traced_run_is_clean("mini")
        layer = result["per_layer"]
        self.assertEqual(layer["subword.flip.calls"], 84 * 6)
        self.assertEqual(layer["subword.root_table.per_flip"], 1.0)
        self.assertEqual(layer["subword.subword_complex.rebuilds"], 1)

    def test_suite_run_restores_the_sweep_script_bindings(self):
        result = self._assert_traced_run_is_clean("verify-suite")
        import conjecture_sweep as sweep
        from subwordlab import experiments

        self.assertIs(sweep.run_count_experiment, experiments.run_count_experiment)
        self.assertGreaterEqual(result["per_layer"]["coxeter.CoxeterSystem.calls"], 100)
        self.assertGreater(result["per_layer"]["experiments.run_sin_experiment.s"], 0)


class PinnedValueTest(unittest.TestCase):
    def test_wrong_facet_count_is_a_failed_op(self):
        with mock.patch.dict(workloads.WORKLOADS, {"mini": MINI}), \
                mock.patch.dict(workloads.FACETS, {("A3", 2): 85}), \
                mock.patch.dict(workloads.THETA_ORBITS, MINI_PINS["THETA_ORBITS"]):
            result = child.measure("mini", 0, 0.0, trace=False)
        self.assertEqual(result["attempted"], 3)
        self.assertIn("facets A3 k=2: 84 facets, expected 85", result["failures"])
        self.assertEqual(result["failed"], 3)  # the flip graph and theta checks use it too

    def test_wrong_report_digest_is_a_failed_op(self):
        key = ("verify", "mesh")
        with mock.patch.dict(workloads.REPORT_DIGESTS, {key: "0" * 64}):
            result = child.measure("verify-suite", 0, 0.0, trace=False)
        self.assertEqual(result["attempted"], len(workloads.REPORT_DIGESTS))
        self.assertEqual(result["failed"], 1)
        self.assertTrue(result["failures"][0].startswith("verify mesh: digest"))

    def test_pinned_facet_counts_match_the_formula_where_it_is_a_theorem(self):
        for (name, k), count in workloads.FACETS.items():
            if k == 1 or name[0] in "ABI":
                with self.subTest(name=name, k=k):
                    self.assertEqual(facet_count_formula(CoxeterSystem(name), k), count)


class HostSpeedTest(unittest.TestCase):
    def test_calls_are_scaled_by_the_loop_time_around_them(self):
        host = hostspeed.HostSpeed()
        nominal = hostspeed.NOMINAL_S
        # Ten samples at twice the nominal loop time during [1, 2], one outlier each way.
        host._samples = [(1.0 + i / 10, 2 * nominal) for i in range(10)]
        host._samples += [(1.05, 100 * nominal), (1.15, nominal / 100)]
        self.assertAlmostEqual(host.corrected(1.0, 2.0), 0.5)
        # A call with fewer samples than NEAREST uses the nearest ones.
        self.assertAlmostEqual(host.corrected(1.31, 1.32), 0.005)


class SeedTest(unittest.TestCase):
    def test_seed_zero_is_lex_first_and_seeds_repeat(self):
        system = CoxeterSystem("E6")
        words = coxeter.enumerate_coxeter_words(system)
        self.assertEqual(workloads.pick_coxeter_word(system, "E6", 1, 0), words[0])
        picks = {workloads.pick_coxeter_word(system, "E6", 1, seed) for seed in range(1, 20)}
        self.assertGreater(len(picks), 5)
        self.assertEqual(
            workloads.pick_coxeter_word(system, "E6", 1, 7),
            workloads.pick_coxeter_word(system, "E6", 1, 7),
        )


class ProcessTest(unittest.TestCase):
    def _traced_counts(self) -> dict:
        completed = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", "verify-suite",
             "--seed", "3", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
        )
        layer = json.loads(completed.stdout.splitlines()[-1])["per_layer"]
        units = child.per_layer_units()
        return {
            name: value
            for name, value in layer.items()
            if units[name] == "count" or name in EXACT_RATIOS
        }

    def test_counts_repeat_across_two_traced_runs(self):
        first = self._traced_counts()
        self.assertEqual(first, self._traced_counts())
        self.assertGreater(first["coxeter.Element.__mul__.calls"], 0)
        self.assertGreater(first["subword.all_faces.faces"], 0)

    def test_benchmark_json_lists_what_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, child.per_layer_units())
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        self.assertEqual(names, list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"] for m in spec["end_to_end"]},
            {"setup_s", "wall_s", "work_per_s", "peak_rss_mb", "ops_ok_frac"},
        )

    def test_fails_without_a_checkout(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "faces", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
