"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402


def result_lines(stdout):
    return [json.loads(line.split(" ", 2)[2]) for line in stdout.splitlines()
            if line.split(" ", 1)[0] in ("zn_tune", "random_tune", "frames_tune")]


class SmokeRun(unittest.TestCase):
    def test_metric_names_and_layer_coverage(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"] for m in spec["end_to_end"]}
        layers = {m["name"] for m in spec["per_layer"]}
        lines = result_lines(proc.stdout)
        self.assertEqual(len(lines), 2 * len(spec["workloads"]))
        for i, line in enumerate(lines):
            self.assertTrue(line["correct"])
            self.assertEqual(set(line["metrics"]), layers if i % 2 else e2e)
        for name in e2e:
            for line in lines[::2]:
                self.assertGreater(line["metrics"][name]["value"], 0, name)

    def test_refuses_without_program_source(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "zn_tune", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class SpeedProbe(unittest.TestCase):
    def test_probe_samples_during_work_and_counts_its_time(self):
        with speed.Probe(interval=0.01) as probe:
            t = perf_counter()
            while perf_counter() - t < 0.2:
                pass
        self.assertGreater(len(probe.durations), 5)
        self.assertAlmostEqual(probe.spent, sum(probe.durations))
        self.assertGreater(probe.factor(t, perf_counter()), 0)
        self.assertIsNone(probe.factor(t + 10, t + 11))


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        t = tracer.Tracer()
        inner = t.wrap("cli.parse_plant", lambda: sleep(0.02))

        def body():
            inner()
            sleep(0.01)

        t.wrap("cli.main", body)()
        (outer, s_out, e_out, p_out, _), (name, s_in, e_in, p_in, _) = t.spans
        self.assertEqual((outer, p_out, name, p_in), ("cli.main", -1, "cli.parse_plant", 0))
        self.assertTrue(s_out <= s_in <= e_in <= e_out)
        self_s = tracer.layer_metrics(t, 1, 0)["cli.main.self_s"]
        self.assertAlmostEqual(self_s, (e_out - s_out) - (e_in - s_in), places=12)
        self.assertGreaterEqual(self_s, 0.01)

    def test_missing_patch_site_fails(self):
        import pidtune.render

        saved = pidtune.render.render_frame
        del pidtune.render.render_frame
        try:
            with self.assertRaisesRegex(tracer.TraceError, "pidtune.render.render_frame"):
                tracer.check_sites()
        finally:
            pidtune.render.render_frame = saved

    def test_layer_with_no_calls_fails(self):
        spans = [[name, 0.0, 1.0, -1, 0.0] for name in tracer.COMMON_LAYERS]
        with self.assertRaisesRegex(tracer.TraceError, "render.render_frame"):
            tracer.check_layers(spans, "frames_tune")

    def test_wrapper_cost_is_positive(self):
        self.assertGreater(tracer.wrapper_cost(), 0)

    def test_install_and_remove_restore_every_site(self):
        before = [getattr(m, a) for m, a, *_ in tracer.check_sites()]
        with tracer.Tracer():
            during = [getattr(m, a) for m, a, *_ in tracer.check_sites()]
        after = [getattr(m, a) for m, a, *_ in tracer.check_sites()]
        self.assertEqual(before, after)
        self.assertTrue(all(d is not b for d, b in zip(during, before)))


if __name__ == "__main__":
    unittest.main()
