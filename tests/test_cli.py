import argparse
import json
import subprocess
import sys

import pytest

from pidtune import (
    PlantParseError,
    SearchConfig,
    SettlingBand,
    SimConfig,
    evaluate,
    export_trace,
    optimize,
    render_animation,
)
from pidtune.cli import _starting_gains, parse_plant

from helpers import BENCH3, loop_response


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pidtune", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestParsePlant:
    def test_preset(self):
        tf = parse_plant("benchmark3")
        assert tf.num == (1.0,)
        assert tf.den == (1.0, 3.0, 3.0, 1.0)

    def test_text_form(self):
        tf = parse_plant("num: 2 0.5 / den: 1 3 3 1")
        assert tf.num == (2.0, 0.5)
        assert tf.den == (1.0, 3.0, 3.0, 1.0)

    def test_bad_token_reports_position(self):
        with pytest.raises(PlantParseError) as exc:
            parse_plant("num: 1 x / den: 1 1")
        assert "x" in str(exc.value)
        assert exc.value.position == 7

    def test_missing_slash(self):
        with pytest.raises(PlantParseError):
            parse_plant("num: 1 den: 1 1")

    def test_missing_keyword(self):
        with pytest.raises(PlantParseError):
            parse_plant("1 2 / den: 1 1")

    def test_improper_plant_rejected(self):
        with pytest.raises(PlantParseError):
            parse_plant("num: 1 0 0 / den: 1 1")

    def test_empty_coefficients(self):
        with pytest.raises(PlantParseError):
            parse_plant("num: / den: 1 1")


class TestSimulateCommand:
    def test_first_order_plant_low_gain(self):
        # relative degree 1 with kd=0 keeps the loop proper; steady state 0.5
        r = run_cli("simulate", "--plant", "num: 1 / den: 1 1",
                    "--kp", "1", "--ki", "0", "--kd", "0")
        assert r.returncode == 0
        assert "total=1 " in r.stdout
        assert "rose=false" in r.stdout

    def test_zero_gains_on_benchmark(self):
        r = run_cli("simulate", "--plant", "benchmark3", "--kp", "0", "--ki", "0", "--kd", "0")
        assert r.returncode == 0
        assert "total=1 " in r.stdout

    def test_malformed_plant_nonzero_exit(self):
        r = run_cli("simulate", "--plant", "num: 1 x / den: 1 1", "--kp", "1")
        assert r.returncode != 0
        assert "'x'" in r.stderr

    def test_improper_loop_reports_error(self):
        # kd against a static plant pushes the open-loop numerator degree
        # past the denominator; with a relative-degree-1 plant the degrees
        # would only tie, which is accepted
        r = run_cli("simulate", "--plant", "num: 1 / den: 1",
                    "--kp", "1", "--ki", "0", "--kd", "1")
        assert r.returncode != 0
        assert "ImproperLoop" in r.stderr

    def test_samples_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        r = run_cli("simulate", "--plant", "benchmark3", "--kp", "1",
                    "--tmax", "5", "--samples", str(path))
        assert r.returncode == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,z"
        assert len(lines) == 502
        t, z = lines[1].split(",")
        assert float(t) == 0.0
        assert float(z) == 0.0


    def test_sample_cap_exits_2(self):
        r = run_cli("simulate", "--dt", "1e-9", "--tmax", "1e9")
        assert r.returncode == 2
        assert "samples per response" in r.stderr
        assert "Traceback" not in r.stderr


def test_import_leaves_numpy_random_unloaded():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, pidtune.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


class TestTuneCommand:
    def test_zn_start_descends(self, tmp_path):
        out = tmp_path / "run"
        r = run_cli("tune", "--plant", "benchmark3", "--start", "zn",
                    "--out", str(out), "--max-evals", "200")
        assert r.returncode == 0
        assert "ku=8 " in r.stdout
        assert "initial: kp=4.8 " in r.stdout
        trace = json.loads((out / "trace.json").read_text())
        totals = [rec["total"] for rec in trace["records"]]
        assert trace["incumbent"]["total"] < totals[0]
        assert (out / "trace.csv").exists()

    def test_zn_on_first_order_plant_fails(self):
        r = run_cli("tune", "--plant", "num: 1 / den: 1 1", "--start", "zn")
        assert r.returncode != 0
        assert "NoUltimateGain" in r.stderr

    def test_random_seed_reproducible_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = run_cli("tune", "--plant", "benchmark3", "--start", "random",
                        "--seed", "7", "--out", str(out), "--frames", "--max-evals", "25")
            assert r.returncode == 0
            outs.append(out)
        a, b = outs
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()
        frames_a = sorted(p.name for p in (a / "frames").iterdir())
        frames_b = sorted(p.name for p in (b / "frames").iterdir())
        assert frames_a == frames_b
        assert frames_a  # not empty
        for name in frames_a:
            assert (a / "frames" / name).read_bytes() == (b / "frames" / name).read_bytes()

    def test_random_seed_echoed(self, tmp_path):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "random",
                    "--seed", "42", "--max-evals", "5")
        assert r.returncode == 0
        assert "seed=42" in r.stdout

    def test_ensure_unstable_start(self):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "random", "--seed", "4",
                    "--ensure-unstable", "--max-evals", "5")
        assert r.returncode == 0
        assert "unstable-after=" in r.stdout
        # seed 4's first draw is stable; resampling must report extra draws
        assert "unstable-after=2" in r.stdout

    def test_frames_require_out(self):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "zn",
                    "--frames", "--max-evals", "5")
        assert r.returncode != 0
        assert "--frames requires --out" in r.stderr
        assert r.stdout == ""  # refused before the search runs

    def test_effective_config_echoed(self, tmp_path):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "zn", "--max-evals", "5",
                    "--step", "0.5", "--min-step", "1e-4", "--dt", "0.02", "--tmax", "50")
        assert r.returncode == 0
        assert "plant: num: 1 / den: 1 3 3 1" in r.stdout
        assert "dt=0.02 tmax=50" in r.stdout
        assert "step=0.5 min_step=0.0001" in r.stdout
        assert "max_evals=5" in r.stdout

    def test_frames_match_resimulated_responses(self, tmp_path):
        out = tmp_path / "cli"
        r = run_cli("tune", "--plant", "benchmark3", "--start", "random",
                    "--seed", "7", "--out", str(out), "--frames", "--max-evals", "25")
        assert r.returncode == 0
        cfg, band = SimConfig(), SettlingBand()
        start_args = argparse.Namespace(start="random", seed=7, ensure_unstable=False)
        start, _ = _starting_gains(start_args, BENCH3, cfg)
        trace = optimize(start, lambda g: evaluate(g, BENCH3, cfg, band),
                         SearchConfig(max_evals=25))
        assert (out / "trace.csv").read_bytes() == export_trace(trace, "csv")
        responses = [loop_response(rec.gains, BENCH3, cfg) for rec in trace.records]
        ref = tmp_path / "ref"
        render_animation(trace, responses, band, out_dir=ref, plant=BENCH3)
        names = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in (out / "frames").iterdir()) == names
        for name in names:
            assert (out / "frames" / name).read_bytes() == (ref / name).read_bytes()
