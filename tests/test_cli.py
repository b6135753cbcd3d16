import argparse
import json
import subprocess
import sys
import weakref

import pytest

from pidtune import (
    PlantParseError,
    SearchConfig,
    SettlingBand,
    SimConfig,
    evaluate,
    export_trace,
    optimize,
)
from pidtune import cli
from pidtune.cli import _starting_gains, parse_plant

from helpers import BENCH3, film_finished, loop_response


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


    def test_samples_into_missing_directory_exits_2(self, tmp_path):
        r = run_cli("simulate", "--kp", "1", "--tmax", "5",
                    "--samples", str(tmp_path / "missing" / "samples.csv"))
        assert r.returncode == 2
        assert "OutputUnwritable" in r.stderr
        assert "Traceback" not in r.stderr

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


def test_import_leaves_secrets_and_libcrypto_unloaded():
    # only an unseeded random start needs secrets (hashlib, _hashlib)
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, pidtune.cli; print('secrets' in sys.modules, '_hashlib' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False False"


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
        film_finished(trace, responses, band, out_dir=ref, plant=BENCH3)
        names = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in (out / "frames").iterdir()) == names
        for name in names:
            assert (out / "frames" / name).read_bytes() == (ref / name).read_bytes()

    @pytest.mark.parametrize("target,frames", [
        ("blocker", False),  # --out names an existing regular file
        ("blocker/run", False),  # --out lies under a non-directory
        ("blocker/run", True),
    ])
    def test_unwritable_out_exits_2_before_search(self, tmp_path, target, frames):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        args = ["tune", "--start", "zn", "--max-evals", "5", "--out", str(tmp_path / target)]
        r = run_cli(*args, *(["--frames"] if frames else []))
        assert r.returncode == 2
        assert "OutputUnwritable" in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""  # refused before the search runs

    @pytest.mark.parametrize("start", ["random", "zn"])
    def test_relative_degree_zero_plant_rejected(self, tmp_path, start):
        # every kd != 0 makes the ideal-PID loop improper, and every search
        # polls kd != 0
        out = tmp_path / "run"
        r = run_cli("tune", "--plant", "num: 2 1 / den: 1 2", "--start", start,
                    "--seed", "3", "--out", str(out))
        assert r.returncode == 2
        assert "ImproperLoop" in r.stderr
        assert "relative degree 0" in r.stderr
        assert r.stdout == ""
        assert not out.exists()

    def test_overflowing_polls_print_no_warnings(self, tmp_path):
        # a step of 1e308 overflows the step map; the responses diverge and
        # clamp as documented, and numpy must not warn about it on stderr
        out = tmp_path / "run"
        r = run_cli("tune", "--step", "1e308", "--max-evals", "20", "--tmax", "5",
                    "--out", str(out))
        assert r.returncode == 0
        assert r.stderr == ""
        cfg = SimConfig(t_max=5.0)
        start_args = argparse.Namespace(start="zn", seed=None, ensure_unstable=False)
        start, _ = _starting_gains(start_args, BENCH3, cfg)
        trace = optimize(start, lambda g: evaluate(g, BENCH3, cfg, SettlingBand()),
                         SearchConfig(initial_step=1e308, max_evals=20))
        assert (out / "trace.csv").read_bytes() == export_trace(trace, "csv")


    def test_overflowing_gains_exit_2_naming_the_poll(self, tmp_path):
        out = tmp_path / "run"
        r = run_cli("tune", "--plant", "num: 1 / den: 1 1", "--start", "random",
                    "--seed", "1", "--step", "1.5e308", "--max-evals", "40", "--tmax", "5",
                    "--out", str(out))
        assert r.returncode == 2
        assert "GainOverflow" in r.stderr
        assert "poll 11 at step 1.5e+308" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (out / "trace.csv").exists()


class TestFrameStreaming:
    ARGS = ["tune", "--start", "random", "--seed", "7", "--max-evals", "25", "--tmax", "20"]

    def test_frame_on_disk_before_next_evaluation(self, tmp_path, monkeypatch):
        frames = tmp_path / "run" / "frames"
        inner, inner_resimulate = cli.evaluate, cli._loop_response
        produced = []  # weak references to every response evaluate appended
        resimulated = []  # and to every response re-simulated for a repeated point

        def evaluate(gains, plant, cfg, band, responses):
            names = sorted(p.name for p in frames.iterdir())
            # every record so far is filmed: one frame per evaluation, plus
            # one per repeated point, which evaluate does not see
            assert len(names) >= len(produced)
            assert names == sorted(f"film_{i}.svg" for i in range(1, len(names) + 1))
            assert not responses
            # none is held any more
            assert all(ref() is None for ref in produced + resimulated)
            value = inner(gains, plant, cfg, band, responses)
            (resp,) = responses
            produced.append(weakref.ref(resp))
            return value

        def loop_response(gains, plant, cfg):
            assert all(ref() is None for ref in produced + resimulated)
            resp = inner_resimulate(gains, plant, cfg)
            resimulated.append(weakref.ref(resp))
            return resp

        monkeypatch.setattr(cli, "evaluate", evaluate)
        monkeypatch.setattr(cli, "_loop_response", loop_response)
        assert cli.main([*self.ARGS, "--out", str(tmp_path / "run"), "--frames"]) == 0
        records = json.loads((tmp_path / "run" / "trace.json").read_text())["records"]
        distinct = {(r["kp"], r["ki"], r["kd"]) for r in records}
        assert len(produced) == len(distinct) == 19
        assert len(resimulated) == 25 - 19
        index = json.loads((frames / "index.json").read_text())
        assert index["frames"] == [f"film_{i}.svg" for i in range(1, 26)]

    def test_search_error_leaves_frames_without_index(self, tmp_path, monkeypatch):
        frames = tmp_path / "run" / "frames"
        inner = cli.evaluate
        calls = 0

        def evaluate(*args):
            nonlocal calls
            calls += 1
            if calls == 4:
                raise RuntimeError("evaluation failed")
            return inner(*args)

        monkeypatch.setattr(cli, "evaluate", evaluate)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            cli.main([*self.ARGS, "--out", str(tmp_path / "run"), "--frames"])
        # record 4 repeats the start, so the 4th evaluation is record 5's
        assert sorted(p.name for p in frames.iterdir()) == [
            "film_1.svg", "film_2.svg", "film_3.svg", "film_4.svg"
        ]
