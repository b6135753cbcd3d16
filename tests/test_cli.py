import argparse
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidtune import (
    PidTuneError,
    PlantParseError,
    SearchConfig,
    SimConfig,
    evaluate,
    export_trace,
    optimize,
    render_frame,
    step_response,
)
from pidtune import cli, errors
from pidtune.cli import _starting_gains, parse_plant

from helpers import BENCH3


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

    def test_non_finite_coefficient_points_into_its_part(self):
        with pytest.raises(PlantParseError, match="'inf' is not finite") as info:
            parse_plant("num: inf / den: 1 1")
        assert info.value.position == 5  # the numerator's token
        with pytest.raises(PlantParseError, match="'nan' is not finite") as info:
            parse_plant("num: 1 / den: 1 nan")
        assert info.value.position == 16

    def test_improper_plant_rejected(self):
        with pytest.raises(PlantParseError, match="num degree 2 > den degree 1") as info:
            parse_plant("num: 1 0 0 / den: 1 1")
        assert info.value.position == 12  # the den: part

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

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
    def test_samples_csv_is_written_in_bounded_memory(self, tmp_path):
        # 300,001 samples: formatting the whole CSV at once would hold about
        # 50 MB of text; one chunk of rows holds under 2 MB. The child reports
        # its own peak as VmHWM: ru_maxrss would also keep the peak of the
        # test process it was forked from, which survives exec.
        def peak_kib(*extra):
            r = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from pidtune.cli import main; main(sys.argv[1:]); "
                 "print(next(line.split()[1] for line in open('/proc/self/status') "
                 "if line.startswith('VmHWM:')))",
                 "simulate", "--kp", "2", "--ki", "1", "--kd", "1",
                 "--dt", "0.01", "--tmax", "3000", *extra],
                capture_output=True, text=True, timeout=300,
            )
            assert r.returncode == 0, r.stderr
            return int(r.stdout.splitlines()[-1])

        path = tmp_path / "samples.csv"
        growth = peak_kib("--samples", str(path)) - peak_kib()
        assert path.read_bytes().count(b"\n") == 300_002
        assert growth < 10 * 1024

    def test_empty_samples_path_exits_2(self):
        r = run_cli("simulate", "--kp", "1", "--tmax", "5", "--samples", "")
        assert r.returncode == 2
        assert r.stderr == "error: InvalidInput: --samples needs a non-empty path\n"
        assert r.stdout == ""

    def test_samples_into_missing_directory_exits_2(self, tmp_path):
        r = run_cli("simulate", "--kp", "1", "--tmax", "5",
                    "--samples", str(tmp_path / "missing" / "samples.csv"))
        assert r.returncode == 2
        assert "OutputUnwritable" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv, message", [
        # den 1e-300 s^3 + ... overflows the monic normalization to inf, and
        # realization names the overflow
        (["--plant", "num: 1 / den: 1e-300 1 1 1", "--tmax", "1", "--kp=-1", "--ki", "1e300"],
         "the closed loop's realization overflows float64"),
        # a leading denominator coefficient of 1e-320 overflows it at any gains
        (["--plant", "num: 1 / den: 1e-320 1"], "the closed loop's realization overflows float64"),
        # den_C*den_G + num_C*num_G overflows to inf, and loop closure
        # names the overflow
        (["--plant", "num: 1 / den: 1e308 1e308 1e308 1e308", "--tmax", "2", "--kd", "1e308"],
         "the closed loop's coefficients overflow float64"),
    ], ids=["realization", "subnormal_lead", "closure"])
    def test_overflow_prints_no_warnings(self, argv, message):
        # numpy must not warn on the way to the typed error
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            rc = cli.main(["simulate", *argv])
        assert [str(w.message) for w in caught] == []
        assert rc == 2
        assert err.getvalue().startswith(f"error: InvalidInput: {message}")

    def test_sample_cap_exits_2(self):
        r = run_cli("simulate", "--dt", "1e-9", "--tmax", "1e9")
        assert r.returncode == 2
        assert "samples per response" in r.stderr
        assert "Traceback" not in r.stderr

    def test_negative_values_with_an_exponent(self):
        # argparse alone reads -5e-1 as an option, so a gain that tune
        # prints with %.6g could not be given back.
        def run(*argv):
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                rc = cli.main(["simulate", "--tmax", "5", *argv])
            return rc, out.getvalue(), err.getvalue()

        assert run("--kp", "-5e-1", "--ki", "-1.2e-05") == run("--kp=-0.5", "--ki=-0.000012")
        rc, _, err = run("--kp", "-inf")
        assert rc == 2 and err.startswith("error: InvalidInput: kp must be finite")

    def test_every_float_option_takes_an_exponent(self):
        parser = cli.build_parser()
        commands = next(action.choices for action in parser._actions if action.dest == "command")
        for command, sub in commands.items():
            for action in sub._actions:
                if action.type is float:
                    args = parser.parse_args([command, action.option_strings[0], "-5e-1"])
                    assert getattr(args, action.dest) == -0.5

    def test_abbreviated_option_takes_a_negative_exponent(self):
        # tune --min is --min-step; its value reaches SearchConfig's check
        # as it does written --min=-1e-3
        spaced = run_cli("tune", "--min", "-1e-3", "--max-evals", "3")
        joined = run_cli("tune", "--min=-1e-3", "--max-evals", "3")
        assert spaced.returncode == joined.returncode == 2
        assert spaced.stderr.startswith("error: InvalidInput: ")
        assert "Traceback" not in spaced.stderr
        assert spaced.stderr == joined.stderr

    def test_argv_from_the_command_line_takes_a_negative_exponent(self):
        spaced = run_cli("simulate", "--tmax", "5", "--kp", "-5e-1")
        joined = run_cli("simulate", "--tmax", "5", "--kp=-0.5")
        assert spaced.returncode == joined.returncode == 0
        assert spaced.stdout == joined.stdout


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

    def test_negative_seed_is_invalid_input(self):
        r = run_cli("tune", "--start", "random", "--seed", "-1", "--max-evals", "5")
        assert r.returncode == 2
        assert r.stderr == "error: InvalidInput: seed must be >= 0, got -1\n"
        assert r.stdout == ""

    def test_infinite_step_is_invalid_input(self):
        r = run_cli("tune", "--step", "inf", "--max-evals", "4", "--tmax", "2")
        assert r.returncode == 2
        assert r.stderr.startswith("error: InvalidInput: need 0 < min_step < initial_step < inf")
        assert r.stdout == ""  # refused before the header

    def test_frame_time_axis_overflow_is_invalid_input(self, tmp_path):
        # 562 px * 1e308 s overflows: the frames would draw to x=inf
        argv = ["tune", "--tmax", "1e308", "--dt", "1e308", "--max-evals", "4",
                "--out", str(tmp_path / "run"), "--frames"]
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()) as out, \
                redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("error")
            rc = cli.main(argv)
        assert rc == 2
        assert err.getvalue().startswith("error: InvalidInput: a frame cannot draw")
        assert out.getvalue() == ""  # refused before the search runs
        assert not (tmp_path / "run").exists()

    def test_overflowing_zn_hunt_is_no_ultimate_gain(self):
        # k=1 is stable; at k=2 the characteristic polynomial overflows
        r = run_cli("tune", "--plant", "num: 1e308 / den: 1 1", "--max-evals", "2")
        assert r.returncode == 2
        assert r.stderr.startswith("error: NoUltimateGain: closed-loop roots at k=2 overflow")
        assert r.stdout == ""

    def test_ensure_unstable_start(self):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "random", "--seed", "4",
                    "--ensure-unstable", "--max-evals", "5")
        assert r.returncode == 0
        assert "unstable-after=" in r.stdout
        # seed 4's first draw is stable; resampling must report extra draws
        assert "unstable-after=2" in r.stdout

    def test_ensure_unstable_gives_up_after_its_draws(self, tmp_path, monkeypatch):
        # seed 4's first draw is stable, so one draw is not enough
        monkeypatch.setattr(cli, "MAX_RESAMPLE_ATTEMPTS", 1)
        out = tmp_path / "run"
        with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as err:
            rc = cli.main(["tune", "--start", "random", "--seed", "4", "--ensure-unstable",
                           "--out", str(out)])
        assert rc == 2
        assert err.getvalue() == (
            "error: ResampleExhausted: no destabilizing gains in 1 draws (seed 4)\n"
        )
        assert stdout.getvalue() == "" and not out.exists()

    def test_frames_require_out(self):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "zn",
                    "--frames", "--max-evals", "5")
        assert r.returncode == 2
        assert r.stderr == "error: InvalidInput: --frames requires --out\n"
        assert r.stdout == ""  # refused before the search runs

    @pytest.mark.parametrize("frames", [[], ["--frames"]], ids=["trace", "frames"])
    def test_empty_out_exits_2(self, frames):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "zn",
                    "--max-evals", "5", "--out", "", *frames)
        assert r.returncode == 2
        assert r.stderr == "error: InvalidInput: --out needs a non-empty path\n"
        assert r.stdout == ""

    def test_effective_config_echoed(self, tmp_path):
        r = run_cli("tune", "--plant", "benchmark3", "--start", "zn", "--max-evals", "5",
                    "--step", "0.5", "--min-step", "1e-4", "--dt", "0.02", "--tmax", "50")
        assert r.returncode == 0
        assert "plant: num: 1 / den: 1 3 3 1" in r.stdout
        assert "dt=0.02 tmax=50" in r.stdout
        assert "step=0.5 min_step=0.0001" in r.stdout
        assert "max_evals=5" in r.stdout

    def test_fixed_band_and_step_ratios_in_outputs(self, tmp_path):
        # the settling band and the step ratios are constants, and every
        # output that showed them as settings still shows their values
        with pytest.raises(TypeError):
            SearchConfig(shrink=0.4)
        out = tmp_path / "run"
        with redirect_stdout(io.StringIO()) as stdout:
            rc = cli.main(["tune", "--max-evals", "5", "--tmax", "5", "--out", str(out),
                           "--frames"])
        assert rc == 0
        assert "dt=0.01 tmax=5 band=[0.98,1.02] rise_level=0.98\n" in stdout.getvalue()
        assert "step=1 min_step=1e-06 shrink=0.5 expand=2 max_evals=5\n" in stdout.getvalue()
        config = json.loads((out / "trace.json").read_text())["config"]
        assert list(config.items()) == [("initial_step", 1.0), ("shrink", 0.5),
                                        ("expand", 2.0), ("min_step", 1e-06),
                                        ("max_evals", 5)]
        index = json.loads((out / "frames" / "index.json").read_text())
        assert index["band"] == {"upper": 1.02, "lower": 0.98}

    @pytest.mark.parametrize("start, seed, tmax, max_evals", [
        ("random", 7, 100.0, 25),
        # 260 records, 35 of them repeats, one reaching back past 47
        # distinct points
        ("zn", None, 5.0, 5000),
    ], ids=["random", "zn"])
    def test_frames_match_resimulated_responses(self, tmp_path, start, seed, tmax, max_evals):
        out = tmp_path / "cli"
        r = run_cli("tune", "--plant", "benchmark3", "--start", start,
                    *(["--seed", str(seed)] if seed is not None else []), "--tmax", str(tmax),
                    "--out", str(out), "--frames", "--max-evals", str(max_evals))
        assert r.returncode == 0
        cfg = SimConfig(t_max=tmax)
        start_args = argparse.Namespace(start=start, seed=seed, ensure_unstable=False)
        start, _ = _starting_gains(start_args, BENCH3, cfg)
        trace = optimize(start, lambda g: evaluate(g, BENCH3, cfg),
                         SearchConfig(max_evals=max_evals))
        assert (out / "trace.csv").read_bytes() == export_trace(trace, "csv")
        names = [f"film_{rec.index}.svg" for rec in trace.records]
        assert json.loads((out / "frames" / "index.json").read_text()) == {
            "frames": names, "fps": 12, "band": {"upper": 1.02, "lower": 0.98},
            "plant": BENCH3.to_text(),
        }
        assert sorted(p.name for p in (out / "frames").iterdir()) == sorted(
            [*names, "index.json"]
        )
        for rec in trace.records:
            # every frame, a repeat's too, drawn from its own record's response
            want = render_frame(rec, step_response(rec.gains, BENCH3, cfg))
            assert (out / "frames" / f"film_{rec.index}.svg").read_bytes() == want.encode()

    @pytest.mark.parametrize("start", [["--start", "zn"], ["--start", "random", "--seed", "7"]],
                             ids=["zn", "random"])
    def test_traces_are_the_same_with_and_without_frames(self, tmp_path, start):
        # Without --frames, evaluate may stop the scan of a response that is
        # certified settled; with it, every response is scanned to the
        # horizon for its frame. Seed 7's first draw settles, as the ZN
        # start does, so both searches score many settled responses.
        outs = []
        for frames in ([], ["--frames"]):
            out = tmp_path / ("filmed" if frames else "plain")
            with redirect_stdout(io.StringIO()):
                assert cli.main(["tune", *start, "--out", str(out), *frames]) == 0
            outs.append(out)
        plain, filmed = outs
        for name in ("trace.csv", "trace.json"):
            assert (plain / name).read_bytes() == (filmed / name).read_bytes()

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
        trace = optimize(start, lambda g: evaluate(g, BENCH3, cfg),
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
        inner = cli.evaluate
        produced = []  # weak references to every response evaluate appended
        resimulated = []  # gains of every response simulated outside evaluate

        def evaluate(gains, plant, cfg, responses):
            names = sorted(p.name for p in frames.iterdir())
            # every record so far is filmed: one frame per evaluation, plus
            # one per repeated point, which evaluate does not see
            assert len(names) >= len(produced)
            assert names == sorted(f"film_{i}.svg" for i in range(1, len(names) + 1))
            assert not responses
            # none is held any more
            assert all(ref() is None for ref in produced)
            value = inner(gains, plant, cfg, responses)
            (resp,) = responses
            produced.append(weakref.ref(resp))
            return value

        monkeypatch.setattr(cli, "evaluate", evaluate)
        monkeypatch.setattr(cli, "step_response", lambda g, *_: resimulated.append(g))
        assert cli.main([*self.ARGS, "--out", str(tmp_path / "run"), "--frames"]) == 0
        assert all(ref() is None for ref in produced)
        records = json.loads((tmp_path / "run" / "trace.json").read_text())["records"]
        distinct = {(r["kp"], r["ki"], r["kd"]) for r in records}
        # one simulation per distinct point; the 6 repeats simulate nothing
        assert len(produced) == len(distinct) == 19
        assert resimulated == []
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

    def test_first_frame_removed_mid_run_exits_2(self, tmp_path, monkeypatch):
        frames = tmp_path / "run" / "frames"
        inner = cli.evaluate
        calls = 0

        def evaluate(*args):
            nonlocal calls
            calls += 1
            if calls == 3:
                # record 4 repeats the start, and is drawn from film_1.svg
                (frames / "film_1.svg").unlink()
            return inner(*args)

        monkeypatch.setattr(cli, "evaluate", evaluate)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            rc = cli.main([*self.ARGS, "--out", str(tmp_path / "run"), "--frames"])
        assert rc == 2
        assert err.getvalue().startswith("error: OutputUnwritable: cannot read back ")
        assert "film_1.svg" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert sorted(p.name for p in frames.iterdir()) == ["film_2.svg", "film_3.svg"]

    @pytest.mark.parametrize("out_args", [[], ["--out", "run"], ["--out", "run", "--frames"]],
                             ids=["no-out", "out", "frames"])
    def test_only_a_filmed_search_keeps_its_responses(self, tmp_path, monkeypatch, out_args):
        # evaluate may stop a scan early (the settle rule) only when it is
        # handed no list; a film needs every sample of every response
        inner = cli.evaluate
        handed = []

        def evaluate(gains, plant, cfg, responses):
            handed.append(responses)
            return inner(gains, plant, cfg, responses)

        monkeypatch.setattr(cli, "evaluate", evaluate)
        monkeypatch.chdir(tmp_path)
        with redirect_stdout(io.StringIO()):
            assert cli.main([*self.ARGS, *out_args]) == 0
        assert len(handed) == 19  # one per distinct point
        if "--frames" in out_args:
            # one list, the one render_animation drains
            assert type(handed[0]) is list and all(r is handed[0] for r in handed)
        else:
            assert handed == [None] * 19


# Inputs for the fuzz test. Each draw is an ordinary value or an edge case
# with even odds, so most runs get past input checks to the simulation and
# the search: plants with extreme coefficients, unparsable and improper
# plants, and option values at the edges of floats.
def _ordinary_or_edge(ordinary, edge) -> st.SearchStrategy:
    return st.booleans().flatmap(lambda is_edge: edge if is_edge else ordinary)


EDGE_VALUES = st.sampled_from(("0", "-1", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf"))
FUZZ_PLANTS = _ordinary_or_edge(
    st.sampled_from(("benchmark3", "num: 1 / den: 1 1", "num: 1 / den: 1 0 0",
                     "num: 2 1 / den: 1 2")),
    st.sampled_from(("num: 1e308 / den: 1 3 3 1", "num: 1 / den: 1e-300 1 1 1",
                     "num: 1 / den: 1e308 1e308 1e308 1e308", "num: 1 0 0 / den: 1 1",
                     "num: nan / den: 1 1", "num: 1 x / den: 1", "num: 1e308 / den: 1 1",
                     "num: 1 / den: 1e-300 1e10 1")),
)
FUZZ_VALUES = _ordinary_or_edge(st.sampled_from(("1", "2.5", "-2", "0.1")), EDGE_VALUES)
FUZZ_DT = _ordinary_or_edge(st.sampled_from(("0.01", "0.1", "0.5")), EDGE_VALUES)
FUZZ_TMAX = _ordinary_or_edge(st.sampled_from(("2", "1", "0.5")), EDGE_VALUES)
# A long horizon with a step of at least tmax/1000, so the grid stays small.
FUZZ_LONG_HORIZON = st.tuples(
    st.one_of(st.floats(2.0, 1e308), st.sampled_from((3e305, 3.2e305, 1e308, 1.7e308))),
    st.integers(1, 1000),
).map(lambda h: (repr(h[0]), repr(h[0] / h[1])))
FUZZ_MAX_EVALS = _ordinary_or_edge(st.integers(1, 4), st.integers(-2, 0))


def _spelled(option: str, value) -> st.SearchStrategy:
    """--option=value or --option value, the two ways argparse reads a value."""
    return st.sampled_from(([f"--{option}={value}"], [f"--{option}", str(value)]))


def _maybe(option: str, values) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.flatmap(lambda v: _spelled(option, v)))


@st.composite
def cli_argv(draw) -> list[str]:
    """argparse-valid simulate or tune argv whose responses have at most 1,001
    samples (or that SimConfig rejects) and budgets of at most 4 evaluations.
    Each option is spelled either way, and tune's --min-step and --max-evals
    sometimes by their abbreviations --min and --max."""
    command = draw(st.sampled_from(("simulate", "tune")))
    argv = [command, *draw(_spelled("plant", draw(FUZZ_PLANTS)))]
    if draw(st.booleans()):
        argv += [*draw(_spelled("tmax", draw(FUZZ_TMAX))), *draw(_maybe("dt", FUZZ_DT))]
    else:
        tmax, dt = draw(FUZZ_LONG_HORIZON)
        argv += [*draw(_spelled("tmax", tmax)), *draw(_spelled("dt", dt))]
    if command == "simulate":
        for option in ("kp", "ki", "kd"):
            argv += draw(_maybe(option, FUZZ_VALUES))
        return argv
    argv += draw(_spelled("start", draw(st.sampled_from(("zn", "random")))))
    argv += draw(_spelled(draw(st.sampled_from(("max-evals", "max"))), draw(FUZZ_MAX_EVALS)))
    argv += draw(_maybe("seed", st.integers(-5, 2**70)))
    argv += draw(_maybe("step", FUZZ_VALUES))
    argv += draw(_maybe(draw(st.sampled_from(("min-step", "min"))), FUZZ_VALUES))
    if draw(st.booleans()):
        argv.append("--ensure-unstable")
    return argv


def check_cli_run(argv: list[str], film: bool) -> int:
    """Run the CLI on argv, filming into a fresh directory when film is set
    and argv is a tune, and check that it gives a result or a typed error:
    no warnings and no inf or nan in any frame; then either exit 0 with
    nothing on stderr (for a film, one frame per trace record, listed in
    order by index.json) or exit 2 naming a PidTuneError. Returns the exit
    status."""
    film = film and argv[0] == "tune"
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        rc = cli.main([*argv, f"--out={out}", "--frames"] if film else argv)
        frames = Path(out, "frames")
        svgs = [p.read_text() for p in frames.glob("film_*.svg")]
        if rc == 0 and film:
            n_records = len(Path(out, "trace.csv").read_text().splitlines()) - 1
            names = [f"film_{i}.svg" for i in range(1, n_records + 1)]
            assert json.loads((frames / "index.json").read_text())["frames"] == names
            assert sorted(p.name for p in frames.iterdir()) == sorted([*names, "index.json"])
    assert [str(w.message) for w in caught] == []
    assert not [svg for svg in svgs if "inf" in svg or "nan" in svg]
    stderr = err.getvalue()
    if rc == 0:
        assert stderr == ""
        return rc
    assert rc == 2
    named = re.match(r"error: ([A-Z]\w+): ", stderr)
    assert named, stderr
    # a subclass, never the bare base class, so the message names the kind
    error = getattr(errors, named[1])
    assert issubclass(error, PidTuneError) and error is not PidTuneError
    return rc


@settings(max_examples=500, deadline=None)
@given(argv=cli_argv(), film=st.booleans())
def test_any_input_gives_a_result_or_a_typed_error(argv, film):
    check_cli_run(argv, film)


def test_overflowing_closed_loop_stops_the_search_with_a_typed_error():
    # a poll at step 1e308 overflows the closed loop's coefficients in
    # close_unity_feedback, and the search stops on that error
    argv = ["tune", "--step", "1e308", "--plant", "num: 10 / den: 1 3 3 1", "--max-evals", "20"]
    assert check_cli_run(argv, film=False) == 2
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        cli.main(argv)
    assert err.getvalue().startswith(
        "error: InvalidInput: the closed loop's coefficients overflow float64"
    )


def test_overflowing_realization_stops_the_search_with_a_typed_error():
    # the start scores a loop whose leading denominator coefficient, 1e-320,
    # overflows the monic normalization; the search prints its start line,
    # then stops on that error
    argv = ["tune", "--start", "random", "--seed", "2", "--plant", "num: 1 / den: 1e-320 1 1",
            "--max-evals", "3"]
    assert check_cli_run(argv, film=False) == 2
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        cli.main(argv)
    assert err.getvalue().startswith(
        "error: InvalidInput: the closed loop's realization overflows float64"
    )


# Filmed runs of ordinary plants, most of which exit 0: the fuzz test above
# reaches a written film in few of its draws, since most are refused at
# input checks.
FILM_PLANTS = st.sampled_from(("benchmark3", "num: 1 / den: 1 1", "num: 1 / den: 1 0 0",
                               "num: 1 / den: 1 3 2 0"))


@st.composite
def filmed_tune_argv(draw) -> list[str]:
    """tune argv over a short horizon (at most 201 samples a response) with
    5 to 30 evaluations, so the search runs long enough to poll points it
    has already scored."""
    argv = ["tune", f"--plant={draw(FILM_PLANTS)}",
            f"--tmax={draw(st.floats(0.5, 2.0))!r}",
            f"--dt={draw(st.sampled_from((0.01, 0.02, 0.05, 0.1)))!r}",
            f"--max-evals={draw(st.integers(5, 30))}",
            f"--step={draw(st.sampled_from((0.1, 0.5, 1.0, 2.0)))!r}"]
    if draw(st.booleans()):
        argv += ["--start=random", f"--seed={draw(st.integers(0, 2**63 - 1))}"]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=filmed_tune_argv())
def test_filmed_run_writes_one_frame_per_record(argv):
    check_cli_run(argv, film=True)
