import ast
import io
from contextlib import redirect_stdout
from pathlib import Path

import pidtune
from pidtune import SimConfig, cli, render, step_response
from pidtune.tuning import ultimate_point, zn_pid_gains

from helpers import BENCH3

SOURCES = sorted(Path(pidtune.__file__).parent.glob("*.py"))


def test_star_import_resolves_every_export():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec("from pidtune import *", namespace)
    missing = [name for name in pidtune.__all__ if name not in namespace]
    assert missing == []


def test_no_module_imports_another_modules_private_names():
    # a private name is its module's own business; importing the module
    # _kernels itself (from . import _kernels) stays allowed
    leaks = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                leaks.extend(
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert SOURCES
    assert leaks == []


def test_only_objective_runs_the_gains_to_response_chain():
    # objective.step_response is the one place that turns gains plus a plant
    # into a response; other modules may import the chain's names (cli does,
    # so perfbench's tracer can patch them there) but not call them
    chain = {"close_unity_feedback", "tf_to_state_space", "simulate_step"}
    calls = []
    for path in SOURCES:
        if path.name == "objective.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in chain:
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []


def test_only_evaluate_asks_for_a_settled_scan():
    # A response that the settle rule cuts short is fit for scoring only: a
    # frame, a samples CSV or a divergence check needs every sample. So
    # objective.evaluate is the one caller that asks for it; step_response
    # and simulate_step only pass their own settle parameter on, and no
    # call hands scan a seventh positional argument.
    asks, passes, scans = [], [], []
    for path in SOURCES:
        for func in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(func, ast.FunctionDef):
                continue
            own = {arg.arg for arg in func.args.args}
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                where = f"{path.stem}.{func.name}"
                for kw in node.keywords:
                    # a ** splat could carry settle as well
                    if kw.arg in ("settle", None):
                        value = kw.value
                        forwards = (isinstance(value, ast.Name) and value.id == "settle"
                                    and "settle" in own)
                        (passes if forwards else asks).append(where)
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "scan":
                    scans.append((where, len(node.args)))
    assert asks == ["objective.evaluate"]
    assert sorted(passes) == ["lti.simulate_step", "objective.step_response"]
    assert scans == [("lti.simulate_step", 6)]


def test_responses_outside_scoring_keep_every_sample(tmp_path, monkeypatch):
    # evaluate alone stops its scan of the ZN response at sample 1,473; a
    # random start is checked on its whole horizon; every frame draws the
    # whole response.
    cfg = SimConfig()
    zn = zn_pid_gains(ultimate_point(BENCH3))
    assert len(step_response(zn, BENCH3, cfg).values) == cfg.n_samples
    samples = tmp_path / "samples.csv"
    gains = ["--kp", repr(zn.kp), "--ki", repr(zn.ki), "--kd", repr(zn.kd)]
    with redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", *gains, "--samples", str(samples)]) == 0
    assert len(samples.read_text().splitlines()) == 1 + cfg.n_samples

    lengths = []
    start_check, frame = cli.step_response, render.render_frame

    def checked_start(*args):
        resp = start_check(*args)
        lengths.append(len(resp.values))
        return resp

    def drawn_frame(record, resp):
        lengths.append(len(resp.values))
        return frame(record, resp)

    monkeypatch.setattr(cli, "step_response", checked_start)
    monkeypatch.setattr(render, "render_frame", drawn_frame)
    # seed 4's first draw is stable and its second diverges
    argv = ["tune", "--start", "random", "--seed", "4", "--ensure-unstable", "--max-evals", "40"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        assert len(lengths) == 2
        assert cli.main(["tune", "--max-evals", "40", "--out", str(tmp_path), "--frames"]) == 0
    assert len(lengths) > 2 and set(lengths) == {cfg.n_samples}
