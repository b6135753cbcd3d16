"""The benchmark's three workloads: inputs made from the workload seed, one
pass of work per call, and a correctness check of every search or CLI run
against reference values recorded from the seed commit.

All three run on benchmark3, 1/(s+1)^3, in one process with no extra threads:
a closed loop in which each evaluation waits for the previous one.

- zn_tune: the paper's Ziegler-Nichols experiment at the default horizon
  (10,001 samples per response). Responses are stable and full length, so
  the scan does nearly all the work; about 15% of evaluations repeat a point.
  The start is the CLI's `--start zn`, a function of the plant, so the seed
  is not used.
- random_tune: the paper's random-start experiment. Each start is the CLI's
  `--start random --seed s`, resampled until the initial response diverges,
  and is searched with initial_step=10. A pass runs the paper's ten draw
  seeds, in an order the workload seed sets. Five are plateau starts, whose
  responses all diverge near sample 2,000 and never rise, so no poll
  improves and points never repeat; five are rising-unstable starts, which
  descend like zn_tune. Searches are capped (RANDOM_MAX_EVALS) so that a
  pass fits a run.
- frames_tune: `pidtune tune --start zn --tmax 20 --out DIR --frames`, the
  only workload that runs the CLI, trace export, frame rendering and the
  CLI's second simulation of every response, at 2,001 samples per response.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pidtune import cli, lti, objective, search

BENCH3 = lti.TransferFunction((1.0,), (1.0, 3.0, 3.0, 1.0))

# Final f must match its reference to this relative tolerance; evaluation
# counts and termination must match exactly. A correct rewrite of the scan
# may move samples by about 1e-9 relative (different summation order).
# f is a rise time interpolated from those samples plus a band deviation
# read off them, so it moves by the same order; 1e-6 leaves three decades
# of headroom. A search that takes a different path ends with another
# evaluation count or with an f that differs in the third digit or earlier.
F_REL_TOL = 1e-6

ZN_REF = (336, "step-converged", 0.03134927576125344)

RANDOM_STEP = 10.0
# Evaluations per search, by kind of start: a plateau search costs about a
# fifth of a rising one per evaluation. Sized so that a pass of all ten starts
# fits a run, with the median score call on plateau starts and the 90th
# percentile on rising ones, not on the edge between the two.
RANDOM_MAX_EVALS = {"plateau": 100, "rising": 30}
# draw seed -> (kind, draws until the initial response diverged,
#               evaluations, termination, final f)
RANDOM_REF = {
    1: ("rising", 1, 30, "budget-exhausted", 0.16715154580219552),
    2: ("plateau", 1, 100, "budget-exhausted", 1.0),
    3: ("plateau", 1, 100, "budget-exhausted", 1.0),
    4: ("plateau", 2, 100, "budget-exhausted", 1.0),
    5: ("rising", 1, 30, "budget-exhausted", 0.16608585360379277),
    6: ("plateau", 1, 100, "budget-exhausted", 1.0),
    7: ("plateau", 2, 100, "budget-exhausted", 1.0),
    8: ("rising", 1, 30, "budget-exhausted", 0.1703001106406546),
    9: ("rising", 1, 30, "budget-exhausted", 0.10437095310010668),
    10: ("rising", 1, 30, "budget-exhausted", 0.26957460813316586),
}

FRAMES_TMAX = 20.0
FRAMES_REF = (557, "step-converged", 0.07898447823078762)


@dataclass(frozen=True)
class Scale:
    """Problem size. FULL is the benchmark; SMOKE is a tiny horizon and
    evaluation cap for the benchmark's own tests, with no reference check."""

    zn_tmax: float = 100.0
    random_tmax: float = 100.0
    frames_tmax: float = FRAMES_TMAX
    max_evals: int | None = None
    check_refs: bool = True


FULL = Scale()
SMOKE = Scale(zn_tmax=2.0, random_tmax=30.0, frames_tmax=2.0, max_evals=12,
              check_refs=False)


@dataclass
class PassResult:
    """One pass: its span and every score call's span as perf_counter
    (start, end, time the speed probe took inside), so that run.py can take
    the probe's time out and scale to reference speed."""

    span: tuple = (0.0, 0.0, 0.0)
    calls: list = field(default_factory=list)
    evaluations: int = 0
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0


def _problem(label, got, want):
    """A printable mismatch, or None when got matches want."""
    evals, term, f = got
    r_evals, r_term, r_f = want
    if evals == r_evals and term == r_term and math.isclose(f, r_f, rel_tol=F_REL_TOL):
        return None
    return (f"{label}: got evals={evals} {term} f={f!r}, "
            f"want evals={r_evals} {r_term} f={r_f!r}")


def _attempt(res, label, fn):
    """Run one search or CLI run; count it, and count it failed if it raises
    or returns a problem. Failures are printed to stderr."""
    res.attempted += 1
    try:
        problem = fn()
    except Exception:
        problem = f"{label}: raised\n{traceback.format_exc()}"
    if problem is not None:
        res.failed += 1
        print(f"CHECK FAILED {problem}", file=sys.stderr)


def _timed(probe, calls, fn):
    """fn wrapped to record each call's span in calls."""

    def timed(*args, **kwargs):
        spent = probe.spent
        t = perf_counter()
        value = fn(*args, **kwargs)
        calls.append((t, perf_counter(), probe.spent - spent))
        return value

    return timed


def _timed_pass(probe, body):
    res = PassResult()
    spent = probe.spent
    t = perf_counter()
    body(res)
    res.span = (t, perf_counter(), probe.spent - spent)
    return res


def _score(plant, cfg, probe, calls):
    """The score callable passed to optimize; looks objective.evaluate up on
    every call so the traced run's wrapper is used."""
    return _timed(probe, calls, lambda gains: objective.evaluate(gains, plant, cfg))


def _start(kind, seed=None):
    """The CLI's start-gain arguments: `--start zn`, or `--start random
    --seed SEED` resampled until the initial response diverges."""
    return argparse.Namespace(start=kind, seed=seed, ensure_unstable=True)


def _search_cfg(scale, **kw):
    if scale.max_evals is not None:
        kw["max_evals"] = min(kw.get("max_evals", scale.max_evals), scale.max_evals)
    return search.SearchConfig(**kw)


class ZnTune:
    def __init__(self, seed, scale, out_dir):
        self.scale = scale

    def run_pass(self, k, probe):
        cfg = lti.SimConfig(t_max=self.scale.zn_tmax)

        def one(res):
            start, _ = cli._starting_gains(_start("zn"), BENCH3, cfg)
            trace = search.optimize(
                start, _score(BENCH3, cfg, probe, res.calls), _search_cfg(self.scale)
            )
            res.evaluations += len(trace.records)
            got = (len(trace.records), trace.termination, trace.incumbent_value.total)
            return _problem("zn_tune", got, ZN_REF) if self.scale.check_refs else None

        return _timed_pass(probe, lambda res: _attempt(res, "zn_tune", lambda: one(res)))


class RandomTune:
    def __init__(self, seed, scale, out_dir):
        self.seed = seed
        self.scale = scale

    def draw_seeds(self, k):
        """Draw seeds of pass k: all ten, in an order set by the workload seed."""
        return [int(s) for s in np.random.default_rng([self.seed, k]).permutation(list(RANDOM_REF))]

    def run_pass(self, k, probe):
        cfg = lti.SimConfig(t_max=self.scale.random_tmax)

        def one(res, draw_seed):
            kind, r_draws, *want = RANDOM_REF[draw_seed]
            search_cfg = _search_cfg(
                self.scale, initial_step=RANDOM_STEP, max_evals=RANDOM_MAX_EVALS[kind]
            )
            start, desc = cli._starting_gains(_start("random", draw_seed), BENCH3, cfg)
            trace = search.optimize(start, _score(BENCH3, cfg, probe, res.calls), search_cfg)
            res.evaluations += len(trace.records)
            if not self.scale.check_refs:
                return None
            got = (len(trace.records), trace.termination, trace.incumbent_value.total)
            problem = _problem(f"random_tune draw seed {draw_seed}", got, want)
            draws = re.search(r"unstable-after=(\d+) draws", desc)
            if problem is None and (draws is None or int(draws[1]) != r_draws):
                problem = f"draw seed {draw_seed}: start {desc!r}, want {r_draws} draws"
            return problem

        def body(res):
            for s in self.draw_seeds(k):
                _attempt(res, f"random_tune draw seed {s}", lambda s=s: one(res, s))

        return _timed_pass(probe, body)


class FramesTune:
    def __init__(self, seed, scale, out_dir):
        self.scale = scale
        self.out = Path(out_dir) / f"frames_tune-{os.getpid()}"

    def argv(self):
        argv = ["tune", "--start", "zn", "--tmax", repr(self.scale.frames_tmax),
                "--out", str(self.out), "--frames"]
        if self.scale.max_evals is not None:
            argv += ["--max-evals", str(self.scale.max_evals)]
        return argv

    def run_pass(self, k, probe):
        shutil.rmtree(self.out, ignore_errors=True)
        inner = cli.evaluate

        def one(res):
            stdout, stderr = io.StringIO(), io.StringIO()
            # Time the CLI's score calls where the CLI looks evaluate up.
            cli.evaluate = _timed(probe, res.calls, inner)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = cli.main(self.argv())
            finally:
                cli.evaluate = inner
            if rc != 0:
                return f"frames_tune: exit status {rc}: {stderr.getvalue().strip()}"
            return self._check(res)

        res = _timed_pass(probe, lambda res: _attempt(res, "frames_tune", lambda: one(res)))
        res.bytes_written = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        shutil.rmtree(self.out, ignore_errors=True)
        return res

    def _check(self, res):
        doc = json.loads((self.out / "trace.json").read_text())
        n = res.evaluations = len(doc["records"])
        index = json.loads((self.out / "frames" / "index.json").read_text())
        svgs = sorted(p.name for p in (self.out / "frames").glob("film_*.svg"))
        want_names = sorted(f"film_{i}.svg" for i in range(1, n + 1))
        if index["frames"] != [f"film_{i}.svg" for i in range(1, n + 1)] or svgs != want_names:
            return (f"frames_tune: {len(svgs)} frames and {len(index['frames'])} indexed "
                    f"for {n} evaluations")
        csv_rows = (self.out / "trace.csv").read_text().count("\n") - 1
        if csv_rows != n:
            return f"frames_tune: trace.csv has {csv_rows} rows for {n} evaluations"
        if not self.scale.check_refs:
            return None
        got = (n, doc["termination"], doc["incumbent"]["total"])
        return _problem("frames_tune", got, FRAMES_REF)


WORKLOADS = {"zn_tune": ZnTune, "random_tune": RandomTune, "frames_tune": FramesTune}
