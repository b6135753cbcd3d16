"""pidtune benchmark: one workload per invocation, end-to-end metrics
untraced or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload zn_tune --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The program is imported from ./src; nothing
is installed or built. The process pins itself to one CPU. The workload runs
one pass after another while the next pass is expected to end within
--seconds (at least one pass).

Every time is reported at reference speed (see speed.py): each pass runs
under a speed probe that times fixed reference work every 50 ms, and each
pass, score call and span is scaled by the probes around it, so that the
machine's changes of speed do not show as changes of the program. A
`pass:` line gives each untraced pass's measured and scaled time.

With --trace 1 the passes are traced, and the per-layer metrics come from
their spans; trace.overhead_s is the time the span wrappers add to a pass. --smoke runs
every workload once per mode at a tiny size and checks metric names against
BENCHMARK.json and layer coverage.

The last line of stdout is the result:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
Intermediate output and the spans of a traced run go to ./.perfbench_out.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("zn_tune", "random_tune", "frames_tune")  # as in workloads.WORKLOADS
SETUP_REPEATS = 5  # before the passes and again after them
SETUP_PROBES = 10  # speed probes before and after each set-up
PASS_PROBES = 50  # speed probes before each pass
CALL_MARGIN_S = 0.1  # a score call is scaled by the probes this close to it
SETUP_CODE = (
    "import pidtune\n"
    "pidtune.evaluate(pidtune.PidGains(1.0, 0.0, 0.0), "
    "pidtune.TransferFunction((1.0,), (1.0, 1.0)), pidtune.SimConfig(t_max=1.0))\n"
)


def import_program():
    """Import pidtune from this checkout's src/ and nowhere else."""
    if not (SRC / "pidtune" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pidtune source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pidtune

    if Path(pidtune.__file__).resolve().parent != (SRC / "pidtune").resolve():
        sys.exit(f"perfbench: imported pidtune from {pidtune.__file__}, not from {SRC}")
    return pidtune


def environment(pidtune):
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": getattr(pidtune._kernels, "BACKEND", None),
    }


def setup_times(probe):
    """Times for a fresh interpreter to import pidtune and score one tiny
    evaluation, each scaled by probes taken just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample(SETUP_PROBES)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        t1 = perf_counter()
        probe.sample(SETUP_PROBES)
        times.append((t1 - t0) * probe.factor(t0, t1, margin=1.0))
    return times


def scaled(span, probe, fallback=None):
    """A (start, end, probe time inside) span at reference speed, scaled by
    the probes within CALL_MARGIN_S of it."""
    t0, t1, spent = span
    factor = probe.factor(t0, t1, margin=CALL_MARGIN_S) or fallback
    return (t1 - t0 - spent) * factor


def end_to_end(passes, probe, setup):
    walls, lat = [], []
    for p in passes:
        walls.append(scaled(p.span, probe))
        t0, t1, spent = p.span
        print(f"pass: {t1 - t0 - spent:.4f} s measured, {walls[-1]:.4f} s at reference speed")
        pass_factor = probe.factor(*p.span[:2])
        lat.extend(scaled(c, probe, pass_factor) for c in p.calls)
    p50 = statistics.median(lat) if lat else 0.0
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else p50
    return {
        "setup_s": setup,
        # Mean, not median: random_tune passes differ in their starts.
        "wall_s": sum(walls) / len(walls),
        "evals_per_s": sum(p.evaluations for p in passes) / sum(walls),
        "eval_ms.p50": p50 * 1e3,
        "eval_ms.p90": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload, seed, seconds, trace, scale):
    """Run one workload; return (attempted, failed, metrics). With trace, the
    spans are written to .perfbench_out."""
    import tracer
    import workloads

    wl = workloads.WORKLOADS[workload](seed, scale, OUT)
    probe = speed.Probe()
    spans = tracer.Tracer(probe)
    passes = []
    setup = [] if trace else setup_times(probe)
    t0 = perf_counter()
    while True:
        probe.sample(PASS_PROBES)
        with probe, (spans if trace else contextlib.nullcontext()):
            passes.append(wl.run_pass(len(passes), probe))
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not trace:
        setup += setup_times(probe)
        return attempted, failed, end_to_end(passes, probe, statistics.median(setup))
    tracer.check_layers(spans.spans, workload)
    metrics = tracer.layer_metrics(spans, len(passes), sum(p.bytes_written for p in passes))
    OUT.mkdir(exist_ok=True)
    spans.write_csv(OUT / f"spans-{workload}-seed{seed}.csv")
    return attempted, failed, metrics


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def result_line(attempted, failed, metrics, units):
    if set(metrics) != set(units):
        raise SystemExit(
            "perfbench: metrics do not match BENCHMARK.json; "
            f"extra {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    })


def smoke():
    """Every workload, untraced and traced, at a tiny size; exits non-zero on
    a metric-name mismatch, an uncovered layer or a failed run."""
    import workloads

    e2e_units, layer_units = declared_metrics()
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            attempted, failed, metrics = run(workload, 0, 0, trace, workloads.SMOKE)
            line = result_line(attempted, failed, metrics, layer_units if trace else e2e_units)
            print(f"{workload} trace={trace} {line}")
            bad += failed
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    pidtune = import_program()
    print("env " + json.dumps(environment(pidtune)))
    # One CPU for the benchmark, the program and the set-up's interpreters,
    # so that the speed probe reads the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Pay import and first-call costs before anything is timed.
    exec(SETUP_CODE, {"pidtune": pidtune})
    if args.smoke:
        return smoke()
    import tracer
    import workloads

    e2e_units, layer_units = declared_metrics()
    try:
        attempted, failed, metrics = run(
            args.workload, args.seed, args.seconds, args.trace, workloads.FULL
        )
    except tracer.TraceError as exc:
        sys.exit(f"perfbench: {exc}")
    print(result_line(attempted, failed, metrics, layer_units if args.trace else e2e_units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
