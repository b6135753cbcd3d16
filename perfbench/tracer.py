"""Span tracing for the traced benchmark run.

Each wrapper records one span (name, start, end, parent) in memory per call.
Wrappers are installed on the module attribute that each caller looks the
name up in: ``pidtune.objective`` binds ``simulate_step`` with ``from .lti
import ...``, so patching ``pidtune.lti`` alone would miss those calls.
A layer's self time is its span minus the time covered by its child spans.

The speed probe (speed.py) runs during traced passes too. Each span records
the probe time inside it, which is taken out, and is scaled to reference
speed by the probes around it.
"""

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

import speed


class TraceError(RuntimeError):
    """A patch site is gone, or a layer that must run recorded no calls."""


def _scan_post(args, result):
    """Samples requested, samples produced before the clamp, diverged flag."""
    values, diverged = result
    n = int(args[4])
    live = n
    if diverged:
        clamped = values != values[-1]
        live = int(clamped.nonzero()[0][-1]) + 1 if clamped.any() else 0
    return (n, live, bool(diverged))


def _optimize_post(args, trace):
    """Evaluations, improving evaluations and distinct gain vectors of one search."""
    records = trace.records
    distinct = {(r.gains.kp, r.gains.ki, r.gains.kd) for r in records}
    return (len(records), sum(r.improved for r in records), len(distinct))


def _export_name(args, kwargs):
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "?")
    return f"render.export_trace.{fmt}"


# (module, attribute, span name or a function of the call's arguments,
#  post-hook run on the result after the span has ended)
SITES = (
    ("pidtune._kernels", "scan", "kernel.scan", _scan_post),
    ("pidtune.lti", "_rk4_step_map", "lti.rk4_step_map", None),
    # the benchmark's own search call
    ("pidtune.search", "optimize", "search.optimize", _optimize_post),
    # names as objective.evaluate looks them up
    ("pidtune.objective", "evaluate", "objective.evaluate", None),
    ("pidtune.objective", "close_unity_feedback", "lti.close_unity_feedback", None),
    ("pidtune.objective", "tf_to_state_space", "lti.tf_to_state_space", None),
    ("pidtune.objective", "simulate_step", "lti.simulate_step", None),
    ("pidtune.objective", "rise_time", "objective.rise_time", None),
    ("pidtune.objective", "band_deviation", "objective.band_deviation", None),
    # names as the CLI looks them up
    ("pidtune.cli", "main", "cli.main", None),
    ("pidtune.cli", "parse_plant", "cli.parse_plant", None),
    ("pidtune.cli", "_starting_gains", "cli.starting_gains", None),
    ("pidtune.cli", "ultimate_point", "tuning.ultimate_point", None),
    ("pidtune.cli", "zn_pid_gains", "tuning.zn_pid_gains", None),
    ("pidtune.cli", "draw_gains", "tuning.draw_gains", None),
    ("pidtune.cli", "optimize", "search.optimize", _optimize_post),
    ("pidtune.cli", "evaluate", "objective.evaluate", None),
    ("pidtune.cli", "close_unity_feedback", "lti.close_unity_feedback", None),
    ("pidtune.cli", "tf_to_state_space", "lti.tf_to_state_space", None),
    ("pidtune.cli", "simulate_step", "lti.simulate_step", None),
    ("pidtune.cli", "export_trace", _export_name, None),
    ("pidtune.cli", "render_animation", "render.render_animation", None),
    # name as render_animation looks it up
    ("pidtune.render", "render_frame", "render.render_frame", None),
)

# Layers every workload runs, plus the ones particular to each workload.
# A traced run in which one of these records no call fails.
COMMON_LAYERS = (
    "kernel.scan",
    "lti.rk4_step_map",
    "lti.close_unity_feedback",
    "lti.tf_to_state_space",
    "lti.simulate_step",
    "objective.evaluate",
    "objective.rise_time",
    "objective.band_deviation",
    "search.optimize",
    "cli.starting_gains",
)
WORKLOAD_LAYERS = {
    "zn_tune": ("tuning.ultimate_point", "tuning.zn_pid_gains"),
    "random_tune": ("tuning.draw_gains",),
    "frames_tune": (
        "tuning.ultimate_point",
        "tuning.zn_pid_gains",
        "cli.main",
        "cli.parse_plant",
        "render.export_trace.csv",
        "render.export_trace.json",
        "render.render_animation",
        "render.render_frame",
    ),
}


def check_sites():
    """Resolve every patch site; raise TraceError naming the ones that are gone."""
    resolved, missing = [], []
    for modname, attr, name, post in SITES:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            missing.append(modname)
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{modname}.{attr}")
            continue
        resolved.append((module, attr, fn, name, post))
    if missing:
        raise TraceError(
            "patch sites no longer exist: " + ", ".join(missing)
            + "; update perfbench/tracer.py SITES so no layer is reported as free"
        )
    return resolved


class Tracer:
    """In-memory span recorder; install() patches every site, remove() undoes it."""

    def __init__(self, probe=None):
        self.probe = probe if probe is not None else speed.Probe()
        self.spans = []  # [name, start, end, parent index or -1, probe time inside]
        self.extra = {}  # span index -> post-hook result
        self.post_s = 0.0  # time spent in post-hooks
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, post=None):
        spans, stack, extra, probe = self.spans, self._stack, self.extra, self.probe

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [
                name if isinstance(name, str) else name(args, kwargs),
                0.0,
                0.0,
                stack[-1] if stack else -1,
                0.0,
            ]
            spans.append(span)
            stack.append(idx)
            spent = probe.spent
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[4] = probe.spent - spent
                stack.pop()
            if post is not None:
                t = perf_counter()
                extra[idx] = post(args, result)
                self.post_s += perf_counter() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, fn, name, post in check_sites():
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, post))

    def remove(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def write_csv(self, path):
        lines = ["name,start,end,parent,probe"]
        lines.extend(f"{n},{s:.9f},{e:.9f},{p},{q:.9f}" for n, s, e, p, q in self.spans)
        path.write_text("\n".join(lines) + "\n")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def wrapper_cost(calls=20000, repeats=5):
    """Time one call through a span wrapper takes beyond the bare call, the
    median of `repeats` alternating timings of `calls` calls each."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = Tracer().wrap("noop", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _under(spans, i, name):
    """Whether span i has an ancestor called name."""
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, passes, bytes_written, margin=0.1):
    """Per-layer metrics from the spans of `passes` traced workload passes.

    `.us`/`.ms` are per-call medians, `.calls` and `_s` totals are per pass.
    Each span's time and self time are scaled to reference speed by the
    probes within `margin` seconds of it; with no probe at all, times are as
    measured. Self time is scaled as measured, not as a difference of scaled
    times, so that it cannot come out negative.
    """
    spans, extra, probe = tracer.spans, tracer.extra, tracer.probe
    factor = probe.factor(float("-inf"), float("inf")) or 1.0
    measured = [e - s - q for _, s, e, _, q in spans]
    scale = [probe.factor(s, e, margin) or factor for _, s, e, _, _ in spans]
    child = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            child[parent] += measured[i]
    dur = [m * f for m, f in zip(measured, scale)]
    self_time = [(m - c) * f for m, c, f in zip(measured, child, scale)]

    def per_call(name, unit):
        return _median([dur[i] for i in by_name[name]]) * unit

    def self_total(name):
        return sum(self_time[i] for i in by_name[name]) / passes

    scans = [extra[i] for i in by_name["kernel.scan"]]
    samples = sum(n for n, _, _ in scans)
    searches = [extra[i] for i in by_name["search.optimize"]]
    evaluations = sum(e for e, _, _ in searches)
    scan_time = sum(dur[i] for i in by_name["kernel.scan"])
    # Simulations of scored responses: not those that check a random start.
    simulations = sum(
        not _under(spans, i, "cli.starting_gains") for i in by_name["lti.simulate_step"]
    )
    overhead = len(spans) * wrapper_cost() * factor + tracer.post_s * factor
    return {
        "kernel.scan.us": per_call("kernel.scan", 1e6),
        "kernel.scan.calls": len(scans) / passes,
        "kernel.scan.ns_per_sample": scan_time / samples * 1e9 if samples else 0.0,
        "kernel.scan.diverged_frac": sum(d for _, _, d in scans) / len(scans) if scans else 0.0,
        "kernel.scan.live_frac": sum(v for _, v, _ in scans) / samples if samples else 0.0,
        "lti.close_unity_feedback.us": per_call("lti.close_unity_feedback", 1e6),
        "lti.tf_to_state_space.us": per_call("lti.tf_to_state_space", 1e6),
        "lti.rk4_step_map.us": per_call("lti.rk4_step_map", 1e6),
        "lti.simulate_step.us": per_call("lti.simulate_step", 1e6),
        "lti.simulate_step.per_eval": simulations / evaluations if evaluations else 0.0,
        "objective.evaluate.us": per_call("objective.evaluate", 1e6),
        "objective.evaluate.self_us": _median(
            [self_time[i] for i in by_name["objective.evaluate"]]
        ) * 1e6,
        "objective.rise_time.us": per_call("objective.rise_time", 1e6),
        "objective.band_deviation.us": per_call("objective.band_deviation", 1e6),
        "search.optimize.self_s": self_total("search.optimize"),
        "search.evaluations": evaluations / passes,
        "search.improved": sum(i for _, i, _ in searches) / passes,
        "search.distinct_frac": (
            sum(d for _, _, d in searches) / evaluations if evaluations else 0.0
        ),
        "tuning.ultimate_point.ms": per_call("tuning.ultimate_point", 1e3),
        "tuning.resample_draws": len(by_name["tuning.draw_gains"]) / passes,
        "render.render_frame.ms": per_call("render.render_frame", 1e3),
        "render.render_frame.calls": len(by_name["render.render_frame"]) / passes,
        "render.render_animation.self_s": self_total("render.render_animation"),
        "render.export_trace.csv_ms": per_call("render.export_trace.csv", 1e3),
        "render.export_trace.json_ms": per_call("render.export_trace.json", 1e3),
        "render.bytes_written": bytes_written / passes,
        "cli.parse_plant.us": per_call("cli.parse_plant", 1e6),
        "cli.main.self_s": self_total("cli.main"),
        "trace.overhead_s": overhead / passes,
    }


def check_layers(spans, workload):
    """Raise TraceError if a layer the workload must run recorded no call."""
    seen = {span[0] for span in spans}
    absent = [n for n in COMMON_LAYERS + WORKLOAD_LAYERS[workload] if n not in seen]
    if absent:
        raise TraceError(f"{workload}: no calls recorded for layers {', '.join(absent)}")
