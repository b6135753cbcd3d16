"""Command-line entry point: score a single gain vector, or run a full
tuning search from Ziegler-Nichols or random starting gains."""

import argparse
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ImproperLoop, InvalidInput, PidTuneError, PlantParseError, ResampleExhausted
# close_unity_feedback, tf_to_state_space and simulate_step are not called
# here: perfbench/tracer.py still patches them on this module, until its
# sites can follow a moved layer (ROADMAP item 1)
from .lti import (
    PidGains,
    SimConfig,
    TransferFunction,
    close_unity_feedback,
    simulate_step,
    tf_to_state_space,
)
from .objective import BAND_LOWER, BAND_UPPER, RISE_LEVEL, evaluate, step_response
from .render import (
    check_frame_horizon,
    export_trace,
    make_output_dir,
    render_animation,
    write_output,
)
from .search import SearchConfig, optimize
from .tuning import draw_gains, ultimate_point, zn_pid_gains

PLANT_PRESETS = {
    # classic third-order lag: relative degree 3 keeps the ideal-PID loop
    # strictly proper and the ultimate point is analytic (ku=8)
    "benchmark3": TransferFunction((1.0,), (1.0, 3.0, 3.0, 1.0)),
}

MAX_RESAMPLE_ATTEMPTS = 1000

# Rows of `simulate --samples` formatted per write: about 0.4 MB of text.
CSV_CHUNK_ROWS = 10_000

def parse_plant(text: str) -> TransferFunction:
    """Parse a preset name or the grammar ``num: c_n ... c_0 / den: d_m ... d_0``."""
    if text in PLANT_PRESETS:
        return PLANT_PRESETS[text]
    slash = text.find("/")
    if slash < 0:
        raise PlantParseError("expected '/' between num and den parts", len(text))
    num = _parse_coeff_part(text, 0, slash, "num:")
    den = _parse_coeff_part(text, slash + 1, len(text), "den:")
    try:
        return TransferFunction(num, den)
    except InvalidInput as exc:
        raise PlantParseError(str(exc), slash + 1) from exc


def _parse_coeff_part(text: str, start: int, end: int, keyword: str) -> list[float]:
    part = text[start:end]
    stripped = part.lstrip()
    offset = start + (len(part) - len(stripped))
    if not stripped.startswith(keyword):
        raise PlantParseError(f"expected {keyword!r}", offset)
    coeffs = []
    pos = offset + len(keyword)
    for token in text[pos:end].split():
        tok_pos = text.index(token, pos, end)
        try:
            coeffs.append(float(token))
        except ValueError:
            raise PlantParseError(f"invalid coefficient {token!r}", tok_pos) from None
        if not math.isfinite(coeffs[-1]):
            raise PlantParseError(f"coefficient {token!r} is not finite", tok_pos)
        pos = tok_pos + len(token)
    if not coeffs:
        raise PlantParseError(f"no coefficients after {keyword!r}", pos)
    return coeffs


def _gain_line(label: str, gains: PidGains, value) -> str:
    return (
        f"{label}: kp={gains.kp:.6g} ki={gains.ki:.6g} kd={gains.kd:.6g} "
        f"f={value.total:.6g} rise_time={value.rise_time:.6g} deviation={value.deviation:.6g}"
    )


def _sample_rows(resp):
    """The t,z CSV of a response as bytes, CSV_CHUNK_ROWS rows at a time, so
    that no more than one chunk of text is held at once."""
    yield b"t,z\n"
    dt = resp.dt
    for start in range(0, len(resp.values), CSV_CHUNK_ROWS):
        chunk = resp.values[start : start + CSV_CHUNK_ROWS].tolist()
        rows = "".join(f"{k * dt:.17g},{z:.17g}\n" for k, z in enumerate(chunk, start))
        yield rows.encode("utf-8")


def _output_path(value: str | None, option: str) -> Path | None:
    if value == "":
        raise InvalidInput(f"{option} needs a non-empty path")
    return None if value is None else Path(value)


def cmd_simulate(args) -> int:
    samples = _output_path(args.samples, "--samples")
    plant = parse_plant(args.plant)
    cfg = SimConfig(t_max=args.tmax, dt=args.dt)
    gains = PidGains(kp=args.kp, ki=args.ki, kd=args.kd)
    responses = []
    value = evaluate(gains, plant, cfg, responses)
    print(
        f"total={value.total:.6g} rise_time={value.rise_time:.6g} "
        f"deviation={value.deviation:.6g} rose={'true' if value.rose else 'false'}"
    )
    if samples is not None:
        (resp,) = responses
        write_output(samples, _sample_rows(resp))
        print(f"samples written to {samples}")
    return 0


def _starting_gains(args, plant, cfg):
    """Resolve the start flag into gains plus a printable description. With
    --ensure-unstable, the start is the first draw whose step_response diverges."""
    if args.start == "zn":
        up = ultimate_point(plant)
        gains = zn_pid_gains(up)
        return gains, f"start=zn ku={up.ku:.6g} tu={up.tu:.6g}"
    seed = args.seed
    if seed is None:
        # imported here: secrets loads hashlib and libcrypto, which only an
        # unseeded random start needs
        import secrets

        seed = secrets.randbits(63)
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if not args.ensure_unstable:
        return draw_gains(rng), f"start=random seed={seed}"
    for attempt in range(1, MAX_RESAMPLE_ATTEMPTS + 1):
        gains = draw_gains(rng)
        if step_response(gains, plant, cfg).diverged:
            return gains, f"start=random seed={seed} unstable-after={attempt} draws"
    raise ResampleExhausted(
        f"no destabilizing gains in {MAX_RESAMPLE_ATTEMPTS} draws (seed {seed})"
    )


def cmd_tune(args) -> int:
    out = _output_path(args.out, "--out")
    if args.frames and out is None:
        raise InvalidInput("--frames requires --out")
    plant = parse_plant(args.plant)
    cfg = SimConfig(t_max=args.tmax, dt=args.dt)
    if args.frames:
        check_frame_horizon((cfg.n_samples - 1) * cfg.dt)
    search = SearchConfig(
        initial_step=args.step, min_step=args.min_step, max_evals=args.max_evals
    )
    if plant.relative_degree < 1:
        # kd s^2 in the controller numerator outgrows the loop denominator,
        # and every search polls kd != 0
        raise ImproperLoop(
            f"plant has relative degree {plant.relative_degree}; the ideal-PID loop "
            f"is improper for every kd != 0, so tune needs relative degree >= 1"
        )
    gains, start_desc = _starting_gains(args, plant, cfg)
    if out is not None:
        make_output_dir(out / "frames" if args.frames else out)

    print(f"plant: {plant.to_text()}")
    print(
        f"dt={cfg.dt:.6g} tmax={cfg.t_max:.6g} "
        f"band=[{BAND_LOWER:.6g},{BAND_UPPER:.6g}] rise_level={RISE_LEVEL:.6g}"
    )
    print(
        f"search: step={search.initial_step:.6g} min_step={search.min_step:.6g} "
        f"shrink={search.shrink:.6g} expand={search.expand:.6g} max_evals={search.max_evals}"
    )
    print(start_desc)

    def run(on_record=None, responses=None):
        return optimize(
            gains, lambda g: evaluate(g, plant, cfg, responses), search, on_record
        )

    trace = render_animation(run, out / "frames", plant) if args.frames else run()

    print(_gain_line("initial", trace.records[0].gains, trace.records[0].objective))
    print(_gain_line("final", trace.incumbent, trace.incumbent_value))
    print(f"evaluations={len(trace.records)} termination={trace.termination}")

    if out is not None:
        write_output(out / "trace.csv", export_trace(trace, "csv"))
        write_output(out / "trace.json", export_trace(trace, "json"))
        print(f"trace written to {out / 'trace.csv'} and {out / 'trace.json'}")
        if args.frames:
            print(f"{len(trace.records)} frames written to {out / 'frames'}")
    return 0


def _is_negative_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text.startswith("-")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every '-'-led token float() reads as a
    value, where argparse alone reads -5e-1 or -inf as an option.
    add_subparsers makes both subcommands' parsers of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number test, on which it only calls .match
        self._negative_number_matcher = SimpleNamespace(match=_is_negative_float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pidtune",
        description="PID tuning by compass search over simulated step responses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--plant", default="benchmark3",
                       help="preset name or 'num: ... / den: ...' text")
        p.add_argument("--dt", type=float, default=SimConfig.dt, help="integration step [s]")
        p.add_argument("--tmax", type=float, default=SimConfig.t_max, help="horizon [s]")

    sim = sub.add_parser("simulate", help="score one gain vector")
    add_common(sim)
    sim.add_argument("--kp", type=float, default=0.0)
    sim.add_argument("--ki", type=float, default=0.0)
    sim.add_argument("--kd", type=float, default=0.0)
    sim.add_argument("--samples", help="write the t,z samples as CSV to this path")
    sim.set_defaults(func=cmd_simulate)

    tune = sub.add_parser("tune", help="run the direct search")
    add_common(tune)
    tune.add_argument("--start", choices=("zn", "random"), default="zn")
    tune.add_argument("--seed", type=int, help="seed for random starts (echoed)")
    tune.add_argument("--ensure-unstable", action="store_true",
                      help="resample random starts until the initial response diverges")
    tune.add_argument("--out", help="directory for trace.csv / trace.json / frames")
    tune.add_argument("--frames", action="store_true",
                      help="also write one SVG frame per evaluation to OUT/frames, "
                           "each as its evaluation happens (a repeated point's frame "
                           "is its first frame with a new title and colour); "
                           "OUT/frames/index.json is written last, when the film "
                           "is complete")
    tune.add_argument("--max-evals", type=int, default=SearchConfig.max_evals)
    tune.add_argument("--step", type=float, default=SearchConfig.initial_step,
                      help="initial poll step")
    tune.add_argument("--min-step", type=float, default=SearchConfig.min_step,
                      help="termination step")
    tune.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PidTuneError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
