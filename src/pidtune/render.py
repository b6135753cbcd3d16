"""Trace serialization (CSV/JSON) and per-evaluation SVG animation frames.

Frames follow the animation convention: the response curve is green when the
evaluation improved on the best value found so far and red otherwise, with
the fixed settling band (objective.BAND_UPPER and BAND_LOWER) marked by
horizontal black dashed lines, and a long response is drawn with at most
1,200 polyline vertices. Frames are standalone SVG files named film_1.svg,
film_2.svg, ... plus an index.json. render_animation writes each frame as its
evaluation happens, during the search, and writes index.json last, so
index.json marks a complete film. The search says which record first scored
each point; a record that repeats a point is drawn from the frame already on
disk for that first record: the two differ only in the title line and the
curve's colour. Assembling the frames into a video is left to external tools.
"""

import functools
import json
import math
from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidInput, OutputUnwritable
from .lti import StepResponse, TransferFunction
from .objective import BAND_LOWER, BAND_UPPER
from .search import EvaluationRecord, SearchTrace

_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_PLOT = (62.0, 18.0, 624.0, 434.0)  # left, top, right, bottom in px
_MAX_CURVE_POINTS = 1200


def _num(x: float) -> str:
    return f"{x:.17g}"


def _flag(b: bool) -> str:
    return "true" if b else "false"


# A CSV cell is formatted by its field's declared type, so an int passed as
# a float gain still prints as a float.
_CELL_FORMAT = {int: str, float: _num, bool: _flag}


@functools.cache
def _columns(cls: type, prefix: str = "") -> tuple:
    """(name, declared type, getter) of each field of the dataclass cls in
    declared order, with a dataclass-typed field replaced in place by its own
    columns. EvaluationRecord's columns are the trace's columns."""
    cols = []
    for f in fields(cls):
        if is_dataclass(f.type):
            cols.extend(_columns(f.type, f"{prefix}{f.name}."))
        else:
            cols.append((f.name, f.type, attrgetter(prefix + f.name)))
    return tuple(cols)


def _flat_dict(obj) -> dict:
    """The columns of a dataclass instance by name, in declared order."""
    return {name: get(obj) for name, _, get in _columns(type(obj))}


CSV_HEADER = ",".join(name for name, _, _ in _columns(EvaluationRecord))


def _csv_row(rec: EvaluationRecord) -> str:
    return ",".join(_CELL_FORMAT[t](get(rec)) for _, t, get in _columns(EvaluationRecord))


def export_trace(trace: SearchTrace, format: str) -> bytes:
    """Serialize a trace as CSV rows or a JSON object.

    CSV columns are exactly CSV_HEADER with floats at 17 significant digits,
    which round-trips every IEEE double bit-exactly. The JSON object carries
    {config, records, incumbent, termination} with the same field names.
    """
    if not trace.records:
        raise ValueError("trace has no records")
    if format == "csv":
        lines = [CSV_HEADER]
        lines.extend(_csv_row(r) for r in trace.records)
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        obj = {
            "config": _flat_dict(trace.config),
            "records": [_flat_dict(r) for r in trace.records],
            "incumbent": {**_flat_dict(trace.incumbent), **_flat_dict(trace.incumbent_value)},
            "termination": trace.termination,
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _plot_x(t, t_end: float):
    """Pixel column of time t (a scalar or an array, the same IEEE operations)."""
    x0, _, x1, _ = _PLOT
    return x0 + (x1 - x0) * t / t_end


def check_frame_horizon(t_end: float) -> None:
    """Raise InvalidInput when a frame over [0, t_end] cannot be drawn: the
    pixel column of t_end (and of every tick) overflows to inf in _plot_x."""
    x0, _, x1, _ = _PLOT
    if not math.isfinite((x1 - x0) * t_end):
        raise InvalidInput(
            f"a frame cannot draw a response ending at t={t_end:.6g}: its time axis "
            f"overflows floating point"
        )


# The parts of a frame that depend on nothing: its head and its tail.
_FRAME_HEAD = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
    f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">\n'
    f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>'
)
_FRAME_TAIL = (
    f'<text x="{(_PLOT[0] + _PLOT[2]) / 2:.2f}" y="{_SVG_HEIGHT - 8}" font-family="sans-serif" '
    f'font-size="13" text-anchor="middle">time [s]</text>\n</svg>\n'
)


@functools.cache
def _digit_cells():
    """(whole, cents): item i of whole is i, 0 <= i < 1000, printed in
    three bytes, NUL-padded on the left, and item i of cents is i,
    0 <= i < 100, in two digits; each item is one numpy void."""
    whole = "".join("%3d" % i for i in range(1000)).replace(" ", "\0").encode()
    cents = "".join("%02d" % i for i in range(100)).encode()
    return np.frombuffer(whole, "V3"), np.frombuffer(cents, "V2")


@functools.lru_cache(maxsize=1)
def _curve_grid(n_samples: int, dt: float):
    """(idx, x_cells, axes): the sample indices a curve keeps, the x half
    of its vertices, and the frame's axes with the time ticks. They depend
    on the sample grid alone, so every frame of a film shares one copy.
    Row i of the byte matrix x_cells is vertex i's x coordinate, printed
    with "%.2f", then a comma, NUL-padded on the left."""
    t_end = (n_samples - 1) * dt
    idx = np.linspace(0, n_samples - 1, min(n_samples, _MAX_CURVE_POINTS)).round().astype(int)
    idx.setflags(write=False)
    x_text = ["%.2f," % x for x in _plot_x(idx * dt, t_end).tolist()]
    width = max(map(len, x_text))
    x_cells = np.frombuffer("".join(x.rjust(width, "\0") for x in x_text).encode(), np.uint8)
    x0, y0, x1, y1 = _PLOT
    axes = [
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="black"/>',
        f'<line x1="{x0:.2f}" y1="{y1:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" stroke="black"/>',
    ]
    for t in _ticks(0.0, t_end):
        px = _plot_x(t, t_end)
        axes.append(
            f'<line x1="{px:.2f}" y1="{y1:.2f}" x2="{px:.2f}" y2="{y1 + 5:.2f}" stroke="black"/>'
        )
        axes.append(
            f'<text x="{px:.2f}" y="{y1 + 18:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{t:.4g}</text>'
        )
    return idx, x_cells.reshape(len(idx), width), "\n".join(axes)


def _points(x_cells, y) -> str:
    """A polyline's points: the x halves in x_cells beside the pixel rows y,
    each y printed as "%.2f" prints it. "%.2f" rounds y's exact value
    correctly (Gay 1990, "Correctly rounded binary-decimal and
    decimal-binary conversions"), so it prints rint(100 y) hundredths
    wherever 100 y lies farther than 1e-7 from a rounding tie, which is
    far beyond the product's rounding error, under 1e-11 below 1e5. Python
    prints the rest: y within 1e-9 of a tie, negative (-0.0 too), from
    999.99 on, or not finite. Each vertex is one row of a byte matrix,
    NUL-padded, and the rows are joined by dropping the NULs."""
    h = y * 100.0
    # fmax and fmin map NaN and the infinities into [0, 99999], so nothing
    # below warns; the tests on h itself send those rows to Python.
    clipped = np.fmin(np.fmax(h, 0.0), 99999.0)
    hundredths = np.rint(clipped)
    simple = (np.abs(clipped - hundredths) < 0.5 - 1e-7) & (h < 99999.0) & ~np.signbit(h)
    rest = np.flatnonzero(~simple)
    texts = {i: b"%.2f" % v for i, v in zip(rest.tolist(), y[rest].tolist())}
    # y's field, "ddd.dd" or as wide as Python's widest text, and a space.
    width = max([6, *map(len, texts.values())])
    start = x_cells.shape[1]
    rows = np.zeros((len(y), start + width + 1), np.uint8)
    rows[:, :start] = x_cells
    whole, cents = _digit_cells()
    ints, fracs = np.divmod(hundredths.astype(np.int32), 100)
    end = start + width
    rows[:, end - 6 : end - 3].view("V3")[:, 0] = whole[ints]
    rows[:, end - 3] = ord(".")
    rows[:, end - 2 : end].view("V2")[:, 0] = cents[fracs]
    rows[:, end] = ord(" ")
    for i, text in texts.items():
        rows[i, start:end] = np.frombuffer(text.rjust(width, b"\0"), np.uint8)
    return rows.tobytes().replace(b"\0", b"")[:-1].decode("ascii")


def render_frame(record: EvaluationRecord, response: StepResponse) -> str:
    """One standalone SVG frame: the response curve over [0, t_end], green
    when the record improved and red otherwise, with black dashed
    guides at BAND_UPPER and BAND_LOWER.

    The y-range auto-fits to [min(0, min z), max(1.1, max z)] plus a 5%
    margin, so the settling band is always inside the viewport. Responses
    longer than 1,200 samples are decimated to 1,200 evenly spaced polyline
    vertices. Raises InvalidInput when the time axis overflows
    (check_frame_horizon).
    """
    vals = response.values
    if len(vals) < 2:
        raise ValueError("response must have at least 2 samples")
    t_end = response.t_end
    check_frame_horizon(t_end)
    y_lo = min(0.0, float(np.min(vals)))
    y_hi = max(1.1, float(np.max(vals)))
    margin = 0.05 * (y_hi - y_lo)
    y_lo -= margin
    y_hi += margin
    x0, y0, x1, y1 = _PLOT

    # sy takes scalars (ticks, guides) or arrays (the curve) alike; either
    # way each coordinate is the same sequence of IEEE operations.
    def sy(z):
        return y1 - (y1 - y0) * (z - y_lo) / (y_hi - y_lo)

    idx, x_cells, axes = _curve_grid(len(vals), response.dt)
    parts = [_FRAME_HEAD, _title(record), axes]
    for z in _ticks(y_lo, y_hi):
        py = sy(z)
        parts.append(
            f'<line x1="{x0 - 5:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{z:.4g}</text>'
        )
    # settling range guides
    for level in (BAND_UPPER, BAND_LOWER):
        py = sy(level)
        parts.append(
            f'<line class="band-line" x1="{x0:.2f}" y1="{py:.2f}" x2="{x1:.2f}" '
            f'y2="{py:.2f}" stroke="black" stroke-dasharray="6,4"/>'
        )
    parts.append(f'{_curve_head(record)}{_points(x_cells, sy(vals[idx]))}"/>')
    parts.append(_FRAME_TAIL)
    return "\n".join(parts)


# The two parts of a frame that differ between two records at one point; the
# rest depends only on the response, which the point fixes. A repeated
# point's frame is the first frame at that point with these re-emitted.
def _title(record: EvaluationRecord) -> str:
    x0, y0, _, _ = _PLOT
    return (
        f'<text x="{x0:.2f}" y="{y0 - 5:.2f}" font-family="sans-serif" font-size="12">'
        f"evaluation {record.index}   f = {record.objective.total:.6g}</text>"
    )


def _curve_head(record: EvaluationRecord) -> str:
    """The response curve's polyline up to its points, coloured by record.improved."""
    color = "green" if record.improved else "red"
    return (
        f'<polyline class="response-curve" fill="none" stroke="{color}" '
        f'stroke-width="1.5" points="'
    )


def _repeat_frame(svg: bytes, first: EvaluationRecord, record: EvaluationRecord) -> bytes:
    """The frame render_frame draws for record, given svg, the frame it drew
    for first, an earlier record at the same point (so the same response)."""
    for old, new in ((_title(first), _title(record)),
                     (_curve_head(first), _curve_head(record))):
        svg = svg.replace(old.encode("utf-8"), new.encode("utf-8"), 1)
    return svg


def make_output_dir(path: Path) -> None:
    """Create path and its parents; raises OutputUnwritable when that fails."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputUnwritable(f"cannot create {path}: {exc}") from exc


def write_output(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write data, one bytes object or bytes chunks in turn, to path; raises
    OutputUnwritable when that fails."""
    try:
        with path.open("wb") as f:
            f.writelines([data] if isinstance(data, bytes) else data)
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc}") from exc


def read_output(path: Path) -> bytes:
    """Read back a file this run wrote; raises OutputUnwritable when that fails."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise OutputUnwritable(f"cannot read back {path}: {exc}") from exc


def render_animation(
    run: Callable[
        [Callable[[EvaluationRecord, EvaluationRecord], None], list[StepResponse]],
        SearchTrace,
    ],
    out_dir: str | Path,
    plant: TransferFunction,
) -> SearchTrace:
    """Film a search as it runs; returns the trace that run returns.

    run(on_record, responses) runs the search and calls on_record(record,
    first) with each evaluation record as it is made, and the first record
    at its point (search.optimize's on_record hook). responses starts empty
    and is the one place a scored response waits for its frame: for a new
    point, first is record, and its response must be the one response
    waiting there, as objective.evaluate(gains, plant, cfg, responses)
    appends it. A repeat (first is not record) has no response waiting,
    because the search reuses the first score; its frame is the first frame
    at that point, read back from out_dir, with the title (evaluation index)
    and the curve colour (improved flag) of the repeat. Each record's frame,
    film_<index>.svg, is written at once and its response dropped, so the
    film holds one response at a time, not one response or frame per
    evaluation. index.json lists the frame files in order with the playback
    rate hint (12 frames per second), the band levels and the plant, and is
    written last, so it exists only for a complete film. The film_*.svg
    files and index.json of an earlier film in out_dir are removed before
    the search starts, and a search that raises leaves the frames of its
    records so far and no index.json. Raises ValueError when the responses
    waiting do not match the records, and OutputUnwritable when a first
    frame cannot be read back for its repeat.
    """
    out = Path(out_dir)
    make_output_dir(out)
    # an earlier film's index would mark this one complete, and its frames
    # beyond this film's last would be left beside this film's index
    for stale in [out / "index.json", *out.glob("film_*.svg")]:
        try:
            stale.unlink(missing_ok=True)
        except OSError as exc:
            raise OutputUnwritable(f"cannot remove {stale}: {exc}") from exc
    names, responses = [], []

    def on_record(rec: EvaluationRecord, first: EvaluationRecord):
        expected = 1 if first is rec else 0
        if len(responses) != expected:
            raise ValueError(
                f"{len(responses)} responses waiting for record {rec.index}; "
                f"expected {expected}"
            )
        name = f"film_{rec.index}.svg"
        if first is rec:
            svg = render_frame(rec, responses.pop()).encode("utf-8")
        else:
            svg = _repeat_frame(read_output(out / f"film_{first.index}.svg"), first, rec)
        write_output(out / name, svg)
        names.append(name)

    trace = run(on_record, responses)
    if responses or len(names) != len(trace.records):
        raise ValueError(
            f"{len(names)} frames and {len(responses)} unclaimed responses "
            f"for {len(trace.records)} records"
        )
    index = {
        "frames": names,
        "fps": 12,
        "band": {"upper": BAND_UPPER, "lower": BAND_LOWER},
        "plant": plant.to_text(),
    }
    write_output(out / "index.json", (json.dumps(index, indent=2) + "\n").encode("utf-8"))
    return trace
