import csv
import io
import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidtune import (
    EvaluationRecord,
    InvalidInput,
    ObjectiveValue,
    OutputUnwritable,
    PidGains,
    SearchConfig,
    SearchTrace,
    StepResponse,
    TransferFunction,
    render_animation,
    render_frame,
)
from pidtune.render import CSV_HEADER, _curve_grid, _points, export_trace

from helpers import BENCH3, film_finished, gain_bits, polyline_points

SVG_NS = "{http://www.w3.org/2000/svg}"


def make_value(total, rise=2.0, rose=True):
    rise_term = rise / 100.0
    return ObjectiveValue(
        total=total, rise_time=rise, rise_term=rise_term,
        deviation=total - rise_term, rose=rose,
    )


def make_trace(totals):
    records = []
    best = float("inf")
    for i, t in enumerate(totals, start=1):
        improved = t < best
        best = min(best, t)
        records.append(
            EvaluationRecord(
                index=i,
                gains=PidGains(0.1 * i, -0.2 * i, 1.0 / i),
                objective=make_value(t),
                improved=improved,
                best_so_far=best,
            )
        )
    best_rec = min(records, key=lambda r: r.objective.total)
    return SearchTrace(
        records=tuple(records),
        incumbent=best_rec.gains,
        incumbent_value=best_rec.objective,
        termination="step-converged",
        config=SearchConfig(),
    )


def make_resp(values, dt=0.5):
    return StepResponse(dt=dt, values=np.asarray(values, dtype=float), diverged=False)


class TestExportCsv:
    def test_header_is_exact(self):
        data = export_trace(make_trace([0.5]), "csv").decode()
        assert data.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == (
            "index,kp,ki,kd,total,rise_time,rise_term,deviation,rose,improved,best_so_far"
        )

    def test_single_record_two_lines(self):
        lines = export_trace(make_trace([0.5]), "csv").decode().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[9] == "true"

    def test_improved_flags_and_best(self):
        lines = export_trace(make_trace([0.5, 0.7, 0.4]), "csv").decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [r[9] for r in rows] == ["true", "false", "true"]
        assert [float(r[10]) for r in rows] == [0.5, 0.5, 0.4]

    def test_round_trip_bit_exact(self):
        trace = make_trace([1 / 3, 2 / 7, 0.1, 5e-17])
        reader = csv.DictReader(io.StringIO(export_trace(trace, "csv").decode()))
        for rec, row in zip(trace.records, reader):
            assert int(row["index"]) == rec.index
            assert float(row["kp"]) == rec.gains.kp
            assert float(row["ki"]) == rec.gains.ki
            assert float(row["kd"]) == rec.gains.kd
            assert float(row["total"]) == rec.objective.total
            assert float(row["rise_time"]) == rec.objective.rise_time
            assert float(row["rise_term"]) == rec.objective.rise_term
            assert float(row["deviation"]) == rec.objective.deviation
            assert row["rose"] == ("true" if rec.objective.rose else "false")
            assert float(row["best_so_far"]) == rec.best_so_far

    def test_cells_follow_declared_types(self):
        # a gain passed as an int prints as the float it stands for (1e+20,
        # not 100000000000000000000), and the int index stays an int
        trace = make_trace([0.5])
        rec = trace.records[0]
        int_rec = EvaluationRecord(
            index=rec.index, gains=PidGains(10**20, 3, 0), objective=rec.objective,
            improved=rec.improved, best_so_far=rec.best_so_far,
        )
        int_trace = SearchTrace((int_rec,), int_rec.gains, rec.objective,
                                trace.termination, trace.config)
        row = export_trace(int_trace, "csv").decode().splitlines()[1].split(",")
        assert row[:4] == ["1", "1e+20", "3", "0"]

    def test_deterministic_bytes(self):
        trace = make_trace([0.9, 0.3, 0.3])
        assert export_trace(trace, "csv") == export_trace(trace, "csv")
        assert export_trace(trace, "json") == export_trace(trace, "json")

    def test_empty_trace_rejected(self):
        trace = make_trace([0.5])
        empty = SearchTrace(
            records=(),
            incumbent=trace.incumbent,
            incumbent_value=trace.incumbent_value,
            termination="step-converged",
            config=SearchConfig(),
        )
        with pytest.raises(ValueError):
            export_trace(empty, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export_trace(make_trace([0.5]), "xml")


class TestExportJson:
    def test_structure_and_round_trip(self):
        trace = make_trace([0.5, 0.7, 0.4])
        obj = json.loads(export_trace(trace, "json").decode())
        assert sorted(obj.keys()) == ["config", "incumbent", "records", "termination"]
        assert obj["termination"] == "step-converged"
        assert obj["config"]["max_evals"] == 5000
        assert len(obj["records"]) == 3
        rec = obj["records"][2]
        assert rec["index"] == 3
        assert rec["total"] == 0.4
        assert rec["improved"] is True
        assert obj["incumbent"]["total"] == 0.4


def _ulps(values):
    """values with each one's neighbours one ulp below and above."""
    values = np.asarray(values, float)
    return np.concatenate((np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)))


# Pixel rows for the vertex formatter: exact ties in hundredths (j/8), the
# decimal ties k/200 (odd k), which round to the nearest double either way,
# and their neighbours; the plot's extremes 18 and 434; the edges of two,
# three and more digits; and rows Python prints because no digit path can.
VERTEX_ROWS = {
    "eighths": np.arange(8000) / 8,
    "two_hundredths": _ulps(np.arange(1, 200_000, 2) / 200),
    "extremes": _ulps([18.0, 18.005, 434.0, 433.995, 0.0, 0.005, 9.995, 10.0, 99.995, 999.985,
                       999.99, 999.995]),
    "outside": np.array([-0.0, -0.004, -0.005, -1.5, np.nan, np.inf, -np.inf, 1000.0,
                         1234.565, 1e6, 1e300, 5e-324]),
}


class TestRenderFrame:
    def test_improving_record_is_green(self):
        trace = make_trace([0.5])
        svg = render_frame(trace.records[0], make_resp([0.0, 0.5, 1.0]))
        root = ET.fromstring(svg)
        curves = [e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "response-curve"]
        assert len(curves) == 1
        assert curves[0].get("stroke") == "green"

    def test_rejected_record_is_red(self):
        trace = make_trace([0.5, 0.7])
        svg = render_frame(trace.records[1], make_resp([0.0, 0.5, 1.0]))
        root = ET.fromstring(svg)
        curve = [e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "response-curve"][0]
        assert curve.get("stroke") == "red"

    def test_two_dashed_band_lines_at_levels(self):
        resp = make_resp([0.0, 0.5, 1.0, 1.0])
        svg = render_frame(make_trace([0.5]).records[0], resp)
        root = ET.fromstring(svg)
        bands = [e for e in root.iter(f"{SVG_NS}line") if e.get("class") == "band-line"]
        assert len(bands) == 2
        for e in bands:
            assert e.get("stroke") == "black"
            assert e.get("stroke-dasharray")
            assert e.get("y1") == e.get("y2")  # horizontal
        # recompute the pixel rows from the documented y-range rule
        y_lo, y_hi = 0.0, 1.1
        m = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - m, y_hi + m
        for e, level in zip(bands, (1.02, 0.98)):
            expect = 434.0 - (434.0 - 18.0) * (level - y_lo) / (y_hi - y_lo)
            assert float(e.get("y1")) == pytest.approx(expect, abs=0.01)

    def test_axis_label_present(self):
        svg = render_frame(make_trace([0.5]).records[0], make_resp([0.0, 1.0]))
        assert "time [s]" in svg

    def test_long_response_is_decimated(self):
        resp = make_resp(np.linspace(0, 1, 20001), dt=0.01)
        svg = render_frame(make_trace([0.5]).records[0], resp)
        root = ET.fromstring(svg)
        curve = [e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "response-curve"][0]
        n_points = len(curve.get("points").split())
        assert n_points == 1200

    def test_deterministic(self):
        rec = make_trace([0.5]).records[0]
        resp = make_resp([0.0, 0.3, 0.9, 1.01])
        assert render_frame(rec, resp) == render_frame(rec, resp)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            render_frame(make_trace([0.5]).records[0], make_resp([1.0]))

    def test_time_axis_overflow_rejected(self):
        # 562 px * t_end overflows: the curve would end at x=inf
        with pytest.raises(InvalidInput, match="time axis overflows"):
            render_frame(make_trace([0.5]).records[0], make_resp([0.0, 1.0], dt=1e308))
        render_frame(make_trace([0.5]).records[0], make_resp([0.0, 1.0], dt=3e305))

    @settings(max_examples=200, deadline=None)
    @given(
        head=st.lists(
            st.one_of(
                st.floats(-1e6, 1e6),
                st.sampled_from([1e6, -1e6]),  # clamped samples
                st.floats(-0.004999, -0.0),  # print as -0.00
            ),
            min_size=1,
            max_size=50,
        ),
        n=st.integers(2, 2500),  # below and above the 1,200-vertex cap
        # the CLI's round steps put many x coordinates exactly on a .xx5
        # rounding boundary, where one ulp changes the printed digits
        dt=st.one_of(st.sampled_from([0.01, 0.02, 0.05, 0.1]), st.floats(1e-4, 10.0)),
    )
    # the last length drawn whole, the first decimated, and the CLI's
    # default grid (--tmax 100 --dt 0.01)
    @example(head=[0.0, 0.4, 1.05, 0.99], n=1200, dt=0.01)
    @example(head=[0.0, 0.4, 1.05, 0.99], n=1201, dt=0.01)
    @example(head=[0.0, 0.4, 1.05, 0.99, 1e6], n=10001, dt=0.01)
    def test_curve_matches_scalar_reference(self, head, n, dt):
        resp = make_resp(np.resize(head, n), dt=dt)
        root = ET.fromstring(render_frame(make_trace([0.5]).records[0], resp))
        curve = [e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "response-curve"][0]
        assert curve.get("points") == polyline_points(resp)

    @pytest.mark.parametrize("case", sorted(VERTEX_ROWS))
    def test_vertex_rows_print_as_printf(self, case):
        # _points prints rint(100 y) hundredths, except near a tie and off
        # its digit range, where Python prints; either way "%.2f"'s text.
        y = VERTEX_ROWS[case]
        for start in range(0, len(y), 1200):
            rows = y[start : start + 1200]
            _, x_cells, _ = _curve_grid(len(rows), 0.01)
            points = _points(x_cells, rows)
            printed = [p.split(",")[1] for p in points.split(" ")]
            assert printed == ["%.2f" % v for v in rows.tolist()]

    def test_frames_on_different_grids_keep_their_own_x(self):
        # at 2,001 samples, 31 x coordinates print differently for dt 0.01
        # and 0.05; each frame must match the reference for its own grid
        rec = make_trace([0.5]).records[0]
        for dt in (0.01, 0.05, 0.01, 0.1):
            resp = make_resp(np.linspace(0.0, 1.0, 2001), dt=dt)
            root = ET.fromstring(render_frame(rec, resp))
            curve = [
                e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "response-curve"
            ][0]
            assert curve.get("points") == polyline_points(resp)


class TestRenderAnimation:
    def test_writes_frames_and_index(self, tmp_path):
        trace = make_trace([0.5, 0.7, 0.4, 0.4, 0.2])
        responses = [make_resp([0.0, 0.5, 1.0])] * 5
        plant = TransferFunction((1.0,), (1.0, 3.0, 3.0, 1.0))
        n = film_finished(trace, responses, tmp_path / "frames", plant)
        assert n == 5
        names = [f"film_{i}.svg" for i in range(1, 6)]
        for name in names:
            assert (tmp_path / "frames" / name).exists()
        index = json.loads((tmp_path / "frames" / "index.json").read_text())
        assert index["frames"] == names
        assert index["fps"] == 12
        assert index["band"] == {"upper": 1.02, "lower": 0.98}
        assert index["plant"] == "num: 1 / den: 1 3 3 1"

    def test_colors_match_flags_one_to_one(self, tmp_path):
        totals = [0.9, 0.5, 0.6, 0.4, 1.0, 0.1]
        trace = make_trace(totals)
        responses = [make_resp([0.0, 0.5, 1.0])] * len(totals)
        film_finished(trace, responses, tmp_path)
        for rec in trace.records:
            svg = (tmp_path / f"film_{rec.index}.svg").read_text()
            root = ET.fromstring(svg)
            curve = [
                e for e in root.iter(f"{SVG_NS}polyline") if e.get("class") == "response-curve"
            ][0]
            expected = "green" if rec.improved else "red"
            assert curve.get("stroke") == expected

    def test_length_mismatch_rejected(self, tmp_path):
        trace = make_trace([0.5, 0.4])
        with pytest.raises(ValueError):
            film_finished(trace, [make_resp([0.0, 1.0])], tmp_path)

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        trace = make_trace([0.5])
        with pytest.raises(OutputUnwritable):
            film_finished(trace, [make_resp([0.0, 1.0])], blocker / "frames")

    def test_stale_index_that_cannot_be_removed(self, tmp_path):
        stale = tmp_path / "index.json"
        stale.mkdir()  # unlink fails on a directory
        with pytest.raises(OutputUnwritable, match=re.escape(f"cannot remove {stale}: ")):
            film_finished(make_trace([0.5]), [make_resp([0.0, 1.0])], tmp_path)
        assert not list(tmp_path.glob("film_*.svg"))  # refused before the search ran

    def test_extra_response_rejected(self, tmp_path):
        trace = make_trace([0.5])
        with pytest.raises(ValueError):
            film_finished(trace, [make_resp([0.0, 1.0])] * 2, tmp_path)
        assert not (tmp_path / "index.json").exists()

    def test_frame_written_as_record_arrives(self, tmp_path):
        trace = make_trace([0.5, 0.7, 0.4])
        (tmp_path / "index.json").write_text("{}")  # left by an earlier film

        def run(on_record, pending):
            for rec in trace.records:  # each at a new point
                assert not (tmp_path / f"film_{rec.index}.svg").exists()
                pending.append(make_resp([0.0, 0.5, 1.0]))
                on_record(rec, rec)
                assert pending == []  # the response is dropped once drawn
                assert (tmp_path / f"film_{rec.index}.svg").exists()
                assert not (tmp_path / "index.json").exists()
            return trace

        assert render_animation(run, tmp_path, BENCH3) is trace
        assert (tmp_path / "index.json").exists()

    def test_search_error_leaves_frames_without_index(self, tmp_path):
        trace = make_trace([0.5, 0.7, 0.4, 0.2])

        def run(on_record, pending):
            for rec in trace.records[:2]:
                pending.append(make_resp([0.0, 0.5, 1.0]))
                on_record(rec, rec)
            raise RuntimeError("search failed")

        with pytest.raises(RuntimeError, match="search failed"):
            render_animation(run, tmp_path, BENCH3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["film_1.svg", "film_2.svg"]

    @staticmethod
    def film_points(tmp_path, points):
        """Film a search that visits points (one gain vector each, in record
        order) with records flagged as optimize flags them, where a repeat
        reuses the first total at its point. Only a point's first record has
        a response waiting, as evaluate leaves them. Returns the records and
        the response of each record's point."""
        records, first_resp, best = [], {}, float("inf")
        for i, gains in enumerate(points, start=1):
            k = gain_bits(gains)
            if k not in first_resp:
                first_resp[k] = make_resp([0.0, 0.1 * (i % 13), 1.0 - 0.01 * i])
            total = 0.3 + abs(gains.kp - 1.0) + abs(gains.ki) + abs(gains.kd)
            improved = total < best
            best = min(best, total)
            records.append(EvaluationRecord(i, gains, make_value(total), improved, best))
        firsts = {}

        def run(on_record, pending):
            for rec in records:
                first = firsts.setdefault(gain_bits(rec.gains), rec)
                if first is rec:
                    pending.append(first_resp[gain_bits(rec.gains)])
                on_record(rec, first)
            return trace

        trace = SearchTrace(tuple(records), records[0].gains, records[0].objective,
                            "step-converged", SearchConfig())
        render_animation(run, tmp_path, BENCH3)
        return records, [first_resp[gain_bits(rec.gains)] for rec in records]

    def test_repeated_point_is_its_first_frame_redrawn(self, tmp_path):
        a, b, c, d, e = (PidGains(kp, 0.0, 0.0) for kp in (1.5, 1.2, 0.9, 1.4, 1.6))
        # record 4 repeats a green first record (1); record 7 reaches back
        # past the later distinct points c and e to a red first record (3),
        # and record 8 past d, c and e to a green one (2)
        records, responses = self.film_points(tmp_path, [a, b, d, a, c, e, d, b])
        assert [r.improved for r in records] == [True, True, False, False, True, False, False,
                                                 False]
        for rec, resp in zip(records, responses):
            want = render_frame(rec, resp)
            assert (tmp_path / f"film_{rec.index}.svg").read_text() == want

    def test_repeat_reaches_back_past_many_points(self, tmp_path):
        # on the frames workload a repeat reaches back past about 40 distinct
        # points; here past 60
        start = PidGains(1.0, 0.0, 0.0)
        points = [start, *(PidGains(1.0, 0.0, 0.01 * i) for i in range(1, 61)), start]
        records, responses = self.film_points(tmp_path, points)
        assert records[0].improved and not records[-1].improved
        want = render_frame(records[-1], responses[0])
        assert (tmp_path / "film_62.svg").read_text() == want

    def test_signed_zero_gains_are_distinct_points(self, tmp_path):
        # 0.0 == -0.0, but the search scores them as two points, and each
        # frame draws its own response
        points = [PidGains(1.0, -0.0, 0.0), PidGains(1.0, 0.0, 0.0), PidGains(1.0, -0.0, 0.0)]
        records, responses = self.film_points(tmp_path, points)
        assert responses[0] is not responses[1]
        for rec, resp in zip(records, responses):
            want = render_frame(rec, resp)
            assert (tmp_path / f"film_{rec.index}.svg").read_text() == want

    def test_response_waiting_for_a_repeat_rejected(self, tmp_path):
        first = make_trace([0.5]).records[0]
        repeat = EvaluationRecord(2, first.gains, first.objective, False, first.best_so_far)

        def run(on_record, pending):
            for rec in (first, repeat):
                pending.append(make_resp([0.0, 1.0]))
                on_record(rec, first)

        with pytest.raises(ValueError, match="waiting for record 2; expected 0"):
            render_animation(run, tmp_path, BENCH3)

    def test_earlier_longer_film_leaves_no_frames(self, tmp_path):
        film_finished(make_trace([0.5 + 0.01 * i for i in range(12)]),
                      [make_resp([0.0, 0.5, 1.0])] * 12, tmp_path)
        (tmp_path / "notes.txt").write_text("not a frame")
        film_finished(make_trace([0.5, 0.4, 0.3, 0.2]),
                      [make_resp([0.0, 0.5, 1.0])] * 4, tmp_path)
        names = [f"film_{i}.svg" for i in range(1, 5)]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*names, "index.json", "notes.txt"]
        )
        assert json.loads((tmp_path / "index.json").read_text())["frames"] == names
