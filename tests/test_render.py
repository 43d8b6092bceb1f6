"""SVG rendering and the delimited curve format."""

import dataclasses
import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdplot import render
from cdplot.engine import BandSet, CurveSet, EngineError, Grid
from cdplot.render import (
    KIND_COLORS,
    _axes,
    _Frame,
    _hundredths,
    _nice_ticks,
    export_band_csv,
    export_csv,
    import_csv,
    render_band,
    render_curves,
)


def _curve_set(kind="TDP", curves=((5.0, 5.0),), grid=(0.0, 1.0), metadata=None, var="x"):
    curves = np.asarray(curves, dtype=float)
    return CurveSet(
        kind,
        Grid(var, np.asarray(grid, dtype=float)),
        curves,
        curves.mean(axis=0),
        metadata or {},
    )


def _band(curves, labels=("first", "second"), grid=(0.0, 1.0)):
    curves = np.asarray(curves, dtype=float)
    return BandSet(
        "TDP",
        Grid("x", np.asarray(grid, dtype=float)),
        labels,
        curves,
        curves.min(axis=0),
        curves.max(axis=0),
    )


def _polyline_points(svg):
    pairs = []
    for match in re.finditer(r'<polyline[^>]*points="([^"]+)"', svg):
        pairs.append(
            [tuple(map(float, p.split(","))) for p in match.group(1).split()]
        )
    return pairs


# --- svg -------------------------------------------------------------------


def test_single_unit_svg_has_exactly_two_polylines():
    svg = render_curves(_curve_set())
    assert svg.count("<polyline") == 2


def test_polyline_count_is_units_plus_mean():
    curves = np.linspace(0.0, 1.0, 14).reshape(7, 2)
    svg = render_curves(_curve_set(curves=curves))
    assert svg.count("<polyline") == 8


def test_rendering_is_deterministic():
    curve_set = _curve_set(curves=[[0.1, 0.7], [-0.3, 1.9]])
    assert render_curves(curve_set) == render_curves(curve_set)


def test_svg_document_shape():
    svg = render_curves(_curve_set())
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert svg.endswith("</svg>\n")
    assert 'width="640" height="480"' in svg


def test_kind_picks_the_curve_color():
    tdp = render_curves(_curve_set(kind="TDP"))
    nddp = render_curves(_curve_set(kind="NDDP"))
    assert KIND_COLORS["TDP"] in tdp
    assert KIND_COLORS["NDDP"] not in tdp
    assert KIND_COLORS["NDDP"] in nddp


def test_unknown_kind_falls_back_to_neutral_color():
    svg = render_curves(_curve_set(kind="raw"))
    assert "#333333" in svg


def test_mean_polyline_is_drawn_last_and_thicker():
    svg = render_curves(_curve_set(curves=[[0.0, 1.0], [2.0, 3.0]]))
    polylines = re.findall(r"<polyline[^>]*>", svg)
    assert all('stroke-width="1.0"' in p for p in polylines[:-1])
    assert 'stroke-width="2.5"' in polylines[-1]
    assert "stroke-opacity" not in polylines[-1]


def test_all_curve_points_fall_inside_the_margins():
    curves = [[-3.0, 0.25, 11.0], [4.0, 4.0, -7.5]]
    svg = render_curves(_curve_set(curves=curves, grid=(0.0, 0.5, 2.0)))
    for points in _polyline_points(svg):
        for x, y in points:
            assert 50 < x < 640 - 50
            assert 50 < y < 480 - 50


def test_caption_mentions_the_intervention():
    svg = render_curves(_curve_set(metadata={"intervention": "do(X=x)"}))
    assert "TDP: do(X=x)" in svg


def test_labels_are_escaped():
    curve_set = CurveSet(
        "TDP",
        Grid("a<b", np.asarray([0.0, 1.0])),
        np.asarray([[5.0, 5.0]]),
        np.asarray([5.0, 5.0]),
    )
    assert "a&lt;b" in render_curves(curve_set)


def test_band_svg_has_envelope_and_per_model_curves():
    svg = render_band(_band([[0.0, 1.0], [1.0, 3.0]]))
    assert svg.count("<polygon") == 1
    assert svg.count("<polyline") == 2
    assert "first" in svg
    assert "second" in svg


def test_band_rendering_is_deterministic():
    band = _band([[0.0, 1.0], [1.0, 3.0]])
    assert render_band(band) == render_band(band)


def test_degenerate_band_still_renders():
    svg = render_band(_band([[2.0, 2.0], [2.0, 2.0]]))
    match = re.search(r'<polygon[^>]*points="([^"]+)"', svg)
    points = match.group(1).split()
    # identical models collapse the envelope onto a single line
    assert sorted(points[:2]) == sorted(points[2:])


@pytest.mark.parametrize("values", [
    (5e-324, 1.5e-323),  # a range of 2 subnormal steps: a quarter underflows
    (0.0, 5e-324),
    (1e17, 1e17),  # flat beyond 2^53, where a +-0.5 pad is lost
    (2.0**52 + 2, 2.0**52 + 2),  # both halves of the pad round to even
    (-2.0**60, -2.0**60),
])
def test_curves_with_a_vanishing_y_range_render(values):
    svg = render_curves(_curve_set(curves=(values, values[::-1])))
    assert svg.count("<polyline") == 3
    for points in _polyline_points(svg):
        assert all(math.isfinite(c) for point in points for c in point)


def test_a_y_range_too_wide_to_pad_is_rejected():
    # the span 2e308 overflows to inf; 1.6e308 and its 5% pads still fit
    with pytest.raises(EngineError, match="too wide"):
        render_curves(_curve_set(curves=((-1e308, 1e308),)))
    with pytest.raises(EngineError, match="too wide"):
        render_band(_band([[-1e308, 0.0], [0.0, 1e308]]))
    svg = render_curves(_curve_set(curves=((-8e307, 8e307),)))
    for points in _polyline_points(svg):
        assert all(math.isfinite(c) for point in points for c in point)


@pytest.mark.parametrize("lo, hi", [
    (5e-324, 1.5e-323), (0.0, 5e-324), (-1e-320, 1e-320), (7.0, 7.0),
    (1e17, 1e17), (-1.7976931348623157e308, 1.7976931348623157e308),
])
def test_nice_ticks_are_finite_for_any_finite_range(lo, hi):
    ticks = _nice_ticks(lo, hi)
    assert 0 < len(ticks) <= 20
    assert all(math.isfinite(t) for t in ticks)


# --- delimited export ------------------------------------------------------


def test_export_writes_unit_rows_then_mean_rows():
    text = export_csv(_curve_set(curves=[[5.0, 7.0]]))
    assert text.splitlines() == [
        "plot_kind,unit,grid_value,value",
        "TDP,0,0,5",
        "TDP,0,1,7",
        "TDP,mean,0,5",
        "TDP,mean,1,7",
    ]


def test_export_orders_rows_by_unit_then_grid_value():
    text = export_csv(_curve_set(curves=[[1.0, 2.0], [3.0, 4.0]]))
    keys = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert keys == ["0", "0", "1", "1", "mean", "mean"]


def test_export_keeps_seventeen_significant_digits():
    text = export_csv(_curve_set(curves=[[0.1, math.pi]]))
    assert "0.10000000000000001" in text
    assert "3.1415926535897931" in text


def test_round_trip_is_exact():
    curves = np.asarray([[1 / 3, math.pi, -2.5e-7], [1e16 + 1.0, -0.0, 5.5]])
    original = _curve_set(kind="NIDP", curves=curves, grid=(0.0, 0.5, 2.0))
    rebuilt = import_csv(export_csv(original), var="x")
    assert rebuilt.kind == "NIDP"
    assert np.array_equal(rebuilt.grid.values, original.grid.values)
    assert np.array_equal(rebuilt.curves, original.curves)
    assert np.array_equal(rebuilt.mean, original.mean)


def test_import_rejects_bad_header():
    with pytest.raises(EngineError, match="header"):
        import_csv("kind,unit,x,y\nTDP,0,0,1\n")


def test_import_rejects_short_rows():
    text = "plot_kind,unit,grid_value,value\nTDP,0,0\n"
    with pytest.raises(EngineError, match="line 2"):
        import_csv(text)


def test_import_rejects_mixed_kinds():
    text = export_csv(_curve_set(kind="TDP")) + export_csv(
        _curve_set(kind="NDDP")
    ).split("\n", 1)[1]
    with pytest.raises(EngineError, match="mixed"):
        import_csv(text)


def test_import_rejects_unit_gaps():
    text = (
        "plot_kind,unit,grid_value,value\n"
        "TDP,0,0,1\nTDP,2,0,1\nTDP,mean,0,1\n"
    )
    with pytest.raises(EngineError, match="gaps"):
        import_csv(text)


def test_import_rejects_mismatched_grids():
    text = (
        "plot_kind,unit,grid_value,value\n"
        "TDP,0,0,1\nTDP,0,1,1\n"
        "TDP,mean,0,1\nTDP,mean,2,1\n"
    )
    with pytest.raises(EngineError, match="grid"):
        import_csv(text)


def test_import_requires_both_unit_and_mean_rows():
    with pytest.raises(EngineError, match="missing"):
        import_csv("plot_kind,unit,grid_value,value\nTDP,0,0,1\n")


_TABLE_DAMAGE = ("drop", "duplicate", "mean-mid", "kind", "word", "underscore", "pad", "blank",
                 "space-line", "gap", "swap", "unit-form", "extra-cell", "short", "non-finite",
                 "negative-zero", "grid", "cr", "header")


@st.composite
def _curve_tables(draw):
    """The text of export_csv for a small curve set with up to three kinds
    of damage: a dropped or duplicated row, a mean row mid-file, mixed
    kinds, a cell float or numpy refuses or pads, blank lines, a unit gap,
    rows out of order, a unit that int reads but export_csv never writes,
    a row of three or five cells, and more."""
    units, points = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    grid = sorted(draw(st.lists(values, min_size=points, max_size=points, unique=True)))
    curves = np.array(draw(st.lists(st.lists(values, min_size=points, max_size=points),
                                    min_size=units, max_size=units)))
    kind = draw(st.sampled_from(("ICE", "TDP", "%", "plot_kind", "")))
    text = export_csv(CurveSet(kind, Grid("x", grid), curves, curves.mean(axis=0)))
    lines = text.split("\n")[:-1]
    for damage in draw(st.lists(st.sampled_from(_TABLE_DAMAGE), max_size=3)):
        r = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        cells = lines[r].split(",")
        if damage == "drop":
            del lines[r]
        elif damage == "duplicate":
            lines.insert(r, lines[r])
        elif damage == "mean-mid":
            lines.insert(r, lines.pop())
        elif damage == "swap":
            lines[r], lines[-1] = lines[-1], lines[r]
        elif damage in ("blank", "space-line"):
            lines.insert(r, "" if damage == "blank" else " \t")
        elif damage == "cr":
            lines[r] += "\r"
        elif damage == "header":
            lines[0] = draw(st.sampled_from(("kind,unit,x,y", "", lines[0] + ",")))
        elif damage == "extra-cell":
            lines[r] += ",1"
        elif damage == "short":
            lines[r] = ",".join(cells[:3])
        elif len(cells) == 4:
            column = draw(st.sampled_from((2, 3)))
            if damage == "kind":
                cells[0] = draw(st.sampled_from(("NDDP", cells[0] + " ")))
            elif damage == "gap":
                cells[1] = str(units + draw(st.integers(0, 2)))
            elif damage == "unit-form":
                cells[1] = draw(st.sampled_from(("00", "+0", " 0", "0_0", "-0", "٠")))
            elif damage == "word":
                cells[column] = draw(st.sampled_from(("x", "", "0x1p3", "1e", "--1")))
            elif damage == "underscore":
                cells[column] = "1_0"
            elif damage == "pad":
                cells[column] = f" {cells[column]} "
            elif damage == "non-finite":
                cells[column] = draw(st.sampled_from(("nan", "inf", "-inf", "1e999")))
            elif damage == "negative-zero":
                cells[2] = "-0.0" if cells[2] == "0" else cells[2]
            elif damage == "grid":
                cells[2] += "1"  # another number, unless the cell is no number
            lines[r] = ",".join(cells)
    end = draw(st.sampled_from(("\n", "")))
    return "\n".join(lines) + end


def _import_outcome(read):
    """What a curve-table reader gives: the kind and the float bits of the
    grid, curves and mean, or its error's type and message."""
    try:
        curve_set = read()
    except EngineError as exc:
        return type(exc).__name__, str(exc)
    return (curve_set.kind, curve_set.grid.var,
            *(a.view(np.int64).tolist() for a in (curve_set.grid.values, curve_set.curves,
                                                 curve_set.mean)))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=_curve_tables())
@example(text="plot_kind,unit,grid_value,value\n\nICE,0,0,1\n\nICE,mean,0,1\n\n")
@example(text="plot_kind,unit,grid_value,value\nICE,0,0,1\r\nICE,mean,0,1\r\n")
@example(text="plot_kind,unit,grid_value,value\nICE,0,0,1_0\nICE,mean,0,1_0\n")
@example(text="plot_kind,unit,grid_value,value\nICE,mean,0,2\nICE,1,0,3\nICE,0,0,1\n")
@example(text="plot_kind,unit,grid_value,value\nICE,0,0,1\nICE,mean,0,1\nICE,1,0,1\n"
               "ICE,mean,0,1\n")
@example(text="plot_kind,unit,grid_value,value\nICE,0,-0.0,1\nICE,mean,0.0,1\n")
@example(text="plot_kind,unit,grid_value,value\nICE,0,nan,1\nICE,mean,nan,1\n")
def test_curve_import_matches_the_line_loop(text):
    # numpy's reading of a table laid out as export_csv writes it, and the
    # line loop's of any table, give the same curve set or the same error
    want = _import_outcome(lambda: render._read_rows(render._split_lines(text), "v"))
    assert _import_outcome(lambda: import_csv(text, "v")) == want
    assert _import_outcome(lambda: render.read_csv(io.StringIO(text), "v")) == want


def test_curve_import_parses_blocks_of_rows(monkeypatch):
    # 7 units of 3 grid values in blocks of 2 units: the block boundaries
    # fall between units, and the last block holds the mean
    curves = np.arange(21.0).reshape(7, 3) / 7
    original = _curve_set(curves=curves, grid=(0.0, 0.5, 2.0))
    monkeypatch.setattr(render, "_BLOCK_ROWS", 6)
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(kwargs["max_rows"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(render.np, "loadtxt", counting)
    rebuilt = import_csv(export_csv(original))
    assert calls == [6, 6, 6, 6]
    assert np.array_equal(rebuilt.curves, original.curves)
    assert np.array_equal(rebuilt.mean, original.mean)


def test_line_loop_holds_a_reordered_table_as_float_arrays():
    # mean rows first send the table to the line loop, which keeps 16
    # bytes a row until the curve set is built; a tuple of two floats a
    # row would peak at about 15 times the curves
    curves = np.random.default_rng(3).normal(size=(500, 40))
    original = _curve_set("ICE", curves, np.linspace(0.0, 1.0, 40))
    lines = export_csv(original).split("\n")[:-1]
    text = "\n".join([lines[0], *lines[-40:], *lines[1:-40]]) + "\n"
    tracemalloc.start()
    try:
        rebuilt = import_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rebuilt.curves, curves)
    assert np.array_equal(rebuilt.mean, original.mean)
    assert peak < 6 * curves.nbytes


def test_band_export_lists_models_then_envelopes():
    text = export_band_csv(_band([[0.0, 1.0], [1.0, 3.0]]))
    keys = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert keys == ["0", "0", "1", "1", "lower", "lower", "upper", "upper"]


def test_band_export_envelope_values():
    text = export_band_csv(_band([[0.0, 4.0], [1.0, 3.0]]))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    lower = [float(r[3]) for r in rows if r[1] == "lower"]
    upper = [float(r[3]) for r in rows if r[1] == "upper"]
    assert lower == [0.0, 3.0]
    assert upper == [1.0, 4.0]


# --- byte equality with the per-point writers --------------------------------
# The writers format whole rows at once. These are the per-point writers
# they replaced, kept as the reference: the bytes must not differ.


def _scalar_csv(kind, grid_values, rows):
    lines = ["plot_kind,unit,grid_value,value"]
    for label, values in rows:
        for gi, x in enumerate(grid_values):
            lines.append(f"{kind},{label},{float(x):.17g},{float(values[gi]):.17g}")
    return "\n".join(lines) + "\n"


def _scalar_points(frame, xs, ys):
    return " ".join(
        f"{format(frame.sx(float(x)), '.2f')},{format(frame.sy(float(y)), '.2f')}"
        for x, y in zip(xs, ys)
    )


def _axes_error(frame):
    """The exception the axes raise for this frame, if any. The writers
    draw the axes before any curve, so the per-point writers failed
    exactly when the axes did."""
    try:
        _axes(frame, "x")
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return None


def _svg_points(svg):
    return re.findall(r'points="([^"]*)"', svg)


_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300)
_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)


@st.composite
def _matrices(draw, min_rows=1):
    grid = sorted(draw(st.lists(_values, min_size=1, max_size=5, unique=True)))
    rows = draw(st.integers(min_rows, 4))
    if draw(st.booleans()):
        # all curves equal: the frame pads a zero range by 0.5 each way
        curves = np.full((rows, len(grid)), draw(_values))
    else:
        row = st.lists(_values, min_size=len(grid), max_size=len(grid))
        curves = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    return Grid("x", np.asarray(grid)), curves


# pixel coordinates that end in a half-cent: odd multiples of 1/8 are exact
# ties, which "%.2f" rounds half-even, and (k + 0.5) / 100 the nearest
# doubles to one
_HALF_CENTS = st.one_of(
    st.integers(68 * 8, 412 * 8).map(lambda i: i / 8),
    st.integers(6800, 41199).map(lambda k: (k + 0.5) / 100),
)


@st.composite
def _near_tie_matrices(draw):
    """Curves over [0, 1] whose values map within a few ulps of a pixel
    coordinate that ends in a half-cent."""
    grid = sorted(draw(st.lists(st.floats(-10, 10), min_size=1, max_size=5, unique=True)))
    frame = _Frame(grid[0], grid[-1], 0.0, 1.0)

    def value(coordinate, ulps):
        frac = (frame.bottom - coordinate) / (frame.bottom - frame.top)
        y = frame.y_lo + frac * (frame.y_hi - frame.y_lo)
        for _ in range(abs(ulps)):
            y = math.nextafter(y, math.copysign(math.inf, ulps))
        return min(max(y, 0.0), 1.0)

    row = st.lists(st.builds(value, _HALF_CENTS, st.integers(-3, 3)),
                   min_size=len(grid), max_size=len(grid))
    curves = np.array(draw(st.lists(row, min_size=2, max_size=4)))
    curves[0, 0], curves[1, 0] = 0.0, 1.0  # the y range the values were aimed at
    return Grid("x", np.asarray(grid)), curves


def _curve_set_of(grid, curves):
    return CurveSet("ICE", grid, curves, curves.mean(axis=0))


def _band_of(grid, curves):
    labels = tuple(f"m{i}" for i in range(len(curves)))
    return BandSet("TDP", grid, labels, curves, curves.min(axis=0), curves.max(axis=0))


@settings(deadline=None)
@given(st.one_of(_matrices(), _near_tie_matrices()))
@example((Grid("x", np.asarray([-0.0])), np.asarray([[-0.0]])))
@example((Grid("x", np.asarray([0.0, 1.0, 2.0])), np.asarray([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]])))
@example((Grid("x", np.asarray([0.5])), np.asarray([[5e-324]])))
@example((Grid("x", np.asarray([-1e300, 1e300])), np.asarray([[1e300, -1e300], [0.0, 5e-324]])))
@example((Grid("x", np.asarray([0.0, 1.0, 2.0])), np.full((3, 3), 7.25)))
@example((Grid("x", np.asarray([0.0, 1.0])), np.full((2, 2), 1e300)))
def test_curve_writers_match_the_per_point_writers(matrix):
    curve_set = _curve_set_of(*matrix)
    xs = curve_set.grid.values
    rows = [*enumerate(curve_set.curves), ("mean", curve_set.mean)]
    assert export_csv(curve_set) == _scalar_csv("ICE", xs, rows)
    y_lo = float(min(curve_set.curves.min(), curve_set.mean.min()))
    y_hi = float(max(curve_set.curves.max(), curve_set.mean.max()))
    frame = _Frame(float(xs[0]), float(xs[-1]), y_lo, y_hi)
    error = _axes_error(frame)
    if error is not None:
        with pytest.raises(error):
            render_curves(curve_set)
        return
    expected = [_scalar_points(frame, xs, ys) for _, ys in rows]
    assert _svg_points(render_curves(curve_set)) == expected


@pytest.mark.parametrize("kind", ["100%", "%s%.17g%%"])
def test_export_keeps_percent_signs_in_the_kind(kind):
    curve_set = _curve_set(kind=kind, curves=[[0.5, 2.0]])
    rows = [(0, curve_set.curves[0]), ("mean", curve_set.mean)]
    assert export_csv(curve_set) == _scalar_csv(kind, curve_set.grid.values, rows)


@settings(deadline=None)
@given(st.one_of(_matrices(), _near_tie_matrices()))
@example((Grid("x", np.asarray([-0.0])), np.asarray([[-0.0]])))
@example((Grid("x", np.asarray([0.0, 1.0, 2.0])), np.asarray([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]])))
@example((Grid("x", np.asarray([-1e300, 1e300])), np.asarray([[1e300, -1e300], [0.0, 5e-324]])))
@example((Grid("x", np.asarray([0.0, 1.0, 2.0])), np.full((2, 3), -3.5)))
def test_band_writers_match_the_per_point_writers(matrix):
    band = _band_of(*matrix)
    xs = band.grid.values
    rows = [*enumerate(band.curves), ("lower", band.lower), ("upper", band.upper)]
    assert export_band_csv(band) == _scalar_csv("TDP", xs, rows)
    frame = _Frame(float(xs[0]), float(xs[-1]),
                   float(band.lower.min()), float(band.upper.max()))
    error = _axes_error(frame)
    if error is not None:
        with pytest.raises(error):
            render_band(band)
        return
    envelope = (
        f"{_scalar_points(frame, xs, band.upper)} "
        f"{_scalar_points(frame, xs[::-1], band.lower[::-1])}"
    )
    expected = [envelope] + [_scalar_points(frame, xs, ys) for ys in band.curves]
    assert _svg_points(render_band(band)) == expected


def _format_hundredths(coords):
    return [int(format(c, ".2f").replace(".", "")) for c in coords.tolist()]


def test_hundredths_match_format_at_and_around_every_tie():
    eighths = np.arange(50 * 8, 590 * 8 + 1) / 8
    half_cents = (np.arange(5000, 59000) + 0.5) / 100
    coords = [eighths, np.nextafter(eighths, 0), np.nextafter(eighths, 1000), half_cents]
    for direction in (0, 1000):
        nudged = half_cents
        for _ in range(4):
            nudged = np.nextafter(nudged, direction)
            coords.append(nudged)
    coords.append(np.random.default_rng(28).uniform(50, 590, size=100_000))
    coords = np.concatenate(coords)
    coords = coords[(coords >= 50) & (coords <= 590)]
    # the exact ties round half-even, away from floor(100 c + 0.5)
    assert _format_hundredths(np.asarray([50.125, 50.375])) == [5012, 5038]
    assert _hundredths(coords).tolist() == _format_hundredths(coords)
    strided = coords[: len(coords) // 7 * 7].reshape(-1, 7)[::-1, 2:]
    assert _hundredths(strided).tolist() == [_format_hundredths(row) for row in strided]


@pytest.mark.parametrize("coords", [[50.0, np.nextafter(50, 0)], [590.01], [100.0, math.nan]])
def test_hundredths_refuse_coordinates_off_the_canvas(coords):
    with pytest.raises(EngineError, match="outside the plot range"):
        _hundredths(np.asarray(coords))


def test_a_band_curve_outside_its_envelope_is_refused():
    # every curve point must map inside the frame the envelopes span
    grid = Grid("x", np.asarray([0.0, 1.0]))
    band = BandSet("TDP", grid, ("a", "b"), np.asarray([[0.0, 1.0], [0.5, 9.0]]),
                   np.asarray([0.0, 1.0]), np.asarray([0.5, 1.0]))
    with pytest.raises(EngineError, match="outside the plot range"):
        render_band(band)


@pytest.mark.parametrize("curves, lower, upper, message", [
    ([[0.0, 1.0], [0.5, 9.0]], [0.0, 1.0], [0.5, 1.0], "leave their"),
    ([[0.0, 1.0], [0.5, 0.5]], [0.0, 0.75], [0.5, 1.0], "leave their"),  # below lower
    ([[0.0, np.nan], [0.5, 1.0]], [0.0, 1.0], [0.5, 1.0], "not finite"),
    ([[0.0, 1.0], [0.5, 1.0]], [0.0, 1.0], [0.5, np.inf], "not finite"),
])
def test_band_csv_refuses_a_band_no_model_set_gives(curves, lower, upper, message):
    # `uncertainty_band` gives finite curves inside their envelopes; the
    # CSV writer must not write anything else (a NaN as "nan")
    grid = Grid("x", np.asarray([0.0, 1.0]))
    band = BandSet("TDP", grid, ("a", "b"), np.asarray(curves), np.asarray(lower),
                   np.asarray(upper))
    with pytest.raises(EngineError, match=message):
        export_band_csv(band)


# --- relabelling the text of a curve set with the same values --------------


@pytest.mark.parametrize("intervention", [None, "do(x=grid)"])
@pytest.mark.parametrize("source_kind, kind", list(itertools.product(KIND_COLORS, repeat=2)))
def test_relabelled_text_matches_the_text_formatted_anew(source_kind, kind, intervention):
    metadata = {"intervention": intervention} if intervention else {}
    curves = [[0.5, -1.25, 3.0], [2.0, 0.0, -0.0]]
    captions = [f"{k}: {intervention}" if intervention else k for k in (source_kind, kind)]
    # an x label equal to a caption must keep its text
    for var in ("x", *captions):
        source = _curve_set(source_kind, curves, (0.0, 0.5, 2.0), metadata, var)
        target = source.relabel(kind)
        like = (source, export_csv(source))
        assert export_csv(target, like=like) == export_csv(target)
        like = (source, render_curves(source))
        assert render_curves(target, like=like) == render_curves(target)


@pytest.mark.parametrize("change", [
    lambda c: dataclasses.replace(c, curves=c.curves + 1.0, mean=c.mean + 1.0),
    # equal as floats, but printed "-0" instead of "0"
    lambda c: dataclasses.replace(c, curves=-c.curves, mean=-c.mean),
    lambda c: dataclasses.replace(c, grid=Grid("y", c.grid.values)),
    lambda c: dataclasses.replace(c, grid=Grid("x", c.grid.values * 2.0)),
])
def test_text_of_other_values_is_not_relabelled(change):
    source = _curve_set("ICE", [[0.0, 0.0], [0.0, 0.0]])
    target = dataclasses.replace(change(source), kind="PDP")
    assert export_csv(target, like=(source, export_csv(source))) == export_csv(target)
    svg = render_curves(target, like=(source, render_curves(source)))
    assert svg == render_curves(target)


# --- pieces of a range of units --------------------------------------------


_PIECE_KINDS = ("ICE", "PDP", "100%", "%s%.17g%%", "plot_kind")


@st.composite
def _piece_cases(draw):
    """A matrix, a partition of its units into consecutive ranges given by
    their bounds, a kind and a kind to relabel it to."""
    grid, curves = draw(st.one_of(_matrices(), _near_tie_matrices()))
    cuts = draw(st.lists(st.integers(0, len(curves)), max_size=4))
    kind, target = draw(st.lists(st.sampled_from(_PIECE_KINDS), min_size=2, max_size=2))
    return grid, curves, sorted({0, *cuts, len(curves)}), kind, target


@settings(deadline=None, derandomize=True)
@given(_piece_cases())
@example((Grid("x", np.asarray([0.0, 1.0])), np.asarray([[0.5, 2.0]]), [0, 1], "ICE", "PDP"))
# the last unit on its own, with the mean rows
@example((Grid("x", np.asarray([0.0, 1.0])), np.asarray([[0.5, 2.0], [1.0, 3.0], [-1.0, 0.0]]),
          [0, 2, 3], "ICE", "PDP"))
# a flat row, formatted through "%s", in the second piece
@example((Grid("x", np.asarray([0.0, 1.0, 2.0])), np.asarray([[0.0, 1.0, 2.0], [2.5, 2.5, 2.5]]),
          [0, 1, 2], "%s%.17g%%", "100%"))
def test_pieces_join_to_the_whole_text(case):
    grid, curves, cuts, kind, target = case
    source = CurveSet(kind, grid, curves, curves.mean(axis=0), {"intervention": "do(x=grid)"})
    relabelled = source.relabel(target)
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    pieces = [export_csv(source, units=r) for r in ranges]
    assert "".join(pieces) == export_csv(source)
    assert "".join(export_csv(relabelled, units=r, like=(source, piece))
                   for r, piece in zip(ranges, pieces)) == export_csv(relabelled)
    xs = grid.values
    error = _axes_error(_Frame(float(xs[0]), float(xs[-1]), *source.value_range))
    if error is not None:
        with pytest.raises(error):
            render_curves(source, units=ranges[0])
        return
    pieces = [render_curves(source, units=r) for r in ranges]
    assert "".join(pieces) == render_curves(source)
    assert "".join(render_curves(relabelled, units=r, like=(source, piece))
                   for r, piece in zip(ranges, pieces)) == render_curves(relabelled)


@pytest.mark.parametrize("units", [range(0, 3), range(-1, 1), range(1, 1), range(2, 1),
                                   range(0, 2, 2)])
def test_units_must_be_a_run_of_the_curve_sets_units(units):
    curve_set = _curve_set(curves=[[0.0, 1.0], [2.0, 3.0]])
    for write in (export_csv, render_curves):
        with pytest.raises(ValueError, match="is not a run"):
            write(curve_set, units=units)
