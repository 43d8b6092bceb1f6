"""Deterministic SVG rendering and delimited export of curve sets.

The SVG output is plain SVG 1.1 assembled from strings: same input,
same bytes, no timestamps or generated ids. Every SVG has one fixed
geometry: a 640 x 480 canvas with a 50 pixel margin, light grid lines
at the ticks, the grid variable as the x label and "prediction" as the
y label. Individual unit curves are drawn first as polylines of width
1.0 at opacity 0.25, the mean last as an opaque one of width 2.5, all
in the kind's color from KIND_COLORS (#333333 for any other kind); axes
and ticks use line elements so a curve set with m units always contains
exactly m + 1 polylines.

CSV schema (UTF-8, LF, '.' decimal, 17 significant digits)::

    plot_kind,unit,grid_value,value

unit is a 0-based integer or the literal "mean"; band files use the
model index plus the literals "lower" and "upper". Rows are ordered by
(unit, grid_value) with the named rows after the numbered ones.

The CSV writer fills each row with one "%". A row whose values are all
one float, bit for bit, formats it once and repeats it through "%s"
(a variable with no causal path to the features has such rows); any
other row goes through "%.17g". The SVG writer maps all rows of pixel
y coordinates at once to integer hundredths (`_hundredths`) and writes
their digits into one byte buffer. The bytes are those of
`format(value, ".17g")` and `format(coordinate, ".2f")` on each value.

`export_csv` and `render_curves` give one piece of their text for a
nonempty range of units (`units=range(start, stop)`, by default every
unit), so that a writer holds the text of a few hundred curves instead
of a whole file of tens of megabytes. A piece holds the header, or the
SVG head up to the axes, when the range starts at 0; then the rows, or
the polylines, of the range's units; then the mean rows, or the mean
polyline and the end of the SVG, when the range reaches the last unit.
The pieces of consecutive ranges joined in order are the whole text. In
a CSV piece each row starts with the newline that ends the line before
it, and the last piece ends with the file's final newline; an SVG
piece holds whole lines.

Plot kinds with one world key (engine.world_key) share a sweep, for
example PDP and ICE, or NDDP and ICE when every other feature is a child
of the explained variable. `export_csv` and `render_curves` take the
piece written for another curve set of such a group as
`like=(source, piece)` and relabel it instead of formatting the same
values again. In a CSV only the kind after each row's newline changes;
in an SVG only the caption and the curve color. Relabelling happens only
when the curve set shares the source's grid, curves and mean, as
`CurveSet.relabel` makes it, so the bytes are those of formatting the
curve set anew.

`import_csv` rebuilds a curve set from a CSV text and `read_csv` from an
open file, with one parser that reads lines: those of `text.split("\\n")`,
blank ones dropped. A table laid out as `export_csv` writes it is checked
line by line without parsing a number, then numpy parses its grid values
and values _BLOCK_ROWS rows at a time into one matrix, so a file is never
held whole, only the curves and a block. Any other table goes to the line
loop, which holds a tuple per row, reads rows in any order and words
every error.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .engine import BandSet, CurveSet, EngineError, Grid

__all__ = [
    "KIND_COLORS",
    "export_band_csv",
    "export_csv",
    "import_csv",
    "read_csv",
    "render_band",
    "render_curves",
]

KIND_COLORS = {
    "ICE": "#d62728",
    "PDP": "#d62728",
    "TDP": "#1f77b4",
    "NDDP": "#2ca02c",
    "NIDP": "#ff7f0e",
    "PCDP": "#9467bd",
}

_BAND_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

# the one geometry of every SVG: canvas, margin, strokes and the y label
_WIDTH, _HEIGHT, _MARGIN = 640, 480, 50
_CURVE_WIDTH, _CURVE_OPACITY, _MEAN_WIDTH = 1.0, 0.25, 2.5
_Y_LABEL = "prediction"
_TICKS = 5  # about this many ticks per axis


def _coord(value: float) -> str:
    return format(value, ".2f")


def _hundredths(coords: np.ndarray) -> np.ndarray:
    """format(c, ".2f") of each pixel coordinate c as an int64 count of
    hundredths, for coordinates in [_MARGIN, _WIDTH - _MARGIN], where
    _Frame maps every value. There k = floor(100 c + 0.5) has 4 or 5
    digits and the error of 100 c is below 1e-11, so k is what the
    correctly rounded "%.2f" prints unless 100 c is within 1e-7 of a
    half-integer. Those coordinates, among them the exact ties such as
    50.125, which "%.2f" rounds half-even, go through format one by one."""
    if coords.size and not (coords.min() >= _MARGIN and coords.max() <= _WIDTH - _MARGIN):
        raise EngineError("curve values fall outside the plot range")
    scaled = coords * 100.0
    scaled += 0.5
    cents = scaled.astype(np.int64)  # the floor, as every value is positive
    scaled -= cents
    for i in np.flatnonzero((scaled < 1e-7) | (scaled > 1 - 1e-7)).tolist():
        cents.flat[i] = int(format(coords.flat[i], ".2f").replace(".", ""))
    return cents


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if lo < hi:
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad
    lo, hi = lo - 0.5, hi + 0.5
    if lo == hi:
        # from 2^52 on the floats are at least 1 apart and the pad can round away
        return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Around _TICKS ticks at 1/2/5 x 10^k multiples inside [lo, hi];
    finite for any finite lo <= hi."""
    if lo == hi:
        return [round(lo, 12)]
    raw = (hi - lo) / (_TICKS - 1)
    # a span of a few subnormals would give a zero step, and a span
    # beyond the largest float an infinite one
    raw = min(max(raw, sys.float_info.min), sys.float_info.max / 10)
    power = math.floor(math.log10(raw))
    best = None
    for mantissa in (1.0, 2.0, 5.0, 10.0):
        step = mantissa * 10.0**power
        count = math.floor(hi / step) - math.ceil(lo / step) + 1
        if best is None or abs(count - _TICKS) < best[0]:
            best = (abs(count - _TICKS), step)
    step = best[1]
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [round(i * step, 12) for i in range(first, last + 1)]


def _tick_label(value: float) -> str:
    return format(value, "g")


class _Frame:
    """Maps data coordinates onto the pixel canvas. sx and sy use only
    -, /, * and +, so a numpy array maps to the same values as each of
    its floats on its own."""

    left, right, top, bottom = _MARGIN, _WIDTH - _MARGIN, _MARGIN, _HEIGHT - _MARGIN

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = _pad_range(x_lo, x_hi)
        self.y_lo, self.y_hi = _pad_range(y_lo, y_hi)
        for lo, hi in ((self.x_lo, self.x_hi), (self.y_lo, self.y_hi)):
            if not math.isfinite(hi - lo):
                raise EngineError(f"plot range [{lo!r}, {hi!r}] is too wide to draw")

    def sx(self, value: float) -> float:
        frac = (value - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + frac * (self.right - self.left)

    def sy(self, value: float) -> float:
        frac = (value - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - frac * (self.bottom - self.top)

    def points(self, xs, rows) -> list[str]:
        """The points attribute of one polyline per row of y values. The
        digits of every row are written into one byte buffer, over a row
        of the fixed x strings, which is decoded once."""
        # hundredths of a coordinate in the frame are at most 59000
        cents = _hundredths(self.sy(np.asarray(rows, dtype=np.float64))).astype(np.uint16)
        cells = [f"{_coord(x)},\0\0\0.\0\0" for x in self.sx(xs).tolist()]
        return _lines(cells, cents).decode("ascii").split("\n")[:-1]


def _lines(cells: list[str], cents: np.ndarray) -> bytearray:
    """One line per row of cents: the cells joined by spaces, where the
    field "\\0\\0\\0.\\0\\0" that ends each cell takes the digits of the
    row's hundredths in that column. A hundreds digit of 0 stays NUL, and
    every NUL is dropped."""
    line = (" ".join(cells) + "\n").encode("ascii")
    starts = np.cumsum([0] + [len(cell) + 1 for cell in cells[:-1]])
    at = starts + [len(cell) - 6 for cell in cells]
    out = bytearray(len(cents) * len(line))
    buf = np.frombuffer(out, np.uint8).reshape(len(cents), len(line))
    buf[:] = np.frombuffer(line, np.uint8)
    for offset in (5, 4, 2, 1):
        cents, digit = np.divmod(cents, 10)
        buf[:, at + offset] = digit + 48
    buf[:, at] = np.where(cents, cents + 48, 0)
    return out.translate(None, b"\0")


def _open_svg() -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]


def _axes(frame: _Frame, x_label: str) -> list[str]:
    parts = []
    x_ticks = _nice_ticks(frame.x_lo, frame.x_hi)
    y_ticks = _nice_ticks(frame.y_lo, frame.y_hi)
    for t in x_ticks:
        x = _coord(frame.sx(t))
        parts.append(
            f'<line x1="{x}" y1="{frame.top}" x2="{x}" y2="{frame.bottom}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
    for t in y_ticks:
        y = _coord(frame.sy(t))
        parts.append(
            f'<line x1="{frame.left}" y1="{y}" x2="{frame.right}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<line x1="{frame.left}" y1="{frame.bottom}" x2="{frame.right}" '
        f'y2="{frame.bottom}" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{frame.left}" y1="{frame.top}" x2="{frame.left}" '
        f'y2="{frame.bottom}" stroke="#000000" stroke-width="1"/>'
    )
    for t in x_ticks:
        x = _coord(frame.sx(t))
        parts.append(
            f'<line x1="{x}" y1="{frame.bottom}" x2="{x}" '
            f'y2="{frame.bottom + 5}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{frame.bottom + 18}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{_tick_label(t)}</text>'
        )
    for t in y_ticks:
        y = _coord(frame.sy(t))
        parts.append(
            f'<line x1="{frame.left - 5}" y1="{y}" x2="{frame.left}" y2="{y}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{frame.left - 8}" y="{y}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end" '
            f'dominant-baseline="middle">{_tick_label(t)}</text>'
        )
    parts.append(
        f'<text x="{_coord((frame.left + frame.right) / 2)}" '
        f'y="{frame.bottom + 35}" font-size="13" font-family="sans-serif" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="15" y="{_coord((frame.top + frame.bottom) / 2)}" '
        f'font-size="13" font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 15 {_coord((frame.top + frame.bottom) / 2)})">'
        f"{_Y_LABEL}</text>"
    )
    return parts


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _title(text: str) -> str:
    """The caption element; the first text element of every SVG and the
    only one in font size 14."""
    return (
        f'<text x="{_coord(_WIDTH / 2)}" y="{_MARGIN - 15}" '
        f'font-size="14" font-family="sans-serif" text-anchor="middle">'
        f"{_escape(text)}</text>"
    )


def _caption(curve_set: CurveSet) -> str:
    intervention = curve_set.metadata.get("intervention")
    return f"{curve_set.kind}: {intervention}" if intervention else curve_set.kind


def _stroke(kind: str) -> str:
    """The start of every curve polyline of a kind; no other element of
    a curve SVG starts with "<polyline"."""
    return f'<polyline fill="none" stroke="{KIND_COLORS.get(kind, "#333333")}" '


def _same_values(like: tuple[CurveSet, str] | None, curve_set: CurveSet) -> bool:
    """Whether like = (source, text) holds a source that shares curve_set's
    grid, curves and mean (see CurveSet.relabel), so that its text needs
    only relabelling. The arrays are read-only, so sharing them means
    equal values."""
    return like is not None and all(
        getattr(like[0], name) is getattr(curve_set, name)
        for name in ("grid", "curves", "mean")
    )


def _units(curve_set: CurveSet, units: range | None) -> range:
    """units, a nonempty range of the curve set's units in steps of 1;
    None means every unit."""
    if units is None:
        return range(curve_set.units)
    if units.step != 1 or not 0 <= units.start < units.stop <= curve_set.units:
        raise ValueError(f"{units} is not a run of the curve set's {curve_set.units} units")
    return units


def render_curves(
    curve_set: CurveSet,
    *,
    units: range | None = None,
    like: tuple[CurveSet, str] | None = None,
) -> str:
    """SVG with one thin polyline per unit and a thick mean polyline, or
    the piece of it for a range of units (see the module docstring).

    like=(source, piece) offers render_curves(source, units=units); when
    source shares the values, the result is that piece with the caption
    and the curve color swapped."""
    units = _units(curve_set, units)
    if _same_values(like, curve_set):
        source, text = like
        text = text.replace(_title(_caption(source)), _title(_caption(curve_set)), 1)
        return text.replace(_stroke(source.kind), _stroke(curve_set.kind))
    stroke = _stroke(curve_set.kind)
    xs = curve_set.grid.values
    frame = _Frame(float(xs[0]), float(xs[-1]), *curve_set.value_range)
    parts = []
    if units.start == 0:
        parts.extend(_open_svg())
        parts.append(_title(_caption(curve_set)))
        parts.extend(_axes(frame, curve_set.grid.var))
    for points in frame.points(xs, curve_set.curves[units.start : units.stop]):
        parts.append(
            f'{stroke}stroke-width="{_CURVE_WIDTH}" '
            f'stroke-opacity="{_CURVE_OPACITY}" '
            f'points="{points}"/>'
        )
    if units.stop == curve_set.units:
        (mean_points,) = frame.points(xs, [curve_set.mean])
        parts.append(f'{stroke}stroke-width="{_MEAN_WIDTH}" points="{mean_points}"/>')
        parts.append("</svg>")
    parts.append("")  # ends the last line; "+" would copy the text once more
    return "\n".join(parts)


def render_band(band: BandSet) -> str:
    """SVG with a shaded envelope polygon and one polyline per model."""
    xs = band.grid.values
    y_lo = float(band.lower.min())
    y_hi = float(band.upper.max())
    frame = _Frame(float(xs[0]), float(xs[-1]), y_lo, y_hi)
    parts = _open_svg()
    parts.append(_title(f"{band.kind} model uncertainty"))
    parts.extend(_axes(frame, band.grid.var))
    (forward,) = frame.points(xs, [band.upper])
    (backward,) = frame.points(xs[::-1], [band.lower[::-1]])
    parts.append(
        f'<polygon fill="#9ecae1" fill-opacity="0.45" stroke="none" '
        f'points="{forward} {backward}"/>'
    )
    for i, points in enumerate(frame.points(xs, band.curves)):
        color = _BAND_PALETTE[i % len(_BAND_PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_MEAN_WIDTH}" '
            f'points="{points}"/>'
        )
    for i, label in enumerate(band.labels):
        color = _BAND_PALETTE[i % len(_BAND_PALETTE)]
        y = _MARGIN + 16 + 16 * i
        parts.append(
            f'<line x1="{frame.right - 120}" y1="{y}" x2="{frame.right - 100}" '
            f'y2="{y}" stroke="{color}" stroke-width="{_MEAN_WIDTH}"/>'
        )
        parts.append(
            f'<text x="{frame.right - 94}" y="{y + 4}" font-size="11" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    parts.append("</svg>\n")  # ends the text; "+" would copy it once more
    return "\n".join(parts)


# --- delimited export ------------------------------------------------------


_HEADER = "plot_kind,unit,grid_value,value"


def _table(kind: str, grid: Grid, blocks, first: bool = True, last: bool = True) -> str:
    """CSV lines of the rows of (labels, matrix) blocks over one grid,
    one "%" per row, each line after a newline: the header first when
    first, and the file's final newline when last. A row whose values
    are one float, bit for bit (so 0.0 and -0.0 differ), formats it once
    and repeats it through "%s"; any other row formats each value
    through "%.17g"."""
    xs = ["%.17g" % x for x in grid.values]
    cells = [f"{x},%.17g" for x in xs]
    repeated = [f"{x},%s" for x in xs]
    kind = kind.replace("%", "%%")
    parts = [_HEADER] if first else []
    for labels, matrix in blocks:
        bits = np.asarray(matrix, dtype=np.float64).view(np.int64)
        flat = (bits == bits[:, :1]).all(axis=1).tolist()
        for label, values, same in zip(labels, matrix, flat):
            prefix = f"\n{kind},{label},"
            if same:
                value = "%.17g" % values[0]
                parts.append((prefix + prefix.join(repeated)) % ((value,) * len(xs)))
            else:
                parts.append((prefix + prefix.join(cells)) % tuple(values.tolist()))
    if last:
        parts.append("\n")
    return "".join(parts)


def export_csv(
    curve_set: CurveSet,
    *,
    units: range | None = None,
    like: tuple[CurveSet, str] | None = None,
) -> str:
    """Stable delimited form of a curve set, or the piece of it for a
    range of units; see the module docstring.

    like=(source, piece) offers export_csv(source, units=units); when
    source has the same values, the result is that piece with the kind of
    each row swapped. Every row starts with the kind after a newline."""
    units = _units(curve_set, units)
    if _same_values(like, curve_set) and "\n" not in like[0].kind:
        source, text = like
        return text.replace(f"\n{source.kind},", f"\n{curve_set.kind},")
    blocks = [(units, curve_set.curves[units.start : units.stop])]
    last = units.stop == curve_set.units
    if last:
        blocks.append((("mean",), curve_set.mean[None]))
    return _table(curve_set.kind, curve_set.grid, blocks, units.start == 0, last)


def export_band_csv(band: BandSet) -> str:
    """Delimited form of a band: each model's curve, then the envelopes.
    A band that `uncertainty_band` cannot give, with a value that is not
    finite or a curve outside [lower, upper], raises EngineError."""
    if not all(np.isfinite(a).all() for a in (band.curves, band.lower, band.upper)):
        raise EngineError("band values are not finite")
    if np.any(band.curves < band.lower) or np.any(band.curves > band.upper):
        raise EngineError("band curves leave their [lower, upper] envelope")
    blocks = [
        (range(len(band.curves)), band.curves),
        (("lower", "upper"), np.stack([band.lower, band.upper])),
    ]
    return _table(band.kind, band.grid, blocks)


# --- delimited import ------------------------------------------------------


_BLOCK_ROWS = 1 << 12  # curve-table rows numpy parses at a time


def import_csv(text: str, var: str = "x") -> CurveSet:
    """Rebuild a CurveSet from export_csv output. Values survive the
    round trip exactly; the grid variable name is not stored in the
    file, so it must be supplied. The text is read a line at a time, as
    read_csv reads a file."""
    return _import(lambda: _split_lines(text), var)


def read_csv(handle: TextIO, var: str = "x") -> CurveSet:
    """import_csv of the text of an open, seekable text file, which is
    read a line at a time, two or three times over. A table laid out as
    export_csv writes it is parsed by numpy into one matrix of its values
    a block of rows at a time, so the curves and a block are held and
    never the text; any other table is read by the line loop, the source
    of every error, which also reads rows in any order."""

    def lines() -> TextIO:
        handle.seek(0)
        return handle

    return _import(lines, var)


def _split_lines(text: str) -> Iterator[str]:
    """The lines of text, each up to and with its "\\n", as a file gives
    them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _import(lines: Callable[[], Iterable[str]], var: str) -> CurveSet:
    """The curve set of the table whose lines each call of lines() gives
    again: the split rule is that of `text.split("\\n")` with the empty
    lines dropped. numpy reads a table in _layout's layout; the line loop
    any other table, and one whose numbers numpy refuses or whose grids
    differ."""
    layout = _layout(lines())
    curve_set = None if layout is None else _read_values(lines(), var, *layout)
    return curve_set if curve_set is not None else _read_rows(lines(), var)


def _layout(lines: Iterable[str]) -> tuple[str, int, int] | None:
    """(kind, units, grid length) of a curve table laid out as export_csv
    writes it: blank lines aside, the header, then the rows of unit 0, 1,
    ... in turn and the mean rows, as many for each, every row four cells
    with the one kind and the unit as export_csv writes them. None for
    any other table."""
    rows = filter("\n".__ne__, lines)
    if next(rows, "").removesuffix("\n") != _HEADER:
        return None
    kind = head = mean = None
    runs: list[int] = []  # the rows of each unit in turn, then the mean's
    for row in rows:
        if row.count(",") != 3:
            return None
        if head is None or not row.startswith(head):
            if kind is None:
                kind = row[: row.index(",")]
                mean = f"{kind},mean,"
            if head == mean:
                return None
            head = next((h for h in (f"{kind},{len(runs)},", mean) if row.startswith(h)), None)
            if head is None:
                return None
            runs.append(0)
        runs[-1] += 1
    if head != mean or len(runs) < 2 or runs.count(runs[0]) != len(runs):
        return None
    return kind, len(runs) - 1, runs[0]


def _read_values(lines: Iterable[str], var: str, kind: str, units: int,
                 points: int) -> CurveSet | None:
    """The curve set of a table in _layout's layout: numpy parses the grid
    values and values of about _BLOCK_ROWS rows at a time into one matrix
    of the units' and the mean's values. None when numpy refuses a number
    or a unit's grid values differ from the mean's, which float equality
    lets it check against unit 0's; the line loop then decides."""
    rows = filter("\n".__ne__, lines)
    next(rows)  # the header
    values = np.empty((units + 1, points))
    per_block = max(1, _BLOCK_ROWS // points)
    for start in range(0, units + 1, per_block):
        block = values[start : start + per_block]
        try:
            cells = np.loadtxt(rows, delimiter=",", comments=None, usecols=(2, 3),
                               max_rows=block.size, ndmin=2, dtype=np.float64)
        except ValueError:  # a UnicodeDecodeError is a ValueError too
            return None
        if cells.shape != (block.size, 2):
            return None
        grids = cells[:, 0].reshape(block.shape)
        if start == 0:
            first = grids[0].copy()
        if not (grids == first).all():
            return None
        block[:] = cells[:, 1].reshape(block.shape)
    return CurveSet(kind, Grid(var, grids[-1]), values[:units], values[units])


def _read_rows(lines: Iterable[str], var: str) -> CurveSet:
    """The curve set of a table read a line at a time with `float` and
    `int`: the reference for `_read_values`, the one reader of rows in
    any other order, and the source of every error. Each unit's grid
    values and values, and the mean's, go to a pair of float arrays,
    16 bytes a row."""
    nonblank = filter(None, (line.removesuffix("\n") for line in lines))
    if next(nonblank, None) != _HEADER:
        raise EngineError("not a curve table: bad header")
    kinds = set()
    per_unit: dict[int, tuple[array, array]] = defaultdict(lambda: (array("d"), array("d")))
    mean_rows = (array("d"), array("d"))
    for lineno, line in enumerate(nonblank, start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise EngineError(f"bad row at line {lineno}")
        kind, unit, grid_value, value = parts
        kinds.add(kind)
        try:
            x, y = float(grid_value), float(value)
            xs, ys = mean_rows if unit == "mean" else per_unit[int(unit)]
        except ValueError:
            raise EngineError(f"bad number at line {lineno}") from None
        xs.append(x)
        ys.append(y)
    if len(kinds) != 1:
        raise EngineError(f"mixed plot kinds in one file: {sorted(kinds)}")
    grid_values, mean = mean_rows
    if not grid_values or not per_unit:
        raise EngineError("curve table is missing unit or mean rows")
    units = sorted(per_unit)
    if units != list(range(len(units))):
        raise EngineError("unit numbering has gaps")
    curves = np.empty((len(units), len(grid_values)))
    for unit in units:
        xs, ys = per_unit.pop(unit)
        if xs != grid_values:  # float by float, so a nan grid value never matches
            raise EngineError(f"unit {unit} grid does not match the mean grid")
        curves[unit] = ys
    return CurveSet(kinds.pop(), Grid(var, np.asarray(grid_values)), curves, np.asarray(mean))
