"""Command-line interface.

Subcommands: simulate, discover, fit, explain, render, run. The run
subcommand drives the whole pipeline from a JSON config and writes one
CSV and one SVG per (predictor, variable, plot kind) plus a manifest.

Model spec files are line oriented; '#' starts a comment::

    scm salary
    var P { noise = uniform(0.0, 1.5) }
    var F { parents = [P]; eq = "2*P^3"; noise = normal(0.0, 0.2) }

Root variables omit parents and eq. Noise is one of normal(mean, sd),
uniform(low, high), point(value).

Every table path holds a block of a file, never the whole text. Datasets
and render's curve table are parsed from the open file a line at a time;
only a table numpy refuses is read whole, by the loop that words errors.
simulate writes its tables _PIECE_ROWS rows at a time, and run, explain
and render write curve files _PIECE_UNITS units at a time.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 compute
error, 5 external predictor error. On failure, files already written
by the failing invocation are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import importlib
import io
import itertools
import json
import math
import operator
import os
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

# OpenBLAS's idle workers spin for 2**OPENBLAS_THREAD_TIMEOUT cycles (28, about 0.1 s of a
# second CPU, by default) after it loads and after each threaded call; at 4, its minimum, they
# sleep almost at once. OpenBLAS reads the value as numpy loads it, so it is set for that load
# alone: a caller's own value, children and a process that loaded numpy itself see no change.
_QUIET_BLAS = "numpy" not in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ
if _QUIET_BLAS:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
try:
    import numpy as np
finally:
    if _QUIET_BLAS:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]

from . import engine, render
from .engine import PLOT_KINDS  # read by the benchmark's tracing shims
from .errors import CdpError, ConfigError, DataError
from .expr import parse as parse_expression
from .predictors import (
    ExternalPredictorError,
    ForestConfig,
    Predictor,
    PredictorError,
    check_count,
    check_features,
    fit_forest,
    fit_ols,
    load_predictor,
    open_external,
    save_predictor,
    ClosedFormPredictor,
    _csv_rows,
)
from .scm import Dataset, Mechanism, NoiseSpec, Scm, build_scm, sample

if TYPE_CHECKING:  # discovery is imported by the functions that discover
    from . import discovery as disc

__all__ = [
    "load_scm_spec",
    "main",
    "read_dataset_csv",
    "run_pipeline",
    "write_dataset_csv",
]

_WRITE_SLICE = 1 << 20  # characters encoded and written at a time
_PIECE_ROWS = 1 << 12  # dataset rows formatted and written at a time
_PIECE_UNITS = 256  # units of a curve file formatted and written at a time

_SCM_HEADER_RE = re.compile(r"scm\s+([A-Za-z_][A-Za-z0-9_]*)\s*$")
_VAR_RE = re.compile(r"var\s+([A-Za-z_][A-Za-z0-9_]*)\s*\{(.*)\}\s*$")
_NOISE_RE = re.compile(
    r"(normal|uniform|point)\s*\(\s*([^,()]+?)\s*(?:,\s*([^,()]+?)\s*)?\)\s*$"
)


# --- input files -----------------------------------------------------------


def _read_input(path: str | Path, what: str, error: type[CdpError]) -> str:
    """The text of an input file. A file that cannot be opened or is not
    UTF-8 raises `error`: ConfigError for specs, configs and saved
    models, DataError for datasets and curve tables."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def _json(text: str, source: str | Path):
    """JSON text from source, a file or a flag; text that does not parse,
    or nests too deeply for the decoder, is a ConfigError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of over 4300 digits
        raise ConfigError(f"{source}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{source}: invalid JSON: nested too deeply") from None


# --- model spec files ------------------------------------------------------


def _strip_comment(line: str) -> str:
    """Drop a '#' comment, ignoring '#' inside double quotes."""
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _parse_noise(text: str, lineno: int) -> NoiseSpec:
    match = _NOISE_RE.match(text.strip())
    if match is None:
        raise ConfigError(f"line {lineno}: bad noise spec {text.strip()!r}")
    kind, first, second = match.group(1), match.group(2), match.group(3)
    try:
        p1 = float(first)
        p2 = float(second) if second is not None else None
    except ValueError:
        raise ConfigError(f"line {lineno}: bad noise parameter in {text.strip()!r}") from None
    try:
        if kind == "point":
            if p2 is not None:
                raise ConfigError(f"line {lineno}: point() takes one parameter")
            return NoiseSpec.point(p1)
        if p2 is None:
            raise ConfigError(f"line {lineno}: {kind}() takes two parameters")
        if kind == "normal":
            return NoiseSpec.normal(p1, p2)
        return NoiseSpec.uniform(p1, p2)
    except CdpError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None


def _parse_var_body(body: str, lineno: int) -> Mechanism:
    parents: tuple[str, ...] = ()
    expression = None
    noise = None
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: bad field {chunk!r}")
        if key == "parents":
            if not (value.startswith("[") and value.endswith("]")):
                raise ConfigError(f"line {lineno}: parents must be a [..] list")
            inner = value[1:-1].strip()
            parents = tuple(p.strip() for p in inner.split(",")) if inner else ()
        elif key == "eq":
            if not (value.startswith('"') and value.endswith('"') and len(value) >= 2):
                raise ConfigError(f"line {lineno}: eq must be a quoted string")
            try:
                expression = parse_expression(value[1:-1])
            except CdpError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        elif key == "noise":
            noise = _parse_noise(value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
    if noise is None:
        raise ConfigError(f"line {lineno}: variable is missing a noise field")
    if (expression is None) != (len(parents) == 0):
        raise ConfigError(f"line {lineno}: parents and eq must be given together")
    try:
        return Mechanism(parents, expression, noise)
    except CdpError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None


def load_scm_spec(path: str | Path) -> Scm:
    """Parse and validate a model spec file."""
    text = _read_input(path, "model spec", ConfigError)
    name = None
    mechanisms: dict[str, Mechanism] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if name is None:
            match = _SCM_HEADER_RE.match(line)
            if match is None:
                raise ConfigError(f"line {lineno}: expected 'scm <name>', got {line!r}")
            name = match.group(1)
            continue
        match = _VAR_RE.match(line)
        if match is None:
            raise ConfigError(f"line {lineno}: expected a var declaration, got {line!r}")
        var = match.group(1)
        if var in mechanisms:
            raise ConfigError(f"line {lineno}: duplicate variable {var!r}")
        mechanisms[var] = _parse_var_body(match.group(2), lineno)
    if name is None:
        raise ConfigError(f"{path}: no 'scm <name>' header")
    if not mechanisms:
        raise ConfigError(f"{path}: no variables declared")
    try:
        return build_scm(name, mechanisms)
    except CdpError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# --- dataset files ---------------------------------------------------------


def write_dataset_csv(data: Dataset) -> str:
    return "".join(_dataset_pieces(data))


def _dataset_pieces(data: Dataset) -> Iterator[str]:
    """The text of write_dataset_csv(data) in pieces: the header line,
    then the rows _PIECE_ROWS at a time."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(data.columns)
    yield out.getvalue()
    for start in range(0, data.m, _PIECE_ROWS):
        yield _csv_rows(data.values[start : start + _PIECE_ROWS])


def _read_table(path: str | Path, what: str, parse, parse_text):
    """parse(handle) of the open input file, read as UTF-8 with universal
    newlines. When the file cannot be opened or read, or parse gives None,
    parse_text of the text `_read_input` gives, which words a failure; it
    alone reads what is no regular file, as a pipe can be read only once."""
    table = None
    if Path(path).is_file():
        with contextlib.suppress(OSError, UnicodeDecodeError), open(path, encoding="utf-8") as f:
            table = parse(f)
    return table if table is not None else parse_text(_read_input(path, what, DataError))


def read_dataset_csv(path: str | Path, label_map: Mapping[str, float] | None = None) -> Dataset:
    """Read a comma-separated table of numbers. label_map translates
    non-numeric cells (for example benign -> 2).

    numpy's C reader parses the open file a line at a time, so the table
    and a line are held, never the text; whenever it cannot, or the result
    is not one the cell loop would give, `_read_cells` reads the text
    instead and says which cell is at fault."""
    return _read_table(path, "dataset", _parse_numbers,
                       lambda text: _read_cells(text, path, label_map))


def _parse_numbers(lines: Iterable[str]) -> Dataset | None:
    """The table `_read_cells` reads from a file's lines, which universal
    newlines end at each '\\n' and nowhere else, as `csv.reader` ends a
    record when no quote is open; parsed by `np.loadtxt`, or None when that
    takes the cell loop to decide. A quote in the header goes to the cell
    loop, and one in a row fails numpy's parse. Both parsers round through
    `PyOS_string_to_double` and strip the same whitespace; numpy refuses
    the underscores and non-ASCII digits that `float` accepts, so those go
    to the cell loop too. numpy must return a row per nonblank line."""
    lines = filter("\n".__ne__, lines)
    header = next(lines, "").removesuffix("\n")
    names = [h.strip() for h in header.split(",")]
    if '"' in header or len(set(names)) != len(names):
        return None
    counter = itertools.count()  # zip draws from it once per line and once at the end
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns, not raises, on empty input
            matrix = np.loadtxt(map(operator.itemgetter(1), zip(counter, lines)),
                                delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except (ValueError, UserWarning):  # a UnicodeDecodeError is a ValueError too
        return None
    if matrix.shape != (next(counter) - 1, len(names)) or not np.isfinite(matrix).all():
        return None
    return Dataset(tuple(names), matrix)


def _read_cells(text: str, path: str | Path, label_map: Mapping[str, float] | None) -> Dataset:
    """Read the table cell by cell with `csv.reader` and `float`: the
    reference for `_parse_numbers`, the one reader of quoted cells and
    label maps, and the source of every row-and-column DataError."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # e.g. a cell beyond the csv module's field limit
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names")
    matrix = np.empty((len(rows) - 1, len(header)))
    label_map = dict(label_map or {})
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for c, cell in enumerate(row):
            cell = cell.strip()
            try:
                value = float(cell)
            except ValueError:
                if cell in label_map:
                    value = float(label_map[cell])
                else:
                    raise DataError(
                        f"{path}: row {r}, column {header[c]!r}: "
                        f"cannot read {cell!r} as a number"
                    ) from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row {r}, column {header[c]!r}: non-finite value")
            matrix[r - 2, c] = value
    return Dataset(tuple(header), matrix)


# --- run configuration -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SimulateBlock:
    n: int
    seed: int


@dataclasses.dataclass(frozen=True)
class PredictorBlock:
    label: str
    kind: str
    target: str | None
    features: tuple[str, ...]
    settings: dict  # the kind's own settings, checked: keyword arguments of its builder


@dataclasses.dataclass(frozen=True)
class RunConfig:
    raw: dict
    scm_path: Path | None
    discovery: disc.DiscoverySettings | None
    data_source: Path | SimulateBlock
    explain_data: Path | None
    predictors: tuple[PredictorBlock, ...]
    variables: tuple[str, ...]
    plots: tuple[str, ...]
    grid_resolution: int
    controls: dict[str, float]
    band_scms: tuple[Path, ...]
    output_dir: Path
    seed: int
    label_map: dict[str, float]


def _config_predictors(raw: dict) -> tuple[PredictorBlock, ...]:
    blocks = raw.get("predictors")
    if blocks is None:
        single = raw.get("predictor")
        if single is None:
            raise ConfigError("config needs a predictor or predictors entry")
        blocks = [single]
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("predictors must be a nonempty list")
    out = []
    labels = set()
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            raise ConfigError("each predictor entry must be an object")
        kind = block.get("kind")
        if kind not in ("ols", "forest", "closed_form", "external"):
            raise ConfigError(f"unknown predictor kind {kind!r}")
        label = str(block.get("label", kind if len(blocks) == 1 else f"{kind}{i}"))
        if label in labels:
            raise ConfigError(f"duplicate predictor label {label!r}")
        labels.add(label)
        out.append(_predictor_block(label, kind, block))
    return tuple(out)


def _predictor_block(label: str, kind: str, block: dict) -> PredictorBlock:
    """A predictor's settings as a run-config entry or the fit and explain
    flags give them: known keys, a target for ols and forest, explicit
    features for closed_form and external, and no feature listed twice.
    The kind's own settings are checked here too, so a bad one stops a
    run before any data is read or any predictor is fitted."""
    _known_keys(f"predictor {label!r}", block, _PREDICTOR_KEYS)
    target = block.get("target")
    target = None if target is None else _text("target", target)
    features = _distinct("feature", _names("features", block.get("features", [])))
    if kind in ("ols", "forest") and target is None:
        raise ConfigError(f"predictor {label!r} needs a target")
    if kind in ("closed_form", "external") and not features:
        raise ConfigError(f"predictor {label!r} needs explicit features")
    settings = _predictor_settings(label, kind, features, block)
    return PredictorBlock(label, kind, target, features, settings)


# run-config keys of the forest settings -> ForestConfig fields
_FOREST_KEYS = {"trees": "n_trees", "depth": "max_depth", "min_leaf": "min_leaf",
                "features_per_split": "features_per_split", "bootstrap": "bootstrap",
                "seed": "seed"}
# the keys of every predictor kind: an entry may hold another kind's settings
_PREDICTOR_KEYS = {"kind", "label", "target", "features", "degree", *_FOREST_KEYS,
                   "expression", "command", "timeout"}


def _predictor_settings(label: str, kind: str, features: tuple[str, ...], block: dict) -> dict:
    """The settings of one predictor kind, checked (the ols degree and the
    forest settings by the predictors module), as keyword arguments of its
    builder in _build_predictor; a setting left out is not passed, so it
    takes the builder's default, and settings of other kinds are ignored."""
    if kind == "ols":
        if "degree" not in block:
            return {}
        degree = _whole("degree", block["degree"])
        return {"degree": _as_config(label, check_count, "degree", degree)}
    if kind == "forest":
        given = {f: _whole(key, block[key]) for key, f in _FOREST_KEYS.items() if key in block}
        return {"config": _as_config(label, ForestConfig, **given)}
    if kind == "closed_form":
        expression = block.get("expression")
        if not expression:
            raise ConfigError(f"predictor {label!r} needs an expression")
        try:
            return {"expression": ClosedFormPredictor(str(expression), features).expression}
        except CdpError as exc:
            raise ConfigError(f"predictor {label!r}: {exc}") from None
    settings = {"command": _text("command", block.get("command"))}
    if "timeout" in block:
        settings["timeout"] = _timeout(_number("timeout", block["timeout"]))
    return settings


def _as_config(label: str, check, *args, **kwargs):
    """check(*args, **kwargs); its PredictorError is a ConfigError."""
    try:
        return check(*args, **kwargs)
    except PredictorError as exc:
        raise ConfigError(f"predictor {label!r}: {exc}") from None


def _known_keys(what: str, block: dict, known) -> None:
    """A config object holds only known keys: a misspelt one would
    otherwise be ignored, and its setting would take its default."""
    for key in block:
        if key not in known:
            raise ConfigError(f"{what}: unknown key {key!r}")


def _label_map(raw) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise ConfigError("'label_map' must map strings to numbers")
    return {str(k): _number(f"label_map value for {k!r}", v) for k, v in raw.items()}


def _controls(pairs: Iterable[tuple[str, object]]) -> dict[str, float]:
    """PCDP controls as {variable: value}, in the order given: numbers on
    distinct names."""
    controls: dict[str, float] = {}
    for name, value in pairs:
        number = _number(f"control value for {name!r}", value)
        if name in controls:
            raise ConfigError(f"control {name!r} is set twice")
        controls[name] = number
    return controls


def _names(key: str, value) -> tuple[str, ...]:
    """A list-valued config key, or a default's tuple; a string is not
    accepted, because it would be taken apart into its characters."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
        raise ConfigError(f"{key!r} must be a list of names, got {value!r}")
    return tuple(value)


def _split(flag: str) -> list[str]:
    """A comma-separated flag such as --features P,F as a list of names."""
    return flag.split(",") if flag else []


def _given(args, *names: str) -> dict:
    """The flags among names that were set, as the run-config settings
    of the same names; one left unset takes the run config's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _text(key: str, value) -> str:
    """A path, command or column name from a run config; a number or a
    list there would otherwise fail later with a traceback."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key!r} must be a nonempty string, got {value!r}")
    return value


def _distinct(what: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """names with none listed twice: a repeated plot kind or variable
    would sweep again and overwrite the same files, and a repeated feature
    or column is a mistake in the list."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{what} {name!r} is listed twice")
    return names


def _plot_kinds(plots: tuple[str, ...]) -> tuple[str, ...]:
    _check_request(None, (), (), plots)
    return _distinct("plot kind", plots)


def _number(name: str, value, kind: type = float):
    """A run-config number as `kind` (int or float). Anything that is
    not a number, and a fractional value for an int, is a ConfigError
    rather than a traceback or a silent truncation. A JSON true or false
    is no number either, though Python counts bool as an int."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass  # "40.0" is still a whole number; "40.5" and "x" fail below
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def _whole(name: str, value):
    """A predictor count as every run-config whole number reads: one that
    _number reads as whole (40, 40.0, "40") as its int, and anything else
    as given, for the predictors module's check to refuse in its words."""
    try:
        return _number(name, value, int)
    except ConfigError:
        return value


def _at_least(name: str, value: int, low: int) -> int:
    if value < low:
        raise ConfigError(f"{name} must be at least {low}, got {value}")
    return value


def _alpha(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {value}")
    return value


def _timeout(value: float) -> float:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"timeout must be a positive number of seconds, got {value}")
    return value


def _check_request(scm, feature_sets, variables, plots, control=None, band_scms=()) -> None:
    """engine.check_request, whose refusal is a configuration error."""
    try:
        engine.check_request(scm, feature_sets, variables, plots, control, band_scms)
    except engine.EngineError as exc:
        raise ConfigError(str(exc)) from None


def _discovery_block(block) -> disc.DiscoverySettings:
    """Discovery settings as a run config's 'discovery' object or the
    discover flags give them; a setting left out takes its default."""
    from . import discovery as disc
    if not isinstance(block, dict):
        raise ConfigError("'discovery' must be an object")
    _known_keys("discovery", block, {f.name for f in dataclasses.fields(disc.DiscoverySettings)})
    given = {**dataclasses.asdict(disc.DiscoverySettings()), **block}
    return disc.DiscoverySettings(
        alpha=_alpha(_number("alpha", given["alpha"])),
        max_cond=_at_least("max_cond", _number("max_cond", given["max_cond"], int), 0),
        degree=_at_least("degree", _number("degree", given["degree"], int), 1),
        variables=_distinct("discovery variable", _names("variables", given["variables"])),
        cap=_at_least("cap", _number("cap", given["cap"], int), 1),
    )


# the top-level keys of a run config
_CONFIG_KEYS = {"scm", "discovery", "data", "explain_data", "predictor", "predictors",
                "variables", "plots", "grid_resolution", "controls", "band_scms",
                "output_dir", "seed", "label_map"}


def load_run_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read and validate a run config. Paths inside the file resolve
    relative to the file's directory."""
    path = Path(path)
    raw = _json(_read_input(path, "config", ConfigError), path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    raw = dict(raw)
    raw.update(overrides or {})
    _known_keys("config", raw, _CONFIG_KEYS)
    base = path.parent

    has_scm = "scm" in raw
    has_discovery = "discovery" in raw
    if has_scm == has_discovery:
        raise ConfigError("config needs exactly one of 'scm' and 'discovery'")
    scm_path = (base / _text("scm", raw["scm"])) if has_scm else None
    discovery = _discovery_block(raw["discovery"]) if has_discovery else None

    data_raw = raw.get("data")
    if data_raw is None:
        raise ConfigError("config needs a 'data' entry")
    if isinstance(data_raw, str):
        data_source: Path | SimulateBlock = base / data_raw
    elif isinstance(data_raw, dict) and "simulate" in data_raw:
        sim = data_raw["simulate"]
        if has_discovery:
            raise ConfigError("simulated data requires an 'scm' entry")
        try:
            data_source = SimulateBlock(
                n=_number("simulate n", sim["n"], int),
                seed=_number("simulate seed", sim.get("seed", raw.get("seed", 0)), int),
            )
        except (KeyError, TypeError):
            raise ConfigError("bad simulate block; need {'n': int}") from None
        _known_keys("data", data_raw, {"simulate"})
        _known_keys("simulate", sim, {"n", "seed"})
        _at_least("simulate n", data_source.n, 1)
    else:
        raise ConfigError("'data' must be a path or a {'simulate': ...} object")

    explain_data = raw.get("explain_data")
    variables = _distinct("variable", _names("variables", raw.get("variables", [])))
    if not variables:
        raise ConfigError("config needs a nonempty 'variables' list")
    plots = _plot_kinds(_names("plots", raw.get("plots", ["TDP"])))
    if not plots:
        raise ConfigError("'plots' must be nonempty")
    resolution = raw.get("grid_resolution", engine.GRID_RESOLUTION_DEFAULT)
    resolution = _at_least("grid_resolution", _number("grid_resolution", resolution, int), 2)
    controls_raw = raw.get("controls", {})
    if not isinstance(controls_raw, dict):
        raise ConfigError("'controls' must be an object")
    controls = _controls(sorted(controls_raw.items()))
    band_scms = tuple(base / p for p in _names("band_scms", raw.get("band_scms", [])))
    if len(band_scms) == 1:
        raise ConfigError("'band_scms' needs at least two model specs")
    label_map = _label_map(raw.get("label_map", {}))

    return RunConfig(
        raw=raw,
        scm_path=scm_path,
        discovery=discovery,
        data_source=data_source,
        explain_data=None if explain_data is None else base / _text("explain_data", explain_data),
        predictors=_config_predictors(raw),
        variables=variables,
        plots=plots,
        grid_resolution=resolution,
        controls=controls,
        band_scms=band_scms,
        output_dir=Path(_text("output_dir", raw.get("output_dir", "out"))),
        seed=_number("seed", raw.get("seed", 0), int),
        label_map=label_map,
    )


def _config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str)
    # the interpreter's own SHA-256 (3.12+, 3.10-3.11) loads no OpenSSL, as hashlib does
    for name in ("_sha2", "_sha256", "hashlib"):
        with contextlib.suppress(ImportError):
            sha256 = importlib.import_module(name).sha256
            break
    return sha256(canonical.encode("utf-8")).hexdigest()


# --- predictors from config ------------------------------------------------


def _block_features(block: PredictorBlock, default_features: tuple[str, ...]) -> tuple[str, ...]:
    return block.features or tuple(f for f in default_features if f != block.target)


def _build_predictor(
    block: PredictorBlock, data: Dataset, default_features: tuple[str, ...]
) -> Predictor:
    """Fit or start the block's predictor; its settings were checked when
    the block was parsed."""
    features = _block_features(block, default_features)
    if block.kind == "ols":
        return fit_ols(data, block.target, features, **block.settings)
    if block.kind == "forest":
        return fit_forest(data, block.target, features, **block.settings)
    if block.kind == "closed_form":
        return ClosedFormPredictor(features=features, **block.settings)
    return open_external(features=features, **block.settings)


# --- the pipeline ----------------------------------------------------------


@contextlib.contextmanager
def _writing(path: str | Path):
    """An OSError in the block, opening, writing or closing path, is a
    configuration error: a path that cannot be written."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_files(files: Iterable[tuple[str | Path, Iterable[str]]]) -> None:
    """Write each (path, pieces) output file a piece at a time through
    _Outputs, which leaves no file behind if a write fails."""
    with _Outputs(Path()) as outputs:
        for path, pieces in files:
            for piece in pieces:
                outputs.write(str(path), piece, more=True)
                del piece  # not held while the next piece is formatted
            outputs.write(str(path), "")  # closes the file; an error in closing is raised


class _Outputs:
    """Tracks files written so a failed run leaves nothing behind: as a
    context manager it closes the files still open and, when the block
    raises, removes every file it created."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.written: list[Path] = []
        self._open: dict[str, object] = {}  # name -> handle of a file written in pieces

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        for handle in self._open.values():
            with contextlib.suppress(OSError):
                handle.close()
        self._open.clear()
        if kind is not None:
            for target in self.written:
                with contextlib.suppress(OSError):
                    target.unlink()

    def write(self, name: str, text: str, *, more: bool = False) -> None:
        """Write text to the file name of the output directory. The first
        write of a name creates the file, which is registered before its
        first byte, so a write that fails midway leaves no partial file
        once the block ends. With more=True the file stays open and the
        next write of the name appends to it."""
        target = self.directory / name
        handle = self._open.pop(name, None)
        if handle is None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create {self.directory}: {exc}") from None
            with _writing(target):
                handle = open(target, "w", encoding="utf-8")
            self.written.append(target)
        with _writing(target):
            try:  # a slice at a time: no whole encoded copy next to the text
                for start in range(0, len(text), _WRITE_SLICE):
                    handle.write(text[start : start + _WRITE_SLICE])
            finally:
                if more:
                    self._open[name] = handle
                else:
                    handle.close()


def _columns(data: Dataset, names: Iterable[str], what: str) -> tuple[str, ...]:
    """names, each of which must be a column of data."""
    names = tuple(names)
    for name in names:
        if name not in data.columns:
            raise DataError(f"{what} {name!r} missing from the data")
    return names


def _predictor_columns(block: PredictorBlock, features: tuple[str, ...], data: Dataset,
                       explain_data: Dataset) -> None:
    """A fitted predictor's features pass check_features on the data it is
    fitted on, and every predictor's features are columns of the data it
    explains."""
    if block.kind in ("ols", "forest"):
        _as_config(block.label, check_features, data, block.target, features)
    _columns(explain_data, features, "predictor feature")


def run_pipeline(config: RunConfig, config_label: str = "config") -> dict:
    """Execute a run config; returns the manifest dict."""
    with _Outputs(config.output_dir) as outputs:
        return _run_stages(config, config_label, outputs)


def _run_stages(config: RunConfig, config_label: str, outputs: _Outputs) -> dict:
    inputs: dict = {"config": config_label}

    # data
    scm = load_scm_spec(config.scm_path) if config.scm_path else None
    if isinstance(config.data_source, SimulateBlock):
        data, _ = sample(scm, config.data_source.n, config.data_source.seed)
        inputs["data"] = f"simulate(n={config.data_source.n}, seed={config.data_source.seed})"
    else:
        data = read_dataset_csv(config.data_source, config.label_map)
        inputs["data"] = str(config.data_source)
    explain_data = data
    if config.explain_data is not None:
        explain_data = read_dataset_csv(config.explain_data, config.label_map)
        inputs["explain_data"] = str(config.explain_data)

    # structure
    if config.discovery is not None:
        from . import discovery as disc
        targets = {b.target for b in config.predictors if b.target}
        scm, inputs["discovery"] = disc.select(config.discovery, data, targets)
    else:
        inputs["scm"] = str(config.scm_path)
    for table in (data, explain_data):
        _columns(table, scm.variables, "model variable")

    features = [_block_features(block, scm.variables) for block in config.predictors]
    for block, names in zip(config.predictors, features):
        _predictor_columns(block, names, data, explain_data)
    band_scms = [load_scm_spec(p) for p in config.band_scms]
    _check_request(scm, features, config.variables, config.plots, config.controls, band_scms)
    if band_scms:
        inputs["band_scms"] = [str(p) for p in config.band_scms]
        _columns(explain_data, band_scms[0].variables, "band model variable")  # shared

    # predictors and plots
    writers = (("csv", render.export_csv), ("svg", render.render_curves))
    for block in config.predictors:
        prefix = f"{block.label}_" if len(config.predictors) > 1 else ""
        predictor = _build_predictor(block, data, scm.variables)
        _write_plots(
            outputs, prefix, scm, predictor, explain_data, config.variables, config.plots,
            config.grid_resolution, config.controls, writers, band_scms,
        )

    manifest = {
        "inputs": inputs,
        "outputs": sorted(p.name for p in outputs.written),
        "seed": config.seed,
        "config_hash": _config_hash(config.raw),
        "deviations": [engine.NIDP_NOTE] if "NIDP" in config.plots else [],
    }
    outputs.write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _write_plots(outputs: _Outputs, prefix: str, scm: Scm, predictor: Predictor, data: Dataset,
                 variables: Sequence[str], plots: Sequence[str], resolution: int,
                 control: Mapping[str, float], writers, band_scms: Sequence[Scm] = ()) -> None:
    """Write the curves of each explained variable and plot kind through
    each (extension, writer), one sweep per _sweep_groups group, plus the
    band files of band_scms; close the predictor at the end, also on
    failure. The caller has checked the request (_check_request)."""
    try:
        candidates = [engine.build_ecm(s, predictor) for s in band_scms]
        for var in variables:
            grid = engine.make_grid(data, var, resolution)
            for first, *others in _sweep_groups(scm, predictor.features, var, plots, control):
                swept = _compute_plot(first, scm, predictor, data, var, grid, control)
                curve_sets = [swept] + [
                    _compute_plot(kind, scm, predictor, data, var, grid, control, swept)
                    for kind in others
                ]
                _write_curves(outputs, f"{prefix}{var}_", curve_sets, writers)
            for kind in plots:
                if candidates and kind in engine.band_kinds():
                    band = engine.uncertainty_band(candidates, data, var, grid, kind)
                    stem = f"{prefix}{var}_{kind.lower()}_band"
                    outputs.write(f"{stem}.csv", render.export_band_csv(band))
                    outputs.write(f"{stem}.svg", render.render_band(band))
    finally:
        close = getattr(predictor, "close", None)
        if close is not None:
            close()


def _sweep_groups(scm: Scm, features: Sequence[str], var: str, plots: Sequence[str],
                  control: Mapping[str, float]) -> list[list[str]]:
    """The kinds of plots grouped by world key (engine.world_key), one
    sweep per group; groups and their kinds in the order requested."""
    groups: dict[frozenset, list[str]] = {}
    for kind in plots:
        groups.setdefault(engine.world_key(kind, scm, features, var, control), []).append(kind)
    return list(groups.values())


def _write_curves(outputs: _Outputs, stem: str, curve_sets, writers) -> None:
    """Write the curve sets of one sweep group through each (extension,
    writer), _PIECE_UNITS units at a time. Each piece of the first set is
    formatted and each other set relabels the piece of the set before
    it, which is then freed, so at most two pieces are held at a time,
    and never a whole file."""
    names = [f"{stem}{curve_set.kind.lower()}" for curve_set in curve_sets]
    total = curve_sets[0].units
    for ext, write in writers:
        for units in _unit_ranges(total):
            like = None
            for curve_set, name in zip(curve_sets, names):
                piece = write(curve_set, units=units, like=like)
                like = (curve_set, piece)
                outputs.write(f"{name}.{ext}", piece, more=units.stop < total)
            del piece, like  # not held while the next piece is formatted


def _unit_ranges(total: int) -> Iterator[range]:
    """The runs of _PIECE_UNITS units that make up range(total), in order."""
    return (range(start, min(start + _PIECE_UNITS, total))
            for start in range(0, total, _PIECE_UNITS))


def _compute_plot(kind: str, scm: Scm, predictor: Predictor, data: Dataset, var: str,
                  grid: engine.Grid, control: Mapping[str, float],
                  swept: engine.CurveSet | None = None) -> engine.CurveSet:
    """The curve set of one plot kind: its own sweep, or, for a kind in
    swept's _sweep_groups group, swept relabelled with the metadata of
    the kind's own sweep."""
    if swept is None:
        return engine.curves(kind, predictor, scm, data, var, grid, control)
    return swept.relabel(kind, engine.plot_metadata(kind, predictor, scm, var, control))


# --- subcommand handlers ---------------------------------------------------


def _cmd_simulate(args) -> int:
    scm = load_scm_spec(args.scm)
    data, noise = sample(scm, _at_least("--n", args.n, 1), args.seed)
    tables = ((args.out, data), (args.noise_out, noise))
    _write_files((path, _dataset_pieces(table)) for path, table in tables if path)
    print(f"wrote {data.m} rows of {len(data.columns)} variables to {args.out}")
    return 0


def _cmd_discover(args) -> int:
    from . import discovery as disc
    label_map = _label_map(_json(args.label_map, "--label-map")) if args.label_map else None
    block = _discovery_block(_given(args, "alpha", "max_cond", "variables"))
    text = disc.cpdag_to_text(disc.learn_cpdag(block, read_dataset_csv(args.data, label_map)))
    if args.out:
        _write_files([(args.out, [text])])
    sys.stdout.write(text)
    return 0


def _cmd_fit(args) -> int:
    # each kind reads its own settings and ignores the others'
    flags = _given(args, "target", "features", "degree", "trees", "depth", "min_leaf",
                   "bootstrap", "seed")
    block = _predictor_block(args.kind, args.kind, flags)
    data = read_dataset_csv(args.data)
    _predictor_columns(block, _block_features(block, data.columns), data, data)
    predictor = _build_predictor(block, data, data.columns)
    blob = save_predictor(predictor)
    _write_files([(args.out, [json.dumps(blob, indent=2, sort_keys=True) + "\n"])])
    print(f"fitted {predictor.describe()} on {data.m} rows -> {args.out}")
    return 0


def _parse_controls(spec: str | None) -> dict[str, float]:
    """--control A=1,B=2 as {"A": 1.0, "B": 2.0}, in flag order."""
    pairs = []
    for part in spec.split(",") if spec else ():
        name, equals, value = part.partition("=")
        if not equals:
            raise ConfigError(f"bad control {part!r}; expected VAR=VALUE")
        pairs.append((name.strip(), value))
    return _controls(pairs)


def _cmd_explain(args) -> int:
    scm = load_scm_spec(args.scm)
    data = read_dataset_csv(args.data)
    _columns(data, scm.variables, "model variable")
    plots = _plot_kinds(tuple(args.plots.split(",")))
    control = _parse_controls(args.control)
    resolution = _at_least("--grid-resolution", args.grid_resolution, 2)
    block = None
    if args.model:
        blob = _json(_read_input(args.model, "model", ConfigError), args.model)
        try:
            predictor: Predictor = load_predictor(blob)
        except (AttributeError, KeyError, TypeError, ValueError, CdpError) as exc:
            raise ConfigError(f"{args.model}: not a saved predictor: {exc!r}") from None
    elif args.expression or args.command:
        kind = "closed_form" if args.expression else "external"
        flags = _given(args, "features", "expression", "command", "timeout")
        block = _predictor_block(kind, kind, flags)
    else:
        raise ConfigError("need one of --model, --closed-form, --external")
    features = predictor.features if block is None else block.features
    _columns(data, features, "predictor feature")
    _check_request(scm, [features], (args.var,), plots, control)
    if block is not None:  # as in run, an external child starts only for a valid request
        predictor = _build_predictor(block, data, ())
    with _Outputs(Path(args.out_dir)) as outputs:
        _write_plots(
            outputs, "", scm, predictor, data, (args.var,), plots, resolution, control,
            (("csv", render.export_csv),),
        )
    for path in outputs.written:
        print(f"wrote {path}")
    return 0


def _cmd_render(args) -> int:
    try:  # a table that cannot be read, or drawn, is a data error
        curve_set = _read_table(args.csv, "curve table", lambda f: render.read_csv(f, args.var),
                                lambda text: render.import_csv(text, args.var))
        units = _unit_ranges(curve_set.units)
        _write_files([(args.svg, (render.render_curves(curve_set, units=u) for u in units))])
    except engine.EngineError as exc:
        raise DataError(f"{args.csv}: {exc}") from None
    print(f"wrote {args.svg}")
    return 0


def _cmd_run(args) -> int:
    overrides: dict = {}
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = load_run_config(args.config, overrides)
    manifest = run_pipeline(config, config_label=str(args.config))
    for name in manifest["outputs"]:
        print(f"wrote {config.output_dir / name}")
    return 0


# --- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdplot",
        description="Causal dependence plots for black-box predictors.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="sample a dataset from a model spec")
    p.add_argument("--scm", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-out")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("discover", help="estimate a partially directed graph")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--max-cond", type=int)
    p.add_argument("--variables", type=_split)
    p.add_argument("--label-map")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_discover)

    p = sub.add_parser("fit", help="fit a predictor and save it as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--features", type=_split)
    p.add_argument("--kind", choices=("ols", "forest"), default="ols")
    p.add_argument("--degree", type=int)
    p.add_argument("--trees", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--min-leaf", type=int)
    p.add_argument("--no-bootstrap", dest="bootstrap", action="store_false", default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("explain", help="compute dependence curves as CSV")
    p.add_argument("--scm", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--plots", default="TDP")
    p.add_argument("--model")
    p.add_argument("--closed-form", dest="expression")
    p.add_argument("--external", dest="command")
    p.add_argument("--features", type=_split)
    p.add_argument("--timeout", type=float)
    p.add_argument("--control")
    p.add_argument("--grid-resolution", type=int, default=engine.GRID_RESOLUTION_DEFAULT)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser("render", help="render a curve CSV to SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--var", default="x")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("run", help="run a full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_run)

    return parser


# (error type, exit code, word) of each failure, the first that matches
_EXITS = ((ExternalPredictorError, 5, "external predictor"), (ConfigError, 2, "config"),
          (DataError, 3, "data"), (CdpError, 4, "compute"))


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CdpError as exc:
        code, kind = next((code, kind) for error, code, kind in _EXITS if isinstance(exc, error))
        print(f"error ({kind}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
