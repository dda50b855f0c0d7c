"""Command line front end mapping each study to one subcommand.

Subcommands: timeseries, sweep-kappa, sweep-n, grid-pv, sweep-eta,
limits, fit.  One table, ``_SCHEMAS``, declares each subcommand's
options as (converter, default, help), and ``_RUNNERS`` maps each
subcommand to its library call.  Every run resolves its configuration
from defaults, an optional ``--config`` file of ``key = value`` lines,
and command line flags, in that order of precedence (flags win).  The
text of every flag and config value passes through its option's
converter in one place, ``_convert``, so a bad value reads "invalid
value for KEY: ..." from either source.  Tables are emitted as CSV
(``#``-prefixed metadata, then a header row, then the body in blocks of
rows) or JSON (one object with ``meta`` and ``rows``).  CSV writes
floats as ``%.17g`` and JSON as Python's shortest ``repr``; both read
back exactly, and on one host and numpy build identical configurations
produce byte-identical files (numpy's SIMD level moves some bits).  A
CSV block is written by _csvblock.block, which derives the ``%.17g``
text of each float64 cell from its bits and lays a block out as one
bytes, at 3-4 times the speed of ``%`` on the benchmark's body; any
other cell goes through _fmt.  The body is bytes from the block writer
to the file, which is opened in binary; ``--output -`` decodes it for
the text sys.stdout.

A body of more than one block of entanglement._CHUNK rows, the blocks
time_series scores in, is split across the available CPUs by one
experiments._forked_map, which forks once per further CPU whatever the
body's length: each block's rows are computed and formatted in one
process, and the bytes stream back to be written in order, so each
process holds about one block.  Every runner hands emit its body as
_Rows; the other runners' slice columns already computed, and the
timeseries runner's run time_series on the dephasing_grid of a block's
times, so the computation is split too: formatting alone in a
child saved 3% of wall time for 23% more CPU, both together about 30%
for under 8%.  Before any output is opened, the runner resolves the
times, strictly increasing, and evaluates the bath at the last, so an
input that the whole grid rejects still fails with the same message
and leaves no file.

Exit codes: 0 success, 2 usage or validation, 3 I/O, 4 numerical failure.
"""

import argparse
import collections
import contextlib
import json
import math
import sys

import numpy as np

from . import __version__, _csvblock
from .bath import BathConfig, dephasing_grid
from .dynamics import CouplingConfig, EnsembleConfig, SpinInit
from .entanglement import _CHUNK
from .errors import DephasimError, NumericalError, ValidationError
from .experiments import (
    TAU_WINDOW,
    TimeSeries,
    _forked_map,
    _resolve_times,
    fit_exponential,
    grid_pv,
    limits_compare,
    sweep_eta,
    sweep_kappa,
    sweep_N,
    time_series,
)


def _auto(convert):
    """convert, or None for the text auto or none."""
    return lambda raw: None if raw.lower() in ("auto", "none") else convert(raw)


def _list(convert):
    """A comma separated list of convert's values; empty items are skipped."""
    return lambda raw: [convert(x) for x in raw.split(",") if x.strip()]


def _choice(*choices):
    """The text itself, if it is one of choices."""
    def choose(raw):
        if raw not in choices:
            raise ValueError("must be one of %s" % ", ".join(choices))
        return raw
    return choose


# schema entry: (converter from text, raising ValueError; default; help)
_COMMON_PHYSICS = {
    "kappa_c": (float, 0.05, "collective coupling strength"),
    "kappa_l": (float, 0.0, "local coupling strength"),
    "eta": (float, 0.0, "scaling exponent in kappa_c / N^eta"),
    "epsilon": (float, 1.0, "cutoff to thermal frequency ratio"),
    "theta": (float, 1.0, "dimensionless temperature"),
}
_COMMON_STATE = {
    "p": (float, 0.5, "population of each retained spin"),
    "v": (float, 0.48, "coherence of each retained spin"),
    "background_p": (float, 0.5, "population of the traced out spins"),
}
_COMMON_GRID = {
    "tau_max": (float, TAU_WINDOW, "rescaled time window"),
    "steps": (_auto(int), None, "grid points (default: auto resolution)"),
}
_COMMON_OUT = {
    "output": (str, "-", "output path, - for stdout"),
    "format": (_choice("csv", "json"), "csv", "output format"),
}
# the options of a time-series study: timeseries and the three sweeps
_STUDY = {**_COMMON_PHYSICS, **_COMMON_STATE, **_COMMON_GRID, **_COMMON_OUT}

_SCHEMAS = {
    "timeseries": {
        **_STUDY,
        "n": (int, 2, "total spin count"),
        "t_max": (_auto(float), None, "explicit time window (overrides tau_max)"),
    },
    "sweep-kappa": {
        **_STUDY,
        "n": (int, 2, "total spin count"),
        "kappa_values": (_list(float), [0.04, 0.1, 0.2, 0.4], "couplings to sweep"),
    },
    "sweep-n": {
        **_STUDY,
        "n_min": (int, 2, "smallest N"),
        "n_max": (int, 200, "largest N"),
        "n_step": (int, 2, "N increment"),
    },
    "grid-pv": {
        **_COMMON_PHYSICS,
        **_COMMON_GRID,
        **_COMMON_OUT,
        "mode": (_choice("symmetric-pv", "dynamic-corner"), "symmetric-pv", "grid mode"),
        "grid_points": (_auto(int), None, "points per axis (51 symmetric, 26 dynamic)"),
        "n": (int, 40, "total spin count (dynamic mode)"),
        "background_p": (float, 0.5, "population of the traced out spins"),
        "s_knob": (float, math.pi / 2.0, "abstract phase kappa^2 S (symmetric mode)"),
        "gamma_l_knob": (float, 0.0, "abstract local exponent (symmetric mode)"),
        "gamma_c_knob": (float, 0.0, "abstract collective exponent (symmetric mode)"),
    },
    "sweep-eta": {
        **_STUDY,
        "kappa_c": (float, 0.2, "collective coupling strength"),
        "eta_values": (_list(float), [0.0, 0.1, 0.25, 0.3, 0.4, 0.5], "exponents to sweep"),
        "n_min": (int, 4, "smallest N"),
        "n_max": (int, 60, "largest N"),
        "n_step": (int, 2, "N increment"),
    },
    "limits": {
        **_COMMON_PHYSICS,
        **_COMMON_STATE,
        **_COMMON_OUT,
        "kappa_c": (float, 0.2, "collective coupling strength"),
        "eta": (float, 0.1, "scaling exponent in kappa_c / N^eta"),
        "n_values": (_list(int), [100, 1000, 10000, 100000], "spin counts to compare"),
        "t": (float, 30.0, "comparison time"),
    },
    "fit": {
        **_COMMON_OUT,
        "input": (str, None, "table to refit (CSV or JSON)"),
        "x": (str, "n", "abscissa column"),
        "y": (str, "c_max", "ordinate column"),
        "n_min": (_auto(float), None, "lower fit range bound"),
        "n_max": (_auto(float), None, "upper fit range bound"),
    },
}

# a sweep sets the value it sweeps at each point, so it takes none
del _SCHEMAS["sweep-kappa"]["kappa_c"], _SCHEMAS["sweep-eta"]["eta"]


def _convert(name, convert, raw):
    # raw is a flag's or a config file's text; defaults are not converted
    try:
        return convert(raw.strip())
    except ValueError as exc:
        raise ValidationError("invalid value for %s: %s" % (name, exc)) from exc


def _read_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(
                        "%s:%d: expected 'key = value', got %r" % (path, lineno, line)
                    )
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValidationError("cannot read config file %s: %s" % (path, exc)) from exc
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser():
    parser = _Parser(prog="dephasim", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version="dephasim %s" % __version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        # no prefix matching: sweep-eta --eta must not mean --eta-values
        sp = sub.add_parser(name, prog="dephasim %s" % name, allow_abbrev=False)
        sp.add_argument("--config", default=None, help="key = value file; flags win")
        for key, (_, _, help_text) in schema.items():
            sp.add_argument(
                "--%s" % key.replace("_", "-"),
                dest=key,
                default=argparse.SUPPRESS,
                help=help_text,
            )
    return parser


def parse_args(argv):
    """Resolve argv into (subcommand, config dict); raises ValidationError."""
    ns = _build_parser().parse_args(argv)
    sub = ns.subcommand
    schema = _SCHEMAS[sub]
    resolved = {k: spec[1] for k, spec in schema.items()}
    if getattr(ns, "config", None):
        for key, raw in _read_config_file(ns.config).items():
            if key == "subcommand":
                if raw != sub:
                    raise ValidationError(
                        "config file is for subcommand %r, not %r" % (raw, sub)
                    )
                continue
            if key not in schema:
                raise ValidationError("unknown config key %r for %s" % (key, sub))
            resolved[key] = _convert(key, schema[key][0], raw)
    for key in schema:
        if hasattr(ns, key):
            resolved[key] = _convert(key, schema[key][0], getattr(ns, key))
    return sub, resolved


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    if isinstance(x, (list, tuple)):
        return ",".join(_fmt(v) for v in x)
    if x is None:
        return "auto"
    return str(x)


# the encoder of json.dumps(..., sort_keys=True, indent=2, default=_fmt)
_JSON = json.JSONEncoder(sort_keys=True, indent=2, default=_fmt)


def _json_cells(part):
    """The JSON texts of a column slice, as json.dumps writes them inside a row."""
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        texts = list(map(float.__repr__, part.tolist()))
        for i in np.flatnonzero(~np.isfinite(part)):
            texts[i] = _JSON.encode(part[i])
        return texts
    return [_JSON.encode(x).replace("\n", "\n      ") for x in part]


# a table body: n rows, and fetch(start, stop), the columns of rows start to stop
_Rows = collections.namedtuple("_Rows", "n fetch")


def _slices(data):
    """The _Rows of a table given column by column: each column's slice of the rows."""
    return _Rows(len(data[0]) if data else 0,
                 lambda start, stop: [col[start:stop] for col in data])


def _body(rows, write):
    """write(start, the columns of rows start to start + _CHUNK), for each block, in order.

    The blocks go through one experiments._forked_map, so a block's
    columns are fetched and written in one process, and the bytes stream
    back in order, so each process holds about one block while they are
    written.
    """
    return _forked_map(lambda start: write(start, rows.fetch(start, min(start + _CHUNK, rows.n))),
                       range(0, rows.n, _CHUNK))


def _json_chunks(columns, rows, config, info):
    """json.dumps(body, sort_keys=True, indent=2, default=_fmt) + "\n", streamed by rows.

    body = {"meta": meta, "rows": rows}; meta is encoded whole and
    indented one level, then the rows follow in _body's blocks.
    """
    meta = {"tool": "dephasim %s" % __version__, "config": config, "info": info,
            "columns": list(columns)}
    head = '{\n  "meta": %s,\n  "rows": ' % _JSON.encode(meta).replace("\n", "\n  ")
    if not rows.n:
        yield (head + "[]\n}\n").encode()
        return

    def write(start, data):
        # an array that fetch returns for two columns is formatted once
        texts = {key: _json_cells(col) for key, col in {id(col): col for col in data}.items()}
        cells = zip(*(texts[id(col)] for col in data))
        block = "\n    ],\n    [\n      ".join(map(",\n      ".join, cells))
        return ("%s\n    [\n      %s\n    ]" % ("," if start else "", block)).encode()

    yield (head + "[").encode()
    yield from _body(rows, write)
    yield b"\n  ]\n}\n"


def _csv_chunks(columns, rows, config, info):
    lines = ["# dephasim %s" % __version__]
    lines.append("# config: subcommand = %s" % config["subcommand"])
    for key in sorted(k for k in config if k != "subcommand"):
        lines.append("# config: %s = %s" % (key, _fmt(config[key])))
    for key in sorted(info):
        lines.append("# info: %s = %s" % (key, _fmt(info[key])))
    lines.append(",".join(columns))
    yield ("\n".join(lines) + "\n").encode()
    yield from _body(rows, lambda start, data: _csvblock.block(data, _fmt))


def emit(columns, rows, config, info, fmt, path):
    """Write a table, its body given as _Rows; CSV keeps a # metadata block above the header.

    The chunks are bytes, written to a file as they are and to stdout as
    text.  They are closed on the way out, so a write that fails kills and
    reaps the body's forked children at once.
    """
    chunks = (_csv_chunks if fmt == "csv" else _json_chunks)(columns, rows, config, info)
    with contextlib.closing(chunks):
        if path == "-":
            sys.stdout.writelines(map(bytes.decode, chunks))
        else:
            with open(path, "wb") as fh:
                fh.writelines(chunks)


def _ensemble(cfg_values):
    spin = SpinInit(p=cfg_values["p"], v=cfg_values["v"])
    return EnsembleConfig(
        spin1=spin, spin2=spin, background_p=cfg_values["background_p"]
    )


def _coupling(vals):
    """The CouplingConfig of vals; a sweep replaces the fields it sweeps, which vals lacks."""
    return CouplingConfig(
        kappa_c=vals.get("kappa_c", 0.0), kappa_l=vals["kappa_l"], eta=vals.get("eta", 0.0),
        N=vals.get("n", 2),
    )


def _bath(cfg_values):
    return BathConfig(epsilon=cfg_values["epsilon"], theta=cfg_values["theta"])


def _info_from(meta):
    info = {}
    warnings = meta.get("warnings", [])
    info["warnings"] = "; ".join(warnings) if warnings else "none"
    for key in ("argmax", "c_max", "regime"):
        if key in meta:
            info[key] = meta[key]
    return info


def _table(res):
    """A SweepResult as (columns, _Rows, info)."""
    data = [[row[i] for row in res.rows] for i in range(len(res.columns))]
    return res.columns, _slices(data), _info_from(res.meta)


def _study(vals):
    """A time-series study's coupling, ensemble, bath, tau_max and steps, in the sweeps' order."""
    return _coupling(vals), _ensemble(vals), _bath(vals), vals["tau_max"], vals["steps"]


def _run_timeseries(vals):
    """time_series's table, as _Rows that run it on the dephasing_grid of a block's times.

    Every step of time_series acts on each time alone, so a block's rows
    have the bits the whole grid gives them.  The times, strictly
    increasing, are resolved before any output is opened, and the bath is
    evaluated at t[-1], its largest input, to fail as the whole grid would.
    """
    cfg, ens, bath, tau_max, steps = _study(vals)
    meta = {"warnings": []}
    t = _resolve_times(cfg, bath, vals["t_max"], steps, tau_max, meta)
    dephasing_grid(t[-1:], bath)

    def fetch(start, stop):
        ts = time_series(cfg, ens, bath, grid=dephasing_grid(t[start:stop], bath))
        return ts.t, ts.tau, ts.concurrence, ts.abs_p_n, ts.S, ts.gamma_l, ts.gamma_c

    return TimeSeries.columns, _Rows(t.size, fetch), _info_from(meta)


def _n_list(vals):
    if vals["n_step"] <= 0:
        raise ValidationError("n_step must be positive")
    return list(range(vals["n_min"], vals["n_max"] + 1, vals["n_step"]))


def _run_grid_pv(vals):
    gp = vals["grid_points"]
    if gp is not None and gp < 1:
        raise ValidationError("grid_points must be >= 1, got %d" % gp)
    if vals["mode"] == "symmetric-pv":
        p_max, default = 1.0, 51
        knobs = {key: vals[key] for key in ("s_knob", "gamma_l_knob", "gamma_c_knob")}
    else:
        p_max, default = 0.5, 26
        knobs = dict(cfg=_coupling(vals), ens_background=vals["background_p"], bath=_bath(vals),
                     tau_max=vals["tau_max"], steps=vals["steps"])
    gp = default if gp is None else gp
    return _table(grid_pv(np.linspace(0.0, p_max, gp), np.linspace(0.0, 0.5, gp),
                          mode=vals["mode"], **knobs))


def _run_limits(vals):
    spin = SpinInit(p=vals["p"], v=vals["v"])
    return _table(limits_compare(
        vals["eta"], vals["n_values"], vals["t"], spin, spin,
        kappa_c=vals["kappa_c"], kappa_l=vals["kappa_l"],
        background_p=vals["background_p"], bath=_bath(vals),
    ))


def _read_table(path):
    """(columns, rows) of a CSV or JSON table; a malformed one is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    if text.lstrip().startswith("{"):
        try:
            body = json.loads(text)
            columns, rows = body["meta"]["columns"], body["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError("malformed JSON table in %s: %r" % (path, exc)) from exc
    else:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines:
            raise ValidationError("no table found in %s" % path)
        columns = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
    if not isinstance(columns, list) or not isinstance(rows, list):
        raise ValidationError("malformed table in %s: columns and rows must be lists" % path)
    for i, row in enumerate(rows, 1):
        if not isinstance(row, list) or len(row) != len(columns):
            raise ValidationError(
                "row %d of %s does not have the %d cells of its header" % (i, path, len(columns))
            )
    return columns, rows


def _run_fit(vals):
    if vals["input"] is None:
        raise ValidationError("fit requires --input")
    columns, raw_rows = _read_table(vals["input"])
    for name in (vals["x"], vals["y"]):
        if name not in columns:
            raise ValidationError("column %r not present in %s" % (name, vals["input"]))
    ix, iy = columns.index(vals["x"]), columns.index(vals["y"])

    def as_float(cell):
        try:
            return float(cell)
        except (TypeError, ValueError):
            return math.nan

    x = np.array([as_float(r[ix]) for r in raw_rows])
    y = np.array([as_float(r[iy]) for r in raw_rows])
    rng = None
    if vals["n_min"] is not None or vals["n_max"] is not None:
        rng = (
            -math.inf if vals["n_min"] is None else vals["n_min"],
            math.inf if vals["n_max"] is None else vals["n_max"],
        )
    fit = fit_exponential(x, y, n_range=rng)
    cols = ("slope", "stderr", "r_squared", "intercept", "n_used", "n_excluded")
    data = [[fit.slope], [fit.stderr], [fit.r_squared], [fit.intercept], [fit.n_used],
            [fit.n_excluded]]
    info = {"fit_range": "%s..%s" % fit.n_range, "warnings": "none"}
    return cols, _slices(data), info


# each returns (columns, _Rows, info)
_RUNNERS = {
    "timeseries": _run_timeseries,
    "sweep-kappa": lambda vals: _table(sweep_kappa(vals["kappa_values"], *_study(vals))),
    "sweep-n": lambda vals: _table(sweep_N(_n_list(vals), *_study(vals))),
    "sweep-eta": lambda vals: _table(sweep_eta(vals["eta_values"], _n_list(vals), *_study(vals))),
    "grid-pv": _run_grid_pv,
    "limits": _run_limits,
    "fit": _run_fit,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        sub, vals = parse_args(argv)
        columns, rows, info = _RUNNERS[sub](vals)
        config = dict(vals, subcommand=sub)
        emit(columns, rows, config, info, vals.get("format", "csv"), vals.get("output", "-"))
    except ValidationError as exc:
        print("dephasim: error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("dephasim: numerical failure: %s" % exc, file=sys.stderr)
        return 4
    except DephasimError as exc:
        print("dephasim: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        # --output, or fit's --input; an unreadable --config is a ValidationError
        print("dephasim: I/O error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
