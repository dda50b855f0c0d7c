"""Command line front end mapping each study to one subcommand.

Subcommands: timeseries, sweep-kappa, sweep-n, grid-pv, sweep-eta,
limits, fit.  Every run resolves its configuration from defaults, an
optional ``--config`` file of ``key = value`` lines, and command line
flags, in that order of precedence (flags win).  Tables are emitted as
CSV (``#``-prefixed metadata, then a header row, then the body in
blocks of rows) or JSON (one object with ``meta`` and ``rows``).  CSV
writes floats as ``%.17g`` and JSON as Python's shortest ``repr``; both
read back exactly, and identical configurations produce byte-identical
files.

Exit codes: 0 success, 2 usage or validation, 3 I/O, 4 numerical failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bath import BathConfig
from .dynamics import CouplingConfig, EnsembleConfig, SpinInit
from .errors import DephasimError, NumericalError, ValidationError
from .experiments import (
    fit_exponential,
    grid_pv,
    limits_compare,
    sweep_eta,
    sweep_kappa,
    sweep_N,
    time_series,
)

_PI = math.pi

# schema entry: (type tag, default, help)
_COMMON_PHYSICS = {
    "kappa_c": ("float", 0.05, "collective coupling strength"),
    "kappa_l": ("float", 0.0, "local coupling strength"),
    "eta": ("float", 0.0, "scaling exponent in kappa_c / N^eta"),
    "epsilon": ("float", 1.0, "cutoff to thermal frequency ratio"),
    "theta": ("float", 1.0, "dimensionless temperature"),
}
_COMMON_STATE = {
    "p": ("float", 0.5, "population of each retained spin"),
    "v": ("float", 0.48, "coherence of each retained spin"),
    "background_p": ("float", 0.5, "population of the traced out spins"),
}
_COMMON_GRID = {
    "tau_max": ("float", 2.0 * _PI, "rescaled time window"),
    "steps": ("maybe_int", None, "grid points (default: auto resolution)"),
    "frame": ("choice:interaction,lab", "interaction", "evolution frame"),
}
_COMMON_OUT = {
    "output": ("str", "-", "output path, - for stdout"),
    "format": ("choice:csv,json", "csv", "output format"),
}

_SCHEMAS = {
    "timeseries": {
        **_COMMON_PHYSICS,
        **_COMMON_STATE,
        **_COMMON_GRID,
        **_COMMON_OUT,
        "n": ("int", 2, "total spin count"),
        "t_max": ("maybe_float", None, "explicit time window (overrides tau_max)"),
    },
    "sweep-kappa": {
        **_COMMON_PHYSICS,
        **_COMMON_STATE,
        **_COMMON_GRID,
        **_COMMON_OUT,
        "n": ("int", 2, "total spin count"),
        "kappa_values": ("floats", [0.04, 0.1, 0.2, 0.4], "couplings to sweep"),
    },
    "sweep-n": {
        **_COMMON_PHYSICS,
        **_COMMON_STATE,
        **_COMMON_GRID,
        **_COMMON_OUT,
        "n_min": ("int", 2, "smallest N"),
        "n_max": ("int", 200, "largest N"),
        "n_step": ("int", 2, "N increment"),
    },
    "grid-pv": {
        **_COMMON_PHYSICS,
        **_COMMON_GRID,
        **_COMMON_OUT,
        "mode": ("choice:symmetric-pv,dynamic-corner", "symmetric-pv", "grid mode"),
        "grid_points": ("maybe_int", None, "points per axis (51 symmetric, 26 dynamic)"),
        "n": ("int", 40, "total spin count (dynamic mode)"),
        "background_p": ("float", 0.5, "population of the traced out spins"),
        "s_knob": ("float", _PI / 2.0, "abstract phase kappa^2 S (symmetric mode)"),
        "gamma_l_knob": ("float", 0.0, "abstract local exponent (symmetric mode)"),
        "gamma_c_knob": ("float", 0.0, "abstract collective exponent (symmetric mode)"),
    },
    "sweep-eta": {
        **_COMMON_PHYSICS,
        **_COMMON_STATE,
        **_COMMON_GRID,
        **_COMMON_OUT,
        "kappa_c": ("float", 0.2, "collective coupling strength"),
        "eta_values": ("floats", [0.0, 0.1, 0.25, 0.3, 0.4, 0.5], "exponents to sweep"),
        "n_min": ("int", 4, "smallest N"),
        "n_max": ("int", 60, "largest N"),
        "n_step": ("int", 2, "N increment"),
    },
    "limits": {
        **_COMMON_PHYSICS,
        **_COMMON_STATE,
        **_COMMON_OUT,
        "kappa_c": ("float", 0.2, "collective coupling strength"),
        "eta": ("float", 0.1, "scaling exponent in kappa_c / N^eta"),
        "n_values": ("ints", [100, 1000, 10000, 100000], "spin counts to compare"),
        "t": ("float", 30.0, "comparison time"),
    },
    "fit": {
        **_COMMON_OUT,
        "input": ("str", None, "table to refit (CSV or JSON)"),
        "x": ("str", "n", "abscissa column"),
        "y": ("str", "c_max", "ordinate column"),
        "n_min": ("maybe_float", None, "lower fit range bound"),
        "n_max": ("maybe_float", None, "upper fit range bound"),
    },
}

_REQUIRED = {"fit": ("input",)}


def _convert(name, tag, raw):
    try:
        if isinstance(raw, str):
            raw = raw.strip()
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(str(raw), 10)
        if tag == "str":
            return str(raw)
        if tag == "maybe_int":
            if raw is None or str(raw).lower() in ("auto", "none"):
                return None
            return int(str(raw), 10)
        if tag == "maybe_float":
            if raw is None or str(raw).lower() in ("auto", "none"):
                return None
            return float(raw)
        if tag == "floats":
            if isinstance(raw, (list, tuple)):
                return [float(x) for x in raw]
            return [float(x) for x in str(raw).split(",") if x.strip()]
        if tag == "ints":
            if isinstance(raw, (list, tuple)):
                return [int(x) for x in raw]
            return [int(x, 10) for x in str(raw).split(",") if x.strip()]
        if tag.startswith("choice:"):
            choices = tag.split(":", 1)[1].split(",")
            if str(raw) not in choices:
                raise ValueError("must be one of %s" % ", ".join(choices))
            return str(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError("invalid value for %s: %s" % (name, exc)) from exc
    raise ValidationError("unknown option type %r" % (tag,))


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
        sp = sub.add_parser(name, prog="dephasim %s" % name)
        sp.add_argument("--config", default=None, help="key = value file; flags win")
        for key, (_tag, _default, help_text) in schema.items():
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
    for key in _REQUIRED.get(sub, ()):
        if resolved.get(key) is None:
            raise ValidationError("%s requires --%s" % (sub, key.replace("_", "-")))
    return sub, resolved


# a float's text; _cells applies it to a whole float64 block at once
_FLOAT = "%.17g"
# rows formatted and written per step of the CSV body
_BLOCK_ROWS = 8192


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    if isinstance(x, (float, np.floating)):
        return _FLOAT % x
    if isinstance(x, (list, tuple)):
        return ",".join(_fmt(v) for v in x)
    if x is None:
        return "auto"
    return str(x)


def _cells(part):
    """The texts of a non-empty column slice, as _fmt gives them value by value."""
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return ("\n".join([_FLOAT] * len(part)) % tuple(part.tolist())).split("\n")
    return [_fmt(x) for x in part]


def _csv_chunks(columns, data, config, info):
    lines = ["# dephasim %s" % __version__]
    lines.append("# config: subcommand = %s" % config["subcommand"])
    for key in sorted(k for k in config if k != "subcommand"):
        lines.append("# config: %s = %s" % (key, _fmt(config[key])))
    for key in sorted(info):
        lines.append("# info: %s = %s" % (key, _fmt(info[key])))
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    # a column object listed twice (gamma_l and gamma_c) is formatted once
    unique = {id(col): col for col in data}
    for start in range(0, len(data[0]), _BLOCK_ROWS):
        cells = {key: _cells(col[start:start + _BLOCK_ROWS]) for key, col in unique.items()}
        yield "\n".join(map(",".join, zip(*(cells[id(col)] for col in data)))) + "\n"


def emit(columns, data, config, info, fmt, path):
    """Write a table given column by column; CSV keeps a # metadata block above the header."""
    if fmt == "csv":
        chunks = _csv_chunks(columns, data, config, info)
    else:
        meta = {"tool": "dephasim %s" % __version__, "config": config, "info": info,
                "columns": list(columns)}
        body = {"meta": meta, "rows": [list(r) for r in zip(*data)]}
        chunks = [json.dumps(body, sort_keys=True, indent=2, default=_fmt) + "\n"]
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def _ensemble(cfg_values):
    spin = SpinInit(p=cfg_values["p"], v=cfg_values["v"])
    return EnsembleConfig(
        spin1=spin, spin2=spin, background_p=cfg_values["background_p"]
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
    """A SweepResult as (columns, one list per column, info)."""
    data = [[row[i] for row in res.rows] for i in range(len(res.columns))]
    return res.columns, data, _info_from(res.meta)


def _run_timeseries(vals):
    cfg = CouplingConfig(
        kappa_c=vals["kappa_c"], kappa_l=vals["kappa_l"], eta=vals["eta"], N=vals["n"]
    )
    ts = time_series(
        cfg,
        _ensemble(vals),
        _bath(vals),
        t_max=vals["t_max"],
        steps=vals["steps"],
        tau_max=vals["tau_max"],
        frame=vals["frame"],
    )
    data = (ts.t, ts.tau, ts.concurrence, ts.abs_p_n, ts.S, ts.gamma_l, ts.gamma_c)
    return ts.columns, data, _info_from(ts.meta)


def _run_sweep_kappa(vals):
    cfg = CouplingConfig(
        kappa_c=vals["kappa_c"], kappa_l=vals["kappa_l"], eta=vals["eta"], N=vals["n"]
    )
    res = sweep_kappa(
        vals["kappa_values"], cfg, _ensemble(vals), _bath(vals),
        tau_max=vals["tau_max"], steps=vals["steps"], frame=vals["frame"],
    )
    return _table(res)


def _n_list(vals):
    if vals["n_step"] <= 0:
        raise ValidationError("n_step must be positive")
    return list(range(vals["n_min"], vals["n_max"] + 1, vals["n_step"]))


def _run_sweep_n(vals):
    cfg = CouplingConfig(kappa_c=vals["kappa_c"], kappa_l=vals["kappa_l"], eta=vals["eta"], N=2)
    res = sweep_N(
        _n_list(vals), cfg, _ensemble(vals), _bath(vals),
        tau_max=vals["tau_max"], steps=vals["steps"], frame=vals["frame"],
    )
    return _table(res)


def _run_sweep_eta(vals):
    cfg = CouplingConfig(kappa_c=vals["kappa_c"], kappa_l=vals["kappa_l"], eta=0.0, N=2)
    res = sweep_eta(
        vals["eta_values"], _n_list(vals), cfg, _ensemble(vals), _bath(vals),
        tau_max=vals["tau_max"], steps=vals["steps"], frame=vals["frame"],
    )
    return _table(res)


def _run_grid_pv(vals):
    mode = vals["mode"]
    gp = vals["grid_points"]
    if gp is not None and gp < 1:
        raise ValidationError("grid_points must be >= 1, got %d" % gp)
    if mode == "symmetric-pv":
        gp = 51 if gp is None else gp
        res = grid_pv(
            np.linspace(0.0, 1.0, gp),
            np.linspace(0.0, 0.5, gp),
            mode=mode,
            s_knob=vals["s_knob"],
            gamma_l_knob=vals["gamma_l_knob"],
            gamma_c_knob=vals["gamma_c_knob"],
        )
    else:
        gp = 26 if gp is None else gp
        cfg = CouplingConfig(
            kappa_c=vals["kappa_c"], kappa_l=vals["kappa_l"], eta=vals["eta"], N=vals["n"]
        )
        res = grid_pv(
            np.linspace(0.0, 0.5, gp),
            np.linspace(0.0, 0.5, gp),
            mode=mode,
            cfg=cfg,
            ens_background=vals["background_p"],
            bath=_bath(vals),
            tau_max=vals["tau_max"],
            steps=vals["steps"],
        )
    return _table(res)


def _run_limits(vals):
    spin = SpinInit(p=vals["p"], v=vals["v"])
    res = limits_compare(
        vals["eta"], vals["n_values"], vals["t"], spin, spin,
        kappa_c=vals["kappa_c"], kappa_l=vals["kappa_l"],
        background_p=vals["background_p"], bath=_bath(vals),
    )
    return _table(res)


def _read_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        body = json.loads(text)
        return body["meta"]["columns"], body["rows"]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValidationError("no table found in %s" % path)
    columns = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return columns, rows


def _run_fit(vals):
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
    return cols, data, info


_RUNNERS = {
    "timeseries": _run_timeseries,
    "sweep-kappa": _run_sweep_kappa,
    "sweep-n": _run_sweep_n,
    "sweep-eta": _run_sweep_eta,
    "grid-pv": _run_grid_pv,
    "limits": _run_limits,
    "fit": _run_fit,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        sub, vals = parse_args(argv)
        columns, data, info = _RUNNERS[sub](vals)
        config = dict(vals, subcommand=sub)
        emit(columns, data, config, info, vals.get("format", "csv"), vals.get("output", "-"))
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
