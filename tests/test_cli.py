"""End-to-end tests of the command line interface."""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dephasim
from dephasim import cli
from dephasim.cli import main, parse_args


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _config_lines(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# config: "):
            key, _, value = line[len("# config: "):].partition(" = ")
            out[key] = value
    return out


def _data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _child(argv, cwd):
    # the child runs in cwd, so a relative PYTHONPATH (such as src) would
    # miss the package; point it at the one imported here
    pkg_root = os.path.dirname(os.path.dirname(dephasim.__file__))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = pkg_root + (os.pathsep + inherited if inherited else "")
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable] + argv, cwd=cwd, env=env, capture_output=True, text=True
    )


class TestParsing:
    def test_defaults(self):
        sub, vals = parse_args(["timeseries"])
        assert sub == "timeseries"
        assert vals["epsilon"] == 1.0
        assert vals["theta"] == 1.0
        assert vals["kappa_l"] == 0.0
        assert vals["p"] == 0.5
        assert vals["v"] == 0.48
        assert vals["steps"] is None
        assert vals["tau_max"] == pytest.approx(2 * math.pi)

    def test_flag_types(self):
        _, vals = parse_args(["sweep-kappa", "--kappa-values", "0.1,0.2", "--n", "6"])
        assert vals["kappa_values"] == [0.1, 0.2]
        assert vals["n"] == 6

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa-c = 0.3  # inline comment\nn = 6\n\n# full comment\n")
        _, vals = parse_args(
            ["timeseries", "--config", str(cfg), "--n", "8"]
        )
        assert vals["kappa_c"] == 0.3  # from file
        assert vals["n"] == 8  # flag wins

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        code, _, err = _run(capsys, ["timeseries", "--config", str(cfg)])
        assert code == 2
        assert "mystery" in err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        code, _, err = _run(capsys, ["timeseries", "--config", str(cfg)])
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, err = _run(capsys, ["timeseries", "--config", "/no/such/file"])
        assert code == 2


class TestExitCodes:
    def test_validation_names_the_invariant(self, capsys):
        code, _, err = _run(capsys, ["timeseries", "--p", "1.2"])
        assert code == 2
        assert "p" in err and "[0, 1]" in err

    def test_coherence_bound_named(self, capsys):
        code, _, err = _run(capsys, ["timeseries", "--p", "0.1", "--v", "0.48"])
        assert code == 2
        assert "|v|" in err or "coherence" in err

    @pytest.mark.parametrize(
        "flag",
        [
            "--kappa-c", "--kappa-l", "--eta", "--epsilon", "--theta", "--t-max", "--tau-max",
            "--v", "--background-p", "limits --background-p", "grid-pv --s-knob",
            "grid-pv --gamma-l-knob", "grid-pv --gamma-c-knob",
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coupling_is_validation(self, capsys, flag, value):
        # a bare flag goes to timeseries; otherwise the subcommand comes first
        *sub, flag = flag.split()
        argv = sub or ["timeseries", "--n", "4", "--steps", "4"]
        code, _, err = _run(capsys, argv + [flag, value])
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["timeseries", "--kappa-c", "1e170", "--steps", "50"],
            ["timeseries", "--kappa-l", "1e170", "--steps", "50"],
            ["timeseries", "--eta", "2000", "--steps", "50"],
            ["timeseries", "--t-max", "1e300", "--kappa-c", "1e150"],
            ["timeseries", "--steps", "5", "--theta", "1e300"],
        ],
        ids=["kappa-c-squared", "kappa-l-squared", "n-to-eta", "rescaled-window", "cutoff-squared"],
    )
    def test_overflow_is_validation(self, capsys, argv):
        # each overflows a Python float unless it is rejected as input
        code, out, err = _run(capsys, argv)
        assert code == 2 and not out
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--t-max", "1e300", "--kappa-c", "1e10", "--epsilon", "1e-20"], 0),
            (["--kappa-c", "1e100", "--epsilon", "1e-300", "--theta", "1e-8"], 4),
        ],
        ids=["capped", "subnormal-cutoff"],
    )
    def test_infinite_step_request(self, capsys, argv, want):
        # the auto step count is infinite; the cap applies before it becomes an int
        code, out, err = _run(capsys, ["timeseries", "--n", "4"] + argv)
        assert code == want
        if want == 0:
            assert "auto step cap reached: inf points requested, using 20000" in out
            assert len(out.splitlines()) > 20000
        else:
            assert not out and "tail estimate" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["timeseries", "--steps", "100000000000000000000"],
            ["grid-pv", "--mode", "dynamic-corner", "--grid-points", "3",
             "--steps", "100000000000000000000"],
        ],
        ids=["timeseries", "grid-pv"],
    )
    def test_unaddressable_steps_is_validation(self, capsys, argv):
        # numpy refuses a 1e20-point grid before allocating anything; counts
        # that it would try to allocate (about 1e10 to 9e18) are not run here
        code, out, err = _run(capsys, argv)
        assert code == 2 and not out
        assert "steps" in err and "too large" in err

    @pytest.mark.parametrize(
        "sub, key, value",
        [(sub, "frame", "interaction")
         for sub in ("timeseries", "sweep-kappa", "sweep-n", "grid-pv", "sweep-eta")]
        + [("sweep-kappa", "kappa_c", "0.05"), ("sweep-eta", "eta", "0")],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_retired_option_is_validation(self, tmp_path, capsys, sub, key, value, source):
        # the frame leaves concurrence alone, and a sweep sets its own key
        if source == "flag":
            name = "--" + key.replace("_", "-")
            argv = [sub, name, value]
        else:
            name = repr(key)
            cfg = tmp_path / "run.cfg"
            cfg.write_text("%s = %s\n" % (key, value))
            argv = [sub, "--config", str(cfg)]
        code, out, err = _run(capsys, argv)
        assert code == 2 and not out
        assert name in err

    @pytest.mark.parametrize("flag", ["--gamma-l-knob", "--gamma-c-knob"])
    def test_negative_gamma_knob_is_validation(self, capsys, flag):
        code, out, err = _run(capsys, ["grid-pv", flag, "-5"])
        assert code == 2 and not out
        assert flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-kappa", "--kappa-values", ""],
            ["sweep-n", "--n-min", "10", "--n-max", "4"],
            ["sweep-eta", "--eta-values", ""],
            ["limits", "--n-values", ""],
        ],
        ids=["kappa", "n", "eta", "limits"],
    )
    def test_empty_sweep_is_validation(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2 and not out
        assert "no points" in err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["grid-pv", "--mode", "foo"],
             "invalid value for mode: must be one of symmetric-pv, dynamic-corner"),
            (["timeseries", "--n", "abc"],
             "invalid value for n: invalid literal for int() with base 10: 'abc'"),
            (["sweep-n", "--n-step", "0"], "n_step must be positive"),
            (["timeseries", "--kappa-c", "x"],
             "invalid value for kappa_c: could not convert string to float: 'x'"),
            (["timeseries", "--steps", "1.5"],
             "invalid value for steps: invalid literal for int() with base 10: '1.5'"),
            (["timeseries", "--t-max", "x"],
             "invalid value for t_max: could not convert string to float: 'x'"),
            (["sweep-kappa", "--kappa-values", "0.1,x"],
             "invalid value for kappa_values: could not convert string to float: 'x'"),
            (["limits", "--n-values", "100,1.5"],
             "invalid value for n_values: invalid literal for int() with base 10: '1.5'"),
            (["sweep-eta", "--config", "bad.cfg"],
             "invalid value for eta_values: could not convert string to float: 'x'"),
        ],
        ids=["choice", "int", "n-step", "float", "auto-int", "auto-float", "float-list",
             "int-list", "config"],
    )
    def test_bad_option_value_is_validation(self, tmp_path, monkeypatch, capsys, argv, want):
        # the config case reads bad.cfg from the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("n_min = 6\neta_values = 0.1,x\n")
        code, out, err = _run(capsys, argv)
        assert code == 2 and not out
        assert err == "dephasim: error: %s\n" % want

    @pytest.mark.parametrize("line, want", [("timeseries", 0), ("limits", 2)])
    def test_config_file_subcommand_line(self, tmp_path, capsys, line, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subcommand = %s\nsteps = 4\n" % line)
        code, out, err = _run(capsys, ["timeseries", "--config", str(cfg)])
        assert code == want
        if want:
            assert not out
            assert "config file is for subcommand 'limits', not 'timeseries'" in err
        else:
            assert len(_data_lines(out)) == 5

    def test_overflowing_bath_argument_is_validation(self, tmp_path):
        # k_c t = 1e310; in a child, so a leaked RuntimeWarning shows on stderr
        argv = ["-m", "dephasim.cli", "timeseries", "--t-max", "1e300", "--epsilon", "1e10",
                "--steps", "5"]
        proc = _child(argv, tmp_path)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("dephasim: error: phase_S's input overflows")
        assert len(proc.stderr.splitlines()) == 1

    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, ["timeseries", "--bogus", "1"])
        assert code == 2

    def test_unwritable_output(self, capsys):
        code, _, err = _run(
            capsys,
            ["timeseries", "--steps", "4", "--output", "/nonexistent-dir/o.csv"],
        )
        assert code == 3

    def test_unreadable_input(self, tmp_path, capsys):
        code, out, err = _run(capsys, ["fit", "--input", str(tmp_path / "missing.csv")])
        assert code == 3 and not out
        assert "missing.csv" in err

    @pytest.mark.parametrize(
        "name, content",
        [
            ("empty.json", b"{}"),
            ("truncated.json", b'{"meta": {"columns": ["n", "c_max"]}, "rows": [[2, 0.1], [4'),
            ("rows.json", b'{"meta": {"columns": ["n", "c_max"]}, "rows": 7}'),
            ("short_row.csv", b"n,c_max\n2,0.1\n4\n6,0.01\n"),
            ("binary.csv", b"n,c_max\n\xd0\xff\x00\n"),
        ],
        ids=["empty", "truncated", "rows-not-list", "short-row", "binary"],
    )
    def test_malformed_input_is_validation(self, tmp_path, capsys, name, content):
        table = tmp_path / name
        table.write_bytes(content)
        code, out, err = _run(capsys, ["fit", "--input", str(table)])
        assert code == 2 and not out
        assert name in err

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_nonpositive_grid_points_is_validation(self, capsys, points):
        code, out, err = _run(capsys, ["grid-pv", "--grid-points", points])
        assert code == 2 and not out
        assert "grid_points" in err

    def test_fit_without_table_is_validation(self, tmp_path, capsys):
        table = tmp_path / "notes.csv"
        table.write_text("# dephasim 0.1.0\n\n# no rows\n")
        code, out, err = _run(capsys, ["fit", "--input", str(table)])
        assert code == 2 and not out
        assert "no table found in" in err and "notes.csv" in err

    def test_fit_requires_input(self, capsys):
        code, _, err = _run(capsys, ["fit"])
        assert code == 2

    def test_fit_drops_non_finite_n(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("n,c_max\n2,0.5\nnan,0.3\n4,0.25\n6,0.125\n")
        code, out, err = _run(capsys, ["fit", "--input", str(table)])
        assert code == 0 and not err
        row = dict(zip(*[ln.split(",") for ln in _data_lines(out)]))
        assert row["n_used"] == "3" and row["n_excluded"] == "1"
        assert float(row["slope"]) == pytest.approx(-math.log(2) / 2, rel=1e-12)

    @pytest.mark.parametrize("flag", ["--n-min", "--n-max"])
    def test_fit_nan_bound_is_validation(self, tmp_path, capsys, flag):
        table = tmp_path / "t.csv"
        table.write_text("n,c_max\n2,0.5\n4,0.25\n6,0.125\n")
        code, out, err = _run(capsys, ["fit", "--input", str(table), flag, "nan"])
        assert code == 2 and not out
        assert err == "dephasim: error: fit_exponential's n_range must not hold NaN, got %r\n" % (
            (math.nan, math.inf) if flag == "--n-min" else (-math.inf, math.nan),)

    def test_fit_reversed_range_is_validation(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("n,c_max\n2,0.5\n4,0.25\n6,0.125\n8,0.0625\n")
        code, out, err = _run(capsys, ["fit", "--input", str(table), "--n-min", "6",
                                       "--n-max", "4"])
        assert code == 2 and not out
        assert err == ("dephasim: error: fit_exponential's n_range must not be reversed, "
                       "got (6.0, 4.0)\n")

    def test_fit_too_few_points_is_numerical(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("n,c_max\n2,0\n4,0\n6,0\n")
        code, _, err = _run(capsys, ["fit", "--input", str(table)])
        assert code == 4

    def test_success(self, capsys):
        code, out, _ = _run(capsys, ["timeseries", "--steps", "4", "--tau-max", "0.5"])
        assert code == 0 and out


class _Recording(dict):
    """A resolved configuration that records which keys are read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestEveryOptionRead:
    # small runs of each subcommand; grid-pv reads some keys in each mode
    RUNS = {
        "timeseries": [["--steps", "20"]],
        "sweep-kappa": [["--steps", "20", "--kappa-values", "0.1"]],
        "sweep-n": [["--steps", "20", "--n-max", "4"]],
        "sweep-eta": [["--steps", "20", "--n-max", "6"]],
        "grid-pv": [["--mode", "symmetric-pv", "--grid-points", "2"],
                    ["--mode", "dynamic-corner", "--grid-points", "2", "--steps", "20",
                     "--n", "4"]],
        "limits": [["--n-values", "100"]],
        "fit": [["--input", "table.csv"]],
    }

    @pytest.mark.parametrize("sub", list(cli._SCHEMAS))
    def test_every_schema_key_is_read(self, tmp_path, monkeypatch, sub):
        # a key that no run reads is an option that decides nothing
        (tmp_path / "table.csv").write_text("n,c_max\n2,0.5\n4,0.25\n6,0.125\n")
        monkeypatch.chdir(tmp_path)
        recorded = []

        def recording_parse(argv):
            name, vals = parse_args(argv)
            recorded.append(_Recording(vals))
            return name, recorded[-1]

        monkeypatch.setattr(cli, "parse_args", recording_parse)
        for extra in self.RUNS[sub]:
            assert main([sub, "--output", "out.txt"] + extra) == 0
        read = set().union(*(vals.read for vals in recorded))
        assert sorted(set(cli._SCHEMAS[sub]) - read) == []


class TestCsvOutput:
    def test_timeseries_columns(self, capsys):
        code, out, _ = _run(capsys, ["timeseries", "--steps", "5", "--tau-max", "1.0"])
        assert code == 0
        data = _data_lines(out)
        assert data[0] == "t,tau,concurrence,abs_p_n,s,gamma_l,gamma_c"
        assert len(data) == 6
        first = data[1].split(",")
        assert float(first[0]) == 0.0 and float(first[2]) == 0.0

    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = _run(capsys, ["timeseries", "--steps", "3", "--tau-max", "1.0"])
        row = _data_lines(out)[2].split(",")
        t = float(row[0])
        assert row[0] == "%.17g" % t
        # 17 significant digits round-trip float64 exactly
        assert float("%.17g" % t) == t

    def test_metadata_is_sorted_and_prefixed(self, capsys):
        _, out, _ = _run(capsys, ["timeseries", "--steps", "3", "--tau-max", "1.0"])
        meta = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert meta[0].startswith("# dephasim ")
        keys = [ln.split(":")[1].split("=")[0].strip() for ln in meta[1:] if "=" in ln]
        config_keys = keys[: keys.index("warnings")]
        assert config_keys[0] == "subcommand"
        assert config_keys[1:] == sorted(config_keys[1:])

    def test_nan_cells(self, capsys):
        # collapsed rows carry nan tau_c, which must survive the round trip
        code, out, _ = _run(
            capsys,
            ["sweep-n", "--n-min", "2", "--n-max", "4", "--n-step", "2",
             "--kappa-c", "0.2", "--tau-max", "1.0"],
        )
        assert code == 0
        cells = _data_lines(out)[1].split(",")
        assert math.isnan(float(cells[3]))

    def test_sweep_reports_point_warnings(self, capsys):
        code, out, _ = _run(capsys, ["sweep-kappa", "--steps", "50", "--kappa-values", "0.1,0.2"])
        assert code == 0
        line = next(ln for ln in out.splitlines() if ln.startswith("# info: warnings = "))
        warnings = line[len("# info: warnings = "):].split("; ")
        assert [w.split(": ", 1)[0] for w in warnings] == ["kappa_c=0.1", "kappa_c=0.2"]


class TestBlockWriter:
    def test_blocks_match_fmt(self, monkeypatch, capsys):
        # 7 rows in blocks of 3: two full blocks and a short one
        monkeypatch.setattr(cli, "_CHUNK", 3)
        floats = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e17])
        data = [
            floats,
            np.array([0.1, 1.0 / 3.0, 2.5, -1e-300, 1e300, 123456789.125, 7.0]),
            [1, -2, 3, 40, 500, 6000, 70000],
            [True, False, True, True, False, False, True],
            ["ok", "no-collapse", "ok", "a", "b", "c", "no-entanglement"],
            [math.nan, 0.5, math.nan, 1.25, math.nan, 2.0, math.nan],
            floats,
        ]
        columns = ("f", "g", "i", "b", "s", "tau_c", "f_again")
        cli.emit(columns, data, {"subcommand": "test"}, {}, "csv", "-")
        body = _data_lines(capsys.readouterr().out)
        assert body[0] == ",".join(columns)
        assert body[1:] == [",".join(cli._fmt(x) for x in row) for row in zip(*data)]

    def test_file_matches_stdout(self, tmp_path, capsys):
        # 20000 rows span several blocks
        argv = ["timeseries", "--steps", "20000", "--tau-max", "1.0"]
        path = tmp_path / "out.csv"
        code, out, _ = _run(capsys, argv + ["--output", "-"])
        assert code == 0
        assert main(argv + ["--output", str(path)]) == 0
        written = path.read_text(encoding="utf-8")
        echo = "# config: output = %s\n"
        assert written.replace(echo % path, echo % "-") == out
        assert len(_data_lines(out)) == 20001


class TestForkedBodies:
    """A body's blocks are computed and formatted across processes forked once per body.

    Its bytes are those of the whole-grid time_series, written serially.
    """

    ARGV = ["timeseries", "--n", "4", "--kappa-l", "0.1"]
    # CPUs -> forks, for a body of any length above one block
    FORKS = {1: 0, 2: 1, 3: 2}

    @staticmethod
    def _whole_grid(argv):
        """main's exit code, stdout body and stderr, with time_series run on the whole grid."""
        sub, vals = parse_args(argv)
        try:
            cfg, ens, bath, tau_max, steps = cli._study(vals)
            ts = cli.time_series(cfg, ens, bath, t_max=vals["t_max"], steps=steps, tau_max=tau_max)
        except dephasim.ValidationError as exc:
            return 2, "", "dephasim: error: %s\n" % exc
        except dephasim.NumericalError as exc:
            return 4, "", "dephasim: numerical failure: %s\n" % exc
        data = [ts.t, ts.tau, ts.concurrence, ts.abs_p_n, ts.S, ts.gamma_l, ts.gamma_c]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.emit(ts.columns, data, dict(vals, subcommand=sub), cli._info_from(ts.meta),
                     vals["format"], "-")
        return 0, out.getvalue(), ""

    @pytest.fixture(scope="class")
    def whole_grid_body(self):
        """_whole_grid's stdout body of an argv tuple, made once for all its CPU counts.

        The cases run format by format, so the last two bodies are kept.
        """
        return functools.lru_cache(maxsize=2)(lambda argv: self._whole_grid(list(argv))[1])

    # 30000 rows are 4 blocks of at most 8192 rows, 100000 rows 13
    @pytest.mark.parametrize("steps", [30000, 100000])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_whole_grid(self, forking, whole_grid_body, tmp_path, capsys, fmt, cpus,
                                    steps):
        argv = self.ARGV + ["--steps", str(steps), "--format", fmt]
        forking.cpus(1)
        want = whole_grid_body(tuple(argv + ["--output", "-"]))
        forks = forking.cpus(cpus)
        code, out, err = _run(capsys, argv + ["--output", "-"])
        assert (code, err) == (0, "")
        assert out == want
        assert len(forks) == self.FORKS[cpus]
        forking.all_reaped()
        path = tmp_path / ("out." + fmt)
        assert main(argv + ["--output", str(path)]) == 0
        assert len(forks) == 2 * self.FORKS[cpus]
        echo = ("# config: output = %s\n" if fmt == "csv" else '"output": "%s"')
        assert path.read_text(encoding="utf-8") == want.replace(echo % "-", echo % path, 1)
        forking.all_reaped()

    @pytest.mark.parametrize("steps, forks", [(8192, 0), (8193, 1)])
    def test_one_block_never_forks(self, forking, capsys, steps, forks):
        recorded = forking.cpus(3)
        code, out, _ = _run(capsys, ["timeseries", "--steps", str(steps)])
        assert code == 0 and len(_data_lines(out)) == steps + 1
        assert len(recorded) == forks
        forking.all_reaped()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_output_error_reaps_children(self, forking, capsys, cpus):
        forks = forking.cpus(cpus)
        code, out, err = _run(capsys, ["timeseries", "--steps", "30000", "--output", "/dev/full"])
        assert (code, out) == (3, "")
        assert err.startswith("dephasim: I/O error: ")
        assert len(forks) == self.FORKS[cpus]
        forking.all_reaped()

    def test_short_tables_never_fork(self, forking, capsys):
        forks = forking.cpus(3)
        code, _, _ = _run(capsys, ["grid-pv", "--mode", "symmetric-pv"])  # 2601 rows
        assert code == 0 and not forks

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--n", "4", "--steps", "20000", "--t-max", "1e300", "--epsilon", "1e10"], 2),
            (["--steps", "20000", "--epsilon", "1e100", "--t-max", "1e200"], 2),
            (["--steps", "20000", "--t-max", "1e-320"], 2),
            (["--n", "4", "--kappa-c", "1e100", "--epsilon", "1e-300", "--theta", "1e-8"], 4),
        ],
        ids=["cutoff-times-t", "phase", "not-increasing", "tail-estimate"],
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rejected_before_output(self, forking, tmp_path, capsys, argv, code, cpus):
        # each fails in some blocks of the grid only, or names the grid's last time
        want = self._whole_grid(["timeseries"] + argv)
        assert want[0] == code
        forks = forking.cpus(cpus)
        path = tmp_path / "out.csv"
        assert _run(capsys, ["timeseries"] + argv + ["--output", str(path)]) == want
        assert not path.exists() and not forks

    def test_rejected_message(self, capsys):
        code, _, err = _run(capsys, ["timeseries", "--n", "4", "--steps", "20000",
                                     "--t-max", "1e300", "--epsilon", "1e10"])
        assert code == 2
        assert err == ("dephasim: error: phase_S's input overflows: "
                       "k_c * t = 10000000000.0 * 1e+300 is not finite\n")


class TestRoundTrip:
    def test_metadata_reproduces_run(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys,
            ["timeseries", "--kappa-c", "0.12345678901234567", "--steps", "7",
             "--n", "6", "--tau-max", "1.5"],
        )
        assert code == 0
        echoed = _config_lines(out)
        sub = echoed.pop("subcommand")
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join("%s = %s\n" % kv for kv in echoed.items()))
        resub, revals = parse_args([sub, "--config", str(cfg)])
        _, orig = parse_args(
            ["timeseries", "--kappa-c", "0.12345678901234567", "--steps", "7",
             "--n", "6", "--tau-max", "1.5"]
        )
        assert resub == sub
        assert revals == orig

    def test_byte_identical_reruns(self, capsys):
        argv = ["sweep-kappa", "--n", "4", "--kappa-values", "0.1,0.2",
                "--tau-max", "1.0", "--steps", "300"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2


class TestJsonOutput:
    def test_structure(self, capsys):
        code, out, _ = _run(
            capsys,
            ["timeseries", "--steps", "4", "--tau-max", "1.0", "--format", "json"],
        )
        assert code == 0
        body = json.loads(out)
        assert set(body) == {"meta", "rows"}
        assert body["meta"]["columns"][0] == "t"
        assert body["meta"]["config"]["subcommand"] == "timeseries"
        assert len(body["rows"]) == 4
        assert body["rows"][0][0] == 0.0

    def test_floats_use_repr(self, capsys):
        # JSON writes Python's shortest round-trip repr, CSV writes %.17g
        code, out, _ = _run(capsys, ["timeseries", "--steps", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"][1][1] == math.pi
        assert "%s," % repr(math.pi) in out
        assert "%.17g" % math.pi not in out

    @pytest.mark.parametrize("n_rows", [0, 2, 3, 4])
    def test_stream_matches_dumps(self, monkeypatch, capsys, n_rows):
        # blocks of 3 rows: empty, short of one block, one block, one row more
        monkeypatch.setattr(cli, "_CHUNK", 3)
        floats = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0])
        data = [
            floats[:n_rows],
            np.arange(7, 7 + n_rows, dtype=np.int64),
            [True, False, True, False][:n_rows],
            ["ok", "no-collapse", "caf\u00e9", "a\"b"][:n_rows],
            [None, 0.5, math.nan, None][:n_rows],
            floats[::-1][:n_rows],
            floats[:n_rows],
        ]
        columns = ("f", "i", "b", "s", "o", "r", "f_again")
        config = {"subcommand": "test", "steps": None, "values": [0.1, 2], "n": np.int64(3)}
        info = {"argmax": (0.5, 0.25), "c_max": 1.0 / 3.0, "warnings": "none"}
        cli.emit(columns, data, config, info, "json", "-")
        meta = {"tool": "dephasim %s" % dephasim.__version__, "config": config, "info": info,
                "columns": list(columns)}
        body = {"meta": meta, "rows": [list(r) for r in zip(*data)]}
        want = json.dumps(body, sort_keys=True, indent=2, default=cli._fmt) + "\n"
        assert capsys.readouterr().out == want

    def test_fit_reads_json(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code, _, _ = _run(
            capsys,
            ["sweep-n", "--n-min", "4", "--n-max", "16", "--n-step", "2",
             "--kappa-c", "0.05", "--format", "json", "--output", str(out_path)],
        )
        assert code == 0
        code, out, _ = _run(capsys, ["fit", "--input", str(out_path)])
        assert code == 0
        row = _data_lines(out)[1].split(",")
        assert float(row[0]) < 0  # decaying slope


class TestFitSubcommand:
    def test_fit_on_sweep_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = _run(
            capsys,
            ["sweep-n", "--n-min", "4", "--n-max", "16", "--n-step", "2",
             "--kappa-c", "0.05", "--output", str(out_path)],
        )
        assert code == 0
        code, out, _ = _run(
            capsys,
            ["fit", "--input", str(out_path), "--y", "c_max",
             "--n-min", "4", "--n-max", "16"],
        )
        assert code == 0
        header = _data_lines(out)[0].split(",")
        assert header == ["slope", "stderr", "r_squared", "intercept",
                          "n_used", "n_excluded"]

    def test_synthetic_exact(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        rows = ["n,c_max"] + ["%d,%.17g" % (n, math.exp(-0.1 * n)) for n in range(1, 21)]
        table.write_text("\n".join(rows) + "\n")
        code, out, _ = _run(capsys, ["fit", "--input", str(table)])
        assert code == 0
        vals = _data_lines(out)[1].split(",")
        assert float(vals[0]) == pytest.approx(-0.1, abs=1e-12)
        assert float(vals[2]) == pytest.approx(1.0, abs=1e-12)

    def test_non_numeric_cell_excluded(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        rows = ["n,c_max"] + ["%d,%.17g" % (n, math.exp(-0.1 * n)) for n in range(1, 11)]
        rows[3] = "3,n/a"
        table.write_text("\n".join(rows) + "\n")
        code, out, _ = _run(capsys, ["fit", "--input", str(table)])
        assert code == 0
        vals = dict(zip(*(line.split(",") for line in _data_lines(out))))
        assert (vals["n_used"], vals["n_excluded"]) == ("9", "1")
        assert float(vals["slope"]) == pytest.approx(-0.1, abs=1e-12)

    def test_missing_column(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("n,c_max\n1,1\n")
        code, _, err = _run(capsys, ["fit", "--input", str(table), "--y", "zork"])
        assert code == 2
        assert "zork" in err


class TestSubcommands:
    def test_limits(self, capsys):
        code, out, _ = _run(capsys, ["limits", "--n-values", "100,1000"])
        assert code == 0
        data = _data_lines(out)
        assert data[0] == "n,distance,concurrence_n,concurrence_limit"
        d = [float(r.split(",")[1]) for r in data[1:]]
        assert d[0] > d[1]

    def test_grid_symmetric(self, capsys):
        code, out, _ = _run(
            capsys, ["grid-pv", "--mode", "symmetric-pv", "--grid-points", "5"]
        )
        assert code == 0
        data = _data_lines(out)
        assert data[0] == "p,v,c_max,clipped"
        assert len(data) == 26
        assert "# info: argmax" in out

    def test_grid_dynamic_small(self, capsys):
        code, out, _ = _run(
            capsys,
            ["grid-pv", "--mode", "dynamic-corner", "--grid-points", "3",
             "--n", "6", "--steps", "400"],
        )
        assert code == 0
        assert _data_lines(out)[0] == "p1,p2,c_max,clipped"

    def test_sweep_eta(self, capsys):
        code, out, _ = _run(
            capsys,
            ["sweep-eta", "--eta-values", "0.0,0.5", "--n-min", "4",
             "--n-max", "8", "--n-step", "4", "--tau-max", "1.0",
             "--steps", "300"],
        )
        assert code == 0
        data = _data_lines(out)
        assert data[0] == "eta,n,c_max,tau_peak,tau_c,status"
        assert len(data) == 5


class TestChildProcess:
    def test_import_loads_no_scipy(self, tmp_path):
        code = "import sys, dephasim; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = _child(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_loads_no_polynomial(self, tmp_path):
        # bath builds its Legendre table itself; importing numpy.polynomial takes ms
        code = "import sys, dephasim.cli; print('numpy.polynomial' in sys.modules)"
        proc = _child(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_import_calls_no_lapack(self, tmp_path):
        # numpy's leggauss takes its nodes from eigvalsh; a LAPACK call at
        # import leaves BLAS threads spinning in every process
        code = (
            "import numpy.linalg as la\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('numpy.linalg called at import')\n"
            "for name in la.__all__:\n"
            "    if callable(getattr(la, name)) and not isinstance(getattr(la, name), type):\n"
            "        setattr(la, name, refuse)\n"
            "import dephasim\n"
        )
        proc = _child(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_timeseries_writes_nothing_to_stderr(self, tmp_path):
        argv = ["-m", "dephasim.cli", "timeseries", "--n", "4", "--epsilon", "5",
                "--steps", "200", "--output", "out.csv"]
        proc = _child(argv, tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
