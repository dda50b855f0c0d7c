"""End-to-end tests of the command line interface."""

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
        ["--kappa-c", "--kappa-l", "--eta", "--epsilon", "--theta", "--t-max", "--tau-max"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coupling_is_validation(self, capsys, flag, value):
        code, _, err = _run(capsys, ["timeseries", "--n", "4", "--steps", "4", flag, value])
        assert code == 2
        assert "finite" in err

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

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_nonpositive_grid_points_is_validation(self, capsys, points):
        code, out, err = _run(capsys, ["grid-pv", "--grid-points", points])
        assert code == 2 and not out
        assert "grid_points" in err

    def test_fit_requires_input(self, capsys):
        code, _, err = _run(capsys, ["fit"])
        assert code == 2

    def test_fit_too_few_points_is_numerical(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("n,c_max\n2,0\n4,0\n6,0\n")
        code, _, err = _run(capsys, ["fit", "--input", str(table)])
        assert code == 4

    def test_success(self, capsys):
        code, out, _ = _run(capsys, ["timeseries", "--steps", "4", "--tau-max", "0.5"])
        assert code == 0 and out


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


class TestBlockWriter:
    def test_blocks_match_fmt(self, monkeypatch, capsys):
        # 7 rows in blocks of 3: two full blocks and a short one
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
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

    def test_timeseries_writes_nothing_to_stderr(self, tmp_path):
        argv = ["-m", "dephasim.cli", "timeseries", "--n", "4", "--epsilon", "5",
                "--steps", "200", "--output", "out.csv"]
        proc = _child(argv, tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
