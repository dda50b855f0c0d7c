"""Every output of tools/cli_bodies.py against the digests in its manifest.

The bits of a body depend on the host's numpy build and SIMD level, so
the digests decide only on the fingerprint they were made under; on
another host the test is skipped and names both fingerprints.  How far
the SIMD level moves a body is bounded separately: a few fast bodies,
written with numpy's AVX-512 loops disabled, keep their discrete cells
and stay within 1e-14 of the default level's numbers.
"""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES
except ImportError:  # numpy < 2 names no X86_V4, so the SIMD test skips
    _CPU_FEATURES = {}

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_bodies.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_bodies", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_manifest(tmp_path):
    tool = _tool()
    pinned = json.loads(tool.MANIFEST.read_text(encoding="utf-8"))
    here = tool.fingerprint()
    if here != pinned["fingerprint"]:
        pytest.skip("the manifest was made on %s, this host is %s" % (pinned["fingerprint"], here))
    tool.main([str(tmp_path)])
    changes = tool.moved(pinned["sha256"], tool.digests(tmp_path))
    assert not changes, "outputs differ from the manifest:\n" + "\n".join(changes)


# fast bodies of every subcommand that evaluates the bath and the concurrence
SIMD_BODIES = ("timeseries.csv", "timeseries-n40-kappa-l.csv", "timeseries-negative-v.csv",
               "timeseries-huge-n.csv", "sweep-n.csv", "sweep-kappa.csv", "grid-pv-corner.csv",
               "limits-kappa-l.csv", "limits-large-eta.csv")
# the numpy CPU features turned off, which takes the dispatch below AVX-512
SIMD_OFF = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
# columns and info keys that are keys, grid times, flags or labels: equal at every SIMD level
DISCRETE = {"t", "tau", "n", "kappa_c", "eta", "p1", "p2", "status", "tau_peak", "tau_c",
            "clipped", "argmax"}


def _bodies(tool, out, disable):
    """Write SIMD_BODIES into out in one child process, with the CPU features disable off."""
    out.mkdir()
    commands = {name: args + ["--output", name] for name, args in tool.BODIES
                if name in SIMD_BODIES}
    script = (
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        "from dephasim import cli\n"
        "assert not any(f[name] for name in %r)\n"
        "for argv in %r:\n"
        "    assert cli.main(argv) == 0, argv\n" % (disable, list(commands.values()))
    )
    path = os.pathsep.join(filter(None, [str(tool.SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" ".join(disable))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=out,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    return {name: (out / name).read_text(encoding="utf-8").splitlines() for name in commands}


def _same(column, a, b):
    """Whether two cells of column match: equal, or numbers within 1e-14 * max(1, |x|).

    The cells of a DISCRETE column match only if they are equal.
    """
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return column not in DISCRETE and math.isfinite(x) and abs(x - y) <= 1e-14 * max(1.0, abs(x))


def test_bodies_across_simd_levels(tmp_path):
    missing = [name for name in SIMD_OFF if not _CPU_FEATURES.get(name)]
    if missing:
        pytest.skip("this host lacks %s, so they cannot be disabled" % ", ".join(missing))
    tool = _tool()
    default = _bodies(tool, tmp_path / "default", ())
    lower = _bodies(tool, tmp_path / "lower", SIMD_OFF)
    assert sorted(default) == sorted(SIMD_BODIES)
    for name, want in default.items():
        got = lower[name]
        assert len(got) == len(want), name
        # the # lines, "# config: key = value" and "# info: key = value", by key
        head = [i for i, line in enumerate(want) if line.startswith("#")]
        for i in head:
            key, _, value = want[i].partition(" = ")
            other_key, _, other = got[i].partition(" = ")
            assert key == other_key, (name, want[i], got[i])
            column = key.split()[-1]
            assert all(_same(column, a, b) for a, b in zip(value.split(","), other.split(","))), \
                (name, want[i], got[i])
        columns = want[len(head)].split(",")
        assert got[len(head)] == want[len(head)], name
        for row, (w, g) in enumerate(zip(want[len(head) + 1:], got[len(head) + 1:]), 1):
            for column, a, b in zip(columns, w.split(","), g.split(",")):
                assert _same(column, a, b), "%s row %d column %s: %s against %s" % (
                    name, row, column, a, b)
