"""The CSV block writer against "%.17g" % x, compared byte for byte.

Random inputs seldom land near a decade boundary or on a decimal tie,
where a wrong decision changes the text, so the edge families are
spelled out: each power of ten and its neighbours, every power of two,
exact ties of 18 significant digits, subnormals and the specials.
"""

import decimal
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephasim import _csvblock
from dephasim.cli import _fmt

try:
    from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES
except ImportError:  # numpy < 2 names no X86_V4, so the SIMD test skips
    _CPU_FEATURES = {}


def _lines(x):
    """The texts block writes for the cells of a one-column float64 array."""
    return _csvblock.block([np.asarray(x, dtype=np.float64)], _fmt).decode().split("\n")[:-1]


def _expect(x):
    assert _lines(x) == ["%.17g" % v for v in np.asarray(x, dtype=np.float64).tolist()]


def _powers_of_ten():
    """10^k and both its neighbours, k = -300..299."""
    out = []
    for k in range(-300, 300):
        v = float("1e%d" % k)
        out += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    return out


def _ties():
    """Doubles m 2^-n whose decimal expansion has 18 significant digits, ending in 5.

    The 17-digit text of each is a tie, which %.17g rounds to even.
    """
    rng = np.random.default_rng(11)
    out = []
    for n in range(2, 26):
        lo, hi = -(-10**17 // 5**n), min((10**18 - 1) // 5**n, 2**53 - 1)
        out += [math.ldexp(int(m) | 1, -n) for m in rng.integers(lo, hi, 40)]
    return out


def _specials():
    out = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0),
           1.7976931348623157e308, -1.7976931348623157e308]
    for v in (1e-5, 1e-4, 1e16, 1e17):
        out += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    rng = np.random.default_rng(12)
    subnormals = rng.integers(1, 2**52, 200).astype(np.float64) * 2.0**-1074
    return out + subnormals.tolist() + (-subnormals).tolist()


EDGES = {
    "powers of ten": _powers_of_ten(),
    "powers of two": [math.ldexp(1.0, e) for e in range(-1074, 1024)],
    "ties": _ties(),
    "specials": _specials(),
}


class TestDigits:
    @pytest.mark.parametrize("family", sorted(EDGES))
    def test_edge_family(self, family):
        x = np.array(EDGES[family])
        _expect(np.concatenate([x, -x]))

    def test_ties_are_ties(self):
        # each is exactly halfway between two 17-digit decimals
        for v in EDGES["ties"]:
            digits = decimal.Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5

    def test_random_bits(self):
        bits = np.random.default_rng(13).integers(0, 2**64, 20000, dtype=np.uint64)
        _expect(bits.view(np.float64))

    def test_uniform(self):
        _expect(np.random.default_rng(14).uniform(-1e5, 1e5, 20000))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, bits):
        _expect(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_floats(self, values):
        _expect(values)

    @pytest.mark.parametrize("patch", [("_LOW", math.inf), ("_TIE", 1.0)])
    def test_fallback_for_every_cell(self, monkeypatch, patch):
        # no cell in range, or every decision unsure: "%.17g" writes each non-zero cell
        monkeypatch.setattr(_csvblock, *patch)
        x = np.concatenate([EDGES["powers of ten"], EDGES["ties"], EDGES["specials"]])
        a = np.abs(x)
        fast = (a >= _csvblock._LOW) & (a < _csvblock._HIGH)
        _, _, unsure = _csvblock._digits(np.where(fast, a, 1.0))
        assert not np.any((a != 0) & fast & ~unsure)
        _expect(x)

    def test_without_avx512(self, tmp_path):
        # numpy's SIMD level must not move a digit: the same sample with AVX-512 off
        off = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
        missing = [name for name in off if not _CPU_FEATURES.get(name)]
        if missing:
            pytest.skip("this host lacks %s, so they cannot be disabled" % ", ".join(missing))
        script = (
            "import numpy as np\n"
            "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
            "from dephasim import _csvblock\n"
            "assert not any(f[name] for name in %r)\n"
            "rng = np.random.default_rng(15)\n"
            "x = np.concatenate([rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),\n"
            "                    rng.uniform(-1e5, 1e5, 20000), 10.0 ** np.arange(-300, 300)])\n"
            "text = _csvblock.block([x], str).decode()\n"
            "assert text.split('\\n')[:-1] == ['%%.17g' %% v for v in x.tolist()]\n"
            "print('ok')\n" % (off,)
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


class TestLayout:
    def test_mixed_columns(self):
        floats = np.array([-0.0, math.nan, 1e-300, 0.1, -2.5e17, 7.0])
        columns = [
            floats,
            [1, -2, 3, 40, 500, 6000],
            ["ok", "no-collapse", "x" * 70, "", "a", "no-entanglement"],
            [True, False, None, (1, 2.5), 0.5, math.nan],
            np.arange(6),
            floats,
        ]
        want = "".join(",".join(_fmt(x) for x in row) + "\n" for row in zip(*columns))
        assert _csvblock.block(columns, _fmt) == want.encode()

    def test_repeated_array_is_formatted_once(self, monkeypatch):
        x = np.linspace(-1.0, 1.0, 7)
        calls = []
        float_cells = _csvblock._float_cells
        monkeypatch.setattr(_csvblock, "_float_cells",
                            lambda x, planes: calls.append(x.size) or float_cells(x, planes))
        text = _csvblock.block([x, x, x.copy()], _fmt)
        assert calls == [14]
        assert text == "".join("%s,%s,%s\n" % ((_fmt(v),) * 3) for v in x).encode()

    def test_one_row_one_column(self):
        assert _csvblock.block([np.array([3.0])], _fmt) == b"3\n"
        assert _csvblock.block([["only"]], _fmt) == b"only\n"

    @pytest.mark.parametrize("n", [1, 373, 374, 375, 2000])
    def test_rows_across_gathers(self, n):
        # one gather lays out _INDEX padded bytes: 374 rows of 7 cells
        x = np.random.default_rng(n).standard_normal((7, n)) * 10.0 ** np.arange(-3, 4)[:, None]
        want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in x.T.tolist())
        assert _csvblock.block(list(x), _fmt) == want.encode()
