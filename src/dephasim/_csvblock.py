"""CSV blocks as bytes, each float64 cell written as "%.17g" % x writes it.

block(columns, fmt) returns the CSV text of a block of rows as one
bytes.  A float64 ndarray column is written from its bits, a whole block
at a time; any other column goes through fmt cell by cell.

Digits.  A finite x with _LOW <= |x| < _HIGH has the decimal exponent
k = floor(log10 |x|), which np.log10 gives to within one.  Then
y = |x| 10^(16 - k) lies in [10^16, 10^17), and %.17g's digits are the
integer D nearest y (Gay, "Correctly Rounded Binary-Decimal and
Decimal-Binary Conversions", 1990).  10^q is taken as hi + lo from
exact integer arithmetic, and |x| hi as an exact sum th + tl by Dekker's
two-product with Veltkamp's split (Numer. Math. 18, 224 (1971)), since
numpy has no fused multiply-add.  So y = th + s, s = tl + |x| lo, is
known to within about 1e-14, and every step is a correctly rounded
+, - or *, which no SIMD level of numpy changes.  Where y falls outside
[10^16, 10^17), k moves by one and y is formed again; where D reaches
10^17, it carries to 10^16 and k + 1.  A cell whose decision lies within
_TIE of a boundary, y near 10^16 or 10^17 or its fraction near 1/2
(exact ties included), is written by "%.17g" % x itself, as are NaN, inf
and any x outside the range.  Zeros are written as 0 or -0.

Layout.  %.17g writes k in fixed notation for -4 <= k < 17 and as
d.ddd...e+XX (at least two exponent digits) otherwise, and drops the
trailing zeros of the digits and a bare point.  Each cell has a source
row of 32 bytes: a minus, a point and a zero, D's 17 digits, "e+-", |k|
in four digits, a comma, a newline and two NULs.  Its sign, notation, k
and number of digits after the strip pick a class, and the class's row
of _perm gives the source bytes of the cell's text and separator,
padded with a NUL.  A cell that fmt or "%.17g" writes holds its text in
its source row, NUL padded, and its class takes it whole.  The rows are
stored as planes of 32-bit words, word w of every cell in plane w and
each column's cells together, so that each plane is written in a few
passes.  A gather lays out the cells of a few rows at a time, and
deleting the NULs leaves the text.
"""

import array
import functools
import itertools

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two halves of 26 bits
_LOW, _HIGH = 1e-280, 1e280  # |x| on the fast path: 10^(16 - k) times _SPLIT stays finite
_TIE = 2.0**-20  # margin for a decision; y's error is below 1e-14
_INDEX = 2**16  # bytes laid out by one gather, so that its indices stay in cache

# byte offsets in a cell's source row: 0-27 the text's parts, then the separators
_MINUS, _POINT, _ZERO, _DIGITS, _E, _PLUS, _NEG, _EXP, _COMMA, _NEWLINE, _NUL = (
    0, 1, 2, 3, 20, 21, 22, 24, 28, 29, 30)
_TEXT = 24  # a text taken whole fills bytes 0-23, then 32 and on
_FORMS = 25  # fixed for k = -4..16, then exponent notation: k < 0 or > 0, 2 or 3 digits
_MINUSES = _FORMS * 17  # the class of a negative cell less that of its absolute value
_ZEROS = 2 * _MINUSES  # the classes of 0 and -0
_WHOLE = _ZEROS + 2  # the class of a text taken whole
_CLASSES = _WHOLE + 1  # then the same classes with a newline for the comma
_K = 300  # -_K <= k < _K on the fast path
_LEAD = np.frombuffer(b"".join(b"-.0%d" % d for d in range(10)), np.uint32)  # word 0, by D's lead
_WORDS = np.frombuffer(b"e+-\0,\n\0\0", np.uint32)  # words 5 and 7


@functools.lru_cache(maxsize=None)
def _power(q):
    """10^q as (hi's upper half, hi's lower half, lo): hi = float(10^q), lo the rest, rounded."""
    hi = float("1e%d" % q)
    num, den = hi.as_integer_ratio()
    if q >= 0:
        lo = float(10**q - num)
    else:
        lo = (den - num * 10**-q) / (den * 10**-q)
    c = _SPLIT * hi
    upper = c - (c - hi)
    return upper, hi - upper, lo


def _cell(form, nd):
    """The source bytes of the text of a positive float cell of a form, with nd digits."""
    k = form - 4
    digits = list(range(_DIGITS, _DIGITS + nd))
    if form >= 21:
        exp = form - 21  # 0: e-XX, 1: e-XXX, 2: e+XX, 3: e+XXX
        text = digits[:1] + ([_POINT] + digits[1:] if nd > 1 else [])
        return text + [_E, _PLUS if exp >= 2 else _NEG] + list(range(_EXP + 2 - exp % 2, _EXP + 4))
    if k < 0:
        return [_ZERO, _POINT] + [_ZERO] * (-k - 1) + digits
    text = list(range(_DIGITS, _DIGITS + max(k + 1, nd)))  # the integer part in full
    if nd > k + 1:
        text.insert(k + 1, _POINT)
    return text


@functools.lru_cache(maxsize=None)
def _tables():
    """(quad, tz, base): the texts "0000".."9999" as words, their trailing zeros, and
    the class of a positive cell of 17 digits by k + _K."""
    i = np.arange(10000)
    chars = i[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    tz = sum(i % 10**j == 0 for j in range(1, 5))
    k = np.arange(-_K, _K)
    form = np.where((k >= -4) & (k < 17), k + 4, 21 + 2 * (k > 0) + (np.abs(k) >= 100))
    return quad, tz, form * 17 + 16


@functools.lru_cache(maxsize=4)
def _perm(stride):
    """The source bytes of each class's text and separator, padded with _NUL: a row each."""
    texts = [_cell(form, nd) for form in range(_FORMS) for nd in range(1, 18)]
    texts += [[_ZERO], [_MINUS, _ZERO], list(range(_TEXT)) + list(range(32, stride))]
    width = stride - 7
    flat = array.array("q", itertools.chain.from_iterable(
        text + [_COMMA] + [_NUL] * (width - 1 - len(text)) for text in texts))
    perm = np.frombuffer(flat, np.int64).reshape(-1, width)
    minus = np.full((_MINUSES, 1), _MINUS)  # a negative cell: the minus, then its positive text
    perm = np.concatenate([perm[:_MINUSES], np.hstack([minus, perm[:_MINUSES, :-1]]),
                           perm[_MINUSES:]])
    return np.concatenate([perm, np.where(perm == _COMMA, _NEWLINE, perm)])


def _scaled(a, k):
    """a 10^(16 - k) as th + s: th the rounded product of a and hi, s the rest."""
    k0 = int(k.min())
    table = np.array([_power(16 - j) for j in range(k0, int(k.max()) + 1)]).T.copy()
    bh, bl, lo = (np.take(column, k - k0) for column in table)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    th = a * (bh + bl)
    tl = ((ah * bh - th) + ah * bl + al * bh) + al * bl
    return th, tl + a * lo


def _digits(a):
    """(D, k, unsure) for positive a in range: D the 17 digits of a, k its exponent."""
    k = np.floor(np.log10(a)).astype(np.intp)
    th, s = _scaled(a, k)
    low, high = (th - 1e16) + s, (th - 1e17) + s
    move = np.flatnonzero((low < 0) | (high >= 0))
    if move.size:
        k[move] += np.where(high[move] >= 0, 1, -1)
        th[move], s[move] = _scaled(a[move], k[move])
        low[move], high[move] = (th[move] - 1e16) + s[move], (th[move] - 1e17) + s[move]
    f = np.floor(s)
    r = s - f
    unsure = (np.abs(r - 0.5) < _TIE) | (low < _TIE) | (high > -_TIE)
    d = th.astype(np.int64) + f.astype(np.int64) + (r > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    return d, k + carry, unsure


def _float_cells(x, planes):
    """The classes of float64 cells x, and the mask of those "%.17g" % x must write.

    Fills words 0-6 of their source rows: planes[w] for word w.
    """
    quad, tz, base = _tables()
    a = np.abs(x)
    fast = (a >= _LOW) & (a < _HIGH)
    d, k, unsure = _digits(np.where(fast, a, 1.0))
    top = d // 10**8
    lead9 = top // 10**8
    mid8, low8 = top - lead9 * 10**8, d - top * 10**8
    q = [mid8 // 10000, None, low8 // 10000, None]
    q[1], q[3] = mid8 - q[0] * 10000, low8 - q[2] * 10000
    np.take(_LEAD, lead9, out=planes[0])
    for w in range(4):
        np.take(quad, q[w], out=planes[1 + w])
    planes[5] = _WORDS[0]
    np.take(quad, np.abs(k), out=planes[6])
    zeros = tz[q[3]]
    for w in (2, 1, 0):  # the few cells whose last quads are 0000
        more = np.flatnonzero(zeros == 4 * (3 - w))
        if not more.size:
            break
        zeros[more] += tz[q[w][more]]
    neg = np.signbit(x)
    cls = base[k + _K] - zeros + _MINUSES * neg
    zero = np.flatnonzero(a == 0)
    cls[zero] = _ZEROS + neg[zero]
    return cls, (a != 0) & (unsure | ~fast)


def _whole(planes, cells, texts):
    """Writes texts into the source rows of cells, NUL padded, for the class _WHOLE."""
    width = 4 * len(planes) - 8
    chars = np.array(texts, "S%d" % width).view(np.uint32).reshape(len(texts), width // 4)
    for w, plane in enumerate(list(range(6)) + list(range(8, len(planes)))):
        planes[plane, cells] = chars[:, w]


def block(columns, fmt):
    """The CSV bytes of equal-length columns, a row per line: "%.17g" % cell
    for a cell of a float64 ndarray column, fmt(cell) for any other.

    An array given for two columns is formatted once.  No text holds a NUL.
    """
    n = len(columns[0])
    arrays = {}  # id -> each float64 ndarray column, once
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            arrays.setdefault(id(col), col)
    ids = list(arrays)
    where, texts = [], []  # each column's source column; fmt's columns follow the arrays'
    for col in columns:
        if id(col) in arrays:
            where.append(ids.index(id(col)))
        else:
            where.append(len(ids) + len(texts))
            texts.append([fmt(x).encode() for x in col])
    t = len(ids) + len(texts)
    longest = max([_TEXT] + [len(x) for col in texts for x in col])
    stride = 32 + 4 * -(-(longest - _TEXT) // 4)
    planes = np.empty((stride // 4, t * n), np.uint32)  # cell i of source column c is c n + i
    planes[7] = _WORDS[1]
    cls = np.full(t * n, _WHOLE, np.intp)
    if ids:
        x = np.concatenate(list(arrays.values()))
        cls[:x.size], slow = _float_cells(x, planes[:, :x.size])
        cells = np.flatnonzero(slow)
        cls[cells] = _WHOLE
        _whole(planes, cells, [("%.17g" % v).encode() for v in x[cells].tolist()])
    for c, col in enumerate(texts, len(ids)):
        _whole(planes, slice(c * n, c * n + n), col)
    perm = _perm(stride)
    dtype = np.int32 if planes.nbytes < 2**31 else np.intp
    source = ((perm // 4) * planes[0].nbytes + perm % 4).astype(dtype)  # in planes' bytes
    order = cls.reshape(t, n)[where].T.copy()
    order[:, -1] += _CLASSES
    step = max(1, _INDEX // (len(columns) * perm.shape[1]))
    # the byte of each cell of the first step rows in plane 0; row r + i reads from 4 r on
    first = 4 * (np.array(where, dtype) * n + np.arange(min(n, step), dtype=dtype)[:, None])
    first = np.repeat(first[:, :, None], perm.shape[1], axis=2)
    flat = planes.view(np.uint8).ravel()
    parts = []
    for r in range(0, n, step):
        index = np.take(source, order[r:r + step], axis=0)
        index += first[:len(index)]
        parts.append(np.take(flat[4 * r:], index).tobytes().translate(None, b"\0"))
    return b"".join(parts)
