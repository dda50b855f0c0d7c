"""Sweep drivers: time series, peak and collapse statistics, and fits.

Concurrence curves for different couplings align when plotted against the
rescaled time tau = (kappa_c / N^eta)^2 nu_c t, so experiments fix a tau
window (default [0, 2 pi]) and translate it to a time grid per
configuration.  Each driver returns a table whose rows (a list) come in
input order, with a meta dict of its configuration and grid warnings.
sweep_N, sweep_kappa and sweep_eta are axes of one driver, _sweep, whose
points are split across min(CPUs available, points) forked processes
by _forked_map, which yields their results in input order, so a table
has the same bits on any CPU count.  Processes, not threads: numpy's
batched eigvalsh holds the interpreter lock, so on a 2-vCPU VM two
threads of it took 0.847 s against 0.862 s run serially, and a thread
pool over points cost 21% more CPU.
The CLI sends the blocks of rows of a long table through one _forked_map
too, each block computed and formatted in one process (see cli); a
child's results stream back as they are made, so each process holds
about one block.
The points run serially in the calling process where there is no
os.fork or os.sched_getaffinity (Windows, macOS), on one CPU, and while
other Python threads run, since a fork copies only the calling thread.
From Python 3.12 on, os.fork may warn (DeprecationWarning) that the
process has threads, which OpenBLAS's pool counts as.

The drivers evolve in the interaction frame.  Concurrence is invariant
under local unitaries (Wootters, PRL 80, 2245 (1998)), and the lab
frame's free phases e^{i w t} are local, so no statistic here depends
on the frame; dynamics.evolve and evolve_series keep it for callers
that want the states themselves.
"""

from dataclasses import dataclass, replace
import itertools
import math
import os
import pickle
import threading

import numpy as np

from .bath import BathConfig, dephasing_grid
from .dynamics import (
    CouplingConfig,
    EnsembleConfig,
    SpinInit,
    evolve,
    initial_two_qubit,
    limit_state_large_eta,
    limit_state_small_eta,
    tau_of_t,
    _background_from_S,
    _evolution_entries,
    _evolved,
    _factor_entries,
)
from .entanglement import (
    _CHUNK,
    _certified_separable,
    _concurrence_block,
    _entries,
    _partial_transpose,
    concurrence,
)
from .errors import FitError, ValidationError, _integer, _real

__all__ = [
    "TimeSeries",
    "PeakResult",
    "CollapseResult",
    "FitResult",
    "SweepResult",
    "time_series",
    "peak_concurrence",
    "collapse_time",
    "sweep_N",
    "sweep_kappa",
    "sweep_eta",
    "grid_pv",
    "limits_compare",
    "fit_exponential",
    "relative_spread",
]

TAU_WINDOW = 2.0 * math.pi
COLLAPSE_FLOOR = 1e-6
COLLAPSE_PERSISTENCE = 10
DEFAULT_STEPS = 4000
MAX_AUTO_STEPS = 20000


@dataclass(frozen=True)
class TimeSeries:
    """Concurrence and bath diagnostics on a time grid."""

    t: np.ndarray
    tau: np.ndarray
    concurrence: np.ndarray
    abs_p_n: np.ndarray
    S: np.ndarray
    gamma_l: np.ndarray
    gamma_c: np.ndarray
    meta: dict

    columns = ("t", "tau", "concurrence", "abs_p_n", "s", "gamma_l", "gamma_c")

    def rows(self):
        return list(
            zip(self.t, self.tau, self.concurrence, self.abs_p_n, self.S, self.gamma_l, self.gamma_c)
        )


@dataclass(frozen=True)
class PeakResult:
    t_peak: float
    tau_peak: float
    c_max: float
    all_zero: bool = False


@dataclass(frozen=True)
class CollapseResult:
    """tau_c is nan unless status is "ok"."""

    tau_c: object
    status: str


@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    r_squared: float
    intercept: float
    n_range: tuple
    n_used: int
    n_excluded: int


@dataclass(frozen=True)
class SweepResult:
    """Generic result table: named columns, row tuples, metadata."""

    columns: tuple
    rows: list
    meta: dict

    def column(self, name):
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])


# CouplingConfig field -> its meta and column key
_KEYS = {"kappa_c": "kappa_c", "kappa_l": "kappa_l", "eta": "eta", "N": "n"}
# swept CouplingConfig field -> the meta key of its values
_VALUES = {"kappa_c": "kappa_values", "eta": "eta_values", "N": "n_values"}


def _meta(experiment, cfg, bath, swept=(), **extra):
    """A driver's meta dict: cfg's fields that are not swept, the bath, warnings, extra."""
    meta = {"experiment": experiment}
    meta.update((key, getattr(cfg, f)) for f, key in _KEYS.items() if f not in swept)
    meta.update(epsilon=bath.epsilon, theta=bath.theta, warnings=[], **extra)
    return meta


def _resolve_times(cfg, bath, t_max, steps, tau_max, meta):
    """The times of cfg's window, strictly increasing from 0; warnings go to meta["warnings"].

    A linspace to t_max > 0 fails to increase only where its step underflows.
    """
    ke2 = cfg.effective_kappa_c**2
    if t_max is None:
        window = TAU_WINDOW if tau_max is None else _real(
            tau_max, "tau_max", math.ulp(0.0), what="positive and finite")
        if ke2 * bath.nu_c == 0:  # kappa_eff^2 nu_c can underflow
            raise ValidationError("t_max is required when the collective coupling is zero")
        t_max = window / (ke2 * bath.nu_c)
    t_max = _real(t_max, "t_max", math.ulp(0.0), what="positive and finite")
    if not math.isfinite(ke2 * bath.nu_c * t_max):
        raise ValidationError("the rescaled window of t_max = %r is not finite" % (t_max,))
    if steps is None:
        steps = DEFAULT_STEPS
        if ke2 > 0:
            # resolve the P_N peak width 1/(kappa_eff^2 sqrt(N)) by >= 10 points;
            # a float, as the request can be infinite
            needed = np.ceil(10.0 * t_max * ke2 * math.sqrt(cfg.N)) + 1.0
            steps = max(steps, int(min(needed, MAX_AUTO_STEPS)))
            if needed > MAX_AUTO_STEPS:
                meta["warnings"].append(
                    "auto step cap reached: %.0f points requested, using %d"
                    % (needed, MAX_AUTO_STEPS)
                )
    steps = _integer(steps, "steps")
    if steps < 2:
        raise ValidationError("steps must be >= 2")
    try:
        t = np.linspace(0.0, t_max, steps)
    except ValueError:
        # numpy refuses a size it cannot address before allocating anything
        raise ValidationError("steps = %d is too large for an array" % steps) from None
    if np.any(np.diff(t) <= 0):
        raise ValidationError("t_max = %r is too small for %d distinct times" % (t_max, steps))
    if ke2 > 0:
        width = 1.0 / (ke2 * math.sqrt(cfg.N))
        if t[1] - t[0] > width / 10.0:
            meta["warnings"].append(
                "time step %.3g exceeds a tenth of the background peak width %.3g"
                % (t[1] - t[0], width)
            )
    return t


def time_series(cfg, ens, bath=None, t_max=None, steps=None, tau_max=None, grid=None):
    """Evolve and score concurrence on a uniform time grid.

    Passing a precomputed DephasingGrid reuses its S and Gamma across
    configurations that share the same times.  S, Gamma and P_N are
    evaluated once for the whole grid, since they are output columns.
    The states are formed and scored in blocks of entanglement._CHUNK
    times, as entry arrays: the six factor entries, then each state
    entry in real ufuncs (dynamics._evolved), then the closed-form
    screen and the kernel, which read the same arrays.  No (T, 4, 4)
    stack of factors or states is built, and packing and unpacking one
    cost more than forming the states.  Every step acts on each time
    alone, so each C has the bits that
    concurrence_series(evolve_series(...)) gives it.
    """
    bath = bath if bath is not None else BathConfig()
    meta = _meta("timeseries", cfg, bath)
    if grid is None:
        grid = dephasing_grid(_resolve_times(cfg, bath, t_max, steps, tau_max, meta), bath)
    rho0 = initial_two_qubit(ens.spin1, ens.spin2)
    P = _background_from_S(grid.S, cfg, ens)
    C = np.empty(grid.t.size)
    for start in range(0, grid.t.size, _CHUNK):
        b = slice(start, start + _CHUNK)
        F = _evolution_entries(grid.t[b], grid.S[b], grid.Gamma[b], cfg, ens, "interaction", P=P[b])
        C[b] = _concurrence_block(_evolved(rho0, F))
    absP = np.abs(P)
    tau = tau_of_t(grid.t, cfg, bath)
    meta["steps"] = int(grid.t.size)
    meta["t_max"] = float(grid.t[-1]) if grid.t.size else 0.0
    return TimeSeries(
        t=grid.t,
        tau=tau,
        concurrence=C,
        abs_p_n=absP,
        S=grid.S,
        gamma_l=grid.Gamma,
        gamma_c=grid.Gamma,
        meta=meta,
    )


def peak_concurrence(series):
    """Global maximum of the concurrence; ties resolve to the smallest t."""
    C = series.concurrence
    if C.size == 0:
        raise ValidationError("peak_concurrence requires a non-empty series")
    if not np.any(C > 0):
        return PeakResult(t_peak=0.0, tau_peak=0.0, c_max=0.0, all_zero=True)
    i = int(np.argmax(C))
    return PeakResult(
        t_peak=float(series.t[i]), tau_peak=float(series.tau[i]), c_max=float(C[i])
    )


def collapse_time(series):
    """First rescaled time where concurrence stays below COLLAPSE_FLOOR.

    The series must first rise above the floor; the collapse point is the
    first grid point of the earliest run of >= COLLAPSE_PERSISTENCE
    consecutive sub-floor values after that rise.
    """
    C = series.concurrence
    above = C > COLLAPSE_FLOOR
    if not np.any(above):
        return CollapseResult(tau_c=math.nan, status="no-entanglement")
    rise = int(np.argmax(above))
    below = (~above)[rise + 1 :]
    if below.size >= COLLAPSE_PERSISTENCE:
        window = np.ones(COLLAPSE_PERSISTENCE, dtype=int)
        runs = np.convolve(below.astype(int), window, mode="valid")
        hits = np.nonzero(runs == COLLAPSE_PERSISTENCE)[0]
        if hits.size:
            i = rise + 1 + int(hits[0])
            return CollapseResult(tau_c=float(series.tau[i]), status="ok")
    return CollapseResult(tau_c=math.nan, status="no-collapse")


def _worker(fn, items, r, w):
    """A forked child's whole life: fn over its items, each result pickled into the pipe w.

    A failing item's exception is sent in its place and ends the items.
    The child never returns, so it cannot run on in its caller's code or
    flush the buffers it copied; a result that does not pickle exits 1.
    """
    status = 1
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            for x in items:
                try:
                    message = fn(x), None
                except Exception as exc:
                    message = None, exc
                pipe.write(pickle.dumps(message))
                pipe.flush()
                if message[1] is not None:
                    break
        status = 0
    finally:
        os._exit(status)


def _forked_map(fn, items):
    """map(fn, items), split across min(CPUs available, len(items)) processes.

    With n processes, this one runs items[0::n] and forked child k runs
    items[k::n], sending each result through a pipe as soon as it is
    made; a child blocks while its pipe is full, so each process holds
    about one unread result.  The results are yielded in input order,
    and the first failing item's exception is raised in its place, as a
    serial loop raises it; a child that ends before sending a result is
    an error.  Every child is killed and reaped before this returns,
    raises or is closed.  Without os.fork or os.sched_getaffinity, on
    one CPU, or while other threads run, fn runs over the items here,
    one after another.
    """
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        n = min(len(os.sched_getaffinity(0)), len(items))
    if n < 2:
        yield from map(fn, items)
        return
    children = []  # (pid, read end of its pipe), until reaped
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(fn, items[k::n], r, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        for i, x in enumerate(items):
            if i % n == 0:
                yield fn(x)
                continue
            pid, pipe = children[i % n - 1]
            try:
                result, exc = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError("worker %d ended without its results" % pid) from None
            if exc is not None:
                raise exc
            yield result
    finally:
        for pid, pipe in children:
            os.kill(pid, 9)  # SIGKILL; signal is not imported, at 0.7 ms
            os.waitpid(pid, 0)
            pipe.close()


def _sweep(experiment, axes, cfg, ens, bath, tau_max, steps):
    """Peak and collapse statistics over a product of CouplingConfig axes.

    axes is ((field, values), ...); the points are the product of the
    values in input order, each cfg with those fields replaced, and each
    row is the point's key followed by its statistics.  When N is the
    only swept field and cfg.eta == 0, every point has the same time
    grid, so S and Gamma are evaluated once, on the grid of the largest
    N, before the points are split; otherwise each point resolves its
    own.  Each point's grid warnings follow, prefixed by its key.  The
    points run in _forked_map, and each row is the one a serial run gives.
    """
    bath = bath if bath is not None else BathConfig()
    fields = [f for f, _ in axes]
    meta = _meta(experiment, cfg, bath, swept=fields, **{_VALUES[f]: list(v) for f, v in axes})
    keys = list(itertools.product(*(v for _, v in axes)))
    if not keys:
        raise ValidationError("%s has no points to sweep" % experiment)
    grid = None
    if fields == ["N"] and cfg.eta == 0:
        times = _resolve_times(replace(cfg, N=max(keys)[0]), bath, None, steps, tau_max, meta)
        grid = dephasing_grid(times, bath)

    def statistics(key):
        """The key's row, and its series' grid warnings."""
        point = replace(cfg, **dict(zip(fields, key)))
        series = time_series(point, ens, bath, tau_max=tau_max, steps=steps, grid=grid)
        peak = peak_concurrence(series)
        col = collapse_time(series)
        return key + (peak.c_max, peak.tau_peak, col.tau_c, col.status), series.meta["warnings"]

    columns = tuple(_KEYS[f] for f in fields)
    rows = []
    for row, warnings in _forked_map(statistics, keys):  # to its end, so the children are reaped
        label = ", ".join("%s=%s" % kv for kv in zip(columns, row))
        meta["warnings"].extend("%s: %s" % (label, w) for w in warnings)
        rows.append(row)
    columns += ("c_max", "tau_peak", "tau_c", "status")
    return SweepResult(columns=columns, rows=rows, meta=meta)


def sweep_N(n_values, cfg, ens, bath=None, tau_max=None, steps=None):
    """Per-N peak and collapse statistics at a fixed coupling.

    With eta = 0 every N shares the same time grid, so S and Gamma are
    evaluated once and reused.
    """
    n_values = [_integer(n, "N") for n in n_values]
    if any(n < 2 for n in n_values):
        raise ValidationError("all N must be >= 2")
    return _sweep("sweep-n", (("N", n_values),), cfg, ens, bath, tau_max, steps)


def sweep_kappa(kappa_values, cfg, ens, bath=None, tau_max=None, steps=None):
    """Peak and collapse statistics across collective coupling strengths."""
    kappa_values = [_real(k, "kappa_values") for k in kappa_values]
    if any(k <= 0 for k in kappa_values):
        raise ValidationError("sweep_kappa requires positive couplings")
    return _sweep("sweep-kappa", (("kappa_c", kappa_values),), cfg, ens, bath, tau_max, steps)


def sweep_eta(eta_values, n_values, cfg, ens, bath=None, tau_max=None, steps=None):
    """Peak statistics across scaling exponents and spin counts."""
    etas = [_real(e, "eta_values") for e in eta_values]
    axes = (("eta", etas), ("N", [_integer(n, "N") for n in n_values]))
    return _sweep("sweep-eta", axes, cfg, ens, bath, tau_max, steps)


def _product_states(spins1, spins2):
    """np.kron of each pair of spin matrices, as one (n, 4, 4) broadcast product.

    Entry [2i + k, 2j + l] is the single product a[i, j] * b[k, l], as in
    np.kron, so each state equals initial_two_qubit bit for bit.
    """
    a = np.array([s.matrix() for s in spins1])
    b = np.array([s.matrix() for s in spins2])
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, 4, 4)


def _clip_v(p, v):
    bound = math.sqrt(max(p * (1.0 - p), 0.0))
    if abs(v) > bound + 1e-15:
        return math.copysign(bound, v) if v else bound, True
    return v, False


def grid_pv(
    values1,
    values2=None,
    mode="symmetric-pv",
    cfg=None,
    ens_background=0.5,
    bath=None,
    s_knob=math.pi / 2.0,
    gamma_l_knob=0.0,
    gamma_c_knob=0.0,
    tau_max=None,
    steps=None,
):
    """Maximal concurrence over a grid of initial conditions.

    mode "symmetric-pv": axes are (p, v), both spins share them, and the
    dynamical exponents are the abstract knobs (defaults S = pi/2 and no
    decay).  mode "dynamic-corner": axes are (p1, p2) with v_i = p_i, and
    the maximum is taken over an evolved time series.  Infeasible cells
    (|v|^2 > p(1-p)) are clipped to the boundary, flagged, and excluded
    from the reported argmax.

    Every cell shares the factors F(t), so the (cell, time) pairs are
    screened from the entry arrays of the cells and of F
    (entanglement._certified_separable) in blocks of times with about 2e5
    pairs each.  Only the pairs whose separability is not certified are
    formed, as time_series forms its states (dynamics._evolved), and
    scored by entanglement._concurrence_block; a certified pair scores 0,
    as it would there.  A cell with a spin at p = 0 or 1 and v = 0 is not
    screened at all: its rho0^{T_B} has a zero row, which every finite F
    keeps, so det(rho^{T_B}) is exactly 0 and it would score 0.  On the
    N = 40 corner grid 4018 of the 484 000 pairs are formed.
    """
    bath = bath if bath is not None else BathConfig()
    values1 = [_real(x, "values1") for x in values1]
    values2 = values1 if values2 is None else [_real(x, "values2") for x in values2]
    if not values1 or not values2:
        raise ValidationError("grid_pv needs at least one value on each axis")
    _real(s_knob, "s_knob")
    for name, knob in (("gamma_l_knob", gamma_l_knob), ("gamma_c_knob", gamma_c_knob)):
        _real(knob, name, 0.0, what="finite and >= 0")
    if mode == "symmetric-pv":
        meta = {"experiment": "grid-pv", "mode": mode, "warnings": [], "s_knob": s_knob,
                "gamma_l_knob": gamma_l_knob, "gamma_c_knob": gamma_c_knob}
        F = np.atleast_1d(*_factor_entries(s_knob, gamma_l_knob, gamma_c_knob))

        def cell(p, v):
            vc, clipped = _clip_v(p, v)
            s = SpinInit(p=p, v=vc)
            return s, s, clipped

        cols = ("p", "v", "c_max", "clipped")
    elif mode == "dynamic-corner":
        if cfg is None:
            raise ValidationError("dynamic-corner mode requires a CouplingConfig")
        meta = _meta("grid-pv", cfg, bath, mode=mode, background_p=ens_background)
        grid = dephasing_grid(_resolve_times(cfg, bath, None, steps, tau_max, meta), bath)
        probe = SpinInit(p=0.5, v=0.0)
        ens0 = EnsembleConfig(spin1=probe, spin2=probe, background_p=ens_background)
        F = _evolution_entries(grid.t, grid.S, grid.Gamma, cfg, ens0, "interaction")

        def cell(p1, p2):
            v1, c1 = _clip_v(p1, p1)
            v2, c2 = _clip_v(p2, p2)
            return SpinInit(p=p1, v=v1), SpinInit(p=p2, v=v2), c1 or c2

        cols = ("p1", "p2", "c_max", "clipped")
    else:
        raise ValidationError("unknown grid_pv mode %r" % (mode,))
    keys = [(a, b) for a in values1 for b in values2]
    spins1, spins2, flags = zip(*(cell(a, b) for a, b in keys))
    cells = _product_states(spins1, spins2)
    # cells whose rho0^{T_B} has no zero row; the others score exactly 0
    live = np.flatnonzero(~np.all(_partial_transpose(cells) == 0.0, axis=2).any(axis=1))
    # a block of times holds about 2e5 (cell, time) pairs
    block = max(1, int(2e5 / len(cells)))
    cmax = np.zeros(len(cells))
    cells = cells[live]
    cells_E = _entries(cells)
    for start in range(0, len(F[0]), block):
        Fb = [f[start : start + block] for f in F]
        # F = 1 o F; _evolved raises if a factor is not finite
        t, c = np.nonzero(~_certified_separable(cells_E, _evolved(np.ones((4, 4)), Fb)))
        np.maximum.at(cmax, live[c], _concurrence_block(_evolved(cells[c], [f[t] for f in Fb])))
    rows = [key + (float(c), int(f)) for key, c, f in zip(keys, cmax, flags)]
    feasible = [r for r in rows if not r[3]]
    if feasible:
        best = max(feasible, key=lambda r: r[2])
        meta["argmax"] = (best[0], best[1])
        meta["c_max"] = best[2]
    return SweepResult(columns=cols, rows=rows, meta=meta)


def limits_compare(eta, n_values, t, s1, s2, kappa_c, kappa_l=0.0, background_p=0.5, bath=None):
    """Distance between the finite-N state and its N -> infinity limit.

    Uses the X form limit for 0 < eta < 1/4 and the product form for
    eta > 1/4; eta = 1/4 sits on the borderline and has no closed limit.
    """
    bath = bath if bath is not None else BathConfig()
    if _real(eta, "eta") <= 0 or eta == 0.25:
        raise ValidationError("limits require eta in (0, 1/4) or (1/4, inf)")
    n_values = [_integer(n, "N") for n in n_values]
    if not n_values:
        raise ValidationError("limits has no points to compare")
    ens = EnsembleConfig(spin1=s1, spin2=s2, background_p=background_p)
    rho0 = initial_two_qubit(s1, s2)
    cfg = CouplingConfig(kappa_c=kappa_c, kappa_l=kappa_l, eta=eta, N=n_values[0])
    regime = "small-eta" if eta < 0.25 else "large-eta"
    meta = _meta("limits", cfg, bath, swept=("N",), t=t, background_p=background_p, regime=regime)
    rows = []
    for n in n_values:
        cfg = replace(cfg, N=n)
        rho = evolve(rho0, t, cfg, ens, bath)
        if regime == "small-eta":
            lim = limit_state_small_eta(t, s1, s2, cfg, bath)
        else:
            lim = limit_state_large_eta(t, s1, s2, cfg, ens, bath)
        dist = float(np.max(np.abs(rho - lim)))
        rows.append((
            n,
            dist,
            concurrence(rho, validate=False).value,
            concurrence(lim, validate=False).value,
        ))
    return SweepResult(
        columns=("n", "distance", "concurrence_n", "concurrence_limit"), rows=rows, meta=meta
    )


def fit_exponential(n, y, n_range=None):
    """Least squares slope of ln y against n.

    Points whose n or y is not finite, or whose y <= 0, are excluded and
    counted in n_excluded; points outside n_range are dropped uncounted.
    A NaN bound of n_range, or a lower bound above the upper, is a
    ValidationError, and fewer than 3 usable points a FitError.
    """
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    if n.shape != y.shape or n.ndim != 1:
        raise ValidationError("fit_exponential expects matching 1-D arrays")
    in_range = np.ones(n.shape, dtype=bool)
    if n_range is not None:
        lo, hi = n_range
        if math.isnan(lo) or math.isnan(hi):
            raise ValidationError("fit_exponential's n_range must not hold NaN, got %r"
                                  % (n_range,))
        if lo > hi:
            raise ValidationError("fit_exponential's n_range must not be reversed, got %r"
                                  % (n_range,))
        in_range = ((n >= lo) & (n <= hi)) | np.isnan(n)  # a nan n is not outside it
    usable = in_range & np.isfinite(n) & np.isfinite(y) & (y > 0)
    excluded = int(np.count_nonzero(in_range & ~usable))
    x = n[usable]
    ly = np.log(y[usable])
    m = x.size
    if m < 3:
        raise FitError("fit_exponential needs >= 3 usable points, got %d" % m)
    xbar, ybar = x.mean(), ly.mean()
    sxx = np.sum((x - xbar) ** 2)
    if sxx == 0:
        raise FitError("fit_exponential needs distinct n values")
    slope = float(np.sum((x - xbar) * (ly - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = ly - (intercept + slope * x)
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((ly - ybar) ** 2))
    r2 = 1.0 if sst == 0 else max(0.0, 1.0 - ssr / sst)
    stderr = math.sqrt(ssr / (m - 2) / sxx) if m > 2 else 0.0
    return FitResult(
        slope=slope,
        stderr=stderr,
        r_squared=r2,
        intercept=intercept,
        n_range=(float(x.min()), float(x.max())),
        n_used=m,
        n_excluded=excluded,
    )


def relative_spread(values):
    """Population standard deviation over mean, the relative spread."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValidationError("relative_spread of an empty set")
    if not np.isfinite(v).all():
        raise ValidationError("relative_spread needs finite values")
    mean = v.mean()
    if mean == 0:
        raise ValidationError("relative_spread undefined for zero mean")
    return float(v.std(ddof=0) / abs(mean))
