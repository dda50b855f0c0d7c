"""The three workloads: their fixed inputs and the checks on their outputs.

Inputs are constants, so every run and every seed does the same work;
the seed only picks which rows, cells and times are checked against the
independent reference.  Checks run in the parent after the timed rounds.
"""

import math

import numpy as np

import reference

K_C = 1.0  # BathConfig() defaults: epsilon = theta = 1
BETA = 1.0
NU_C = K_C / (2.0 * math.pi)
TAU_WINDOW = 2.0 * math.pi

# scaled-sweep: the acceptance eta list at the acceptance coupling, and a
# subset of the acceptance N list 4..180 with N on both sides of 24 (c_max
# is exactly 0 from N = 24 on) and the largest N
SWEEP_ETAS = (0.0, 0.1, 0.25, 0.3, 0.4, 0.5)
SWEEP_NS = (4, 10, 16, 22, 24, 40, 100, 180)
SWEEP_KAPPA = 0.2
SPIN = (0.5, 0.48)
BACKGROUND_P = 0.5

# corner-grid: the acceptance configuration on an 11 x 11 grid (step 0.05)
CORNER_N = 40
CORNER_KAPPA = 0.05
CORNER_AXIS = tuple(np.round(np.linspace(0.0, 0.5, 11), 12).tolist())
CORNER_STEPS = 4000

# cli-timeseries: one long grid, written as CSV
CLI_N = 4
CLI_KAPPA = 0.05
CLI_STEPS = 100_000
CLI_ARGS = ("timeseries", "--n", str(CLI_N), "--kappa-c", repr(CLI_KAPPA), "--steps", str(CLI_STEPS))
CLI_COLUMNS = ("t", "tau", "concurrence", "abs_p_n", "s", "gamma_l", "gamma_c")

C_TOL = 1e-6  # reference concurrence goes through sqrt of eigenvalues: ~1e-8 error
GAMMA_RTOL = 1e-8  # the program's quadrature tolerance is 1e-10
SAMPLES = 8

def _fail(problems, ok, what):
    if not ok:
        problems.append(what)


def check_sweep(rows, rng):
    """rows: (eta, n, c_max, tau_peak, tau_c, status) for every (eta, N)."""
    problems = []
    keys = [(r[0], r[1]) for r in rows]
    _fail(problems, keys == [(e, n) for e in SWEEP_ETAS for n in SWEEP_NS], "rows are not the (eta, N) grid in order")
    c = np.array([r[2] for r in rows])
    _fail(problems, np.all((c >= 0) & (c <= 1)), "c_max outside [0, 1]")
    for e in SWEEP_ETAS:
        ce = np.array([r[2] for r in rows if r[0] == e])
        _fail(problems, np.all(np.diff(ce) <= 1e-12), "c_max increases with N at eta=%g" % e)
    for i in rng.choice(len(rows), size=SAMPLES, replace=False):
        e, n, c_max, tau_peak = rows[i][:4]
        k2 = (SWEEP_KAPPA / n**e) ** 2
        t = np.array([tau_peak / (k2 * NU_C)])
        rho = reference.states(
            reference.phase_S(t, K_C), reference.decay_Gamma(t, K_C, BETA), k2, SPIN, SPIN, [BACKGROUND_P] * (n - 2)
        )
        C = reference.concurrence(rho)
        _fail(problems, abs(C[0] - c_max) <= C_TOL, "eta=%g N=%d: c_max %.17g, reference %.17g" % (e, n, c_max, C[0]))
        _fail(problems, reference.ppt_disagreements(rho, C) == 0, "PPT sign disagrees at eta=%g N=%d" % (e, n))
    return problems


def corner_failed_cells(rows):
    """Cells with a pure spin (p1 = 0 or p2 = 0) whose c_max is not exactly 0.

    A pure spin stays a product with the other, so each of these is a
    wrong output; it counts as a failed operation, not a failed check.
    """
    return [(r[0], r[1], r[2]) for r in rows if (r[0] == 0 or r[1] == 0) and r[2] != 0]


def check_corner(rows, rng):
    """rows: (p1, p2, c_max, clipped) over the grid, p1 outer."""
    problems = []
    axis = list(CORNER_AXIS)
    _fail(problems, [(r[0], r[1]) for r in rows] == [(a, b) for a in axis for b in axis], "rows are not the grid in order")
    c = np.array([r[2] for r in rows]).reshape(len(axis), len(axis))
    _fail(problems, np.all((c >= 0) & (c <= 1)), "c_max outside [0, 1]")
    _fail(problems, not any(r[3] for r in rows), "a feasible cell was clipped")
    _fail(problems, np.max(np.abs(c - c.T)) <= 1e-7, "swap asymmetry %.3g" % np.max(np.abs(c - c.T)))
    t = np.linspace(0.0, TAU_WINDOW / (CORNER_KAPPA**2 * NU_C), CORNER_STEPS)
    S, G = reference.phase_S(t, K_C), reference.decay_Gamma(t, K_C, BETA)
    inner = [(i, j) for i in range(1, len(axis)) for j in range(1, len(axis))]
    for k in rng.choice(len(inner), size=SAMPLES, replace=False):
        i, j = inner[k]
        p1, p2 = axis[i], axis[j]
        rho = reference.states(S, G, CORNER_KAPPA**2, (p1, p1), (p2, p2), [BACKGROUND_P] * (CORNER_N - 2))
        C = reference.concurrence(rho)
        _fail(problems, abs(C.max() - c[i, j]) <= C_TOL, "cell (%g, %g): c_max %.17g, reference %.17g" % (p1, p2, c[i, j], C.max()))
        _fail(problems, reference.ppt_disagreements(rho, C) == 0, "PPT sign disagrees at (%g, %g)" % (p1, p2))
    return problems


# operations per study run: (eta, N) configurations, grid cells, CLI calls
OPERATIONS = {
    "scaled-sweep": len(SWEEP_ETAS) * len(SWEEP_NS),
    "corner-grid": len(CORNER_AXIS) ** 2,
    "cli-timeseries": 1,
}


def check(name, output, rng):
    """(problems, failed operations per study run) for one workload's output."""
    if name == "scaled-sweep":
        return check_sweep(output, rng), 0
    if name == "corner-grid":
        return check_corner(output, rng), len(corner_failed_cells(output))
    return check_cli(output, rng), 0


def read_csv(text):
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return body[0].split(","), np.array([line.split(",") for line in body[1:]], dtype=float)


def check_cli(text, rng):
    problems = []
    header, data = read_csv(text)
    _fail(problems, tuple(header) == CLI_COLUMNS, "header %r" % (header,))
    if problems or data.shape != (CLI_STEPS, len(CLI_COLUMNS)):
        return problems + ["table shape %r, expected (%d, 7)" % (data.shape, CLI_STEPS)]
    t, tau, conc, absp, S, gl, gc = data.T
    k2 = CLI_KAPPA**2
    _fail(problems, np.all(np.diff(t) > 0), "t is not strictly increasing")
    _fail(problems, np.allclose(tau, k2 * NU_C * t, rtol=1e-13, atol=0), "tau != kappa^2 nu_c t")
    _fail(problems, np.all(S <= 0), "S > 0 somewhere")
    S_ref = reference.phase_S(t, K_C)
    _fail(problems, np.allclose(S, S_ref, rtol=1e-10, atol=1e-300), "S differs from the closed form")
    _fail(problems, np.all(gc >= 0) and np.array_equal(gl, gc), "Gamma < 0, or gamma_l != gamma_c")
    rows = np.sort(rng.choice(np.arange(1, CLI_STEPS), size=4 * SAMPLES, replace=False))
    G_ref = reference.decay_Gamma(t[rows], K_C, BETA)
    _fail(problems, np.allclose(gc[rows], G_ref, rtol=GAMMA_RTOL, atol=0), "Gamma differs from the reference")
    ps = [BACKGROUND_P] * (CLI_N - 2)
    P_ref = np.abs(reference.background(S_ref[rows], k2, ps))
    _fail(problems, np.allclose(absp[rows], P_ref, rtol=1e-9, atol=1e-15), "abs_p_n differs from the reference")
    rho = reference.states(S_ref[rows], G_ref, k2, SPIN, SPIN, ps)
    C = reference.concurrence(rho)
    _fail(problems, np.max(np.abs(conc[rows] - C)) <= C_TOL, "concurrence differs from the reference")
    _fail(problems, reference.ppt_disagreements(rho, C) == 0, "PPT sign disagrees")
    return problems


def gamma_rel_err(samples):
    """Largest relative error of the program's Gamma at sampled (t, Gamma)."""
    t = np.array([s[0] for s in samples])
    g = np.array([s[1] for s in samples])
    ref = reference.decay_Gamma(t, K_C, BETA)
    return float(np.max(np.abs(g - ref) / ref))
