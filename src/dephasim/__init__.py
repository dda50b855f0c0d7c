"""Exact reduced dynamics of dephasing spin pairs in a thermal bosonic bath.

N identical two-level systems couple, without energy exchange, to local
and collective reservoirs at a common temperature.  The reduced state of
any two spins is known in closed form: populations are constant and each
coherence acquires a thermal damping factor together with a bath-induced
phase, dressed by the product over the N - 2 spectator spins.  This
package evaluates those factors, the resulting concurrence, and the
parameter sweeps built on top of them (coupling, spin number, scaling
exponent, initial-state grids, and the two large-N limiting regimes).

All quantities are dimensionless: frequencies in units of the qubit
splitting, temperature through theta = 1 / (h_bar omega_0 beta), and the
cutoff through epsilon = beta k_c.
"""

from .bath import (
    BathConfig,
    DephasingGrid,
    decay_Gamma,
    dephasing_grid,
    gamma_saturation,
    phase_S,
)
from .dynamics import (
    CouplingConfig,
    EnsembleConfig,
    SpinInit,
    background_factor,
    evolve,
    evolve_series,
    initial_two_qubit,
    limit_state_large_eta,
    limit_state_small_eta,
    t_of_tau,
    tau_of_t,
    validate_two_qubit,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence,
    concurrence_series,
    ppt_negative,
    spin_flip,
    x_state_concurrence,
)
from .errors import (
    DephasimError,
    FitError,
    NumericalError,
    QuadratureError,
    ValidationError,
)
from .experiments import (
    CollapseResult,
    FitResult,
    PeakResult,
    SweepResult,
    TimeSeries,
    collapse_time,
    fit_exponential,
    grid_pv,
    limits_compare,
    peak_concurrence,
    relative_spread,
    sweep_eta,
    sweep_kappa,
    sweep_N,
    time_series,
)

__version__ = "0.1.0"

__all__ = [
    "BathConfig",
    "CollapseResult",
    "ConcurrenceResult",
    "CouplingConfig",
    "DephasimError",
    "DephasingGrid",
    "EnsembleConfig",
    "FitError",
    "FitResult",
    "NumericalError",
    "PeakResult",
    "QuadratureError",
    "SpinInit",
    "SweepResult",
    "TimeSeries",
    "ValidationError",
    "background_factor",
    "collapse_time",
    "concurrence",
    "concurrence_series",
    "decay_Gamma",
    "dephasing_grid",
    "evolve",
    "evolve_series",
    "fit_exponential",
    "gamma_saturation",
    "grid_pv",
    "initial_two_qubit",
    "limit_state_large_eta",
    "limit_state_small_eta",
    "limits_compare",
    "peak_concurrence",
    "phase_S",
    "ppt_negative",
    "relative_spread",
    "spin_flip",
    "sweep_N",
    "sweep_eta",
    "sweep_kappa",
    "t_of_tau",
    "tau_of_t",
    "time_series",
    "validate_two_qubit",
    "x_state_concurrence",
]
