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

from . import bath, dynamics, entanglement, errors, experiments
from .bath import *
from .dynamics import *
from .entanglement import *
from .errors import *
from .experiments import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (bath, dynamics, entanglement, errors, experiments)
    for name in module.__all__
)
