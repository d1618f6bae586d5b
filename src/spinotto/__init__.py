"""Quantum Otto engine simulator with heat-bath algorithmic cooling.

The working fluid is a 3-qubit liquid-state NMR register (two carbons and
a proton) in a single heat bath.  The cold stroke of the Otto cycle is
replaced by partner-pairing algorithmic cooling, which pumps the target
qubit's polarization past the bath limit and shortens the cycle.
"""

from .engines import (
    SweepTable,
    isochoric_crossover,
    positive_work_window,
    sweep_four_stroke,
    sweep_two_stroke,
)
from .hbac import run_ppa, shannon_bound
from .spinsys import (
    ConfigError,
    QubitSpec,
    Role,
    SpinSystem,
    StateInvariantError,
    effective_temperature,
    load_system,
    tce_system,
    thermal_marginal_polarization,
    thermal_polarization,
)

__version__ = "0.1.0"
