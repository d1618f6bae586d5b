"""Heat-bath algorithmic cooling via the partner pairing algorithm.

One cooling run on a (target, compression, reset) register consists of an
initial stage, reset the reset qubit and SWAP it with the target, followed
by ``n`` rounds of

1. reset,
2. SWAP(compression, reset),
3. reset,
4. 3-bit entropy compression (COMP).

Each reset is a marginal replacement against the bath (the reset qubit's
relaxation time enters only the engine time bookkeeping, not the state
update).  The initial stage leaves the target at the reset qubit's bath
polarization ``eps_b``, and every round hands COMP the product state
``(eps_{n-1}, eps_b, eps_b)``, whatever came before.  COMP exchanges
``|011>`` and ``|100>``, so the target follows the exact map
``eps_n = eps_{n-1} (1 - eps_b**2)/2 + eps_b`` toward the limit
``2 eps_b/(1 + eps_b**2)``, past the single-reset (Shannon) bound from the
first round on; the paper's ``eps_{n-1}/2 + eps_b`` drops the ``eps_b**2``
terms.  The exchange moves the same population out of the compression
and reset qubits, so each ends the round at ``eps_b`` less the target's
gain.

A run is therefore the closed form of that map, evaluated for every
round at once: ``eps_n = eps_inf + (eps_b - eps_inf) a**n`` with
``a = (1 - eps_b**2)/2``.  Each polarization is computed directly, never
as the difference of two populations near 1/2, which would cancel about
4.5 digits at NMR polarizations.  Of the input register a run reads only
the target's polarization, which the initial stage's SWAP hands to the
reset qubit (row 0), so that polarization is all ``run_ppa`` takes.
``PpaTrace`` holds three columns, 24 B a round, and no populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinsys import (
    CODATA2018,
    PhysicalConstants,
    Role,
    SpinSystem,
    StateInvariantError,
    effective_temperature,
    thermal_polarization,
)


@dataclass(frozen=True)
class PpaTrace:
    """A cooling run as read-only columns: row 0 after the initial stage, row ``n`` after round ``n``.

    Each column has shape ``(n+1,)``; the temperature is in kelvin at the
    scaled target frequency.  ``qubits`` is the system's register order
    and ``target`` the target's label.
    """

    target_polarization: np.ndarray
    reset_polarization: np.ndarray
    target_effective_temperature: np.ndarray
    qubits: tuple[str, ...]
    target: str


def ppa_round(eps: float, eps_b: float) -> float:
    """The target polarization after one round that starts at ``eps``, with the bath at ``eps_b``."""
    return eps * ((1.0 - eps_b * eps_b) / 2.0) + eps_b


def cooling_polarizations(eps_b: float, eps_reset0: float, n_rounds: int) -> np.ndarray:
    """Target and reset polarizations after the initial stage and each round, as two rows.

    Row ``n`` of the target is ``eps_inf + (eps_b - eps_inf) a**n``.  The
    reset qubit starts with ``eps_reset0``, the input's target marginal,
    and after round ``n`` holds ``eps_b`` less that round's gain
    ``(eps_b - eps_inf) a**(n-1) (a - 1)``, computed as such rather than
    as the difference of two rows.
    """
    a = (1.0 - eps_b * eps_b) / 2.0
    limit = 2.0 * eps_b / (1.0 + eps_b * eps_b)
    columns = np.empty((2, n_rounds + 1))
    target, reset = columns
    np.power(a, np.arange(n_rounds + 1), out=target)
    target *= eps_b - limit
    np.multiply(target[:-1], a - 1.0, out=reset[1:])
    np.subtract(eps_b, reset[1:], out=reset[1:])
    reset[0] = eps_reset0
    target += limit
    return columns


def run_ppa(
    eps_in: float,
    sys: SpinSystem,
    field_scale: float,
    n_rounds: int,
    constants: PhysicalConstants = CODATA2018,
) -> PpaTrace:
    """Run the initial stage plus ``n_rounds`` cooling rounds from the target's polarization ``eps_in``.

    The initial stage hands ``eps_in`` to the reset qubit (row 0); a
    thermal input is ``thermal_marginal_polarization(sys, target,
    field_scale)``.  The trace holds both polarizations and the target's
    effective spin temperature (evaluated at ``field_scale * omega_T``)
    after every round, with the initial stage as row 0.  The run stops at
    the first round whose target or reset polarization leaves (0, 1),
    ``eps_in`` included: such a polarization has no spin temperature,
    and past 1 (or NaN) it is no state.  A target so weakly polarized
    (by a very hot bath) that its spin temperature overflows stops the
    run at round 0 too.  After round 0 every register is COMP applied to
    the product of the previous target polarization and two qubits at
    ``eps_b`` (row 0's target), so this also keeps every population of
    the run positive.
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    target = sys.label_for_role(Role.TARGET)
    columns = cooling_polarizations(shannon_bound(sys, field_scale, constants), float(eps_in), n_rounds)
    inside = (0.0 < columns) & (columns < 1.0)
    if not inside.all():
        # the first bad round, and within it the target before the reset qubit
        index = int(np.argmin(inside.all(axis=0)))
        row = int(np.argmin(inside[:, index]))
        raise StateInvariantError(
            f"round {index}: {('target', 'reset')[row]} polarization {float(columns[row, index])} "
            f"outside (0, 1) at bath temperature {sys.bath_temperature:g} K"
        )
    # the target's polarization only rises, so its spin temperature is
    # largest at row 0, where an overflow to inf shows first
    with np.errstate(divide="ignore", over="ignore"):
        temperature = effective_temperature(columns[0], sys.omega(target, field_scale), constants)
    if not np.isfinite(temperature[0]):
        raise StateInvariantError(
            f"round 0: target polarization {float(columns[0, 0])} has no finite spin temperature "
            f"at bath temperature {sys.bath_temperature:g} K"
        )
    columns.setflags(write=False)
    temperature.setflags(write=False)
    return PpaTrace(*columns, temperature, sys.labels, target)


def shannon_bound(
    sys: SpinSystem, field_scale: float, constants: PhysicalConstants = CODATA2018
) -> float:
    """Reset-qubit thermal polarization: the closed-system cooling ceiling."""
    label = sys.label_for_role(Role.RESET)
    return thermal_polarization(sys.omega(label, field_scale), sys.bath_temperature, constants)
