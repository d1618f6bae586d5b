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
update).  For thermal product inputs the target polarization follows the
recurrence ``eps_n = eps_{n-1}/2 + eps_b`` toward the ``2 eps_b`` ceiling,
pushing past the single-reset (Shannon) bound after the first round.

Resets and permutation gates map diagonal states to diagonal states, so
a run keeps the register as a 2x2x2 tensor of populations, one axis per
register slot, and returns each round's tensor as a row of ``PpaTrace``.
Every sum and product follows the dense 8x8 channel (``kron`` of partial
traces, trace renormalization, conjugation by the gate) in the same
order, so the populations are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import comp_unitary, swap_unitary
from .qmath import ATOL, EIGENVALUE_FLOOR, DensityMatrix, StateInvariantError, is_diagonal
from .spinsys import (
    CODATA2018,
    PhysicalConstants,
    Role,
    SpinSystem,
    effective_temperature,
    local_levels,
    thermal_polarization,
    thermal_populations,
)


# per slot, the index of each 2-vector its marginal adds: the other two
# slots run through 00, 01, 10, 11 (C order)
_TERMS = [
    [(..., slice(None), j, k) for j in (0, 1) for k in (0, 1)],
    [(..., j, slice(None), k) for j in (0, 1) for k in (0, 1)],
    [(..., j, k, slice(None)) for j in (0, 1) for k in (0, 1)],
]


def marginal(populations: np.ndarray, slot: int) -> np.ndarray:
    """Populations of one slot of 2x2x2 register tensors (the trailing axes).

    The other slots are added one term at a time in C order, the order
    in which the dense partial trace adds them.
    """
    t0, t1, t2, t3 = _TERMS[slot]
    return ((populations[t0] + populations[t1]) + populations[t2]) + populations[t3]


def _total(populations: np.ndarray) -> np.ndarray:
    # the order in which numpy sums the trace of the complex 8x8 matrix:
    # basis states i and i + 4 first, then pairwise
    half = populations[..., 0, :, :] + populations[..., 1, :, :]
    return (half[..., 0, 0] + half[..., 0, 1]) + (half[..., 1, 0] + half[..., 1, 1])


def check_populations(populations: np.ndarray, where: str) -> None:
    """Make the checks ``DensityMatrix`` makes on 2x2x2 population tensors.

    A diagonal state's eigenvalues are its populations, and a non-finite
    population makes the trace non-finite, so unit trace and the
    eigenvalue floor cover finiteness and positivity.
    """
    deviation = np.max(abs(_total(populations) - 1.0))
    if not deviation <= ATOL:
        raise StateInvariantError(f"{where}: trace is off 1 by {deviation:.3e}, above {ATOL}")
    if populations.min() < EIGENVALUE_FLOOR:
        raise StateInvariantError(f"{where}: negative population {populations.min():.3e}")


def reset(populations: np.ndarray, slot: int, bath: np.ndarray) -> np.ndarray:
    """Re-thermalize one slot of 2x2x2 register tensors against the bath.

    Returns the product of every other slot's marginal with ``bath`` in
    ``slot``: all correlations are discarded and the other marginals are
    kept.  Leading axes of ``populations`` and ``bath`` broadcast, one
    reset per pair.  The product is renormalized; without that the
    round-off deficit of the marginal sums doubles on every reset and
    compounds over a long run.
    """
    f = [bath if k == slot else marginal(populations, k) for k in range(3)]
    joint = (f[0][..., :, None, None] * f[1][..., None, :, None]) * f[2][..., None, None, :]
    return joint * (1.0 / _total(joint))[..., None, None, None]


@dataclass(frozen=True)
class PpaTrace:
    """A cooling run as read-only columns: row 0 after the initial stage, row ``n`` after round ``n``.

    ``populations`` has shape ``(n+1, 2, 2, 2)``, one axis per slot of
    ``qubits``; the other columns have shape ``(n+1,)``, the temperature
    in kelvin at the scaled target frequency.
    """

    populations: np.ndarray
    target_polarization: np.ndarray
    reset_polarization: np.ndarray
    target_effective_temperature: np.ndarray
    qubits: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class CoolingSchedule:
    """Register slots, reset-qubit bath populations and gate gathers of one run."""

    target: int
    reset: int
    bath: np.ndarray
    swap_target_reset: np.ndarray  # index gathers over the 2x2x2 register
    swap_compression_reset: np.ndarray
    comp: np.ndarray


def thermal_reset_state(
    sys: SpinSystem, field_scale: float, constants: PhysicalConstants = CODATA2018
) -> np.ndarray:
    """Bath-equilibrium populations of the reset qubit at the scaled field."""
    levels = local_levels(sys, sys.label_for_role(Role.RESET), field_scale, constants)
    return thermal_populations(levels, sys.bath_temperature, constants)


def cooling_schedule(
    sys: SpinSystem,
    qubits: tuple[str, ...],
    field_scale: float,
    constants: PhysicalConstants = CODATA2018,
) -> CoolingSchedule:
    """The schedule of a run on a register ordered as ``qubits``."""
    t, c, r = (sys.label_for_role(role) for role in (Role.TARGET, Role.COMPRESSION, Role.RESET))
    missing = {t, c, r} - set(qubits)
    if missing:
        raise ValueError(f"state register {qubits} is missing roles {sorted(missing)}")
    if len(qubits) != 3:
        raise ValueError(f"cooling runs on a 3-qubit register, got {qubits}")
    gates = (swap_unitary(qubits, t, r), swap_unitary(qubits, c, r), comp_unitary((t, c, r)))
    return CoolingSchedule(
        qubits.index(t),
        qubits.index(r),
        thermal_reset_state(sys, field_scale, constants),
        *(gate.gather(qubits).reshape(2, 2, 2) for gate in gates),
    )


def initial_stage(populations: np.ndarray, schedule: CoolingSchedule) -> np.ndarray:
    """One-time opener: thermalize the reset qubit, then SWAP(target, reset)."""
    return reset(populations, schedule.reset, schedule.bath).take(schedule.swap_target_reset)


def ppa_round(populations: np.ndarray, schedule: CoolingSchedule) -> np.ndarray:
    """One cooling round: reset, SWAP(compression, reset), reset, COMP."""
    p = reset(populations, schedule.reset, schedule.bath).take(schedule.swap_compression_reset)
    return reset(p, schedule.reset, schedule.bath).take(schedule.comp)


def run_ppa(
    rho1: DensityMatrix,
    sys: SpinSystem,
    field_scale: float,
    n_rounds: int,
    constants: PhysicalConstants = CODATA2018,
) -> PpaTrace:
    """Run the initial stage plus ``n_rounds`` cooling rounds on a diagonal state.

    The trace holds the populations, both polarizations and the target's
    effective spin temperature (evaluated at ``field_scale * omega_T``)
    after every round, with the initial stage as row 0.  Each round
    passes the checks ``DensityMatrix`` makes.
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    schedule = cooling_schedule(sys, rho1.qubits, field_scale, constants)
    if not is_diagonal(rho1.matrix):
        raise ValueError("cooling runs on populations and needs a diagonal input state")
    target = rho1.qubits[schedule.target]
    omega_t = sys.omega(target, field_scale)

    p = np.empty((n_rounds + 1, 2, 2, 2))
    p[0] = initial_stage(rho1.populations.reshape(2, 2, 2), schedule)
    check_populations(p[0], "round 0")
    for index in range(1, n_rounds + 1):
        p[index] = ppa_round(p[index - 1], schedule)
        check_populations(p[index], f"round {index}")

    # one column per polarized slot: the target, then the reset qubit
    eps = np.stack(
        [m[:, 0] - m[:, 1] for m in (marginal(p, schedule.target), marginal(p, schedule.reset))],
        axis=1,
    )
    # a polarization that rounds to 1 (a very cold bath) has no spin temperature
    outside = np.argwhere(~((0.0 < eps) & (eps < 1.0)))
    if outside.size:
        index, column = outside[0]
        raise StateInvariantError(
            f"round {index}: {('target', 'reset')[column]} polarization {eps[index, column]} "
            f"outside (0, 1) at bath temperature {sys.bath_temperature:g} K"
        )
    # the scalar atanh: numpy's differs from it in the last bit on some inputs
    temperature = np.array([effective_temperature(e, omega_t, constants) for e in eps[:, 0].tolist()])
    for column in (p, eps, temperature):
        column.setflags(write=False)
    return PpaTrace(p, eps[:, 0], eps[:, 1], temperature, rho1.qubits, target)


def shannon_bound(
    sys: SpinSystem, field_scale: float, constants: PhysicalConstants = CODATA2018
) -> float:
    """Reset-qubit thermal polarization: the closed-system cooling ceiling."""
    label = sys.label_for_role(Role.RESET)
    return thermal_polarization(sys.omega(label, field_scale), sys.bath_temperature, constants)
