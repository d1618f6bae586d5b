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
exact map ``eps_n = eps_{n-1} (1 - eps_b**2)/2 + eps_b`` toward the limit
``2 eps_b/(1 + eps_b**2)``, past the single-reset (Shannon) bound from the
first round on; the paper's ``eps_{n-1}/2 + eps_b`` drops the ``eps_b**2`` terms.

Resets and permutation gates map diagonal states to diagonal states, so
a run holds the register as its eight populations, Python floats in C
order.  A round is then a few dozen float operations: each gate is an
``itemgetter`` of its basis permutation, each reset a product of
marginals, and each round's trace, positivity and polarization checks
are scalar comparisons.  Every round is written into one row of the
preallocated ``PpaTrace`` columns, and the run stops at the first round
that fails a check.

The marginal, trace and reset arithmetic is written once, over a
register's eight entries: floats in the round loop, numpy columns in
``marginal``, ``reset`` and ``check_populations``, which take
``(..., 2, 2, 2)`` population tensors for the batched engine sweeps.
Every sum and product follows the dense 8x8 channel (``kron`` of partial
traces, trace renormalization, conjugation by the gate) in the same
order, so the populations are bit-identical to it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

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


# A register is its eight populations in C order: entry 4a + 2b + c is
# the basis state |abc> over slots (0, 1, 2).  The arithmetic below runs
# unchanged on eight floats (the round loop) and on eight numpy columns
# (the batched callers), and adds and multiplies in the order of the dense
# 8x8 channel, so both give its bits.


def _marginal(p, slot: int):
    """The two populations of one slot; the other slots' terms are added in C order."""
    p0, p1, p2, p3, p4, p5, p6, p7 = p
    if slot == 0:
        return ((p0 + p1) + p2) + p3, ((p4 + p5) + p6) + p7
    if slot == 1:
        return ((p0 + p1) + p4) + p5, ((p2 + p3) + p6) + p7
    return ((p0 + p2) + p4) + p6, ((p1 + p3) + p5) + p7


def _total(p):
    # the order in which numpy sums the trace of the complex 8x8 matrix:
    # basis states i and i + 4 first, then pairwise
    p0, p1, p2, p3, p4, p5, p6, p7 = p
    return ((p0 + p4) + (p1 + p5)) + ((p2 + p6) + (p3 + p7))


def _reset(p, slot: int, bath):
    """The other slots' marginals times ``bath`` in ``slot``, renormalized."""
    (a0, a1), (b0, b1), (c0, c1) = (
        bath if slot == 0 else _marginal(p, 0),
        bath if slot == 1 else _marginal(p, 1),
        bath if slot == 2 else _marginal(p, 2),
    )
    ab00, ab01, ab10, ab11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    joint = (ab00 * c0, ab00 * c1, ab01 * c0, ab01 * c1, ab10 * c0, ab10 * c1, ab11 * c0, ab11 * c1)
    scale = 1.0 / _total(joint)
    j0, j1, j2, j3, j4, j5, j6, j7 = joint
    return j0 * scale, j1 * scale, j2 * scale, j3 * scale, j4 * scale, j5 * scale, j6 * scale, j7 * scale


def _check(deviation, lowest, where: str) -> None:
    """Raise unless a trace is 1 within ``ATOL`` and no population is below the floor."""
    if not deviation <= ATOL:
        raise StateInvariantError(f"{where}: trace is off 1 by {deviation:.3e}, above {ATOL}")
    if lowest < EIGENVALUE_FLOOR:
        raise StateInvariantError(f"{where}: negative population {lowest:.3e}")


def _entries(populations: np.ndarray) -> np.ndarray:
    """The eight populations of 2x2x2 register tensors, each a column over the leading axes."""
    return np.moveaxis(populations.reshape(populations.shape[:-3] + (8,)), -1, 0)


def marginal(populations: np.ndarray, slot: int) -> np.ndarray:
    """Populations of one slot of 2x2x2 register tensors (the trailing axes)."""
    return np.stack(_marginal(_entries(populations), slot), axis=-1)


def check_populations(populations: np.ndarray, where: str) -> None:
    """Make the checks ``DensityMatrix`` makes on 2x2x2 population tensors.

    A diagonal state's eigenvalues are its populations, and a non-finite
    population makes the trace non-finite, so unit trace and the
    eigenvalue floor cover finiteness and positivity.
    """
    _check(np.max(abs(_total(_entries(populations)) - 1.0)), populations.min(), where)


def reset(populations: np.ndarray, slot: int, bath: np.ndarray) -> np.ndarray:
    """Re-thermalize one slot of 2x2x2 register tensors against the bath.

    Returns the product of every other slot's marginal with ``bath`` in
    ``slot``: all correlations are discarded and the other marginals are
    kept.  Leading axes of ``populations`` and ``bath`` broadcast, one
    reset per pair.  The product is renormalized; without that the
    round-off deficit of the marginal sums doubles on every reset and
    compounds over a long run.
    """
    joint = np.stack(_reset(_entries(populations), slot, np.moveaxis(bath, -1, 0)), axis=-1)
    return joint.reshape(joint.shape[:-1] + (2, 2, 2))


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
    """Register slots, reset-qubit bath populations and gates of one run.

    Each gate is an ``itemgetter`` that applies its basis permutation to
    a register of eight populations.
    """

    target: int
    reset: int
    bath: tuple[float, float]
    swap_target_reset: itemgetter
    swap_compression_reset: itemgetter
    comp: itemgetter


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
        tuple(thermal_reset_state(sys, field_scale, constants).tolist()),
        *(itemgetter(*gate.gather(qubits).tolist()) for gate in gates),
    )


def initial_stage(register: Sequence[float], schedule: CoolingSchedule) -> tuple[float, ...]:
    """One-time opener on eight populations: thermalize the reset qubit, then SWAP(target, reset)."""
    return schedule.swap_target_reset(_reset(register, schedule.reset, schedule.bath))


def ppa_round(register: Sequence[float], schedule: CoolingSchedule) -> tuple[float, ...]:
    """One cooling round on eight populations: reset, SWAP(compression, reset), reset, COMP."""
    p = schedule.swap_compression_reset(_reset(register, schedule.reset, schedule.bath))
    return schedule.comp(_reset(p, schedule.reset, schedule.bath))


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
    passes the checks ``DensityMatrix`` makes, and the run stops at the
    first round whose target or reset polarization leaves (0, 1).
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    schedule = cooling_schedule(sys, rho1.qubits, field_scale, constants)
    if not is_diagonal(rho1.matrix):
        raise ValueError("cooling runs on populations and needs a diagonal input state")
    target = rho1.qubits[schedule.target]
    omega_t = sys.omega(target, field_scale)

    p = np.empty((n_rounds + 1, 8))
    # per round: the target and reset polarizations and the target's spin temperature
    columns = np.empty((n_rounds + 1, 3))
    register = initial_stage(rho1.populations.tolist(), schedule)
    for index in range(n_rounds + 1):
        if index:
            register = ppa_round(register, schedule)
        _check(abs(_total(register) - 1.0), min(register), f"round {index}")
        (t0, t1), (r0, r1) = _marginal(register, schedule.target), _marginal(register, schedule.reset)
        target_eps, reset_eps = t0 - t1, r0 - r1
        # a polarization that rounds to 1 (a very cold bath) has no spin temperature
        if not (0.0 < target_eps < 1.0 and 0.0 < reset_eps < 1.0):
            name, value = ("reset", reset_eps) if 0.0 < target_eps < 1.0 else ("target", target_eps)
            raise StateInvariantError(
                f"round {index}: {name} polarization {value} "
                f"outside (0, 1) at bath temperature {sys.bath_temperature:g} K"
            )
        p[index] = register
        # the scalar atanh: numpy's differs from it in the last bit on some inputs
        columns[index] = target_eps, reset_eps, effective_temperature(target_eps, omega_t, constants)

    p = p.reshape(n_rounds + 1, 2, 2, 2)
    p.setflags(write=False)
    columns.setflags(write=False)
    return PpaTrace(p, *columns.T, rho1.qubits, target)


def shannon_bound(
    sys: SpinSystem, field_scale: float, constants: PhysicalConstants = CODATA2018
) -> float:
    """Reset-qubit thermal polarization: the closed-system cooling ceiling."""
    label = sys.label_for_role(Role.RESET)
    return thermal_polarization(sys.omega(label, field_scale), sys.bath_temperature, constants)
