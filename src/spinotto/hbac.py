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
"""

from __future__ import annotations

from dataclasses import dataclass

from .gates import apply, comp_unitary, reset_channel, swap_unitary
from .qmath import DensityMatrix, StateInvariantError, is_diagonal, partial_trace
from .spinsys import (
    CODATA2018,
    PhysicalConstants,
    Role,
    SpinSystem,
    effective_temperature,
    gibbs_state,
    local_hamiltonian,
    polarization,
    thermal_polarization,
)


@dataclass(frozen=True)
class RoundRecord:
    """Telemetry after one cooling step (index 0 = after the initial stage)."""

    round_index: int
    target_polarization: float
    reset_polarization: float
    target_effective_temperature: float  # kelvin, at the scaled target frequency
    state_after_round: DensityMatrix


@dataclass(frozen=True)
class PpaTrace:
    """Full record of a cooling run; one entry per round plus the endpoints."""

    rounds: tuple[RoundRecord, ...]
    initial_state: DensityMatrix
    final_target: DensityMatrix

    @property
    def final_record(self) -> RoundRecord:
        return self.rounds[-1]


@dataclass(frozen=True)
class _Register:
    target: str
    compression: str
    reset: str


def _roles(sys: SpinSystem) -> _Register:
    return _Register(
        target=sys.label_for_role(Role.TARGET),
        compression=sys.label_for_role(Role.COMPRESSION),
        reset=sys.label_for_role(Role.RESET),
    )


def thermal_reset_state(
    sys: SpinSystem, field_scale: float, constants: PhysicalConstants = CODATA2018
) -> DensityMatrix:
    """Bath-equilibrium state of the reset qubit at the scaled field."""
    label = sys.label_for_role(Role.RESET)
    h = local_hamiltonian(sys, label, field_scale, constants)
    return gibbs_state(h, sys.bath_temperature, (label,), constants)


def _check_register(rho: DensityMatrix, reg: _Register) -> None:
    missing = {reg.target, reg.compression, reg.reset} - set(rho.qubits)
    if missing:
        raise ValueError(f"state register {rho.qubits} is missing roles {sorted(missing)}")
    if len(rho.qubits) != 3:
        raise ValueError(f"cooling runs on a 3-qubit register, got {rho.qubits}")


def _checked_diagonal(state: DensityMatrix, enforce: bool) -> DensityMatrix:
    # Permutation gates and resets cannot create coherences; catching a
    # violation here flags gate or reset-channel bugs early.
    if enforce and not is_diagonal(state.matrix):
        raise StateInvariantError("cooling step produced off-diagonal entries")
    return state


def initial_stage(
    rho1: DensityMatrix,
    sys: SpinSystem,
    field_scale: float,
    constants: PhysicalConstants = CODATA2018,
) -> DensityMatrix:
    """One-time opener: thermalize the reset qubit, then SWAP(target, reset)."""
    reg = _roles(sys)
    _check_register(rho1, reg)
    diagonal = is_diagonal(rho1.matrix)
    fresh = thermal_reset_state(sys, field_scale, constants)
    state = reset_channel(rho1, reg.reset, fresh)
    state = apply(swap_unitary(rho1.qubits, reg.target, reg.reset), state)
    return _checked_diagonal(state, diagonal)


def ppa_round(
    state: DensityMatrix,
    sys: SpinSystem,
    field_scale: float,
    constants: PhysicalConstants = CODATA2018,
) -> DensityMatrix:
    """One cooling round: reset, SWAP(compression, reset), reset, COMP."""
    reg = _roles(sys)
    _check_register(state, reg)
    diagonal = is_diagonal(state.matrix)
    fresh = thermal_reset_state(sys, field_scale, constants)
    comp = comp_unitary((reg.target, reg.compression, reg.reset))
    swap_cr = swap_unitary(state.qubits, reg.compression, reg.reset)

    state = reset_channel(state, reg.reset, fresh)
    state = _checked_diagonal(apply(swap_cr, state), diagonal)
    state = reset_channel(state, reg.reset, fresh)
    state = _checked_diagonal(apply(comp, state), diagonal)
    return state


def run_ppa(
    rho1: DensityMatrix,
    sys: SpinSystem,
    field_scale: float,
    n_rounds: int,
    constants: PhysicalConstants = CODATA2018,
) -> PpaTrace:
    """Run the initial stage plus ``n_rounds`` cooling rounds.

    The trace records the target and reset polarizations and the target's
    effective spin temperature (evaluated at ``field_scale * omega_T``)
    after every round, with the initial stage stored as round 0.
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    reg = _roles(sys)
    omega_t = sys.omega(reg.target, field_scale)

    def record(index: int, state: DensityMatrix) -> RoundRecord:
        eps_t = polarization(partial_trace(state, {reg.target}))
        eps_r = polarization(partial_trace(state, {reg.reset}))
        # a polarization that rounds to 1 (a very cold bath) has no spin temperature
        for name, eps in (("target", eps_t), ("reset", eps_r)):
            if not 0.0 < eps < 1.0:
                raise StateInvariantError(
                    f"round {index}: {name} polarization {eps} outside (0, 1) "
                    f"at bath temperature {sys.bath_temperature:g} K"
                )
        return RoundRecord(
            round_index=index,
            target_polarization=eps_t,
            reset_polarization=eps_r,
            target_effective_temperature=effective_temperature(eps_t, omega_t, constants),
            state_after_round=state,
        )

    state = initial_stage(rho1, sys, field_scale, constants)
    records = [record(0, state)]
    for index in range(1, n_rounds + 1):
        state = ppa_round(state, sys, field_scale, constants)
        records.append(record(index, state))
    return PpaTrace(
        rounds=tuple(records),
        initial_state=rho1,
        final_target=partial_trace(state, {reg.target}),
    )


def shannon_bound(
    sys: SpinSystem, field_scale: float, constants: PhysicalConstants = CODATA2018
) -> float:
    """Reset-qubit thermal polarization: the closed-system cooling ceiling."""
    label = sys.label_for_role(Role.RESET)
    return thermal_polarization(sys.omega(label, field_scale), sys.bath_temperature, constants)


def trace_rows(
    trace: PpaTrace,
    sys: SpinSystem,
    field_scale: float,
    constants: PhysicalConstants = CODATA2018,
) -> list[tuple[int, float, float, float, float]]:
    """Per-round rows ``(round, eps_target, eps_reset, T_eff_K, shannon_bound_eps)``."""
    bound = shannon_bound(sys, field_scale, constants)
    return [
        (
            r.round_index,
            r.target_polarization,
            r.reset_polarization,
            r.target_effective_temperature,
            bound,
        )
        for r in trace.rounds
    ]
