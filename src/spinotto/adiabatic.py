"""Finite-time field-ramp strokes.

A stroke ramps the static field between ``B_z`` and ``B_z/2`` over half a
drive period ``tau`` with a ``sin(pi t / tau)`` profile.  Because the
drive contains only Iz terms it is diagonal at every instant, so the
stroke is propagated in closed form: populations are exact fixed points
and each coherence picks up the phase set by the time-integrated level
energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import DensityMatrix, StateInvariantError, is_diagonal
from .spinsys import CODATA2018, PhysicalConstants, SpinSystem, static_hamiltonian

COMPRESSION = "compression"  # full field -> half field
EXPANSION = "expansion"  # half field -> full field

# The compressed field is half the reference field throughout.
COMPRESSED_FIELD_SCALE = 0.5

# Drive period in seconds.  Populations, and so every reported energy, do
# not depend on it; it only sets the phases coherences pick up.
DEFAULT_TAU = 0.1


@dataclass(frozen=True)
class StrokeSpec:
    """Direction and timing of one field ramp (the stroke lasts ``tau/2``)."""

    direction: str
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if self.direction not in (COMPRESSION, EXPANSION):
            raise ValueError(
                f"direction must be {COMPRESSION!r} or {EXPANSION!r}, got {self.direction!r}"
            )
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    @property
    def duration(self) -> float:
        return self.tau / 2


def stroke_endpoints(
    sys: SpinSystem,
    spec: StrokeSpec,
    constants: PhysicalConstants = CODATA2018,
) -> tuple[np.ndarray, np.ndarray]:
    """Static Hamiltonians at the start and the end of a stroke."""
    h_full = static_hamiltonian(sys, 1.0, constants)
    h_half = static_hamiltonian(sys, COMPRESSED_FIELD_SCALE, constants)
    return (h_full, h_half) if spec.direction == COMPRESSION else (h_half, h_full)


def _level_energies(hamiltonian: np.ndarray) -> np.ndarray:
    energies = np.diag(hamiltonian)
    if not (is_diagonal(hamiltonian, atol=0.0) and np.all(energies.imag == 0.0)):
        raise ValueError("the field-ramp propagator needs real diagonal endpoint Hamiltonians")
    return energies.real


def _phases(sys: SpinSystem, spec: StrokeSpec, constants: PhysicalConstants) -> np.ndarray:
    start, end = stroke_endpoints(sys, spec, constants)
    e_start = _level_energies(start)
    e_end = _level_energies(end)
    area = e_start * (spec.tau / 2) + (e_end - e_start) * (spec.tau / math.pi)
    # Level phases run to ~1e8 rad.  Reducing each one mod 2pi (exactly, by
    # fmod) before differencing keeps every entry on the same per-level
    # phases, so pure states stay positive semidefinite, and leaves the
    # diagonal difference exactly 0.  An overflow leaves NaN for the
    # checks to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.fmod(area / constants.hbar, 2.0 * math.pi)
    return np.exp(-1j * (theta[:, None] - theta[None, :]))


def _check_drift(before: np.ndarray, after: np.ndarray, spec: StrokeSpec) -> None:
    drift = float(np.max(np.abs(after - before)))
    # written so that a NaN drift fails too
    if not drift <= 1e-12:
        raise StateInvariantError(
            f"{spec.direction} stroke moved diagonal populations by {drift:.3e}"
        )


def evolve_stroke(
    rho: DensityMatrix,
    sys: SpinSystem,
    spec: StrokeSpec,
    constants: PhysicalConstants = CODATA2018,
) -> DensityMatrix:
    """Propagate a register state through one field ramp.

    The drive ``H(t) = (1 - s) H_start + s H_end`` with ``s = sin(pi t /
    tau)`` is diagonal at every instant, so the propagator is
    ``diag(exp(-i Phi_k / hbar))`` with the level areas ``Phi_k =
    E_start,k tau/2 + (E_end,k - E_start,k) tau/pi``.  Entry ``(j, k)``
    picks up the phase ``exp(-i (Phi_j - Phi_k) / hbar)``; on the
    diagonal that factor is exactly 1, so populations come back bit for
    bit (a drift above 1e-12 raises regardless).
    """
    evolved = DensityMatrix(rho.matrix * _phases(sys, spec, constants), rho.qubits)
    if is_diagonal(rho.matrix):
        _check_drift(rho.populations, evolved.populations, spec)
    return evolved


def evolve_populations(
    populations: np.ndarray,
    sys: SpinSystem,
    spec: StrokeSpec,
    constants: PhysicalConstants = CODATA2018,
) -> np.ndarray:
    """The same ramp on diagonal states, given as populations over the last axis.

    Each population is multiplied by its diagonal phase factor as
    ``evolve_stroke`` multiplies the matrix, so the result is what that
    gives, with the same drift check on every state.
    """
    evolved = np.real(populations * np.diagonal(_phases(sys, spec, constants)))
    _check_drift(populations, evolved, spec)
    return evolved
