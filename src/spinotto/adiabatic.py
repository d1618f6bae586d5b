"""Finite-time field-ramp strokes and the local work bookkeeping.

A stroke ramps the static field between ``B_z`` and ``B_z/2`` over half a
drive period ``tau`` with a ``sin(pi t / tau)`` profile.  Because the
drive contains only Iz terms it is diagonal at every instant, so the
stroke is propagated in closed form: populations are exact fixed points
and each coherence picks up the phase set by the time-integrated level
energies.  Work is evaluated from the target qubit's local Hamiltonian
and marginal state at the stroke endpoints.
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
    start, end = stroke_endpoints(sys, spec, constants)
    e_start = _level_energies(start)
    e_end = _level_energies(end)
    area = e_start * (spec.tau / 2) + (e_end - e_start) * (spec.tau / math.pi)
    # Level phases run to ~1e8 rad.  Reducing each one mod 2pi (exactly, by
    # fmod) before differencing keeps every entry on the same per-level
    # phases, so pure states stay positive semidefinite, and leaves the
    # diagonal difference exactly 0.  An overflow leaves NaN for the
    # validation below to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.fmod(area / constants.hbar, 2.0 * math.pi)
    phases = np.exp(-1j * (theta[:, None] - theta[None, :]))
    evolved = DensityMatrix(rho.matrix * phases, rho.qubits)
    if is_diagonal(rho.matrix):
        drift = float(np.max(np.abs(evolved.populations - rho.populations)))
        if drift > 1e-12:
            raise StateInvariantError(
                f"{spec.direction} stroke moved diagonal populations by {drift:.3e}"
            )
    return evolved


def stroke_work(
    h_local_start: np.ndarray,
    rho_local_start: DensityMatrix,
    h_local_end: np.ndarray,
    rho_local_end: DensityMatrix,
) -> float:
    """Work output of one stroke, ``Tr[H rho]`` at start minus end (J/molecule).

    Positive values mean energy extracted from the working qubit.
    """
    h_start = np.asarray(h_local_start, dtype=complex)
    h_end = np.asarray(h_local_end, dtype=complex)
    if h_start.shape != rho_local_start.matrix.shape or h_end.shape != rho_local_end.matrix.shape:
        raise ValueError("Hamiltonian and state dimensions do not match")
    before = np.trace(h_start @ rho_local_start.matrix)
    after = np.trace(h_end @ rho_local_end.matrix)
    return float(np.real(before - after))
