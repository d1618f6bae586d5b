"""Finite-time field-ramp strokes.

A stroke ramps the static field between ``B_z`` and ``B_z/2`` over half a
drive period ``tau`` with a ``sin(pi t / tau)`` profile.  Because the
drive contains only Iz terms it is diagonal at every instant, so the
stroke is propagated in closed form from the register's level energies:
populations are exact fixed points, so a diagonal state comes back
unchanged, and each coherence picks up the phase set by the
time-integrated level energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import DensityMatrix, StateInvariantError, is_diagonal
from .spinsys import CODATA2018, PhysicalConstants, SpinSystem, register_levels

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
    """Register level energies at the start and the end of a stroke."""
    full = register_levels(sys, 1.0, constants)
    half = register_levels(sys, COMPRESSED_FIELD_SCALE, constants)
    return (full, half) if spec.direction == COMPRESSION else (half, full)


def _phases(sys: SpinSystem, spec: StrokeSpec, constants: PhysicalConstants) -> np.ndarray:
    e_start, e_end = stroke_endpoints(sys, spec, constants)
    area = e_start * (spec.tau / 2) + (e_end - e_start) * (spec.tau / math.pi)
    # Level phases run to ~1e8 rad.  Reducing each one mod 2pi (exactly, by
    # fmod) before differencing keeps every entry on the same per-level
    # phases, so pure states stay positive semidefinite, and leaves the
    # diagonal difference exactly 0.  An overflow leaves NaN for the
    # checks to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.fmod(area / constants.hbar, 2.0 * math.pi)
    return np.exp(-1j * (theta[:, None] - theta[None, :]))


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
    picks up the phase ``exp(-i (Phi_j - Phi_k) / hbar)``.  A diagonal
    state has no coherence to turn, so it is returned unchanged, whatever
    ``tau``.  On the diagonal of a coherent state the factor is exactly 1,
    so populations come back bit for bit (a drift above 1e-12 raises
    regardless).
    """
    if is_diagonal(rho.matrix, atol=0.0):
        return rho
    evolved = DensityMatrix(rho.matrix * _phases(sys, spec, constants), rho.qubits)
    drift = float(np.max(np.abs(evolved.populations - rho.populations)))
    # written so that a NaN drift fails too
    if not drift <= 1e-12:
        raise StateInvariantError(
            f"{spec.direction} stroke moved diagonal populations by {drift:.3e}"
        )
    return evolved
