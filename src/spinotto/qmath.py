"""Labeled few-qubit density matrices with enforced invariants.

States live on a labeled register of spin-1/2 slots in big-endian order:
the first label owns the most significant bit of a computational-basis
index.  ``DensityMatrix`` wraps a dense complex array with the slot
labels and enforces the physical invariants on every construction.
Register sizes stay at or below four qubits, so everything is dense and
eager.  Hamiltonians are not matrices here: every one the package uses
is diagonal, so ``spinotto.spinsys`` stores it as level energies.

A ``DensityMatrix`` is the library's boundary type: the input of a
cooling run, the hot and compressed engine states, and views built on
request.  Every state the engines produce is diagonal, so cooling
(``spinotto.hbac``) and the sweeps work on polarizations instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Entrywise absolute tolerance for matrix equality and invariant checks.
ATOL = 1e-12
# Eigenvalues may dip this far below zero before a state is rejected.
EIGENVALUE_FLOOR = -1e-10


class StateInvariantError(ValueError):
    """A matrix violated a density-matrix invariant (trace, Hermiticity, PSD)."""


def _square_complex(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim == 0 or dim & (dim - 1):
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return arr


def matrices_close(a, b, atol: float = ATOL) -> bool:
    """Entrywise equality under an explicit absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= atol)


def is_diagonal(matrix, atol: float = ATOL) -> bool:
    arr = np.asarray(matrix)
    off = arr - np.diag(np.diag(arr))
    return bool(np.max(np.abs(off)) <= atol)


@dataclass(frozen=True)
class DensityMatrix:
    """Labeled density matrix over an ordered qubit register.

    Parameters
    ----------
    matrix:
        Complex ``2**k x 2**k`` array, unit trace, Hermitian, positive
        semidefinite (eigenvalues above ``EIGENVALUE_FLOOR``).
    qubits:
        One label per tensor slot, first label = most significant bit.
    """

    matrix: np.ndarray
    qubits: tuple[str, ...]

    def __post_init__(self):
        arr = _square_complex(self.matrix).copy()
        qubits = tuple(str(q) for q in self.qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit labels: {qubits}")
        if arr.shape[0] != 2 ** len(qubits):
            raise ValueError(
                f"matrix dimension {arr.shape[0]} does not match "
                f"{len(qubits)} qubit labels"
            )
        # Written as ``not (x <= ATOL)`` so NaN entries fail the checks too.
        tr = complex(np.trace(arr))
        if not abs(tr - 1.0) <= ATOL:
            raise StateInvariantError(f"trace is {tr}, expected 1 within {ATOL}")
        if not np.max(np.abs(arr - arr.conj().T)) <= ATOL:
            raise StateInvariantError("matrix is not Hermitian and finite within tolerance")
        eigenvalues = np.linalg.eigvalsh(arr)
        if float(eigenvalues.min()) < EIGENVALUE_FLOOR:
            raise StateInvariantError(
                f"negative eigenvalue {eigenvalues.min():.3e} below "
                f"{EIGENVALUE_FLOOR:.0e}, state is not positive semidefinite"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "qubits", qubits)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal in computational-basis order."""
        return np.real(np.diag(self.matrix)).copy()

    def close_to(self, other: "DensityMatrix", atol: float = ATOL) -> bool:
        return self.qubits == other.qubits and matrices_close(
            self.matrix, other.matrix, atol
        )


def single_qubit_state(polarization: float, label: str) -> DensityMatrix:
    """Diagonal spin-1/2 state with the given up/down population difference."""
    eps = float(polarization)
    if not -1.0 <= eps <= 1.0:
        raise ValueError(f"polarization {eps} outside [-1, 1]")
    return DensityMatrix(np.diag([(1 + eps) / 2, (1 - eps) / 2]).astype(complex), (label,))


def product_state(*factors: DensityMatrix) -> DensityMatrix:
    """Tensor product of states; labels concatenate in argument order."""
    if not factors:
        raise ValueError("need at least one factor")
    matrix = factors[0].matrix
    labels: tuple[str, ...] = factors[0].qubits
    for f in factors[1:]:
        matrix = np.kron(matrix, f.matrix)
        labels = labels + f.qubits
    return DensityMatrix(matrix, labels)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every qubit not named in ``keep``.

    The result keeps the surviving labels in their original relative
    order and preserves the unit trace.
    """
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep must name at least one qubit")
    unknown = keep_set - set(rho.qubits)
    if unknown:
        raise KeyError(f"unknown qubit labels {sorted(unknown)}; register is {rho.qubits}")

    k = len(rho.qubits)
    kept_positions = [i for i, q in enumerate(rho.qubits) if q in keep_set]
    if len(kept_positions) == k:
        return rho

    tensor = rho.matrix.reshape((2,) * (2 * k))
    # Row axis i and column axis k+i share an index when qubit i is traced.
    row_idx = list(range(k))
    col_idx = [k + i if i in kept_positions else i for i in range(k)]
    out_idx = [i for i in kept_positions] + [k + i for i in kept_positions]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    m = 2 ** len(kept_positions)
    labels = tuple(rho.qubits[i] for i in kept_positions)
    return DensityMatrix(reduced.reshape((m, m)), labels)

