"""Reference cooling and stroke work on dense density matrices.

The package cools on population tensors and evaluates works on
population columns.  This is the dense code it replaced, kept as the
reference it must match bit for bit: gates conjugate the full matrix
(``gates.apply``), a reset rebuilds the register as a ``kron`` of
single-qubit partial traces (``gates.reset_channel``), and a stroke's
work is ``Tr[H rho]`` at its start minus at its end.  The dense state
utilities that only the tests use (``kron``, ``fidelity``,
``qubit_marginal``) live here too.
"""

import numpy as np

from spinotto.gates import apply, comp_unitary, reset_channel, swap_unitary
from spinotto.hbac import thermal_reset_state
from spinotto.qmath import DensityMatrix, partial_trace
from spinotto.spinsys import Role, thermal_populations


def _roles(sys):
    return tuple(sys.label_for_role(r) for r in (Role.TARGET, Role.COMPRESSION, Role.RESET))


def diagonal_state(populations, qubits):
    """The validated ``DensityMatrix`` with these populations, e.g. one row of a cooling run."""
    return DensityMatrix(np.diag(np.ravel(populations)).astype(complex), tuple(qubits))


def gibbs(levels, temperature, qubits):
    """Diagonal thermal ``DensityMatrix`` over level energies."""
    return diagonal_state(thermal_populations(levels, temperature), qubits)


def fresh_reset(sys, field_scale):
    """The reset qubit's bath state as a ``DensityMatrix``."""
    return diagonal_state(thermal_reset_state(sys, field_scale), (sys.label_for_role(Role.RESET),))


def initial_stage(rho, sys, field_scale):
    target, _, reset = _roles(sys)
    state = reset_channel(rho, reset, fresh_reset(sys, field_scale))
    return apply(swap_unitary(rho.qubits, target, reset), state)


def ppa_round(rho, sys, field_scale):
    target, compression, reset = _roles(sys)
    fresh = fresh_reset(sys, field_scale)
    state = reset_channel(rho, reset, fresh)
    state = apply(swap_unitary(rho.qubits, compression, reset), state)
    state = reset_channel(state, reset, fresh)
    return apply(comp_unitary((target, compression, reset)), state)


def cooling_states(rho, sys, field_scale, n_rounds):
    """Register states after the initial stage and after each of ``n_rounds`` rounds."""
    states = [initial_stage(rho, sys, field_scale)]
    for _ in range(n_rounds):
        states.append(ppa_round(states[-1], sys, field_scale))
    return states


def stroke_work(h_local_start, rho_local_start, h_local_end, rho_local_end):
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


def kron(a, b):
    """Tensor product of square matrices with slot order (a then b); a owns the high bits."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return np.kron(a, b)


def qubit_marginal(rho, label):
    """Single-qubit reduced state, by partial trace over everything else."""
    return partial_trace(rho, {label})


def fidelity(rho, sigma):
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))**2`` in [0, 1].

    For commuting diagonal states this reduces to the squared
    Bhattacharyya overlap of the two population vectors.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w, v = np.linalg.eigh(rho.matrix)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    eigenvalues = np.linalg.eigvalsh(inner)
    root_sum = float(np.sum(np.sqrt(np.clip(eigenvalues, 0.0, None))))
    return min(1.0, root_sum**2)
