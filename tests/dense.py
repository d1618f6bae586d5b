"""Reference cooling and stroke work on dense density matrices.

The package cools in closed form on polarizations and evaluates works
as polarization differences.  This is the dense code it replaced, kept
as the independent reference: gates conjugate the full matrix
(``gates.apply``), a reset rebuilds the register as a ``kron`` of
single-qubit partial traces (``gates.reset_channel``), and a stroke's
work is ``Tr[H rho]`` at its start minus at its end.  ``trace_rows``
rebuilds the registers a cooling trace describes, so the two can be
compared population by population.  The dense state utilities that only
the tests use (``kron``, ``fidelity``, ``qubit_marginal``) live here too.
"""

from types import SimpleNamespace

import numpy as np

from spinotto.gates import apply, comp_unitary, reset_channel, swap_unitary
from spinotto.qmath import DensityMatrix, partial_trace
from spinotto.spinsys import CODATA2018, Role, thermal_populations


def _roles(sys):
    return tuple(sys.label_for_role(r) for r in (Role.TARGET, Role.COMPRESSION, Role.RESET))


def diagonal_state(populations, qubits):
    """The validated ``DensityMatrix`` with these populations, e.g. one row of a cooling run."""
    return DensityMatrix(np.diag(np.ravel(populations)).astype(complex), tuple(qubits))


def gibbs(levels, temperature, qubits):
    """Diagonal thermal ``DensityMatrix`` over level energies."""
    return diagonal_state(thermal_populations(levels, temperature), qubits)


def zeeman_levels(omega):
    """Level energies ``(-hbar w / 2, +hbar w / 2)`` of ``-hbar*omega*Iz`` (joules).

    ``omega`` broadcasts: an array of frequencies gives one row of levels each.
    """
    return np.stack([-CODATA2018.hbar * omega / 2, +CODATA2018.hbar * omega / 2], axis=-1)


def local_levels(sys, label, field_scale=1.0):
    """Zeeman level energies of one register qubit at the scaled field."""
    return zeeman_levels(sys.omega(label, field_scale))


def thermal_reset_state(sys, field_scale):
    """Bath-equilibrium populations of the reset qubit at the scaled field."""
    levels = local_levels(sys, sys.label_for_role(Role.RESET), field_scale)
    return thermal_populations(levels, sys.bath_temperature)


def fresh_reset(sys, field_scale):
    """The reset qubit's bath state as a ``DensityMatrix``."""
    return diagonal_state(thermal_reset_state(sys, field_scale), (sys.label_for_role(Role.RESET),))


def schedule(rho, sys, field_scale):
    """The reset qubit's bath state and the three gates of one run, built once."""
    target, compression, reset = _roles(sys)
    return SimpleNamespace(
        reset=reset,
        fresh=fresh_reset(sys, field_scale),
        swap_target_reset=swap_unitary(rho.qubits, target, reset),
        swap_compression_reset=swap_unitary(rho.qubits, compression, reset),
        comp=comp_unitary((target, compression, reset)),
    )


def initial_stage(rho, run):
    state = reset_channel(rho, run.reset, run.fresh)
    return apply(run.swap_target_reset, state)


def ppa_round(rho, run):
    state = reset_channel(rho, run.reset, run.fresh)
    state = apply(run.swap_compression_reset, state)
    state = reset_channel(state, run.reset, run.fresh)
    return apply(run.comp, state)


def cooling_states(rho, sys, field_scale, n_rounds):
    """Register states after the initial stage and after each of ``n_rounds`` rounds."""
    run = schedule(rho, sys, field_scale)
    states = [initial_stage(rho, run)]
    for _ in range(n_rounds):
        states.append(ppa_round(states[-1], run))
    return states


def cooling_rows(rho, sys, field_scale, n_rounds):
    """Populations after the initial stage and each of ``n_rounds`` rounds, one row each.

    A dense round is a deterministic function of the state, so once the
    run returns bit for bit to a state it held before, every later row
    repeats the rows since then.  The dense rounds stop there (about 40
    rounds on the TCE system), and the cycle fills the remaining rows.
    """
    run = schedule(rho, sys, field_scale)
    rows, first_seen = [], {}
    state = initial_stage(rho, run)
    while len(rows) <= n_rounds:
        key = state.matrix.tobytes()
        if key in first_seen:
            period = len(rows) - first_seen[key]
            while len(rows) <= n_rounds:
                rows.append(rows[-period])
            break
        first_seen[key] = len(rows)
        rows.append(state.populations)
        state = ppa_round(state, run)
    return np.array(rows)


def _qubit(eps):
    return np.array([(1.0 + eps) / 2.0, (1.0 - eps) / 2.0])


def trace_rows(trace, rho, sys, eps_b):
    """The register populations a cooling trace of ``rho`` describes, one row per round.

    Row 0 is the initial stage: the target at ``eps_b``, the compression
    qubit at its input marginal and the reset qubit at the target's.
    Row ``n`` is COMP applied to the product ``(eps_(n-1), eps_b, eps_b)``
    of the target's previous polarization and two fresh bath qubits.
    Products are taken in the register order of ``rho``.
    """
    target, compression, reset = _roles(sys)
    comp = comp_unitary((target, compression, reset)).gather(rho.qubits)

    def product(by_label):
        out = np.ones(1)
        for q in rho.qubits:
            out = np.kron(out, _qubit(by_label[q]))
        return out

    first = {target: eps_b, compression: polarization_of(rho, compression), reset: trace.reset_polarization[0]}
    rows = [product(first)]
    for eps in trace.target_polarization[:-1].tolist():
        rows.append(product({target: eps, compression: eps_b, reset: eps_b})[comp])
    return np.array(rows)


def polarization_of(rho, label):
    """A qubit's polarization, by partial trace of the dense state."""
    p = partial_trace(rho, {label}).populations
    return p[0] - p[1]


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
