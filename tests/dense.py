"""Reference cooling and stroke work on dense density matrices.

The package cools on population tensors and evaluates works on
population columns.  This is the dense code it replaced, kept as the
reference it must match bit for bit: gates conjugate the full matrix
(``gates.apply``), a reset rebuilds the register as a ``kron`` of
single-qubit partial traces (``gates.reset_channel``), and a stroke's
work is ``Tr[H rho]`` at its start minus at its end.
"""

import numpy as np

from spinotto.gates import apply, comp_unitary, reset_channel, swap_unitary
from spinotto.hbac import thermal_reset_state
from spinotto.spinsys import Role


def _roles(sys):
    return tuple(sys.label_for_role(r) for r in (Role.TARGET, Role.COMPRESSION, Role.RESET))


def initial_stage(rho, sys, field_scale):
    target, _, reset = _roles(sys)
    state = reset_channel(rho, reset, thermal_reset_state(sys, field_scale))
    return apply(swap_unitary(rho.qubits, target, reset), state)


def ppa_round(rho, sys, field_scale):
    target, compression, reset = _roles(sys)
    fresh = thermal_reset_state(sys, field_scale)
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
