"""Ideal gates on labeled registers, as basis permutations, plus the reset channel.

Both gates of the cooling schedule, SWAP and the 3-bit entropy
compression COMP, are classical permutations of computational-basis
states.  A gate is therefore stored as its permutation and applied by
an index gather, which is exact.  Gates are instantaneous and perfect.

Cooling runs in closed form on polarizations (``spinotto.hbac``) and
uses no gate.  ``apply`` and ``reset_channel`` are the same operations on
dense density matrices, including coherent ones; the tests' dense
cooling reference is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmath import DensityMatrix, partial_trace


@dataclass(frozen=True)
class GateUnitary:
    """Basis permutation bound to an ordered set of qubit labels.

    Basis state ``i`` goes to ``perm[i]``, i.e. ``U[perm[i], i] = 1``.
    """

    perm: tuple[int, ...]
    acts_on: tuple[str, ...]
    name: str

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        acts_on = tuple(str(q) for q in self.acts_on)
        if sorted(perm) != list(range(2 ** len(acts_on))):
            raise ValueError(
                f"gate {self.name}: {perm} is not a permutation of the "
                f"{2 ** len(acts_on)} basis states of {acts_on}"
            )
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "acts_on", acts_on)

    def gather(self, register: Sequence[str]) -> np.ndarray:
        """Source index of every basis state after the gate, in ``register`` order.

        ``populations[gather]`` applies the gate to a population vector
        over ``register``, which must hold exactly the gate's qubits in
        any order.
        """
        register = tuple(register)
        if sorted(self.acts_on) != sorted(register):
            raise ValueError(f"gate {self.name} acts on {self.acts_on}, register is {register}")
        dst = [
            _reindex(self.perm[_reindex(i, register, self.acts_on)], self.acts_on, register)
            for i in range(len(self.perm))
        ]
        return np.argsort(dst)


def _reindex(index: int, src: Sequence[str], dst: Sequence[str]) -> int:
    """Index in ``dst`` slot order of the basis state numbered ``index`` in ``src`` order."""
    k = len(src)
    out = 0
    for position, label in enumerate(src):
        bit = (index >> (k - 1 - position)) & 1
        out |= bit << (k - 1 - dst.index(label))
    return out


def swap_unitary(register: Sequence[str], a: str, b: str) -> GateUnitary:
    """SWAP of qubits ``a`` and ``b``, identity on the other register slots."""
    register = tuple(register)
    if a == b:
        raise ValueError("cannot swap a qubit with itself")
    for label in (a, b):
        if label not in register:
            raise KeyError(f"unknown qubit label {label!r}; register is {register}")
    # Reading every basis state with the a and b slots relabelled swaps their bits.
    relabelled = tuple(b if q == a else a if q == b else q for q in register)
    perm = tuple(_reindex(i, register, relabelled) for i in range(2 ** len(register)))
    return GateUnitary(perm, register, f"SWAP({a},{b})")


def comp_unitary(register: Sequence[str]) -> GateUnitary:
    """3-bit entropy compression gate on a (target, compression, reset) register.

    The net permutation of CNotNot * Toffoli * CNotNot (the target
    controlling the CNotNots, the compression/reset pair controlling the
    Toffoli): it exchanges ``|011>`` and ``|100>`` and fixes every other
    basis state, which pumps population toward the target's ``|0>`` level.
    """
    register = tuple(register)
    if len(register) != 3:
        raise ValueError(f"compression gate needs a 3-qubit register, got {register}")
    perm = list(range(8))
    perm[0b011], perm[0b100] = 0b100, 0b011
    return GateUnitary(tuple(perm), register, "COMP")


def apply(gate: GateUnitary, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate a state, ``U rho U^dagger``, as an index gather on rows and columns."""
    # (U rho U^dagger)[perm[i], perm[j]] = rho[i, j]
    inv = gate.gather(rho.qubits)
    return DensityMatrix(rho.matrix[np.ix_(inv, inv)], rho.qubits)


def reset_channel(
    rho: DensityMatrix, reset_label: str, thermal_reset_state: DensityMatrix
) -> DensityMatrix:
    """Re-thermalize one qubit against the bath.

    Returns the tensor product of every other qubit's single-qubit
    marginal with the fresh thermal state in the reset slot.  All
    correlations are discarded; non-reset marginals are preserved
    exactly, so the channel is idempotent.
    """
    if reset_label not in rho.qubits:
        raise KeyError(f"unknown qubit label {reset_label!r}; register is {rho.qubits}")
    if thermal_reset_state.dim != 2:
        raise ValueError("thermal_reset_state must be a single-qubit state")
    matrix = np.ones((1, 1), dtype=complex)
    for q in rho.qubits:
        factor = (
            thermal_reset_state.matrix
            if q == reset_label
            else partial_trace(rho, {q}).matrix
        )
        matrix = np.kron(matrix, factor)
    # Renormalize away round-off in the marginal traces; without this the
    # deficit doubles on every reset and compounds over a long run.
    matrix /= np.real(np.trace(matrix))
    return DensityMatrix(matrix, rho.qubits)
