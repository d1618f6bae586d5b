"""Dense density matrices, gates and strokes: the tests' independent reference.

The package carries no state: it cools in closed form on polarizations
and evaluates works as polarization differences.  This module is the
dense code it replaced.  ``DensityMatrix`` wraps a complex matrix with
its qubit labels in big-endian order (the first label owns the most
significant bit of a basis index) and enforces trace, Hermiticity and
positivity on every construction.  Gates are basis permutations that
conjugate the full matrix (``apply``), a reset rebuilds the register as
a ``kron`` of single-qubit partial traces (``reset_channel``), a field
ramp propagates the state under the time-integrated drive built by
``oracles`` (``stroke``), and a stroke's work is ``Tr[H rho]`` at its
start minus at its end.  ``register_levels`` tabulates the register's
level energies, one per basis state, from which ``thermal_state``
builds the full Gibbs state.  ``trace_rows`` rebuilds the registers a
cooling trace describes, so the two can be compared population by
population.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

import oracles
from spinotto.spinsys import HBAR, K_BOLTZMANN, TWO_PI, Role, StateInvariantError

# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------

# Entrywise absolute tolerance for matrix equality and invariant checks.
ATOL = 1e-12
# Eigenvalues may dip this far below zero before a state is rejected.
EIGENVALUE_FLOOR = -1e-10


def _square_complex(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim == 0 or dim & (dim - 1):
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return arr


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
        return self.qubits == other.qubits and bool(np.max(np.abs(self.matrix - other.matrix)) <= atol)


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


# ---------------------------------------------------------------------------
# Gates and the reset channel
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Thermal states and field ramps
# ---------------------------------------------------------------------------


def register_levels(sys, field_scale: float = 1.0) -> np.ndarray:
    """Level energies of the lab-frame register Hamiltonian at a scaled static field.

    ``H = -hbar * sum_i (field_scale * w_i) Iz_i
    + hbar * sum_{i<j} 2pi J_ij Iz_i Iz_j`` is diagonal in the
    computational basis, so it is stored as its diagonal, one energy per
    basis state.  Scaling the field scales every Zeeman term and leaves
    the scalar couplings untouched.
    """
    if field_scale <= 0:
        raise ValueError(f"field_scale must be positive, got {field_scale}")
    labels = sys.labels
    k = len(labels)
    omegas = [sys.omega(q, field_scale) for q in labels]
    pairs = [(i, j, TWO_PI * j_hz) for i, j in itertools.combinations(range(k), 2)
             if (j_hz := sys.j_coupling(labels[i], labels[j])) != 0.0]
    levels = []
    # basis order: the first qubit's Iz turns slowest; each sum adds its terms to 0 left to right, uncompensated, which fixes every level's bits
    for sz in itertools.product((0.5, -0.5), repeat=k):
        zeeman = coupling = 0
        for w, s in zip(omegas, sz):
            zeeman += w * s
        for i, j, jw in pairs:
            coupling += jw * sz[i] * sz[j]
        levels.append(-HBAR * zeeman + HBAR * coupling)
    return np.array(levels)


def thermal_populations(energies, temperature) -> np.ndarray:
    """Boltzmann populations ``exp(-E/kT) / Z`` over the last axis of ``energies``.

    Temperatures broadcast against the leading axes, one distribution
    per energy row and temperature.
    """
    energies = np.asarray(energies, dtype=float)
    beta = (1.0 / (K_BOLTZMANN * np.asarray(temperature, dtype=float)))[..., None]
    weights = np.exp(-beta * (energies - energies.min(axis=-1, keepdims=True)))
    return weights / weights.sum(axis=-1, keepdims=True)


def diagonal_state(populations, qubits):
    """The validated ``DensityMatrix`` with these populations, e.g. one row of a cooling run."""
    return DensityMatrix(np.diag(np.ravel(populations)).astype(complex), tuple(qubits))


def gibbs(levels, temperature, qubits):
    """Diagonal thermal ``DensityMatrix`` over level energies."""
    return diagonal_state(thermal_populations(levels, temperature), qubits)


def thermal_state(sys, field_scale=1.0) -> DensityMatrix:
    """Register Gibbs state at the bath temperature and scaled field."""
    return gibbs(register_levels(sys, field_scale), sys.bath_temperature, sys.labels)


def polarization(rho_1q: DensityMatrix) -> float:
    """Population difference ``P_up - P_down`` of a single-qubit state."""
    if rho_1q.dim != 2:
        raise ValueError(f"expected a single-qubit state, got dim {rho_1q.dim}")
    # a DensityMatrix is Hermitian, so its diagonal is real within ATOL
    return float((rho_1q.matrix[0, 0] - rho_1q.matrix[1, 1]).real)


COMPRESSION = (1.0, 0.5)  # field scales at the start and the end of a ramp
EXPANSION = (0.5, 1.0)


def drive_endpoints(sys, direction):
    """The register Hamiltonian at the start and the end of a ramp, built densely by ``oracles``."""
    labels = sys.labels
    couplings = {
        (i, j): sys.j_coupling(labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    }
    return tuple(
        oracles.iz_hamiltonian([sys.omega(q, scale) for q in labels], couplings) for scale in direction
    )


def stroke(rho: DensityMatrix, sys, direction, tau=0.1) -> DensityMatrix:
    """Propagate a register state through one ``sin(pi t / tau)`` field ramp lasting ``tau/2``.

    The drive ``(1 - s) H_start + s H_end`` commutes with itself at all
    times, so the ramp is constant-Hamiltonian evolution for unit time
    under its time integral ``H_start tau/2 + (H_end - H_start) tau/pi``.
    """
    h_start, h_end = drive_endpoints(sys, direction)
    area = h_start * (tau / 2) + (h_end - h_start) * (tau / math.pi)
    evolved = oracles.exact_propagation(area, rho.matrix, 1.0, oracles.HBAR)
    # the Hermitian part: the conjugation leaves round-off imaginary parts on
    # the diagonal, which the dense resets would compound round by round
    return DensityMatrix((evolved + evolved.conj().T) / 2, rho.qubits)


# ---------------------------------------------------------------------------
# Cooling and stroke work
# ---------------------------------------------------------------------------


def _roles(sys):
    return tuple(sys.label_for_role(r) for r in (Role.TARGET, Role.COMPRESSION, Role.RESET))


def zeeman_levels(omega):
    """Level energies ``(-hbar w / 2, +hbar w / 2)`` of ``-hbar*omega*Iz`` (joules).

    ``omega`` broadcasts: an array of frequencies gives one row of levels each.
    """
    return np.stack([-HBAR * omega / 2, +HBAR * omega / 2], axis=-1)


def local_levels(sys, label, field_scale=1.0):
    """Zeeman level energies of one register qubit at the scaled field."""
    return zeeman_levels(sys.omega(label, field_scale))


def thermal_reset_state(sys, field_scale):
    """Bath-equilibrium populations of the reset qubit at the scaled field."""
    levels = local_levels(sys, sys.label_for_role(Role.RESET), field_scale)
    return thermal_populations(levels, sys.bath_temperature)


def schedule(rho, sys, field_scale):
    """The reset qubit's bath state and the three gates of one run, built once."""
    target, compression, reset = _roles(sys)
    return SimpleNamespace(
        reset=reset,
        fresh=diagonal_state(thermal_reset_state(sys, field_scale), (reset,)),
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

    first = {target: eps_b, compression: polarization_of(rho, compression), reset: trace.columns["eps_reset"][0]}
    rows = [product(first)]
    for eps in trace.columns["eps_target"][:-1].tolist():
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
