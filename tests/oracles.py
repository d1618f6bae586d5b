"""Independent oracles the tests check the package against.

Everything here is deliberately primitive: scalar closed forms for the
cooling recurrence and the engine energetics, ``scipy`` matrix
exponentials for propagators and thermal states, and direct index
summation for marginals.  None of it shares code with the package paths
it validates, and physical constants come from ``scipy.constants``.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import scipy.constants
import scipy.integrate
import scipy.linalg

HBAR = scipy.constants.hbar
KB = scipy.constants.k
N_A = scipy.constants.N_A

# TCE register, transcribed independently of the package preset.
OMEGA_T_MHZ = 125.77
OMEGA_C_MHZ = 125.77
OMEGA_H_MHZ = 500.13
TAU_T = 43.0
TAU_R = 3.5
BATH_K = 300.0

TWO_PI = 2.0 * math.pi


def mhz(value: float) -> float:
    """MHz (omega/2pi) to rad/s."""
    return TWO_PI * 1e6 * value


def eps_thermal(omega: float, temperature: float = BATH_K) -> float:
    return math.tanh(HBAR * omega / (2.0 * KB * temperature))


def spin_temperature(eps: float, omega: float) -> float:
    return HBAR * omega / (2.0 * KB * math.atanh(eps))


def eps_after_rounds(eps_bath: float, n: int) -> float:
    """Closed form of the exact cooling map eps_k = eps_{k-1} (1 - eps_bath**2)/2 + eps_bath.

    Its fixed point is the three-qubit PPA limit ``2 eps_bath/(1 + eps_bath**2)``.
    """
    ratio = (1.0 - eps_bath**2) / 2.0
    limit = 2.0 * eps_bath / (1.0 + eps_bath**2)
    return limit - (limit - eps_bath) * ratio**n


def eps_by_recurrence(eps_bath: float, n: int) -> float:
    """The exact cooling map iterated ``n`` times from ``eps_bath``."""
    eps = eps_bath
    for _ in range(n):
        eps = eps * (1.0 - eps_bath**2) / 2.0 + eps_bath
    return eps


def four_stroke_closed_form(n: int, field_scale: float = 0.5) -> dict:
    """Scalar model of the four-stroke cycle (energies J/mol, power W/mol)."""
    omega_t = mhz(OMEGA_T_MHZ)
    omega_t_cold = field_scale * omega_t
    eps_hot = eps_thermal(omega_t)
    eps_bath = eps_thermal(field_scale * mhz(OMEGA_H_MHZ))
    eps_cold = eps_after_rounds(eps_bath, n)
    q_in = 0.5 * HBAR * omega_t * (eps_cold - eps_hot) * N_A
    q_out = 0.5 * HBAR * omega_t_cold * (eps_cold - eps_hot) * N_A
    work = q_in - q_out
    cycle_time = TAU_T + TAU_R * (2 * n + 1)
    return {
        "q_in": q_in,
        "q_out": q_out,
        "work": work,
        "power": work / cycle_time,
        "power_iso": work / (2.0 * TAU_T),
        "t_cold": spin_temperature(eps_cold, omega_t_cold),
        "eps_cold": eps_cold,
    }


def two_stroke_closed_form(omega_s_mhz: float, n: int) -> dict:
    """Scalar model of the two-stroke cycle."""
    omega_t = mhz(OMEGA_T_MHZ)
    omega_s = mhz(omega_s_mhz)
    eps_bath = eps_thermal(mhz(OMEGA_H_MHZ))
    eps_target = eps_after_rounds(eps_bath, n)
    eps_partner = eps_thermal(omega_s)
    q_in = 0.5 * HBAR * omega_s * (eps_target - eps_partner) * N_A
    q_out = 0.5 * HBAR * omega_t * (eps_target - eps_partner) * N_A
    work = q_in - q_out
    t_cold = spin_temperature(eps_target, omega_t)
    return {
        "q_in": q_in,
        "q_out": q_out,
        "work": work,
        "power": work / (TAU_R * (2 * n + 1)),
        "eta": 1.0 - omega_t / omega_s,
        "window": (omega_t, omega_t * BATH_K / t_cold),
        "t_cold": t_cold,
    }


# 50 digits of pi, for the decimal oracle
PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")


def coupled_marginal_polarization(omegas, j_hz: dict, slot: int, temperature: float = BATH_K) -> float:
    """Thermal polarization of one slot of an Iz-Iz coupled register, in 40-digit decimals.

    ``omegas`` in rad/s, one per slot (slot 0 = most significant bit);
    ``j_hz`` maps slot pairs ``(i, j)`` to J/2pi in Hz.  Every float input
    is converted exactly, and the Boltzmann sums are taken directly.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        hbar, kt = Decimal(HBAR), Decimal(KB) * Decimal(temperature)
        k = len(omegas)
        up = down = Decimal(0)
        for index in range(2**k):
            spins = [Decimal(1 if (index >> (k - 1 - i)) & 1 == 0 else -1) / 2 for i in range(k)]
            energy = -hbar * sum(Decimal(w) * s for w, s in zip(omegas, spins))
            energy += hbar * sum(2 * PI_50 * Decimal(j) * spins[a] * spins[b] for (a, b), j in j_hz.items())
            weight = (-energy / kt).exp()
            if spins[slot] > 0:
                up += weight
            else:
                down += weight
        return float((up - down) / (up + down))


def iz_hamiltonian(omegas, j_hz: dict) -> np.ndarray:
    """Dense ``-hbar sum_i w_i Iz_i + hbar sum_{i<j} 2pi J_ij Iz_i Iz_j`` by Kronecker products.

    ``omegas`` in rad/s, one per slot (slot 0 = most significant bit);
    ``j_hz`` maps slot pairs ``(i, j)`` to J/2pi in Hz.
    """
    k = len(omegas)
    iz = np.diag([0.5, -0.5])

    def iz_on(slot):
        out = np.eye(1)
        for i in range(k):
            out = np.kron(out, iz if i == slot else np.eye(2))
        return out

    h = -HBAR * sum(w * iz_on(i) for i, w in enumerate(omegas))
    for (i, j), coupling in j_hz.items():
        h = h + HBAR * TWO_PI * coupling * (iz_on(i) @ iz_on(j))
    return h


def gibbs_by_expm(hamiltonian: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal state via scipy's Pade matrix exponential."""
    rho = scipy.linalg.expm(-np.asarray(hamiltonian) / (KB * temperature))
    return rho / np.trace(rho)


def marginal_populations(rho: np.ndarray, position: int, n_qubits: int) -> np.ndarray:
    """Single-qubit populations by direct summation over basis indices."""
    populations = np.zeros(2)
    for idx in range(2**n_qubits):
        bit = (idx >> (n_qubits - 1 - position)) & 1
        populations[bit] += np.real(rho[idx, idx])
    return populations


def exact_propagation(
    hamiltonian: np.ndarray, rho0: np.ndarray, t: float, hbar: float
) -> np.ndarray:
    """Constant-Hamiltonian evolution by expm conjugation."""
    u = scipy.linalg.expm(-1j * np.asarray(hamiltonian) * t / hbar)
    return u @ rho0 @ u.conj().T


def ramp_phase(
    energy_start: float, energy_end: float, tau: float, hbar: float
) -> float:
    """Accumulated phase of one basis level over a sine field ramp, by quadrature."""

    def energy(t: float) -> float:
        s = math.sin(math.pi * t / tau)
        return (1.0 - s) * energy_start + s * energy_end

    value, _ = scipy.integrate.quad(energy, 0.0, tau / 2.0, epsrel=1e-12)
    return value / hbar


def comp_permutation_populations(populations: np.ndarray) -> np.ndarray:
    """Entropy-compression action on 3-qubit populations: swap |011> and |100>."""
    out = populations.copy()
    out[3], out[4] = populations[4], populations[3]
    return out
