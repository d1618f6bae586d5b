"""NMR spin-system definition and thermal polarizations.

A ``SpinSystem`` is an ordered register of spin-1/2 nuclei in a static
field ``B_z`` with weak scalar (Iz-Iz) couplings, in contact with a heat
bath.  Conventions: ``|0> = spin-up = lower energy`` (``H = -hbar w Iz``
with ``Iz|0> = +1/2|0>``), so thermal polarizations are positive.

Every Hamiltonian here is a sum of Zeeman and Iz-Iz terms, diagonal in
the computational basis at any field, and every state the package forms
is diagonal too, so a qubit's state is its polarization ``P_up - P_down``.
The register's Gibbs state enters only through its marginals
(``thermal_marginal_polarization``), each taken from the qubit's own
splitting, shifted by its couplings, and never from whole-register
level energies.

Systems can be built in code, from the built-in ``tce`` preset, or from
an INI-style configuration file (see ``config.from_config_file``).
"""

import itertools
import math
from enum import Enum
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """A system definition (preset name, file, or values) is invalid."""


class StateInvariantError(ValueError):
    """A computed state or cycle broke a physical invariant (a polarization outside (0, 1), the first law)."""


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


def mhz_to_rad_s(mhz):
    """Angular frequency (rad/s) of a frequency omega/2pi in MHz; arrays map elementwise."""
    return (TWO_PI * 1e6) * mhz


def rad_s_to_mhz(omega):
    """Frequency omega/2pi in MHz of an angular frequency in rad/s; arrays map elementwise."""
    return omega / TWO_PI / 1e6


# CODATA-2018 values.  ``HBAR`` is derived from the exact SI Planck
# constant rather than written as a truncated decimal.
HBAR = 6.626_070_15e-34 / (2.0 * math.pi)  # J*s
K_BOLTZMANN = 1.380_649e-23  # J/K
AVOGADRO = 6.022_140_76e23  # 1/mol


class _Record:
    """An immutable record: the fields ``__match_args__`` names, set once by ``__init__``.

    Assigning or deleting an attribute raises ``AttributeError``.  Records
    of one class compare and hash by their fields in order, and ``repr``
    lists the fields, as a frozen dataclass's do; a changed copy is built
    with the constructor.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Role(str, Enum):
    TARGET = "target"
    COMPRESSION = "compression"
    RESET = "reset"


class QubitSpec(_Record):
    """One nuclear spin.

    ``omega_over_2pi`` optionally pins the Larmor frequency (MHz) at the
    reference field; when unset it is derived as ``gamma * B_z``.  The
    explicit value wins because tabulated spectrometer frequencies include
    chemical shielding that the bare gyromagnetic ratio does not.
    """

    label: str
    role: Role
    gamma_over_2pi: float  # MHz/T
    t1: float  # seconds
    omega_over_2pi: float | None  # MHz at field_scale 1

    __match_args__ = ("label", "role", "gamma_over_2pi", "t1", "omega_over_2pi")

    def __init__(self, label, role, gamma_over_2pi, t1, omega_over_2pi=None):
        self.__dict__.update(label=label, role=role, gamma_over_2pi=gamma_over_2pi, t1=t1, omega_over_2pi=omega_over_2pi)
        if not _positive_finite(self.gamma_over_2pi):
            raise ConfigError(f"qubit {self.label}: gamma must be positive and finite")
        if not _positive_finite(self.t1):
            raise ConfigError(f"qubit {self.label}: t1 must be positive and finite")
        if self.omega_over_2pi is not None and not _positive_finite(self.omega_over_2pi):
            raise ConfigError(f"qubit {self.label}: omega must be positive and finite")


class SpinSystem(_Record):
    """Ordered qubit register + pairwise couplings + field + bath.

    ``j_over_2pi`` maps unordered label pairs to coupling strengths in Hz;
    it is symmetrized and checked for self-couplings on construction.
    """

    qubits: tuple[QubitSpec, ...]
    j_over_2pi: dict[tuple[str, str], float]  # Hz per unordered pair
    b_field: float  # tesla
    bath_temperature: float  # kelvin

    __match_args__ = ("qubits", "j_over_2pi", "b_field", "bath_temperature")

    def __init__(self, qubits, j_over_2pi, b_field, bath_temperature):
        fields = self.__dict__
        # a tuple first, so that a one-shot iterable of qubits is read once
        fields.update(qubits=tuple(qubits), j_over_2pi=j_over_2pi, b_field=b_field, bath_temperature=bath_temperature)
        labels = [q.label for q in self.qubits]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate qubit labels: {labels}")
        if not _positive_finite(self.b_field):
            raise ConfigError("b_field must be positive and finite")
        if not _positive_finite(self.bath_temperature):
            raise ConfigError("bath_temperature must be positive and finite")
        canonical: dict[tuple[str, str], float] = {}
        for (a, b), j in self.j_over_2pi.items():
            if a == b:
                raise ConfigError(f"self-coupling on {a}")
            if a not in labels or b not in labels:
                raise ConfigError(f"coupling {a}-{b} names unknown qubits")
            key = (a, b) if a < b else (b, a)
            if key in canonical and canonical[key] != j:
                raise ConfigError(f"conflicting J values for pair {key}")
            canonical[key] = j = float(j)
            if not math.isfinite(TWO_PI * j):
                # thermal_marginal_polarization takes 2 pi J in rad/s
                raise ConfigError(f"coupling {a}-{b}: J {j:g} Hz is not finite in rad/s")
        fields["j_over_2pi"] = canonical
        for label in labels:
            self.omega(label)
        # role -> label, resolved once; None when the roles are not one per role
        roles = [q.role for q in self.qubits]
        fields["_role_labels"] = dict(zip(roles, labels)) if sorted(roles) == sorted(Role) else None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(q.label for q in self.qubits)

    def qubit(self, label: str) -> QubitSpec:
        for q in self.qubits:
            if q.label == label:
                return q
        raise KeyError(f"unknown qubit label {label!r}; register is {self.labels}")

    def omega_mhz(self, label: str) -> float:
        """Larmor frequency omega/2pi in MHz at full field: the pinned value, else gamma times B."""
        q = self.qubit(label)
        return q.omega_over_2pi if q.omega_over_2pi is not None else q.gamma_over_2pi * self.b_field

    def omega(self, label: str, field_scale: float = 1.0) -> float:
        """Larmor angular frequency in rad/s at the scaled field; a ``ConfigError`` if it is not finite."""
        mhz = self.omega_mhz(label)
        omega = mhz_to_rad_s(mhz) * field_scale
        if not math.isfinite(omega):
            if not math.isfinite(field_scale):
                raise ConfigError(f"qubit {label}: field scale {field_scale:g} is not finite")
            raise ConfigError(
                f"qubit {label}: Larmor frequency {mhz:g} MHz at field scale {field_scale:g} overflows in rad/s"
            )
        return omega

    def j_coupling(self, a: str, b: str) -> float:
        """Scalar coupling J/2pi in Hz for the unordered pair, 0 if absent."""
        self.qubit(a)
        self.qubit(b)
        key = (a, b) if a < b else (b, a)
        return self.j_over_2pi.get(key, 0.0)

    def label_for_role(self, role: Role) -> str:
        """Label of the qubit with ``role``; the register must hold one qubit per role."""
        if self._role_labels is None:
            raise ConfigError(
                f"register {self.labels} has roles {[q.role.value for q in self.qubits]}; cooling "
                f"needs exactly one target, one compression and one reset qubit"
            )
        return self._role_labels[role]


def tce_system() -> SpinSystem:
    """Built-in 3-qubit TCE (trichloroethylene) register at 300 K.

    Two slow-relaxing carbons serve as target and compression qubits; the
    fast-relaxing proton is the reset qubit.  The static field corresponds
    to a 500 MHz spectrometer (derived from the proton frequency).
    """
    gamma_h = 42.477  # MHz/T
    omega_h = 500.13  # MHz
    return SpinSystem(
        qubits=(
            QubitSpec("C1", Role.TARGET, gamma_over_2pi=10.7084, t1=43.0, omega_over_2pi=125.77),
            QubitSpec("C2", Role.COMPRESSION, gamma_over_2pi=10.7084, t1=20.0, omega_over_2pi=125.77),
            QubitSpec("H", Role.RESET, gamma_over_2pi=gamma_h, t1=3.5, omega_over_2pi=omega_h),
        ),
        j_over_2pi={("C1", "C2"): 103.0, ("C1", "H"): 9.0, ("C2", "H"): 200.8},
        b_field=omega_h / gamma_h,
        bath_temperature=300.0,
    )


PRESETS = {"tce": tce_system}


# ---------------------------------------------------------------------------
# Thermal polarizations / spin temperature
# ---------------------------------------------------------------------------


def thermal_polarization(omega, temperature):
    """Equilibrium polarization ``tanh(hbar*omega / 2 k_B T)``; arrays broadcast."""
    # where 2 k_B T underflows to 0, np.divide gives inf (and tanh 1) where Python's / raises
    return np.tanh(np.divide(HBAR * omega, 2.0 * K_BOLTZMANN * temperature))


def thermal_marginal_polarization(sys: SpinSystem, label: str, field_scale: float = 1.0) -> float:
    """Polarization of one qubit of the register's Gibbs state at the bath temperature.

    The J couplings make the marginal differ from ``thermal_polarization``
    of the bare line.  For each configuration ``s`` of the other qubits,
    the two basis states that differ only in ``label``'s bit form a pair
    with half-splitting ``d = hbar (w - sum_j 2pi J_j s_j) / 2kT``, the
    qubit's own line shifted by its couplings, and mean energy ``m``, the
    other qubits' Zeeman and coupling energy over kT.  A pair holds ``2
    e^(-m) cosh d`` of the partition sum and has polarization ``tanh d``,
    so the marginal is the ``tanh d`` of the pairs averaged with the
    weights ``e^(-m) cosh d``.  No splitting is a difference of two
    register energies, which would round a line far below the others
    away; the weights are taken in log space, so no splitting overflows
    them, and no polarization is a difference of two populations near 1/2.
    """
    sys.qubit(label)  # a KeyError that names the register for a label not in it
    labels = sys.labels
    k, slot = len(labels), labels.index(label)
    omegas = [sys.omega(q, field_scale) for q in labels]
    pairs = [(i, j, TWO_PI * j_hz) for i, j in itertools.combinations(range(k), 2)
             if (j_hz := sys.j_coupling(labels[i], labels[j])) != 0.0]
    splittings, energies = [], []
    # the other qubits' configurations, the first qubit's Iz turning slowest, with the qubit's own Iz
    # at 0.0, so its terms add +-0.0; each sum adds its terms to 0 left to right, uncompensated
    for spins in itertools.product((0.5, -0.5), repeat=k - 1):
        sz = (*spins[:slot], 0.0, *spins[slot:])
        shift = zeeman = coupling = 0
        for w, s in zip(omegas, sz):
            zeeman += w * s
        for i, j, jw in pairs:
            if slot in (i, j):
                shift += jw * (sz[i] + sz[j])  # 2 pi J times the partner's Iz
            else:
                coupling += jw * sz[i] * sz[j]
        splittings.append(omegas[slot] - shift)
        energies.append(-HBAR * zeeman + HBAR * coupling)
    kt = K_BOLTZMANN * sys.bath_temperature
    # where k_B T underflows to 0, np.divide gives inf (and nan) where Python's / raises
    half_splitting = np.divide(HBAR * np.array(splittings), 2.0 * kt)
    # log of e^(-m) cosh d, less log 2
    log_weights = np.logaddexp(half_splitting, -half_splitting) - np.divide(energies, kt)
    weights = np.exp(log_weights - log_weights.max())
    return float((weights * np.tanh(half_splitting)).sum() / weights.sum())


def effective_temperature(epsilon, omega: float):
    """Spin temperature whose thermal polarization at ``omega`` is ``epsilon``; arrays map elementwise.

    Exact inverse of :func:`thermal_polarization`.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    outside = ~((0.0 < epsilon) & (epsilon < 1.0))
    if outside.any():
        raise ValueError(f"polarization {epsilon[outside].flat[0]} outside (0, 1)")
    if not _positive_finite(omega):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return _effective_temperature(epsilon, omega)


def _effective_temperature(epsilon: np.ndarray, omega: float) -> np.ndarray:
    """:func:`effective_temperature` of polarizations the caller has checked to lie in (0, 1)."""
    return HBAR * omega / (2.0 * K_BOLTZMANN * np.arctanh(epsilon))


def load_system(source: str | Path) -> SpinSystem:
    """Resolve a preset name (e.g. ``tce``) or a config-file path; a ``Path`` is always a file."""
    if isinstance(source, str) and source in PRESETS:
        return PRESETS[source]()
    from .config import from_config_file  # only INI files need the reader, not the presets

    return from_config_file(source)
