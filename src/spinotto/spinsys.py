"""NMR spin-system definition, level energies, and thermal polarizations.

A ``SpinSystem`` is an ordered register of spin-1/2 nuclei in a static
field ``B_z`` with weak scalar (Iz-Iz) couplings, in contact with a heat
bath.  Conventions: ``|0> = spin-up = lower energy`` (``H = -hbar w Iz``
with ``Iz|0> = +1/2|0>``), so thermal polarizations are positive.

Every Hamiltonian here is a sum of Zeeman and Iz-Iz terms, diagonal in
the computational basis at any field, so it is stored as its real level
energies, one per basis state, and never as a matrix.  Every state the
package forms is diagonal too, so a qubit's state is its polarization
``P_up - P_down`` and the register's Gibbs state enters only through
its marginals (``thermal_marginal_polarization``).

Systems can be built in code, from the built-in ``tce`` preset, or from
an INI-style configuration file (see ``from_config_file``).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
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


class Role(str, Enum):
    TARGET = "target"
    COMPRESSION = "compression"
    RESET = "reset"


@dataclass(frozen=True)
class QubitSpec:
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
    omega_over_2pi: float | None = None  # MHz at field_scale 1

    def __post_init__(self):
        if not _positive_finite(self.gamma_over_2pi):
            raise ConfigError(f"qubit {self.label}: gamma must be positive and finite")
        if not _positive_finite(self.t1):
            raise ConfigError(f"qubit {self.label}: t1 must be positive and finite")
        if self.omega_over_2pi is not None and not _positive_finite(self.omega_over_2pi):
            raise ConfigError(f"qubit {self.label}: omega must be positive and finite")


@dataclass(frozen=True)
class SpinSystem:
    """Ordered qubit register + pairwise couplings + field + bath.

    ``j_over_2pi`` maps unordered label pairs to coupling strengths in Hz;
    it is symmetrized and checked for self-couplings on construction.
    """

    qubits: tuple[QubitSpec, ...]
    j_over_2pi: dict[tuple[str, str], float]  # Hz per unordered pair
    b_field: float  # tesla
    bath_temperature: float  # kelvin

    def __post_init__(self):
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
                # register_levels takes 2 pi J in rad/s
                raise ConfigError(f"coupling {a}-{b}: J {j:g} Hz is not finite in rad/s")
        object.__setattr__(self, "j_over_2pi", canonical)
        object.__setattr__(self, "qubits", tuple(self.qubits))
        for label in labels:
            self.omega(label)
        # role -> label, resolved once; None when the roles are not one per role
        roles = [q.role for q in self.qubits]
        object.__setattr__(self, "_role_labels", dict(zip(roles, labels)) if sorted(roles) == sorted(Role) else None)

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
# Level energies
# ---------------------------------------------------------------------------


def register_levels(sys: SpinSystem, field_scale: float = 1.0) -> np.ndarray:
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
    of the bare line.  Basis states that differ only in ``label``'s bit
    form a pair with mean energy ``m`` and half-splitting ``d = (E_1 -
    E_0)/2``, both in units of kT.  A pair holds ``2 e^(-m) cosh d`` of
    the partition sum and has polarization ``tanh d``, so the marginal is
    the ``tanh d`` of the pairs averaged with the weights ``e^(-m) cosh
    d``.  The weights are taken in log space, so no splitting overflows
    them, and no polarization is a difference of two populations near 1/2.
    """
    sys.qubit(label)  # a KeyError that names the register for a label not in it
    k, axis = len(sys.labels), sys.labels.index(label)  # ordered as np.moveaxis orders, without its checks
    lower, upper = register_levels(sys, field_scale).reshape((2,) * k).transpose(axis, *range(axis), *range(axis + 1, k))
    kt = K_BOLTZMANN * sys.bath_temperature
    half_splitting = (upper - lower) / (2.0 * kt)
    # log of e^(-m) cosh d, less log 2
    log_weights = np.logaddexp(half_splitting, -half_splitting) - (lower + upper) / (2.0 * kt)
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


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

_CONFIG_DOC = """\
INI schema (see README for a complete example):

[system]
temperature_kelvin = 300.0
b_field_tesla = 11.774       # or: reference_qubit = H / reference_omega_mhz = 500.13

[qubit.<LABEL>]              # one section per qubit, register order = file order
role = target                # target | compression | reset
gamma_mhz_per_tesla = 10.7084
t1_seconds = 43.0
omega_mhz = 125.77           # optional explicit Larmor frequency at full field

[j_coupling]                 # optional; keys are unordered label pairs
C1-C2 = 103.0                # Hz
"""

# the keys of [system] and of each [qubit.<LABEL>]; those of [j_coupling] are label pairs
_SECTION_KEYS = {"system": {"temperature_kelvin", "b_field_tesla", "reference_qubit", "reference_omega_mhz"},
                 "qubit": {"role", "gamma_mhz_per_tesla", "t1_seconds", "omega_mhz"}}


def from_config_text(text: str, origin: str = "<config>") -> SpinSystem:
    """Parse a spin-system definition from INI-formatted text."""
    import configparser  # only INI files need it, not the presets

    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keep label case
    # a header is the whole line less whitespace and an inline comment; configparser's pattern matches a prefix
    parser.SECTCRE = re.compile(r"\[(?P<header>.+)\]\Z")
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    if "system" not in parser:
        raise ConfigError(f"{origin}: missing [system] section\n{_CONFIG_DOC}")
    for name in parser.sections():
        # a misspelt section or key would otherwise be ignored; an empty section holds nothing to lose
        unknown = set(parser[name]) - _SECTION_KEYS.get("qubit" if name.startswith("qubit.") else name, set())
        if unknown and name != "j_coupling":
            raise ConfigError(f"{origin}: [{name}]: unknown keys {sorted(unknown)}\n{_CONFIG_DOC}")
    system = parser["system"]

    def _positive(section, key: str, where: str) -> float:
        try:
            value = float(section[key])
        except KeyError:
            raise ConfigError(f"{origin}: {where} is missing {key}") from None
        except ValueError:
            raise ConfigError(f"{origin}: {where}: {key} is not a number") from None
        if not _positive_finite(value):
            raise ConfigError(f"{origin}: {where}: {key} must be positive and finite")
        return value

    temperature = _positive(system, "temperature_kelvin", "[system]")

    qubit_sections = [s for s in parser.sections() if s.startswith("qubit.")]
    if not qubit_sections:
        raise ConfigError(f"{origin}: no [qubit.<LABEL>] sections\n{_CONFIG_DOC}")
    qubits = []
    for section_name in qubit_sections:
        label = section_name.split(".", 1)[1]
        if not label.strip():
            raise ConfigError(f"{origin}: [{section_name}]: empty qubit label")
        if label != label.strip():
            # configparser strips [j_coupling] keys, so no key could name such a label
            raise ConfigError(f"{origin}: [{section_name}]: qubit label {label!r} has leading or trailing whitespace")
        section = parser[section_name]
        role_text = section.get("role", "")
        try:
            role = Role(role_text)
        except ValueError:
            raise ConfigError(
                f"{origin}: [{section_name}]: role must be one of "
                f"{[r.value for r in Role]}, got {role_text!r}"
            ) from None
        omega_mhz = None
        if "omega_mhz" in section:
            omega_mhz = _positive(section, "omega_mhz", f"[{section_name}]")
        qubits.append(
            QubitSpec(
                label=label,
                role=role,
                gamma_over_2pi=_positive(section, "gamma_mhz_per_tesla", f"[{section_name}]"),
                t1=_positive(section, "t1_seconds", f"[{section_name}]"),
                omega_over_2pi=omega_mhz,
            )
        )

    labels = [q.label for q in qubits]
    if "b_field_tesla" in system:
        b_field = _positive(system, "b_field_tesla", "[system]")
    elif "reference_qubit" in system:
        ref = system["reference_qubit"].strip()
        if ref not in labels:
            raise ConfigError(f"{origin}: reference_qubit {ref!r} is not a defined qubit")
        ref_omega = _positive(system, "reference_omega_mhz", "[system]")
        ref_gamma = next(q.gamma_over_2pi for q in qubits if q.label == ref)
        b_field = ref_omega / ref_gamma
    else:
        raise ConfigError(
            f"{origin}: [system] needs b_field_tesla or "
            f"reference_qubit + reference_omega_mhz"
        )

    couplings: dict[tuple[str, str], float] = {}
    if "j_coupling" in parser:
        for key, value in parser["j_coupling"].items():
            # a label may hold "-" too: a key splits at the one "-" that leaves two defined labels
            pairs = [(key[:i], key[i + 1 :]) for i, c in enumerate(key) if c == "-" and {key[:i], key[i + 1 :]} <= set(labels)]
            if len(pairs) != 1:
                why = f"ambiguous: {len(pairs)} of its '-' split it into defined labels" if pairs else "not LABEL-LABEL: unknown label or no '-'"
                raise ConfigError(f"{origin}: [j_coupling] key {key!r} is {why}")
            try:
                j = float(value)
            except ValueError:
                raise ConfigError(f"{origin}: [j_coupling] {key}: not a number") from None
            if not math.isfinite(j):
                raise ConfigError(f"{origin}: [j_coupling] {key}: must be finite")
            couplings[pairs[0]] = j

    try:
        return SpinSystem(
            qubits=tuple(qubits),
            j_over_2pi=couplings,
            b_field=b_field,
            bath_temperature=temperature,
        )
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def from_config_file(path: str | Path) -> SpinSystem:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return from_config_text(text, origin=str(path))


def load_system(source: str | Path) -> SpinSystem:
    """Resolve a preset name (e.g. ``tce``) or a config-file path."""
    name = str(source)
    if name in PRESETS:
        return PRESETS[name]()
    return from_config_file(source)
