"""The INI reader: a spin-system definition from INI text or an INI file.

``load_system`` imports this module only for a source that is not a
preset, so a preset run loads neither it nor ``configparser``.
"""

import configparser
import math
import re
from pathlib import Path

from .spinsys import ConfigError, QubitSpec, Role, SpinSystem, _positive_finite

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
    """Read a spin-system definition from an INI file (UTF-8, with or without a BOM)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config not found: {path}")
    try:
        # a BOM that an editor saved ahead of "[system]" is not part of the text
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return from_config_text(text, origin=str(path))
