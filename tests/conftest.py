import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dense import thermal_state
from spinotto import tce_system
from spinotto.config import from_config_text

pytest_plugins = ["pytester"]


def changed(value, **fields):
    """A copy of a ``SpinSystem`` or ``QubitSpec`` with ``fields`` replaced, built through its constructor."""
    return type(value)(**{**{name: getattr(value, name) for name in value.__match_args__}, **fields})


@pytest.fixture(scope="session")
def tce():
    return tce_system()


@pytest.fixture(scope="session")
def tce_thermal(tce):
    """Full-field register Gibbs state at the bath temperature."""
    return thermal_state(tce, 1.0)


@pytest.fixture(scope="session")
def tce_thermal_half(tce):
    """Half-field register Gibbs state at the bath temperature."""
    return thermal_state(tce, 0.5)


@pytest.fixture(scope="session")
def h_first_config_text():
    """The TCE INI text with its qubit sections ordered H, C1, C2."""
    from test_spinsys import TCE_CONFIG

    head, rest = TCE_CONFIG.split("[qubit.C1]", 1)
    carbons, rest = rest.split("[qubit.H]", 1)
    proton, couplings = rest.split("[j_coupling]", 1)
    return head + "[qubit.H]" + proton + "[qubit.C1]" + carbons + "[j_coupling]" + couplings


@pytest.fixture(scope="session")
def tce_h_first(h_first_config_text):
    """The TCE system with its register ordered H, C1, C2."""
    system = from_config_text(h_first_config_text)
    assert system.labels == ("H", "C1", "C2")
    return system
