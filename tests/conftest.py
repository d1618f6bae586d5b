import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spinotto import tce_system, thermal_state


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
