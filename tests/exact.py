"""Gibbs marginals summed over every level in 80-digit decimals: the reference the package's are measured against.

The package's float inputs and constants are taken as exact: each
qubit's Larmor frequency in rad/s as ``SpinSystem.omega`` returns it,
each coupling as the float ``TWO_PI * J``, the bath temperature, and
``HBAR`` and ``K_BOLTZMANN`` as the package holds them.  From those the
register's 2^k level energies and their Boltzmann weights are taken in
80 digits, so what a package marginal differs from ``marginal`` by is
its own rounding, and ``ulps`` says how far that is in units of the last
place of the float nearest ``marginal``.
"""

import itertools
import math
from decimal import Decimal, localcontext

from spinotto.spinsys import HBAR, K_BOLTZMANN, TWO_PI

DIGITS = 80


def marginal(sys, label: str, field_scale: float = 1.0) -> Decimal:
    """Polarization ``P_up - P_down`` of ``label`` in the register's Gibbs state at the bath temperature."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        labels = sys.labels
        slot = labels.index(label)
        omegas = [Decimal(sys.omega(q, field_scale)) for q in labels]
        pairs = [
            (i, j, Decimal(TWO_PI * sys.j_coupling(labels[i], labels[j])))
            for i, j in itertools.combinations(range(len(labels)), 2)
        ]
        hbar, kt = Decimal(HBAR), Decimal(K_BOLTZMANN) * Decimal(sys.bath_temperature)
        half = Decimal(1) / 2
        levels = []
        for spins in itertools.product((half, -half), repeat=len(labels)):
            energy = -hbar * sum(w * s for w, s in zip(omegas, spins))
            energy += hbar * sum(jw * spins[i] * spins[j] for i, j, jw in pairs)
            levels.append((spins[slot], energy))
        # weights relative to the ground level, so that no exponent leaves the decimal range
        ground = min(energy for _, energy in levels)
        up = down = Decimal(0)
        for spin, energy in levels:
            weight = (-(energy - ground) / kt).exp()
            if spin > 0:
                up += weight
            else:
                down += weight
        return (up - down) / (up + down)


def ulps(value: float, exact: Decimal) -> float:
    """Signed distance of ``value`` from ``exact`` in units of the last place of the float nearest ``exact``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float((Decimal(value) - exact) / Decimal(math.ulp(float(exact))))
