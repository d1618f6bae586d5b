"""Otto-cycle sweeps: four-stroke, isochoric reference, two-stroke.

All engines share one heat bath.  The four-stroke cycle is
isochoric heating -> field compression -> algorithmic cooling -> field
expansion; the reference engine swaps the cooling stage for contact with
a cold bath; the two-stroke engine heats a partner qubit and cools the
target in parallel, then exchanges them with a single SWAP.

Every state is diagonal, so the engines form no state: only the
target's polarization enters a cycle.  A field ramp drives only Iz
terms, so it freezes every population, and a stroke is the statement
that the target keeps its polarization while its levels move: at
frequency ``omega`` its energy is ``-(hbar omega / 2) eps``.  Each
engine is therefore one Otto cycle between two frequencies across which
the target's polarization swings by some gain, and one kernel,
``_otto``, turns those into the heat, work, efficiency and power
columns, per mole.  The isochoric reference is cooled to the effective
temperature the cooling run reached, so it swings by the same gain and
does the same work; only its cycle time differs.  The cooled target
comes from the closed-form cooling run, the hot target from the
J-coupled register's Gibbs marginal and the two-stroke's bath partner
from ``tanh``; none is a difference of two populations near 1/2.
Cycle times count only the relaxation stages: gate applications and
field ramps are treated as fast.  The sweeps are the only entry points;
one cycle is a one-point sweep.
"""

import operator
from collections.abc import Iterable, Sequence

import numpy as np

# spinotto.engines exports the sweeps' table type and its error too
from .hbac import NonFiniteCell, SweepTable, run_ppa
from .spinsys import (
    AVOGADRO,
    HBAR,
    ConfigError,
    Role,
    SpinSystem,
    StateInvariantError,
    _positive_finite,
    thermal_marginal_polarization,
    thermal_polarization,
)

FOUR_STROKE_HBAC = "four_stroke_hbac"
TWO_STROKE_HBAC = "two_stroke_hbac"

# The compressed field is half the reference field throughout.
COMPRESSED_FIELD_SCALE = 0.5

_CLOSURE_RTOL = 1e-9

_HALF_HBAR_MOLAR = HBAR / 2.0 * AVOGADRO


def _check_energetics(table: SweepTable) -> SweepTable:
    """``table`` once its first-law closure and efficiency range hold, broadcast; ``w1``/``w2`` are optional."""
    columns = table.columns
    q_in, q_out, net_work, efficiency = (columns[name] for name in ("q_in", "q_out", "net_work", "efficiency"))
    w1, w2 = columns.get("w1"), columns.get("w2")
    # scale for the relative closure checks; the stroke works enter
    # because w1 and w2 can cancel almost exactly.  Each full-size buffer is made once
    terms = [x for x in (q_in, q_out, net_work, w1, w2) if x is not None]
    scale = np.abs(terms[0], out=np.empty(np.broadcast(*terms).shape))
    residual, bad = np.empty_like(scale), np.empty(scale.shape, bool)
    for x in terms[1:]:
        np.maximum(scale, np.abs(x, out=residual), out=scale)
    tolerance = np.multiply(_CLOSURE_RTOL, scale, out=scale)
    # every cell is finite (SweepTable checked), so where the scale is 0 each term is +-0 and
    # the residual exactly 0, never above the tolerance: the comparison needs no mask
    for text, op, a, b in (("q_in - q_out", np.subtract, q_in, q_out), ("w1 + w2", np.add, w1, w2)):
        if a is not None and b is not None:
            np.abs(np.subtract(net_work, op(a, b, out=residual), out=residual), out=residual)
            if np.greater(residual, tolerance, out=bad).any():
                raise StateInvariantError(f"first-law violation: net_work != {text}")
    # only meaningfully positive work constrains the efficiency; at the
    # degenerate frequency boundary net_work is a round-off residue
    np.logical_and(np.greater(net_work, tolerance, out=bad), ~((0.0 < efficiency) & (efficiency < 1.0)), out=bad)
    if bad.any():
        value = np.broadcast_to(efficiency, bad.shape)[bad][0]
        raise StateInvariantError(f"efficiency {value} outside (0, 1) at positive work")
    return table


def _otto(omega_in, omega_out, gain, cycle_time) -> dict[str, np.ndarray]:
    """Columns of Otto cycles whose target polarization swings by ``gain``, each at its broadcast shape.

    The working qubit takes ``(hbar omega_in / 2) gain`` per mole from
    the hot side and gives ``(hbar omega_out / 2) gain`` back to the cold
    side, both reported as positive magnitudes, so the work is their
    difference and the efficiency ``1 - omega_out / omega_in``.
    """
    q_in = _HALF_HBAR_MOLAR * omega_in * gain
    q_out = _HALF_HBAR_MOLAR * omega_out * gain
    net = q_in - q_out
    return {
        "q_in": q_in,
        "q_out": q_out,
        "net_work": net,
        "efficiency": 1.0 - omega_out / omega_in,
        "power": net / cycle_time,
        "cycle_time": cycle_time,
    }


def positive_work_window(
    omega_t: float, bath_t: float, cooled_t: float
) -> tuple[float, float] | None:
    """Partner-frequency interval (rad/s) where the two-stroke cycle gains work.

    It is None when the target is not below the bath temperature.
    """
    if not (_positive_finite(cooled_t) and _positive_finite(bath_t)):
        raise ValueError(f"temperatures must be positive and finite, got bath {bath_t} and cooled {cooled_t}")
    if not _positive_finite(omega_t):
        raise ValueError(f"omega_t must be positive and finite, got {omega_t}")
    edge = window_upper_edges(omega_t, bath_t, np.float64(cooled_t)).item()
    return None if edge < 0 else (omega_t, edge)


@np.errstate(over="ignore")  # an edge past the float range is inf, as the scalar formula gives
def window_upper_edges(omega_t: float, bath_t: float, cooled: np.ndarray) -> np.ndarray:
    """Upper edge (rad/s) of ``positive_work_window`` at each cooled target temperature in ``cooled``.

    The edge is ``omega_t * bath_t / cooled``; it is -1, which no edge is, where the target is not below the bath.
    """
    return np.where(cooled < bath_t, omega_t * bath_t / cooled, -1.0)


def _round_count(n) -> int:
    """``n`` as an int, if it is one: np.fromiter would truncate 2.5 to 2."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"n_rounds must be integers, got {n!r}") from None


def _cooled_target(sys: SpinSystem, field_scale: float, n_values: Iterable[int]):
    """One cooling run at ``field_scale`` to the deepest of the round counts ``n_values``.

    Returns the round counts as an array, the target's Gibbs polarization at full field (the run's
    input) and the target's polarization and effective temperature after each count.
    """
    if isinstance(n_values, range):
        # np.fromiter walks a range item by item; np.arange builds the same ints at once
        n_rounds = np.arange(n_values.start, n_values.stop, n_values.step)
    else:
        n_rounds = np.fromiter(map(_round_count, n_values), np.intp)
    if not n_rounds.size:
        raise ValueError("empty round-count grid")
    if n_rounds.min() < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds.min()}")
    eps_hot = thermal_marginal_polarization(sys, sys.label_for_role(Role.TARGET), 1.0)
    run = run_ppa(eps_hot, sys, field_scale, int(n_rounds.max())).columns
    return n_rounds, eps_hot, run["eps_target"][n_rounds], run["T_eff"][n_rounds]


@np.errstate(all="ignore")  # an overflow shows as a non-finite column, which SweepTable rejects
def sweep_four_stroke(sys: SpinSystem, n_values: Iterable[int]) -> SweepTable:
    """Four-stroke cycles for each round count, with the power of isochoric references.

    The target heats at full field, the compression stroke halves the field,
    the target cools, by ``n`` PPA rounds or, in the reference, in a cold
    bath, and the expansion stroke restores the field.  The ramps keep
    the polarization, so the compressed target is still at the hot
    polarization: it is the cooling run's input.  The stroke works are
    ``w1`` and ``w2``.  Every reference cycle is cooled to the matching
    cycle's effective temperature, so the pair does the same work and
    differs only in timing: ``tau_T + tau_R (2n + 1)`` against
    ``2 tau_T``.  The reference enters the table as its power alone,
    ``power_isochoric``.  One cooling run to the largest round count
    serves every row.  A round whose target ends above the bath
    temperature has no cold bath for its reference, which is a
    ``ConfigError``.
    """
    n_rounds, eps_hot, eps_cold, cold = _cooled_target(sys, COMPRESSED_FIELD_SCALE, n_values)
    target = sys.label_for_role(Role.TARGET)
    t1_target = sys.qubit(target).t1
    omega0, omega1 = sys.omega(target, 1.0), sys.omega(target, COMPRESSED_FIELD_SCALE)
    if (above := cold > sys.bath_temperature).any():
        i = int(np.argmax(above))
        raise ConfigError(
            f"round {n_rounds[i]}: cooling leaves the target at {cold[i]:.6g} K, above the "
            f"bath temperature {sys.bath_temperature:g} K, so the isochoric reference "
            f"has no cold bath"
        )
    t1_reset = sys.qubit(sys.label_for_role(Role.RESET)).t1
    cycles = _otto(omega0, omega1, eps_cold - eps_hot, t1_target + t1_reset * (2 * n_rounds + 1))
    # every column spans the round-count axis, the two constants too
    columns = {
        "w1": np.broadcast_to(_HALF_HBAR_MOLAR * (omega1 - omega0) * eps_hot, n_rounds.shape),
        "w2": _HALF_HBAR_MOLAR * (omega0 - omega1) * eps_cold,
        **cycles,
        "efficiency": np.broadcast_to(cycles["efficiency"], n_rounds.shape),
        "cooled_target_temperature": cold,
        "n_rounds": n_rounds,
        "power_isochoric": cycles["net_work"] / (2.0 * t1_target),
    }
    columns["iso_dominates"] = columns["power_isochoric"] > columns["power"]
    return _check_energetics(SweepTable(("n_rounds",), FOUR_STROKE_HBAC, columns))


@np.errstate(all="ignore")  # an overflow shows as a non-finite column, which SweepTable rejects
def sweep_two_stroke(sys: SpinSystem, omega_s_grid: Sequence[float], n_values: Iterable[int]) -> SweepTable:
    """Two-stroke cycles over a partner-frequency grid (rad/s) per round count.

    Rows are ordered round-count-major, frequency-minor.  Cooling runs at
    full field (there is no compression stroke), and one cooling run to
    the largest round count serves every row: its row ``n`` is the
    ``n``-round cooled target, which does not depend on the partner.
    The bath-equilibrated partner and the cooled target are diagonal
    qubits, so the SWAP only exchanges their polarizations: the partner
    absorbs ``(hbar omega_S / 2)`` times the difference, and the target
    gives back ``(hbar omega_T / 2)`` times it.  The sweep is one array
    pass over (round count, frequency): ``omega_s`` and the efficiency
    have one value per frequency, shape ``(G,)``; the round count, cycle
    time and cooled temperature one per round count, shape ``(R, 1)``;
    the heats, work, power and ``in_window`` shape ``(R, G)``.
    ``in_window`` is the sign of the work, ``net_work > 0``: it marks the
    partners inside ``positive_work_window``, and a partner outside it is
    not an error.
    """
    grid = np.array(omega_s_grid, dtype=float)
    if not grid.size:
        raise ValueError("empty sweep grid")
    if not grid.min() > 0:
        raise ValueError(f"omega_s must be positive, got {grid.min()}")
    n_rounds, _, eps_cooled, cooled = _cooled_target(sys, 1.0, n_values)
    omega_t = sys.omega(sys.label_for_role(Role.TARGET), 1.0)
    n_rounds = n_rounds[:, None]

    # one row per round count, broadcast against the grid axis
    gain = eps_cooled[:, None] - thermal_polarization(grid, sys.bath_temperature)
    cycle_time = sys.qubit(sys.label_for_role(Role.RESET)).t1 * (2 * n_rounds + 1)
    columns = {
        "n_rounds": n_rounds,
        **_otto(grid, omega_t, gain, cycle_time),
        "cooled_target_temperature": cooled[:, None],
        "omega_s": grid,
    }
    columns["in_window"] = columns["net_work"] > 0
    return _check_energetics(SweepTable(("n_rounds", "omega_s"), TWO_STROKE_HBAC, columns))


def isochoric_crossover(table: SweepTable) -> int | None:
    """First round count where the reference engine out-powers cooling."""
    if "iso_dominates" not in table.columns:
        raise ValueError("table carries no isochoric reference")
    later = np.flatnonzero(table.columns["iso_dominates"])
    return table.cell("n_rounds", later[0]) if later.size else None
