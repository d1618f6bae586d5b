"""Otto-cycle orchestration: four-stroke, isochoric reference, two-stroke.

All engines share one heat bath.  The four-stroke cycle is
isochoric heating -> field compression -> algorithmic cooling -> field
expansion; the reference engine swaps the cooling stage for contact with
a cold bath; the two-stroke engine heats a partner qubit and cools the
target in parallel, then exchanges them with a single SWAP.

Every state is diagonal, so the engines form no state: only the
target's polarization enters a cycle.  A field ramp drives only Iz terms, so it
freezes every population, and a stroke is the statement that the
target keeps its polarization while its levels move: at frequency
``omega`` its energy is ``-(hbar omega / 2) eps``, and every heat and
work is ``(hbar omega / 2)`` times a difference of polarizations,
reported per mole.  The cooled target comes from the closed-form
cooling run, the hot target from the J-coupled register's Gibbs
marginal and a cold bath from ``tanh``; none is a difference of two
populations near 1/2.  Cycle times count only the relaxation stages:
gate applications and field ramps are treated as fast.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .hbac import run_ppa
from .spinsys import (
    CODATA2018,
    ConfigError,
    PhysicalConstants,
    Role,
    SpinSystem,
    StateInvariantError,
    thermal_marginal_polarization,
    thermal_polarization,
)

FOUR_STROKE_HBAC = "four_stroke_hbac"
FOUR_STROKE_ISOCHORIC_REF = "four_stroke_isochoric_ref"
TWO_STROKE_HBAC = "two_stroke_hbac"

# The compressed field is half the reference field throughout.
COMPRESSED_FIELD_SCALE = 0.5

_CLOSURE_RTOL = 1e-9


_ENERGETICS = ("q_in", "q_out", "net_work", "efficiency", "w1", "w2")


def _check_energetics(q_in, q_out, net_work, efficiency, w1, w2) -> None:
    """First-law closure and the efficiency range, elementwise over scalars or columns."""
    # scale for the relative closure checks; the stroke works enter
    # because w1 and w2 can cancel almost exactly
    scale = reduce(np.maximum, [abs(x) for x in (q_in, q_out, net_work, w1, w2) if x is not None])
    tolerance = _CLOSURE_RTOL * scale
    if ((scale > 0) & (abs(net_work - (q_in - q_out)) > tolerance)).any():
        raise StateInvariantError("first-law violation: net_work != q_in - q_out")
    if w1 is not None and w2 is not None:
        if ((scale > 0) & (abs(net_work - (w1 + w2)) > tolerance)).any():
            raise StateInvariantError("first-law violation: net_work != w1 + w2")
    # only meaningfully positive work constrains the efficiency; at the
    # degenerate frequency boundary net_work is a round-off residue
    efficiency = np.asarray(efficiency)
    bad = (net_work > tolerance) & ~((0.0 < efficiency) & (efficiency < 1.0))
    if bad.any():
        value = efficiency[bad][0]
        raise StateInvariantError(f"efficiency {value} outside (0, 1) at positive work")


@dataclass(frozen=True)
class CycleReport:
    """Energy bookkeeping for one engine cycle (energies J/mol, power W/mol)."""

    engine_kind: str
    n_rounds: int | None
    w1: float | None
    w2: float | None
    q_in: float
    q_out: float
    net_work: float
    efficiency: float
    power: float
    cycle_time: float  # seconds
    cooled_target_temperature: float  # kelvin
    omega_s: float | None = None  # rad/s, two-stroke only
    in_window: bool | None = None  # two-stroke only

    def __post_init__(self):
        _check_energetics(**{name: getattr(self, name) for name in _ENERGETICS})


_COLUMN_FIELDS = tuple(f.name for f in fields(CycleReport) if f.name != "engine_kind")
_AXIS_UNITS = {"omega_s": " rad/s"}


class NonFiniteCell(StateInvariantError):
    """A non-finite sweep cell; ``point`` maps each axis to the cell's index on it."""

    def __init__(self, message: str, point: dict[str, int]):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence):
    """Cycles of one engine kind over a parameter grid, stored as named columns.

    Each column is named after a ``CycleReport`` field and holds one value
    per grid point in deterministic grid order; a field without a column
    is None in every row.  As a sequence the table yields ``CycleReport``
    rows, built on access.  A four-stroke sweep carries its isochoric
    reference cycles as a second table over the same grid.  A non-finite
    float cell is a ``NonFiniteCell`` naming its grid point.
    """

    axes: dict[str, tuple]
    engine_kind: str
    columns: dict[str, np.ndarray]
    reference_reports: SweepTable | None = None

    def __post_init__(self):
        expected = 1
        for values in self.axes.values():
            seq = tuple(values)
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise ValueError("sweep axes must be strictly increasing")
            expected *= len(seq)
        columns = {name: np.array(values) for name, values in self.columns.items()}
        if any(len(column) != expected for column in columns.values()):
            raise ValueError(f"incomplete sweep: columns do not hold {expected} grid points")
        for name, column in columns.items():
            column.setflags(write=False)
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                first = int(np.argmin(np.isfinite(column)))
                index = np.unravel_index(first, [len(values) for values in self.axes.values()])
                point = dict(zip(self.axes, map(int, index)))
                where = ", ".join(
                    f"{axis}={self.axes[axis][i]:.6g}{_AXIS_UNITS.get(axis, '')}" for axis, i in point.items()
                )
                raise NonFiniteCell(
                    f"{self.engine_kind}: {name} is {column[first]} at {where or 'the only point'}", point
                )
        _check_energetics(**{name: columns.get(name) for name in _ENERGETICS})
        if self.reference_reports is not None and len(self.reference_reports) != expected:
            raise ValueError("reference table must align with the primary table")
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return len(self.columns["net_work"])

    def __getitem__(self, index: int) -> CycleReport:
        index = range(len(self))[index]
        values = dict.fromkeys(_COLUMN_FIELDS)
        values.update((name, column.item(index)) for name, column in self.columns.items())
        return CycleReport(engine_kind=self.engine_kind, **values)

    @property
    def reports(self) -> SweepTable:
        return self

    def argmax_power(self) -> CycleReport:
        # np.argmax keeps the first of equal maxima, like the builtin max
        return self[int(np.argmax(self.columns["power"]))]

    def argmax_work(self) -> CycleReport:
        return self[int(np.argmax(self.columns["net_work"]))]


class _FourStroke:
    """The hot target that every four-stroke cycle of one system shares.

    Each method takes the cooling stages of many cycles at once and
    returns their columns.  The field ramps freeze the populations, so
    the compressed target is still at the hot polarization: it is the
    cooling run's input, and each heat and work is ``hbar omega / 2``
    times a difference of polarizations.
    """

    def __init__(self, sys: SpinSystem, constants: PhysicalConstants):
        self.sys, self.constants = sys, constants
        target = sys.label_for_role(Role.TARGET)
        self.t1_target = sys.qubit(target).t1
        self.omega1 = sys.omega(target, COMPRESSED_FIELD_SCALE)
        # per mole: hbar omega / 2 at the full and the compressed field
        self.half0 = constants.hbar * sys.omega(target, 1.0) / 2.0 * constants.avogadro
        self.half1 = constants.hbar * self.omega1 / 2.0 * constants.avogadro
        # the compression stroke leaves the hot target's polarization as it is
        self.eps_hot = thermal_marginal_polarization(sys, target, 1.0, constants)

    def _columns(self, eps_cold, cycle_time, temperature) -> dict[str, np.ndarray]:
        """Columns of cycles from their cooled target polarizations."""
        gain = eps_cold - self.eps_hot
        q_in = self.half0 * gain
        q_out = self.half1 * gain
        net = q_in - q_out
        return {
            "w1": np.full(len(gain), (self.half1 - self.half0) * self.eps_hot),
            "w2": (self.half0 - self.half1) * eps_cold,
            "q_in": q_in,
            "q_out": q_out,
            "net_work": net,
            "efficiency": np.full(len(gain), 1.0 - COMPRESSED_FIELD_SCALE),
            "power": net / cycle_time,
            "cycle_time": cycle_time,
            "cooled_target_temperature": temperature,
        }

    # an overflow shows as a non-finite column, which SweepTable rejects
    @np.errstate(all="ignore")
    def cooled_by_ppa(self, n_list: list[int]) -> dict[str, np.ndarray]:
        """HBAC cycles for each round count, all read off one cooling run."""
        trace = run_ppa(self.eps_hot, self.sys, COMPRESSED_FIELD_SCALE, max(n_list), self.constants)
        n_rounds = np.array(n_list)
        t1_reset = self.sys.qubit(self.sys.label_for_role(Role.RESET)).t1
        columns = self._columns(
            trace.target_polarization[n_list],
            self.t1_target + t1_reset * (2 * n_rounds + 1),
            trace.target_effective_temperature[n_list],
        )
        columns["n_rounds"] = n_rounds
        return columns

    @np.errstate(all="ignore")
    def cooled_by_bath(self, temperatures: np.ndarray) -> dict[str, np.ndarray]:
        """Reference cycles that reset the target at each cold temperature instead."""
        cold = thermal_polarization(self.omega1, temperatures, self.constants)
        # past 1 a polarization gives the upper level a negative population; NaN fails too
        bad = np.flatnonzero(~(abs(cold) <= 1.0))
        if bad.size:
            i = bad[0]
            raise StateInvariantError(
                f"isochoric reference at {temperatures[i]:g} K: target polarization {cold[i]} outside [-1, 1]"
            )
        cycle_time = np.full(len(temperatures), 2.0 * self.t1_target)
        return self._columns(cold, cycle_time, temperatures)


def run_four_stroke(
    sys: SpinSystem,
    n_rounds: int,
    constants: PhysicalConstants = CODATA2018,
) -> CycleReport:
    """Simulate one four-stroke cycle with algorithmic cooling.

    Heat absorbed while re-thermalizing at full field and heat released
    into the cooling stage at half field are both reported as positive
    magnitudes, so ``net_work = q_in - q_out`` matches ``w1 + w2``.
    Power uses the relaxation-time cost ``tau_T + tau_R (2n + 1)``.
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    columns = _FourStroke(sys, constants).cooled_by_ppa([n_rounds])
    return SweepTable({}, FOUR_STROKE_HBAC, columns)[0]


def run_isochoric_reference(
    sys: SpinSystem,
    cold_temperature: float,
    constants: PhysicalConstants = CODATA2018,
) -> CycleReport:
    """Benchmark cycle that cools the target in a cold bath instead.

    The cooling stage re-thermalizes the target under the half-field
    Hamiltonian at ``cold_temperature``; choosing the effective
    temperature reached by algorithmic cooling reproduces its work output
    exactly.  Power uses the two-relaxation cost ``2 tau_T``.
    """
    if not 0.0 < cold_temperature <= sys.bath_temperature:
        raise ValueError(
            f"cold temperature {cold_temperature} must lie in "
            f"(0, {sys.bath_temperature}] (bath temperature)"
        )
    columns = _FourStroke(sys, constants).cooled_by_bath(np.array([cold_temperature]))
    return SweepTable({}, FOUR_STROKE_ISOCHORIC_REF, columns)[0]


def positive_work_window(
    omega_t: float, bath_t: float, cooled_t: float
) -> tuple[float, float] | None:
    """Partner-frequency interval (rad/s) where the two-stroke cycle gains work.

    It is None when the target is not below the bath temperature.
    """
    if cooled_t <= 0 or bath_t <= 0:
        raise ValueError(f"temperatures must be positive, got bath {bath_t} and cooled {cooled_t}")
    if omega_t <= 0:
        raise ValueError(f"omega_t must be positive, got {omega_t}")
    if cooled_t >= bath_t:
        return None
    return omega_t, omega_t * bath_t / cooled_t


def run_two_stroke(
    sys: SpinSystem,
    omega_s: float,
    n_rounds: int,
    constants: PhysicalConstants = CODATA2018,
) -> CycleReport:
    """Simulate one two-stroke cycle against a partner qubit at ``omega_s``.

    Algorithmic cooling runs at full field (there is no compression
    stroke); the cooled target and the bath-equilibrated partner exchange
    states through one SWAP.  A partner frequency outside the positive
    work window is reported with ``in_window=False``, not an error.
    """
    return sweep_two_stroke(sys, [omega_s], [n_rounds], constants)[0]


def sweep_four_stroke(
    sys: SpinSystem,
    n_values: int | Iterable[int],
    constants: PhysicalConstants = CODATA2018,
) -> SweepTable:
    """Four-stroke cycles for each round count, with isochoric references.

    An integer argument means the inclusive range ``0..n_values``.  Every
    reference cycle is cooled to the matching cycle's effective
    temperature, so the pair differs only in timing.  One cooling run to
    the largest round count serves every row, and both engines share one
    hot target polarization.  A round whose target ends
    above the bath temperature has no cold bath for its reference, which
    is a ``ConfigError``.
    """
    if isinstance(n_values, int):
        n_values = range(n_values + 1)
    n_list = [int(n) for n in n_values]
    if not n_list:
        raise ValueError("empty round-count grid")
    if min(n_list) < 0:
        raise ValueError(f"n_rounds must be >= 0, got {min(n_list)}")
    cycles = _FourStroke(sys, constants)
    columns = cycles.cooled_by_ppa(n_list)
    cold = columns["cooled_target_temperature"]
    above = np.flatnonzero(cold > sys.bath_temperature)
    if above.size:
        i = above[0]
        raise ConfigError(
            f"round {n_list[i]}: cooling leaves the target at {cold[i]:.6g} K, above the "
            f"bath temperature {sys.bath_temperature:g} K, so the isochoric reference "
            f"has no cold bath"
        )
    axes = {"n_rounds": tuple(n_list)}
    reference = SweepTable(axes, FOUR_STROKE_ISOCHORIC_REF, cycles.cooled_by_bath(cold))
    return SweepTable(axes, FOUR_STROKE_HBAC, columns, reference)


@np.errstate(all="ignore")  # an overflow shows as a non-finite column, which SweepTable rejects
def sweep_two_stroke(
    sys: SpinSystem,
    omega_s_grid: Sequence[float],
    n_values: Iterable[int],
    constants: PhysicalConstants = CODATA2018,
) -> SweepTable:
    """Two-stroke cycles over a partner-frequency grid (rad/s) per round count.

    Rows are ordered round-count-major, frequency-minor.  One cooling run
    to the largest round count serves every row: its row ``n`` is the
    ``n``-round cooled target, which does not depend on the
    partner.  The sweep is then one array pass over (round count,
    frequency).

    The bath-equilibrated partner and the cooled target are diagonal
    qubits, so the SWAP only exchanges their polarizations: the partner
    absorbs ``(hbar omega_S / 2)`` times the difference, and the target
    gives back ``(hbar omega_T / 2)`` times it.
    """
    grid = np.array(omega_s_grid, dtype=float)
    n_list = [int(n) for n in n_values]
    if not grid.size or not n_list:
        raise ValueError("empty sweep grid")
    if not grid.min() > 0:
        raise ValueError(f"omega_s must be positive, got {grid.min()}")
    if min(n_list) < 0:
        raise ValueError(f"n_rounds must be >= 0, got {min(n_list)}")
    eps_in = thermal_marginal_polarization(sys, sys.label_for_role(Role.TARGET), 1.0, constants)
    trace = run_ppa(eps_in, sys, 1.0, max(n_list), constants)
    omega_t = sys.omega(trace.target, 1.0)
    n_rounds = np.array(n_list)[:, None]
    cooled = trace.target_effective_temperature[n_list]

    # one row per round count, broadcast against the grid axis: the SWAP
    # hands the partner the cooled target's polarization and back
    gain = trace.target_polarization[n_list][:, None] - thermal_polarization(grid, sys.bath_temperature, constants)
    half = constants.hbar / 2.0 * constants.avogadro
    q_in = half * grid * gain
    q_out = half * omega_t * gain

    cycle_time = sys.qubit(sys.label_for_role(Role.RESET)).t1 * (2 * n_rounds + 1)
    net = q_in - q_out
    # one window per round count; the empty (inf, inf) stands in for none
    windows = [positive_work_window(omega_t, sys.bath_temperature, t) for t in cooled.tolist()]
    bounds = np.array([w or (np.inf, np.inf) for w in windows])
    in_window = (bounds[:, :1] < grid) & (grid < bounds[:, 1:])
    shape = net.shape
    columns = {
        "n_rounds": np.broadcast_to(n_rounds, shape),
        "q_in": q_in,
        "q_out": q_out,
        "net_work": net,
        "efficiency": np.broadcast_to(1.0 - omega_t / grid, shape),
        "power": net / cycle_time,
        "cycle_time": np.broadcast_to(cycle_time, shape),
        "cooled_target_temperature": np.broadcast_to(cooled[:, None], shape),
        "omega_s": np.broadcast_to(grid, shape),
        "in_window": in_window,
    }
    return SweepTable(
        axes={"n_rounds": tuple(n_list), "omega_s": tuple(grid.tolist())},
        engine_kind=TWO_STROKE_HBAC,
        columns={name: column.ravel() for name, column in columns.items()},
    )


def isochoric_crossover(table: SweepTable) -> int | None:
    """First round count where the reference engine out-powers cooling."""
    if table.reference_reports is None:
        raise ValueError("table carries no reference reports")
    later = np.flatnonzero(table.reference_reports.columns["power"] > table.columns["power"])
    return int(table.columns["n_rounds"][later[0]]) if later.size else None
