"""Otto-cycle orchestration: four-stroke, isochoric reference, two-stroke.

All engines share one heat bath.  The four-stroke cycle is
isochoric heating -> field compression -> algorithmic cooling -> field
expansion; the reference engine swaps the cooling stage for contact with
a cold bath; the two-stroke engine heats a partner qubit and cools the
target in parallel, then exchanges them with a single SWAP.

Heats and works are evaluated on the target's local Hamiltonian and
marginal state and reported per mole.  Cycle times count only the
relaxation stages: gate applications and field ramps are treated as fast.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields, replace
from functools import reduce

import numpy as np

from .adiabatic import COMPRESSED_FIELD_SCALE, COMPRESSION, StrokeSpec, evolve_stroke
from .hbac import check_populations, marginal, reset, run_ppa
from .qmath import StateInvariantError
from .spinsys import (
    CODATA2018,
    ConfigError,
    PhysicalConstants,
    Role,
    SpinSystem,
    local_levels,
    thermal_populations,
    thermal_state,
    zeeman_levels,
)

FOUR_STROKE_HBAC = "four_stroke_hbac"
FOUR_STROKE_ISOCHORIC_REF = "four_stroke_isochoric_ref"
TWO_STROKE_HBAC = "two_stroke_hbac"

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


def _energy(levels: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """``Tr[H rho]`` of diagonal qubit states, over the last axis of length two."""
    return levels[..., 0] * populations[..., 0] + levels[..., 1] * populations[..., 1]


class _FourStroke:
    """The hot and compressed states that every four-stroke cycle of one system shares.

    Each method takes the cooling stages of many cycles at once and
    returns their columns.  Every state is diagonal, so the expansion
    stroke leaves each cooled register as it is, and the arithmetic
    follows the dense cycle (partial traces, ``Tr[H rho]``, the reset
    channel) operation by operation, so every column is bit-identical
    to it.
    """

    def __init__(self, sys: SpinSystem, stroke: StrokeSpec | None, constants: PhysicalConstants):
        compression = replace(stroke or StrokeSpec(COMPRESSION), direction=COMPRESSION)
        self.sys, self.constants = sys, constants
        target = sys.label_for_role(Role.TARGET)
        self.t1_target = sys.qubit(target).t1
        self.h0 = local_levels(sys, target, 1.0, constants)
        self.h1 = local_levels(sys, target, COMPRESSED_FIELD_SCALE, constants)
        hot = thermal_state(sys, 1.0, constants)
        self.rho_compressed = evolve_stroke(hot, sys, compression, constants)
        self.compressed = self.rho_compressed.populations.reshape(2, 2, 2)
        self.slot = hot.qubits.index(target)
        self.e0 = _energy(self.h0, marginal(hot.populations.reshape(2, 2, 2), self.slot))
        self.e1 = _energy(self.h1, marginal(self.compressed, self.slot))

    def _columns(self, cooled, cooled_target, cycle_time, temperature) -> dict[str, np.ndarray]:
        """Columns of cycles from their cooled 2x2x2 registers and target populations."""
        e2 = _energy(self.h1, cooled_target)
        # after the expansion stroke, which leaves the populations alone
        e3 = _energy(self.h0, marginal(cooled, self.slot))
        q_in = self.e0 - e3
        q_out = self.e1 - e2
        mole = self.constants.avogadro
        net = (q_in - q_out) * mole
        return {
            "w1": np.full(len(e2), (self.e0 - self.e1) * mole),
            "w2": (e2 - e3) * mole,
            "q_in": q_in * mole,
            "q_out": q_out * mole,
            "net_work": net,
            "efficiency": np.full(len(e2), 1.0 - COMPRESSED_FIELD_SCALE),
            "power": net / cycle_time,
            "cycle_time": cycle_time,
            "cooled_target_temperature": temperature,
        }

    # an overflow shows as a non-finite column, which SweepTable rejects
    @np.errstate(all="ignore")
    def cooled_by_ppa(self, n_list: list[int]) -> dict[str, np.ndarray]:
        """HBAC cycles for each round count, all read off one cooling run."""
        trace = run_ppa(
            self.rho_compressed, self.sys, COMPRESSED_FIELD_SCALE, max(n_list), self.constants
        )
        cooled = trace.populations[n_list]
        n_rounds = np.array(n_list)
        t1_reset = self.sys.qubit(self.sys.label_for_role(Role.RESET)).t1
        columns = self._columns(
            cooled,
            marginal(cooled, self.slot),
            self.t1_target + t1_reset * (2 * n_rounds + 1),
            trace.target_effective_temperature[n_list],
        )
        columns["n_rounds"] = n_rounds
        return columns

    @np.errstate(all="ignore")
    def cooled_by_bath(self, temperatures: np.ndarray) -> dict[str, np.ndarray]:
        """Reference cycles that reset the target at each cold temperature instead."""
        cold = thermal_populations(self.h1, temperatures, self.constants)
        cooled = reset(self.compressed, self.slot, cold)
        check_populations(cooled, "isochoric reference")
        cycle_time = np.full(len(temperatures), 2.0 * self.t1_target)
        return self._columns(cooled, cold, cycle_time, temperatures)


def run_four_stroke(
    sys: SpinSystem,
    n_rounds: int,
    stroke: StrokeSpec | None = None,
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
    columns = _FourStroke(sys, stroke, constants).cooled_by_ppa([n_rounds])
    return SweepTable({}, FOUR_STROKE_HBAC, columns)[0]


def run_isochoric_reference(
    sys: SpinSystem,
    cold_temperature: float,
    stroke: StrokeSpec | None = None,
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
    columns = _FourStroke(sys, stroke, constants).cooled_by_bath(np.array([cold_temperature]))
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
    stroke: StrokeSpec | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> SweepTable:
    """Four-stroke cycles for each round count, with isochoric references.

    An integer argument means the inclusive range ``0..n_values``.  Every
    reference cycle is cooled to the matching cycle's effective
    temperature, so the pair differs only in timing.  One cooling run to
    the largest round count serves every row, and both engines share one
    hot state and one compression stroke.  A round whose target ends
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
    cycles = _FourStroke(sys, stroke, constants)
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
    qubits, so the SWAP only exchanges their populations.  The arithmetic
    follows the dense cycle (product state, SWAP, two partial traces)
    operation by operation, so every column is bit-identical to it.
    """
    grid = np.array(omega_s_grid, dtype=float)
    n_list = [int(n) for n in n_values]
    if not grid.size or not n_list:
        raise ValueError("empty sweep grid")
    if not grid.min() > 0:
        raise ValueError(f"omega_s must be positive, got {grid.min()}")
    if min(n_list) < 0:
        raise ValueError(f"n_rounds must be >= 0, got {min(n_list)}")
    trace = run_ppa(thermal_state(sys, 1.0, constants), sys, 1.0, max(n_list), constants)
    target = trace.target
    omega_t = sys.omega(target, 1.0)
    n_rounds = np.array(n_list)[:, None]
    cooled = trace.target_effective_temperature[n_list]

    h_s = zeeman_levels(grid, constants)  # one row per partner frequency
    h_t = local_levels(sys, target, 1.0, constants)
    p0_s = thermal_populations(h_s, sys.bath_temperature, constants)
    # one row per round count, broadcast against the grid axis
    p0_t = marginal(trace.populations[n_list], trace.qubits.index(target))[:, None, :]

    # after the SWAP each qubit's marginal is the other's old populations,
    # summed over the other slot of the product state
    p1_s = p0_t * p0_s[:, :1] + p0_t * p0_s[:, 1:]
    p1_t = p0_t[..., :1] * p0_s + p0_t[..., 1:] * p0_s

    q_in = _energy(h_s, p0_s) - _energy(h_s, p1_s)
    q_out = _energy(h_t, p1_t) - _energy(h_t, p0_t)

    mole = constants.avogadro
    cycle_time = sys.qubit(sys.label_for_role(Role.RESET)).t1 * (2 * n_rounds + 1)
    net = (q_in - q_out) * mole
    # one window per round count; the empty (inf, inf) stands in for none
    windows = [positive_work_window(omega_t, sys.bath_temperature, t) for t in cooled.tolist()]
    bounds = np.array([w or (np.inf, np.inf) for w in windows])
    in_window = (bounds[:, :1] < grid) & (grid < bounds[:, 1:])
    shape = net.shape
    columns = {
        "n_rounds": np.broadcast_to(n_rounds, shape),
        "q_in": q_in * mole,
        "q_out": q_out * mole,
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
