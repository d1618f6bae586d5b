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

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .adiabatic import (
    COMPRESSED_FIELD_SCALE,
    COMPRESSION,
    EXPANSION,
    StrokeSpec,
    evolve_stroke,
    stroke_work,
)
from .gates import apply, reset_channel, swap_unitary
from .hbac import run_ppa
from .qmath import DensityMatrix, partial_trace, product_state
from .spinsys import (
    CODATA2018,
    PhysicalConstants,
    Role,
    SpinSystem,
    gibbs_state,
    local_hamiltonian,
    thermal_state,
    zeeman_hamiltonian,
)

FOUR_STROKE_HBAC = "four_stroke_hbac"
FOUR_STROKE_ISOCHORIC_REF = "four_stroke_isochoric_ref"
TWO_STROKE_HBAC = "two_stroke_hbac"

_CLOSURE_RTOL = 1e-9


def _energy(h_local: np.ndarray, rho: DensityMatrix) -> float:
    return float(np.real(np.trace(np.asarray(h_local) @ rho.matrix)))


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
        # scale for the relative closure checks; the stroke works enter
        # because w1 and w2 can cancel almost exactly
        scale = max(
            abs(self.q_in),
            abs(self.q_out),
            abs(self.net_work),
            abs(self.w1 or 0.0),
            abs(self.w2 or 0.0),
        )
        if scale > 0 and abs(self.net_work - (self.q_in - self.q_out)) > _CLOSURE_RTOL * scale:
            raise ValueError("first-law violation: net_work != q_in - q_out")
        if self.w1 is not None and self.w2 is not None:
            if scale > 0 and abs(self.net_work - (self.w1 + self.w2)) > _CLOSURE_RTOL * scale:
                raise ValueError("first-law violation: net_work != w1 + w2")
        # only meaningfully positive work constrains the efficiency; at the
        # degenerate frequency boundary net_work is a round-off residue
        if self.net_work > _CLOSURE_RTOL * scale and not 0.0 < self.efficiency < 1.0:
            raise ValueError(
                f"efficiency {self.efficiency} outside (0, 1) at positive work"
            )


@dataclass(frozen=True)
class SweepTable:
    """Cycle reports over a parameter grid, in deterministic grid order."""

    axes: dict[str, tuple]
    reports: tuple[CycleReport, ...]
    reference_reports: tuple[CycleReport, ...] | None = None

    def __post_init__(self):
        expected = 1
        for values in self.axes.values():
            seq = tuple(values)
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise ValueError("sweep axes must be strictly increasing")
            expected *= len(seq)
        if len(self.reports) != expected:
            raise ValueError(
                f"incomplete sweep: {len(self.reports)} reports for {expected} grid points"
            )
        if self.reference_reports is not None and len(self.reference_reports) != len(
            self.reports
        ):
            raise ValueError("reference reports must align with the primary reports")
        object.__setattr__(self, "reports", tuple(self.reports))
        if self.reference_reports is not None:
            object.__setattr__(self, "reference_reports", tuple(self.reference_reports))

    def argmax_power(self) -> CycleReport:
        return max(self.reports, key=lambda r: r.power)

    def argmax_work(self) -> CycleReport:
        return max(self.reports, key=lambda r: r.net_work)


def _stroke_pair(stroke: StrokeSpec | None) -> tuple[StrokeSpec, StrokeSpec]:
    base = stroke if stroke is not None else StrokeSpec(COMPRESSION)
    return replace(base, direction=COMPRESSION), replace(base, direction=EXPANSION)


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
    compression, expansion = _stroke_pair(stroke)
    target = sys.label_for_role(Role.TARGET)
    reset = sys.label_for_role(Role.RESET)
    h0_t = local_hamiltonian(sys, target, 1.0, constants)
    h1_t = local_hamiltonian(sys, target, COMPRESSED_FIELD_SCALE, constants)

    rho_hot = thermal_state(sys, 1.0, constants)
    rho0_t = partial_trace(rho_hot, {target})

    rho_compressed = evolve_stroke(rho_hot, sys, compression, constants)
    rho1_t = partial_trace(rho_compressed, {target})

    trace = run_ppa(rho_compressed, sys, COMPRESSED_FIELD_SCALE, n_rounds, constants)
    rho_cooled = trace.final_record.state_after_round
    rho2_t = trace.final_target

    rho_expanded = evolve_stroke(rho_cooled, sys, expansion, constants)
    rho3_t = partial_trace(rho_expanded, {target})

    w1 = stroke_work(h0_t, rho0_t, h1_t, rho1_t)
    w2 = stroke_work(h1_t, rho2_t, h0_t, rho3_t)
    q_in = _energy(h0_t, rho0_t) - _energy(h0_t, rho3_t)
    q_out = _energy(h1_t, rho1_t) - _energy(h1_t, rho2_t)

    mole = constants.avogadro
    cycle_time = sys.qubit(target).t1 + sys.qubit(reset).t1 * (2 * n_rounds + 1)
    net = (q_in - q_out) * mole
    return CycleReport(
        engine_kind=FOUR_STROKE_HBAC,
        n_rounds=n_rounds,
        w1=w1 * mole,
        w2=w2 * mole,
        q_in=q_in * mole,
        q_out=q_out * mole,
        net_work=net,
        efficiency=1.0 - COMPRESSED_FIELD_SCALE,
        power=net / cycle_time,
        cycle_time=cycle_time,
        cooled_target_temperature=trace.final_record.target_effective_temperature,
    )


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
    compression, expansion = _stroke_pair(stroke)
    target = sys.label_for_role(Role.TARGET)
    h0_t = local_hamiltonian(sys, target, 1.0, constants)
    h1_t = local_hamiltonian(sys, target, COMPRESSED_FIELD_SCALE, constants)

    rho_hot = thermal_state(sys, 1.0, constants)
    rho0_t = partial_trace(rho_hot, {target})

    rho_compressed = evolve_stroke(rho_hot, sys, compression, constants)
    rho1_t = partial_trace(rho_compressed, {target})

    rho2_t = gibbs_state(h1_t, cold_temperature, (target,), constants)
    rho_cooled = reset_channel(rho_compressed, target, rho2_t)

    rho_expanded = evolve_stroke(rho_cooled, sys, expansion, constants)
    rho3_t = partial_trace(rho_expanded, {target})

    w1 = stroke_work(h0_t, rho0_t, h1_t, rho1_t)
    w2 = stroke_work(h1_t, rho2_t, h0_t, rho3_t)
    q_in = _energy(h0_t, rho0_t) - _energy(h0_t, rho3_t)
    q_out = _energy(h1_t, rho1_t) - _energy(h1_t, rho2_t)

    mole = constants.avogadro
    cycle_time = 2.0 * sys.qubit(target).t1
    net = (q_in - q_out) * mole
    return CycleReport(
        engine_kind=FOUR_STROKE_ISOCHORIC_REF,
        n_rounds=None,
        w1=w1 * mole,
        w2=w2 * mole,
        q_in=q_in * mole,
        q_out=q_out * mole,
        net_work=net,
        efficiency=1.0 - COMPRESSED_FIELD_SCALE,
        power=net / cycle_time,
        cycle_time=cycle_time,
        cooled_target_temperature=cold_temperature,
    )


def positive_work_window(
    omega_t: float, bath_t: float, cooled_t: float
) -> tuple[float, float]:
    """Partner-frequency interval (rad/s) where the two-stroke cycle gains work."""
    if cooled_t <= 0 or cooled_t >= bath_t:
        raise ValueError(
            f"cooled temperature {cooled_t} must lie strictly below bath {bath_t}"
        )
    if omega_t <= 0:
        raise ValueError(f"omega_t must be positive, got {omega_t}")
    return omega_t, omega_t * bath_t / cooled_t


def _partner_label(sys: SpinSystem) -> str:
    if sys.has_role(Role.SWAP_PARTNER):
        return sys.label_for_role(Role.SWAP_PARTNER)
    label = "S"
    while label in sys.labels:
        label += "'"
    return label


def _two_stroke_report(
    sys: SpinSystem,
    omega_s: float,
    n_rounds: int,
    cooled_target: DensityMatrix,
    cooled_temperature: float,
    constants: PhysicalConstants,
) -> CycleReport:
    target = sys.label_for_role(Role.TARGET)
    reset = sys.label_for_role(Role.RESET)
    partner = _partner_label(sys)
    omega_t = sys.omega(target, 1.0)

    h_s = zeeman_hamiltonian(omega_s, constants)
    h_t = local_hamiltonian(sys, target, 1.0, constants)
    rho0_s = gibbs_state(h_s, sys.bath_temperature, (partner,), constants)
    rho0_t = cooled_target

    joint = product_state(rho0_s, rho0_t)
    swapped = apply(swap_unitary(joint.qubits, partner, target), joint)
    rho1_s = partial_trace(swapped, {partner})
    rho1_t = partial_trace(swapped, {target})

    q_in = _energy(h_s, rho0_s) - _energy(h_s, rho1_s)
    q_out = _energy(h_t, rho1_t) - _energy(h_t, rho0_t)

    mole = constants.avogadro
    cycle_time = sys.qubit(reset).t1 * (2 * n_rounds + 1)
    net = (q_in - q_out) * mole
    window = positive_work_window(omega_t, sys.bath_temperature, cooled_temperature)
    return CycleReport(
        engine_kind=TWO_STROKE_HBAC,
        n_rounds=n_rounds,
        w1=None,
        w2=None,
        q_in=q_in * mole,
        q_out=q_out * mole,
        net_work=net,
        efficiency=1.0 - omega_t / omega_s,
        power=net / cycle_time,
        cycle_time=cycle_time,
        cooled_target_temperature=cooled_temperature,
        omega_s=omega_s,
        in_window=window[0] < omega_s < window[1],
    )


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
    if omega_s <= 0:
        raise ValueError(f"omega_s must be positive, got {omega_s}")
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    trace = run_ppa(thermal_state(sys, 1.0, constants), sys, 1.0, n_rounds, constants)
    return _two_stroke_report(
        sys,
        omega_s,
        n_rounds,
        trace.final_target,
        trace.final_record.target_effective_temperature,
        constants,
    )


def sweep_four_stroke(
    sys: SpinSystem,
    n_values: int | Iterable[int],
    stroke: StrokeSpec | None = None,
    constants: PhysicalConstants = CODATA2018,
) -> SweepTable:
    """Four-stroke cycles for each round count, with isochoric references.

    An integer argument means the inclusive range ``0..n_values``.  Every
    reference cycle is cooled to the matching cycle's effective
    temperature, so the pair differs only in timing.
    """
    if isinstance(n_values, int):
        n_values = range(n_values + 1)
    n_list = [int(n) for n in n_values]
    if not n_list:
        raise ValueError("empty round-count grid")
    reports = [run_four_stroke(sys, n, stroke, constants) for n in n_list]
    references = [
        run_isochoric_reference(sys, r.cooled_target_temperature, stroke, constants)
        for r in reports
    ]
    return SweepTable(
        axes={"n_rounds": tuple(n_list)},
        reports=tuple(reports),
        reference_reports=tuple(references),
    )


def sweep_two_stroke(
    sys: SpinSystem,
    omega_s_grid: Sequence[float],
    n_values: Iterable[int],
    constants: PhysicalConstants = CODATA2018,
) -> SweepTable:
    """Two-stroke cycles over a partner-frequency grid (rad/s) per round count.

    Rows are ordered round-count-major, frequency-minor.  One cooling run
    to the largest round count serves every row: its record after round
    ``n`` is the ``n``-round cooled target, which does not depend on the
    partner.
    """
    grid = [float(w) for w in omega_s_grid]
    n_list = [int(n) for n in n_values]
    if not grid or not n_list:
        raise ValueError("empty sweep grid")
    if min(n_list) < 0:
        raise ValueError(f"n_rounds must be >= 0, got {min(n_list)}")
    target = sys.label_for_role(Role.TARGET)
    trace = run_ppa(thermal_state(sys, 1.0, constants), sys, 1.0, max(n_list), constants)
    reports = []
    for n in n_list:
        record = trace.rounds[n]
        cooled = partial_trace(record.state_after_round, {target})
        cooled_temp = record.target_effective_temperature
        for omega_s in grid:
            reports.append(
                _two_stroke_report(sys, omega_s, n, cooled, cooled_temp, constants)
            )
    return SweepTable(
        axes={"n_rounds": tuple(n_list), "omega_s": tuple(grid)},
        reports=tuple(reports),
    )


def isochoric_crossover(table: SweepTable) -> int | None:
    """First round count where the reference engine out-powers cooling."""
    if table.reference_reports is None:
        raise ValueError("table carries no reference reports")
    for report, reference in zip(table.reports, table.reference_reports):
        if reference.power > report.power:
            return report.n_rounds
    return None
