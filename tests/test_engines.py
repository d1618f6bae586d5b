import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import dense
import oracles
from dense import (
    apply,
    local_levels,
    partial_trace,
    polarization,
    product_state,
    reset_channel,
    swap_unitary,
    thermal_state,
    zeeman_levels,
)
from oracles import mhz
from spinotto import cli, engines
from spinotto.engines import (
    CycleReport,
    FOUR_STROKE_HBAC,
    FOUR_STROKE_ISOCHORIC_REF,
    TWO_STROKE_HBAC,
    SweepTable,
    isochoric_crossover,
    positive_work_window,
    run_four_stroke,
    run_isochoric_reference,
    run_two_stroke,
    sweep_four_stroke,
    sweep_two_stroke,
)
from spinotto.hbac import run_ppa
from spinotto.spinsys import (
    CODATA2018,
    ConfigError,
    StateInvariantError,
    effective_temperature,
    thermal_marginal_polarization,
)

TWO_PI = 2.0 * math.pi


# Normwise error of a column against the dense cycles: the largest deviation
# over the largest dense magnitude.  The dense cycles form each polarization
# as a difference of two populations near 1/2, which cancels about 4.5
# digits; measured worst 1.5e-11 (four-stroke reference net work), bound at
# twice that.  Columns that need no such difference stay bit-for-bit.
DENSE_RTOL = 3e-11
EXACT_COLUMNS = {"n_rounds", "cycle_time", "efficiency", "in_window"}


def assert_matches_dense(columns, rows):
    for name, column in columns.items():
        expected = np.array([row[name] for row in rows])
        if name in EXACT_COLUMNS:
            assert np.array_equal(column, expected), name
        else:
            assert np.max(np.abs(column - expected)) <= DENSE_RTOL * np.max(np.abs(expected)), name


@pytest.fixture(scope="module")
def four_stroke_table(tce):
    return sweep_four_stroke(tce, 10)


class TestFourStroke:
    def test_first_cycle_heats_and_work(self, four_stroke_table):
        report = four_stroke_table.reports[1]
        assert report.engine_kind == FOUR_STROKE_HBAC
        assert report.q_in == pytest.approx(5.0e-7, rel=5e-2)
        assert report.q_out == pytest.approx(2.5e-7, rel=5e-2)
        assert report.net_work == pytest.approx(2.5e-7, rel=5e-2)

    def test_matches_closed_form(self, four_stroke_table):
        for report in four_stroke_table.reports:
            expected = oracles.four_stroke_closed_form(report.n_rounds)
            assert report.q_in == pytest.approx(expected["q_in"], rel=1e-3)
            assert report.q_out == pytest.approx(expected["q_out"], rel=1e-3)
            assert report.net_work == pytest.approx(expected["work"], rel=1e-3)
            assert report.power == pytest.approx(expected["power"], rel=1e-3)
            assert report.cooled_target_temperature == pytest.approx(
                expected["t_cold"], rel=1e-3
            )

    def test_efficiency_is_exactly_half(self, four_stroke_table):
        for report in four_stroke_table.reports:
            assert report.efficiency == 0.5

    def test_first_law_closure(self, four_stroke_table):
        for report in four_stroke_table.reports:
            scale = max(abs(report.q_in), abs(report.q_out))
            assert abs(report.net_work - (report.w1 + report.w2)) <= 1e-9 * scale
            assert abs(report.net_work - (report.q_in - report.q_out)) <= 1e-9 * scale

    def test_cycle_time_bookkeeping(self, four_stroke_table):
        for report in four_stroke_table.reports:
            assert report.cycle_time == 43.0 + 3.5 * (2 * report.n_rounds + 1)

    def test_compression_work_takes_the_coupled_hot_marginal(self, tce, four_stroke_table):
        # w1 = (hbar/2)(omega_1 - omega_0) eps_hot per mole, with eps_hot the
        # J-coupled Gibbs marginal, 5.6e-12 relative below the bare line's tanh
        omegas = [tce.omega(q) for q in tce.labels]
        eps_hot = oracles.coupled_marginal_polarization(omegas, {(0, 1): 103.0, (0, 2): 9.0, (1, 2): 200.8}, 0)
        w1 = oracles.HBAR / 2 * (tce.omega("C1", 0.5) - tce.omega("C1")) * oracles.N_A * eps_hot
        # measured: equal to the last bit
        assert four_stroke_table.columns["w1"] == pytest.approx(np.full(11, w1), rel=1e-15, abs=0)

    def test_compression_work_is_negative(self, four_stroke_table):
        for report in four_stroke_table.reports:
            assert report.w1 < 0 < report.w2

    def test_rejects_negative_rounds(self, tce):
        with pytest.raises(ValueError):
            run_four_stroke(tce, -1)


class TestIsochoricReference:
    def test_matched_cold_bath_reproduces_work(self, tce, four_stroke_table):
        for report, reference in zip(
            four_stroke_table.reports, four_stroke_table.reference_reports
        ):
            assert reference.engine_kind == FOUR_STROKE_ISOCHORIC_REF
            assert reference.net_work == pytest.approx(report.net_work, rel=1e-6)
            assert reference.cycle_time == 2 * 43.0
            assert reference.power == pytest.approx(reference.net_work / 86.0, rel=1e-12)

    def test_zero_work_when_cold_bath_matches_compressed_frequency(self, tce):
        # the frozen post-compression polarization equals the half-field
        # thermal polarization at bath/2, so that is the zero-work point
        report = run_isochoric_reference(tce, tce.bath_temperature / 2)
        assert abs(report.net_work) <= 1e-12  # J/mol, vs ~1e-7 at one round

    def test_bath_temperature_cold_bath_consumes_work(self, tce):
        # "cooling" at the bath temperature under the half-field Hamiltonian
        # lowers the polarization below its frozen value: net work is negative
        report = run_isochoric_reference(tce, tce.bath_temperature)
        assert report.net_work < 0

    def test_rejects_inverted_temperatures(self, tce):
        with pytest.raises(ValueError):
            run_isochoric_reference(tce, tce.bath_temperature * 1.5)
        with pytest.raises(ValueError):
            run_isochoric_reference(tce, 0.0)

    def test_crossover_at_six_rounds(self, four_stroke_table):
        assert isochoric_crossover(four_stroke_table) == 6
        for report, reference in zip(
            four_stroke_table.reports, four_stroke_table.reference_reports
        ):
            if report.n_rounds <= 5:
                assert report.power > reference.power
            else:
                assert reference.power > report.power


class TestFourStrokeSweep:
    def test_power_peaks_at_two_rounds(self, four_stroke_table):
        best = four_stroke_table.argmax_power()
        assert best.n_rounds == 2
        assert best.power == pytest.approx(5.2e-9, rel=5e-2)

    def test_work_plateau(self, four_stroke_table):
        work = [r.net_work for r in four_stroke_table.reports]
        assert work[-1] == pytest.approx(3.7e-7, rel=5e-2)
        assert all(b > a for a, b in zip(work, work[1:]))
        # saturation: the last increment is tiny compared to the early ones
        assert work[-1] - work[-2] < 0.01 * (work[1] - work[0])

    def test_argmax_work_is_last_round(self, four_stroke_table):
        assert four_stroke_table.argmax_work().n_rounds == 10

    @pytest.mark.parametrize(
        "system,n_values,tau",
        [("tce", range(41), 0.1), ("tce", [0, 3, 17], 7.5), ("tce_h_first", range(13), 0.1)],
    )
    def test_matches_dense_reference_cycles(self, request, system, n_values, tau):
        # the dense cycles propagate their strokes at the drive period tau,
        # which no number of the package depends on
        system = request.getfixturevalue(system)
        table = sweep_four_stroke(system, n_values)
        cycles, references = dense_four_stroke_cycles(system, n_values, tau)
        for got, rows in ((table, cycles), (table.reference_reports, references)):
            assert set(got.columns) == set(rows[0])
            assert_matches_dense(got.columns, rows)

    def test_one_point_calls_match_the_sweep(self, tce, four_stroke_table):
        for n in (0, 2, 7):
            assert run_four_stroke(tce, n) == four_stroke_table[n]
            reference = four_stroke_table.reference_reports[n]
            assert run_isochoric_reference(tce, reference.cooled_target_temperature) == reference

    def test_validations_do_not_grow_with_the_round_count(self, tce):
        # the package forms no state to validate: one hot Gibbs marginal and
        # one cooling run, whose rows are checked as one column, serve every
        # round count of both engines
        assert [state_work(sweep_four_stroke, tce, n_max) for n_max in (1, 60)] == [(1, 1)] * 2

    def test_rejects_negative_round_count_before_cooling(self, tce, monkeypatch):
        def no_cooling(*args, **kwargs):
            raise AssertionError("cooling ran for a negative round count")

        monkeypatch.setattr(engines, "run_ppa", no_cooling)
        with pytest.raises(ValueError, match="n_rounds must be >= 0"):
            sweep_four_stroke(tce, [-1, 2])

    def test_reference_cooled_states_are_checked(self, tce, monkeypatch):
        # the cold bath's polarization must describe a state: within [-1, 1]
        # (past 1 the upper level's population is negative), and not NaN;
        # the report names the first bad cold temperature, round 2's here
        cold = sweep_four_stroke(tce, 3).columns["cooled_target_temperature"]
        honest = engines.thermal_polarization
        for corrupt, value in (
            (lambda eps: np.where(eps > 3.5e-5, np.nan, eps), "nan"),
            (lambda eps: np.where(eps > 3.5e-5, eps + 1.0, eps), r"1\.000035\d*"),
        ):
            monkeypatch.setattr(engines, "thermal_polarization", lambda *args: corrupt(honest(*args)))
            message = rf"isochoric reference at {cold[2]:g} K: target polarization {value} outside \[-1, 1\]"
            with pytest.raises(StateInvariantError, match=message):
                sweep_four_stroke(tce, 3)

    def test_heated_target_has_no_reference(self, tce):
        # a reset qubit slower than the target leaves it hotter than the bath
        # after the initial stage: the reference has no cold bath for round 0
        slow_reset = heated_target_system(tce)
        with pytest.raises(ConfigError, match=r"round 0: .* 377\.31 K, above the bath temperature 300 K"):
            sweep_four_stroke(slow_reset, 3)
        table = sweep_four_stroke(slow_reset, [1, 2, 3])
        assert (table.columns["cooled_target_temperature"] < slow_reset.bath_temperature).all()


def state_work(sweep, *args):
    """How many Gibbs marginals and cooling runs one sweep starts."""
    with mock.patch.object(engines, "thermal_marginal_polarization", wraps=thermal_marginal_polarization) as marginal:
        with mock.patch.object(engines, "run_ppa", wraps=run_ppa) as cooling:
            sweep(*args)
    return marginal.call_count, cooling.call_count


def heated_target_system(tce):
    """TCE with the reset line at 100 MHz, below the 125.77 MHz target."""
    qubits = tuple(
        replace(q, omega_over_2pi=100.0) if q.label == "H" else q for q in tce.qubits
    )
    return replace(tce, qubits=qubits)


def energy(h, rho):
    return float(np.real(np.trace(h @ rho.matrix)))


def dense_four_stroke_cycles(sys, n_values, tau):
    """Reference four-stroke and isochoric cycles on dense states, one row per round count.

    The dense cycles the columnar sweep replaced: dense cooling, the
    dense reset channel for the cold bath, strokes propagated at the drive
    period ``tau`` (``dense.stroke``), partial traces and ``stroke_work``.
    """
    levels1 = local_levels(sys, "C1", 0.5)
    h0 = np.diag(local_levels(sys, "C1", 1.0)).astype(complex)
    h1 = np.diag(levels1).astype(complex)
    rho_hot = thermal_state(sys, 1.0)
    rho_compressed = dense.stroke(rho_hot, sys, dense.COMPRESSION, tau)
    rho0_t = partial_trace(rho_hot, {"C1"})
    rho1_t = partial_trace(rho_compressed, {"C1"})
    states = dense.cooling_states(rho_compressed, sys, 0.5, max(n_values))
    mole = CODATA2018.avogadro
    t1_target, t1_reset = sys.qubit("C1").t1, sys.qubit("H").t1

    def cycle(rho_cooled, rho2_t, cycle_time, cold):
        rho3_t = partial_trace(dense.stroke(rho_cooled, sys, dense.EXPANSION, tau), {"C1"})
        q_in = energy(h0, rho0_t) - energy(h0, rho3_t)
        q_out = energy(h1, rho1_t) - energy(h1, rho2_t)
        net = (q_in - q_out) * mole
        return {
            "w1": dense.stroke_work(h0, rho0_t, h1, rho1_t) * mole,
            "w2": dense.stroke_work(h1, rho2_t, h0, rho3_t) * mole,
            "q_in": q_in * mole,
            "q_out": q_out * mole,
            "net_work": net,
            "efficiency": 0.5,
            "power": net / cycle_time,
            "cycle_time": cycle_time,
            "cooled_target_temperature": cold,
        }

    cycles, references = [], []
    for n in n_values:
        rho2_t = partial_trace(states[n], {"C1"})
        cold = effective_temperature(polarization(rho2_t), sys.omega("C1", 0.5))
        row = cycle(states[n], rho2_t, t1_target + t1_reset * (2 * n + 1), cold)
        cycles.append({"n_rounds": n, **row})
        rho2_ref = dense.gibbs(levels1, cold, ("C1",))
        cooled_ref = reset_channel(rho_compressed, "C1", rho2_ref)
        references.append(cycle(cooled_ref, rho2_ref, 2 * t1_target, cold))
    return cycles, references


class TestTwoStroke:
    def test_optimum_anchor_430mhz(self, tce):
        report = run_two_stroke(tce, mhz(430.0), 1)
        assert report.engine_kind == TWO_STROKE_HBAC
        assert report.net_work == pytest.approx(1.5e-6, rel=7e-2)
        assert report.power == pytest.approx(1.47e-7, rel=5e-2)
        assert report.efficiency == pytest.approx(0.707, abs=0.01)
        assert report.in_window
        assert report.omega_s == mhz(430.0)
        assert report.w1 is None and report.w2 is None

    def test_work_anchor_580mhz(self, tce):
        report = run_two_stroke(tce, mhz(580.0), 5)
        assert report.net_work == pytest.approx(3.0e-6, rel=7e-2)

    def test_matches_closed_form(self, tce):
        for omega_mhz in (200.0, 430.0, 580.0, 900.0):
            for n in (0, 1, 5):
                report = run_two_stroke(tce, mhz(omega_mhz), n)
                expected = oracles.two_stroke_closed_form(omega_mhz, n)
                assert report.net_work == pytest.approx(expected["work"], rel=1e-3)
                assert report.power == pytest.approx(expected["power"], rel=1e-3)
                assert report.efficiency == pytest.approx(expected["eta"], rel=1e-6)

    def test_degenerate_frequency_gives_zero_work(self, tce):
        report = run_two_stroke(tce, tce.omega("C1"), 1)
        assert abs(report.net_work) <= 1e-12
        assert report.efficiency == 0.0
        assert not report.in_window

    def test_cooled_temperature_at_full_field(self, tce):
        report = run_two_stroke(tce, mhz(430.0), 1)
        assert report.cooled_target_temperature == pytest.approx(50.3, abs=0.1)

    def test_rejects_bad_inputs(self, tce):
        with pytest.raises(ValueError):
            run_two_stroke(tce, -1.0, 1)
        with pytest.raises(ValueError):
            run_two_stroke(tce, mhz(430.0), -1)


class TestPositiveWorkWindow:
    def test_half_bath_ratio(self):
        low, high = positive_work_window(mhz(100.0), 300.0, 150.0)
        assert low == mhz(100.0)
        assert high == pytest.approx(mhz(200.0), rel=1e-12)

    def test_first_round_window(self, tce):
        report = run_two_stroke(tce, mhz(430.0), 1)
        low, high = positive_work_window(
            tce.omega("C1"), tce.bath_temperature, report.cooled_target_temperature
        )
        assert low / TWO_PI / 1e6 == pytest.approx(125.77, rel=1e-9)
        assert high / TWO_PI / 1e6 == pytest.approx(750.0, abs=1.0)

    def test_rejects_bad_temperatures(self):
        # a target not below the bath has no window; non-positive inputs are errors
        assert positive_work_window(1.0, 300.0, 300.0) is None
        assert positive_work_window(1.0, 300.0, 377.0) is None
        with pytest.raises(ValueError):
            positive_work_window(1.0, 300.0, -1.0)
        with pytest.raises(ValueError):
            positive_work_window(1.0, 0.0, 150.0)
        with pytest.raises(ValueError):
            positive_work_window(0.0, 300.0, 150.0)


@pytest.fixture(scope="module")
def one_round_fine_table(tce):
    grid = [mhz(w) for w in range(120, 1001)]  # 1 MHz resolution
    return sweep_two_stroke(tce, grid, [1])


class TestTwoStrokeSweep:
    def test_positive_work_iff_inside_window(self, one_round_fine_table):
        table = one_round_fine_table
        for report in table.reports:
            if report.in_window:
                assert report.net_work > 0
            else:
                assert report.net_work <= 1e-12

    def test_window_edges_at_one_mhz_resolution(self, one_round_fine_table, tce):
        # expected edges for n=1: (125.77, ~750.2) MHz
        inside = [
            r.omega_s / TWO_PI / 1e6
            for r in one_round_fine_table.reports
            if r.net_work > 0
        ]
        assert min(inside) == 126.0
        assert max(inside) == 750.0

    def test_concave_work_profile_with_interior_maximum(self, one_round_fine_table):
        inside = [r for r in one_round_fine_table.reports if r.in_window]
        work = np.array([r.net_work for r in inside])
        second_difference = np.diff(work, n=2)
        assert np.all(second_difference < 0)
        peak = int(np.argmax(work))
        assert 0 < peak < len(work) - 1

    def test_power_optimum_near_430mhz(self, tce):
        grid = [mhz(w) for w in range(150, 1001, 2)]
        table = sweep_two_stroke(tce, grid, [1, 2, 3, 4, 5, 6, 7, 8])
        best = table.argmax_power()
        assert best.n_rounds == 1
        assert 420.0 <= best.omega_s / TWO_PI / 1e6 <= 450.0
        assert best.power == pytest.approx(1.47e-7, rel=5e-2)

    def test_row_order_and_axes(self, tce):
        grid = [mhz(w) for w in (200.0, 430.0)]
        table = sweep_two_stroke(tce, grid, [1, 2])
        assert [r.n_rounds for r in table.reports] == [1, 1, 2, 2]
        assert [r.omega_s for r in table.reports] == [grid[0], grid[1], grid[0], grid[1]]
        assert table.axes == {"n_rounds": (1, 2), "omega_s": tuple(grid)}

    def test_rows_match_single_cycles(self, tce):
        # one shared cooling run must give each row its own n-round cycle
        grid = [mhz(w) for w in (200.0, 430.0, 900.0)]
        n_values = [0, 1, 5]
        table = sweep_two_stroke(tce, grid, n_values)
        expected = [run_two_stroke(tce, w, n) for n in n_values for w in grid]
        assert list(table.reports) == expected

    def test_matches_dense_reference_cycle(self, tce):
        # every 7th point of the CLI default grid, points within 1e-6 relative
        # of both window edges for every n, and partners below omega_T
        n_values = range(9)
        trace = run_ppa(thermal_marginal_polarization(tce, "C1", 1.0), tce, 1.0, max(n_values))
        omega_t = tce.omega("C1")
        edges = [omega_t] + [
            omega_t * tce.bath_temperature / trace.target_effective_temperature[n]
            for n in n_values
        ]
        grid = {mhz(w) for w in cli._parse_omega_grid("150:1000:1")[::7]}
        grid |= {edge * (1.0 + k * 1e-7) for edge in edges for k in (-10, -3, -1, 0, 1, 3, 10)}
        grid |= {omega_t * f for f in (0.25, 0.5, 0.9, 0.999)}
        grid = sorted(grid)

        table = sweep_two_stroke(tce, grid, n_values)
        states = dense.cooling_states(thermal_state(tce, 1.0), tce, 1.0, max(n_values))
        expected = [
            dense_two_stroke_cycle(
                tce,
                w,
                n,
                partial_trace(states[n], {"C1"}),
                trace.target_effective_temperature[n],
            )
            for n in n_values
            for w in grid
        ]
        names = ("net_work", "power", "efficiency", "in_window")
        assert_matches_dense({name: table.columns[name] for name in names}, expected)
        assert table.columns["in_window"].any() and not table.columns["in_window"].all()

    def test_efficiency_tiles_across_round_counts(self, tce):
        # eta = 1 - omega_T / omega_S depends on the partner only, so every
        # round-count block repeats the first bit for bit, the zero at omega_T included
        omega_t = tce.omega("C1")
        grid = sorted({omega_t, omega_t / 2} | {mhz(w) for w in cli._parse_omega_grid("150:1000:1")})
        n_values = range(9)
        table = sweep_two_stroke(tce, grid, n_values)
        blocks = table.columns["efficiency"].view(np.uint64).reshape(len(n_values), len(grid))
        assert (blocks == blocks[0]).all()
        assert 0.0 in table.columns["efficiency"]

    def test_validations_do_not_grow_with_the_grid(self, tce):
        # the exchange runs on polarizations: the package forms no state to
        # validate, and one Gibbs marginal and one cooling run serve every
        # grid point
        grids = [np.linspace(mhz(150.0), mhz(1000.0), points) for points in (2, 200)]
        assert [state_work(sweep_two_stroke, tce, grid, [1, 2, 3]) for grid in grids] == [(1, 1)] * 2

    def test_rejects_negative_round_count(self, tce):
        with pytest.raises(ValueError, match="n_rounds"):
            sweep_two_stroke(tce, [mhz(430.0)], [-1, 2])

    def test_heated_target_has_no_window(self, tce):
        # round 0 leaves the target above the bath: no partner gains work
        slow_reset = heated_target_system(tce)
        table = sweep_two_stroke(slow_reset, [mhz(130.0), mhz(200.0)], [0, 1])
        cooled = table.columns["cooled_target_temperature"]
        assert cooled[0] > slow_reset.bath_temperature > cooled[-1]
        assert table.columns["in_window"].tolist() == [False, False, True, False]
        assert (table.columns["net_work"][:2] < 0).all()

    def test_efficiency_identity_inside_window(self, one_round_fine_table):
        # the frequency-ratio efficiency must coincide with W / Q_in
        for report in one_round_fine_table.reports:
            if report.in_window:
                assert abs(report.net_work / report.q_in - report.efficiency) <= 1e-9


def dense_two_stroke_cycle(sys, omega_s, n_rounds, cooled_target, cooled_temperature):
    """Reference two-stroke cycle on dense states: product state, SWAP, partial traces."""
    levels_s = zeeman_levels(omega_s)
    h_s = np.diag(levels_s).astype(complex)
    h_t = np.diag(local_levels(sys, "C1", 1.0)).astype(complex)
    rho0_s = dense.gibbs(levels_s, sys.bath_temperature, ("S",))
    rho0_t = cooled_target

    joint = product_state(rho0_s, rho0_t)
    swapped = apply(swap_unitary(joint.qubits, "S", "C1"), joint)
    rho1_s = partial_trace(swapped, {"S"})
    rho1_t = partial_trace(swapped, {"C1"})
    q_in = energy(h_s, rho0_s) - energy(h_s, rho1_s)
    q_out = energy(h_t, rho1_t) - energy(h_t, rho0_t)
    mole = CODATA2018.avogadro
    net = (q_in - q_out) * mole
    omega_t = sys.omega("C1", 1.0)
    window = positive_work_window(omega_t, sys.bath_temperature, cooled_temperature)
    return {
        "net_work": net,
        "power": net / (sys.qubit("H").t1 * (2 * n_rounds + 1)),
        "efficiency": 1.0 - omega_t / omega_s,
        "in_window": window is not None and window[0] < omega_s < window[1],
    }


class TestReportValidation:
    def test_rejects_first_law_violation(self):
        with pytest.raises(ValueError, match="first-law"):
            CycleReport(
                engine_kind=FOUR_STROKE_HBAC,
                n_rounds=1,
                w1=1.0,
                w2=1.0,
                q_in=5.0,
                q_out=1.0,
                net_work=4.0,
                efficiency=0.5,
                power=1.0,
                cycle_time=1.0,
                cooled_target_temperature=50.0,
            )

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError, match="efficiency"):
            CycleReport(
                engine_kind=TWO_STROKE_HBAC,
                n_rounds=1,
                w1=None,
                w2=None,
                q_in=5.0,
                q_out=1.0,
                net_work=4.0,
                efficiency=1.5,
                power=1.0,
                cycle_time=1.0,
                cooled_target_temperature=50.0,
            )

    def test_sweep_table_rejects_unsorted_axes(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepTable(axes={"n_rounds": (2, 1)}, engine_kind=FOUR_STROKE_HBAC, columns={})

    def test_sweep_table_rejects_incomplete_rows(self, tce):
        report = run_four_stroke(tce, 0)
        with pytest.raises(ValueError, match="incomplete"):
            SweepTable(
                {"n_rounds": (0, 1)},
                report.engine_kind,
                {name: [getattr(report, name)] for name in ("q_in", "q_out", "net_work", "efficiency")},
            )
