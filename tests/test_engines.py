import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import dense
import oracles
from conftest import changed
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
    FOUR_STROKE_HBAC,
    TWO_STROKE_HBAC,
    SweepTable,
    isochoric_crossover,
    positive_work_window,
    sweep_four_stroke,
    sweep_two_stroke,
)
from spinotto.hbac import run_ppa
from spinotto.spinsys import (
    AVOGADRO,
    ConfigError,
    effective_temperature,
    thermal_marginal_polarization,
    thermal_polarization,
)

TWO_PI = 2.0 * math.pi


# Normwise error of a column against the dense cycles: the largest deviation
# over the largest dense magnitude.  The dense cycles form each polarization
# as a difference of two populations near 1/2, which cancels about 4.5
# digits; measured worst 1.5e-11 (four-stroke reference power), bound at
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
    return sweep_four_stroke(tce, range(11))


class TestFourStroke:
    def test_first_cycle_heats_and_work(self, four_stroke_table):
        assert four_stroke_table.engine_kind == FOUR_STROKE_HBAC
        column = four_stroke_table.column
        assert column("n_rounds")[1] == 1
        assert column("q_in")[1] == pytest.approx(5.0e-7, rel=5e-2)
        assert column("q_out")[1] == pytest.approx(2.5e-7, rel=5e-2)
        assert column("net_work")[1] == pytest.approx(2.5e-7, rel=5e-2)

    def test_matches_closed_form(self, four_stroke_table):
        column = four_stroke_table.column
        expected = [oracles.four_stroke_closed_form(n) for n in column("n_rounds").tolist()]
        for key, name in (
            ("q_in", "q_in"),
            ("q_out", "q_out"),
            ("work", "net_work"),
            ("power", "power"),
            ("t_cold", "cooled_target_temperature"),
        ):
            assert column(name) == pytest.approx([row[key] for row in expected], rel=1e-3), name

    def test_efficiency_is_exactly_half(self, four_stroke_table):
        assert (four_stroke_table.column("efficiency") == 0.5).all()

    def test_first_law_closure(self, four_stroke_table):
        c = four_stroke_table.column
        scale = np.maximum(abs(c("q_in")), abs(c("q_out")))
        assert (abs(c("net_work") - (c("w1") + c("w2"))) <= 1e-9 * scale).all()
        assert (abs(c("net_work") - (c("q_in") - c("q_out"))) <= 1e-9 * scale).all()

    def test_cycle_time_bookkeeping(self, four_stroke_table):
        c = four_stroke_table.column
        assert c("cycle_time").tolist() == [43.0 + 3.5 * (2 * n + 1) for n in c("n_rounds").tolist()]

    def test_compression_work_takes_the_coupled_hot_marginal(self, tce, four_stroke_table):
        # w1 = (hbar/2)(omega_1 - omega_0) eps_hot per mole, with eps_hot the
        # J-coupled Gibbs marginal, 5.6e-12 relative below the bare line's tanh
        omegas = [tce.omega(q) for q in tce.labels]
        eps_hot = oracles.coupled_marginal_polarization(omegas, {(0, 1): 103.0, (0, 2): 9.0, (1, 2): 200.8}, 0)
        w1 = oracles.HBAR / 2 * (tce.omega("C1", 0.5) - tce.omega("C1")) * oracles.N_A * eps_hot
        # measured: equal to the last bit
        assert four_stroke_table.column("w1") == pytest.approx(np.full(11, w1), rel=1e-15, abs=0)

    def test_compression_work_is_negative(self, four_stroke_table):
        assert (four_stroke_table.column("w1") < 0).all()
        assert (four_stroke_table.column("w2") > 0).all()

    def test_rejects_negative_rounds(self, tce):
        with pytest.raises(ValueError):
            sweep_four_stroke(tce, [-1])

    def test_rejects_non_integer_rounds(self, tce):
        # np.fromiter would run 2.5 as n = 2
        with pytest.raises(ValueError, match=r"^n_rounds must be integers, got 2\.5$"):
            sweep_four_stroke(tce, [1, 2.5])

    def test_rejects_an_empty_round_grid(self, tce):
        with pytest.raises(ValueError, match="^empty round-count grid$"):
            sweep_four_stroke(tce, [])


class TestIsochoricReference:
    def test_matched_cold_bath_reproduces_work(self, tce, four_stroke_table):
        # cooled to the same temperature, the reference does the same work in 2 tau_T
        column = four_stroke_table.column
        assert (column("power_isochoric") == column("net_work") / 86.0).all()

    def test_zero_work_when_cold_bath_matches_compressed_frequency(self, tce):
        # the frozen post-compression polarization equals the half-field
        # thermal polarization at bath/2, so that is the zero-work point
        assert abs(reference_work(tce, tce.bath_temperature / 2)) <= 1e-12  # J/mol, vs ~1e-7 at one round

    def test_bath_temperature_cold_bath_consumes_work(self, tce):
        # "cooling" at the bath temperature under the half-field Hamiltonian
        # lowers the polarization below its frozen value: net work is negative
        assert reference_work(tce, tce.bath_temperature) < 0

    def test_crossover_needs_a_four_stroke_table(self, tce):
        with pytest.raises(ValueError, match="no isochoric reference"):
            isochoric_crossover(sweep_two_stroke(tce, [mhz(430.0)], [1, 2]))

    def test_crossover_at_six_rounds(self, four_stroke_table):
        assert isochoric_crossover(four_stroke_table) == 6
        power = four_stroke_table.column("power")
        reference = four_stroke_table.column("power_isochoric")
        early = four_stroke_table.column("n_rounds") <= 5
        assert (power[early] > reference[early]).all()
        assert (reference[~early] > power[~early]).all()


class TestFourStrokeSweep:
    def test_power_peaks_at_two_rounds(self, four_stroke_table):
        best = four_stroke_table.argmax_power()
        assert isinstance(best, int)
        assert four_stroke_table.column("n_rounds")[best] == 2
        assert four_stroke_table.column("power")[best] == pytest.approx(5.2e-9, rel=5e-2)

    def test_work_plateau(self, four_stroke_table):
        work = four_stroke_table.column("net_work").tolist()
        assert work[-1] == pytest.approx(3.7e-7, rel=5e-2)
        assert all(b > a for a, b in zip(work, work[1:]))
        # saturation: the last increment is tiny compared to the early ones
        assert work[-1] - work[-2] < 0.01 * (work[1] - work[0])

    def test_argmax_work_is_last_round(self, four_stroke_table):
        column = four_stroke_table.column
        assert column("n_rounds")[np.argmax(column("net_work"))] == 10

    @pytest.mark.parametrize(
        "system,n_values,tau",
        [("tce", range(41), 0.1), ("tce", [0, 3, 17], 7.5), ("tce_h_first", range(13), 0.1)],
    )
    def test_matches_dense_reference_cycles(self, request, system, n_values, tau):
        # the dense cycles propagate their strokes at the drive period tau,
        # which no number of the package depends on
        system = request.getfixturevalue(system)
        table = sweep_four_stroke(system, n_values)
        columns = {name: table.column(name) for name in table.columns}
        cycles, references = dense_four_stroke_cycles(system, n_values, tau)
        # the one comparison that marks where the reference out-powers the cycle
        assert np.array_equal(columns.pop("iso_dominates"), columns["power_isochoric"] > columns["power"])
        assert_matches_dense({"power": columns.pop("power_isochoric")}, references)
        assert set(columns) == set(cycles[0])
        assert_matches_dense(columns, cycles)

    def test_validations_do_not_grow_with_the_round_count(self, tce):
        # the package forms no state to validate: one hot Gibbs marginal and
        # one cooling run, whose rows are checked as one column, serve every
        # round count of both engines
        assert [state_work(sweep_four_stroke, tce, range(n_max + 1)) for n_max in (1, 60)] == [(1, 1)] * 2

    def test_rejects_negative_round_count_before_cooling(self, tce, monkeypatch):
        def no_cooling(*args, **kwargs):
            raise AssertionError("cooling ran for a negative round count")

        monkeypatch.setattr(engines, "run_ppa", no_cooling)
        with pytest.raises(ValueError, match="n_rounds must be >= 0"):
            sweep_four_stroke(tce, [-1, 2])

    def test_heated_target_has_no_reference(self, tce):
        # a reset qubit slower than the target leaves it hotter than the bath
        # after the initial stage: the reference has no cold bath for round 0
        slow_reset = heated_target_system(tce)
        with pytest.raises(ConfigError, match=r"round 0: .* 377\.31 K, above the bath temperature 300 K"):
            sweep_four_stroke(slow_reset, range(4))
        table = sweep_four_stroke(slow_reset, [1, 2, 3])
        assert (table.column("cooled_target_temperature") < slow_reset.bath_temperature).all()


def reference_work(sys, cold_temperature):
    """Net work of the isochoric reference cycle with its cold bath at ``cold_temperature``."""
    omega0, omega1 = sys.omega("C1", 1.0), sys.omega("C1", 0.5)
    gain = thermal_polarization(omega1, cold_temperature) - thermal_marginal_polarization(sys, "C1", 1.0)
    return engines._otto(omega0, omega1, gain, 2 * sys.qubit("C1").t1)["net_work"]


def state_work(sweep, *args):
    """How many Gibbs marginals and cooling runs one sweep starts."""
    with mock.patch.object(engines, "thermal_marginal_polarization", wraps=thermal_marginal_polarization) as marginal:
        with mock.patch.object(engines, "run_ppa", wraps=run_ppa) as cooling:
            sweep(*args)
    return marginal.call_count, cooling.call_count


def heated_target_system(tce):
    """TCE with the reset line at 100 MHz, below the 125.77 MHz target."""
    qubits = tuple(
        changed(q, omega_over_2pi=100.0) if q.label == "H" else q for q in tce.qubits
    )
    return changed(tce, qubits=qubits)


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
    mole = AVOGADRO
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


def one_cycle(table):
    """The cells of a one-point sweep, by column name."""
    assert len(table) == 1
    return {name: table.cell(name, 0) for name in table.columns}


class TestTwoStroke:
    def test_optimum_anchor_430mhz(self, tce):
        table = sweep_two_stroke(tce, [mhz(430.0)], [1])
        assert table.engine_kind == TWO_STROKE_HBAC
        cycle = one_cycle(table)
        assert cycle["net_work"] == pytest.approx(1.5e-6, rel=7e-2)
        assert cycle["power"] == pytest.approx(1.47e-7, rel=5e-2)
        assert cycle["efficiency"] == pytest.approx(0.707, abs=0.01)
        assert cycle["in_window"]
        assert cycle["omega_s"] == mhz(430.0)
        assert "w1" not in cycle and "w2" not in cycle

    def test_work_anchor_580mhz(self, tce):
        cycle = one_cycle(sweep_two_stroke(tce, [mhz(580.0)], [5]))
        assert cycle["net_work"] == pytest.approx(3.0e-6, rel=7e-2)

    def test_matches_closed_form(self, tce):
        for omega_mhz in (200.0, 430.0, 580.0, 900.0):
            for n in (0, 1, 5):
                cycle = one_cycle(sweep_two_stroke(tce, [mhz(omega_mhz)], [n]))
                expected = oracles.two_stroke_closed_form(omega_mhz, n)
                assert cycle["net_work"] == pytest.approx(expected["work"], rel=1e-3)
                assert cycle["power"] == pytest.approx(expected["power"], rel=1e-3)
                assert cycle["efficiency"] == pytest.approx(expected["eta"], rel=1e-6)

    def test_degenerate_frequency_gives_zero_work(self, tce):
        cycle = one_cycle(sweep_two_stroke(tce, [tce.omega("C1")], [1]))
        assert abs(cycle["net_work"]) <= 1e-12
        assert cycle["efficiency"] == 0.0
        assert not cycle["in_window"]

    def test_cooled_temperature_at_full_field(self, tce):
        cycle = one_cycle(sweep_two_stroke(tce, [mhz(430.0)], [1]))
        assert cycle["cooled_target_temperature"] == pytest.approx(50.3, abs=0.1)

    def test_rejects_bad_inputs(self, tce):
        with pytest.raises(ValueError):
            sweep_two_stroke(tce, [-1.0], [1])
        with pytest.raises(ValueError):
            sweep_two_stroke(tce, [mhz(430.0)], [-1])

    def test_rejects_non_integer_rounds(self, tce):
        with pytest.raises(ValueError, match=r"^n_rounds must be integers, got 1\.5$"):
            sweep_two_stroke(tce, [mhz(430.0)], [1.5])
        # numpy integers are round counts too
        table = sweep_two_stroke(tce, [mhz(430.0)], np.array([1, 2]))
        assert table.columns["n_rounds"].ravel().tolist() == [1, 2]

    def test_rejects_empty_grids(self, tce):
        with pytest.raises(ValueError, match="^empty sweep grid$"):
            sweep_two_stroke(tce, [], [1])
        with pytest.raises(ValueError, match="^empty round-count grid$"):
            sweep_two_stroke(tce, [mhz(430.0)], [])


class TestPositiveWorkWindow:
    def test_half_bath_ratio(self):
        low, high = positive_work_window(mhz(100.0), 300.0, 150.0)
        assert low == mhz(100.0)
        assert high == pytest.approx(mhz(200.0), rel=1e-12)

    def test_first_round_window(self, tce):
        cooled = one_cycle(sweep_two_stroke(tce, [mhz(430.0)], [1]))["cooled_target_temperature"]
        low, high = positive_work_window(tce.omega("C1"), tce.bath_temperature, cooled)
        assert low / TWO_PI / 1e6 == pytest.approx(125.77, rel=1e-9)
        assert high / TWO_PI / 1e6 == pytest.approx(750.0, abs=1.0)

    def test_upper_edges_are_the_scalar_formula_bit_for_bit(self, tce):
        omega_t, bath_t = tce.omega("C1"), tce.bath_temperature
        cooled = np.array([1e-300, 1e-3, 37.869, 299.99999999999994, 300.0, 300.00000000000006, 377.31, 1e300])
        edges = engines.window_upper_edges(omega_t, bath_t, cooled)
        assert edges.tolist() == [omega_t * bath_t / t if t < bath_t else -1.0 for t in cooled.tolist()]
        assert [positive_work_window(omega_t, bath_t, t) for t in cooled.tolist()] == [
            (omega_t, e) if e > 0 else None for e in edges.tolist()
        ]

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

    @pytest.mark.parametrize(
        "omega_t,bath_t,cooled_t",
        [
            (1.0, math.nan, 150.0),
            (1.0, math.inf, 150.0),
            (1.0, 300.0, math.nan),
            (1.0, 300.0, math.inf),
            (math.nan, 300.0, 150.0),
            (math.inf, 300.0, 150.0),
        ],
    )
    def test_rejects_non_finite_arguments(self, omega_t, bath_t, cooled_t):
        with pytest.raises(ValueError, match="positive and finite"):
            positive_work_window(omega_t, bath_t, cooled_t)


@pytest.fixture(scope="module")
def one_round_fine_table(tce):
    grid = [mhz(w) for w in range(120, 1001)]  # 1 MHz resolution
    return sweep_two_stroke(tce, grid, [1])


class TestTwoStrokeSweep:
    def test_positive_work_iff_inside_window(self, one_round_fine_table):
        column = one_round_fine_table.column
        inside = column("in_window")
        assert inside.any() and not inside.all()
        assert (column("net_work")[inside] > 0).all()
        assert (column("net_work")[~inside] <= 1e-12).all()

    def test_window_edges_at_one_mhz_resolution(self, one_round_fine_table, tce):
        # expected edges for n=1: (125.77, ~750.2) MHz
        column = one_round_fine_table.column
        inside = (column("omega_s") / TWO_PI / 1e6)[column("net_work") > 0].tolist()
        assert min(inside) == 126.0
        assert max(inside) == 750.0

    def test_in_window_is_the_sign_of_the_work_at_the_window_edges(self, tce):
        # one-round-count sweeps over grids (rad/s) of 2000 ulps either side of both edges
        omega_t = tce.omega("C1")
        ulps = np.arange(-2000, 2001)
        cooled = sweep_two_stroke(tce, [omega_t], range(41)).column("cooled_target_temperature")
        for n, temperature in enumerate(cooled.tolist()):
            edges = np.array(positive_work_window(omega_t, tce.bath_temperature, temperature))
            grid = (edges.view(np.int64)[:, None] + ulps).view(np.float64).ravel()
            column = sweep_two_stroke(tce, grid, [n]).column
            assert np.array_equal(column("in_window"), column("net_work") > 0), n

    def test_concave_work_profile_with_interior_maximum(self, one_round_fine_table):
        column = one_round_fine_table.column
        work = column("net_work")[column("in_window")]
        second_difference = np.diff(work, n=2)
        assert np.all(second_difference < 0)
        peak = int(np.argmax(work))
        assert 0 < peak < len(work) - 1

    def test_power_optimum_near_430mhz(self, tce):
        grid = [mhz(w) for w in range(150, 1001, 2)]
        table = sweep_two_stroke(tce, grid, [1, 2, 3, 4, 5, 6, 7, 8])
        best = table.argmax_power()
        assert table.column("n_rounds")[best] == 1
        assert 420.0 <= table.column("omega_s")[best] / TWO_PI / 1e6 <= 450.0
        assert table.column("power")[best] == pytest.approx(1.47e-7, rel=5e-2)

    def test_sweep_holds_little_memory(self, tce):
        """The paper's grid (851 frequencies x 8 round counts), each column at its own shape."""
        grid = [mhz(w) for w in range(150, 1001)]
        tracemalloc.start()
        try:
            sweep_two_stroke(tce, grid, range(1, 9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured: a peak of 603 kB, against 1.37 MB when every column was
        # raveled to 6808 rows and then copied again
        assert peak < 753_000

    def test_row_order_and_axes(self, tce):
        grid = [mhz(w) for w in (200.0, 430.0)]
        table = sweep_two_stroke(tce, grid, [1, 2])
        assert table.shape == (2, 2) and len(table) == 4
        # each column at the shape it has: per frequency, per round count, or both
        assert {name: column.shape for name, column in table.columns.items()} == {
            "omega_s": (2,), "efficiency": (2,),
            "n_rounds": (2, 1), "cycle_time": (2, 1), "cooled_target_temperature": (2, 1),
            **dict.fromkeys(["q_in", "q_out", "net_work", "power", "in_window"], (2, 2)),
        }
        assert table.column("n_rounds").tolist() == [1, 1, 2, 2]
        assert table.column("omega_s").tolist() == [grid[0], grid[1], grid[0], grid[1]]
        assert table.axes == ("n_rounds", "omega_s")

    def test_rows_match_single_cycles(self, tce):
        # one shared cooling run must give each row its own n-round cycle
        grid = [mhz(w) for w in (200.0, 430.0, 900.0)]
        n_values = [0, 1, 5]
        table = sweep_two_stroke(tce, grid, n_values)
        singles = [sweep_two_stroke(tce, [w], [n]) for n in n_values for w in grid]
        assert set(table.columns) == set(singles[0].columns)
        for name in table.columns:
            column = table.column(name)
            expected = np.concatenate([single.column(name) for single in singles])
            assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name

    def test_matches_dense_reference_cycle(self, tce):
        # every 7th point of the CLI default grid, points within 1e-6 relative
        # of both window edges for every n, and partners below omega_T
        n_values = range(9)
        trace = run_ppa(thermal_marginal_polarization(tce, "C1", 1.0), tce, 1.0, max(n_values))
        omega_t = tce.omega("C1")
        edges = [omega_t] + [
            omega_t * tce.bath_temperature / trace.columns["T_eff"][n]
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
                trace.columns["T_eff"][n],
            )
            for n in n_values
            for w in grid
        ]
        names = ("net_work", "power", "efficiency", "in_window")
        assert_matches_dense({name: table.column(name) for name in names}, expected)
        assert table.column("in_window").any() and not table.column("in_window").all()

    def test_efficiency_tiles_across_round_counts(self, tce):
        # eta = 1 - omega_T / omega_S depends on the partner only, so every
        # round-count block repeats the first bit for bit, the zero at omega_T included
        omega_t = tce.omega("C1")
        grid = sorted({omega_t, omega_t / 2} | {mhz(w) for w in cli._parse_omega_grid("150:1000:1")})
        n_values = range(9)
        table = sweep_two_stroke(tce, grid, n_values)
        blocks = table.column("efficiency").view(np.uint64).reshape(len(n_values), len(grid))
        assert (blocks == blocks[0]).all()
        assert 0.0 in table.column("efficiency")

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
        cooled = table.column("cooled_target_temperature")
        assert cooled[0] > slow_reset.bath_temperature > cooled[-1]
        assert table.column("in_window").tolist() == [False, False, True, False]
        assert (table.column("net_work")[:2] < 0).all()

    def test_efficiency_identity_inside_window(self, one_round_fine_table):
        # the frequency-ratio efficiency must coincide with W / Q_in
        column = one_round_fine_table.column
        inside = column("in_window")
        eta = column("net_work")[inside] / column("q_in")[inside]
        assert (abs(eta - column("efficiency")[inside]) <= 1e-9).all()


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
    mole = AVOGADRO
    net = (q_in - q_out) * mole
    omega_t = sys.omega("C1", 1.0)
    window = positive_work_window(omega_t, sys.bath_temperature, cooled_temperature)
    return {
        "net_work": net,
        "power": net / (sys.qubit("H").t1 * (2 * n_rounds + 1)),
        "efficiency": 1.0 - omega_t / omega_s,
        "in_window": window is not None and window[0] < omega_s < window[1],
    }


def one_point_table(engine_kind=FOUR_STROKE_HBAC, **cells):
    """A one-point table at ``n_rounds=1`` from one cell per column, checked as a sweep checks its table."""
    table = SweepTable(("n_rounds",), engine_kind, {"n_rounds": [1], **{name: [value] for name, value in cells.items()}})
    return engines._check_energetics(table)


# the axis columns of a 2x3 two-stroke grid: round counts down axis 0, frequencies along axis 1
GRID_2X3 = {"n_rounds": np.array([[1], [2]]), "omega_s": np.array([1.0, 2.0, 3.0])}


class TestReportValidation:
    def test_rejects_first_law_violation(self):
        # q_in - q_out closes; the stroke works do not
        with pytest.raises(ValueError, match=r"first-law violation: net_work != w1 \+ w2"):
            one_point_table(w1=1.0, w2=1.0, q_in=5.0, q_out=1.0, net_work=4.0, efficiency=0.5)

    def test_rejects_work_other_than_the_heat_difference(self):
        # w1 + w2 closes; q_in - q_out does not
        with pytest.raises(ValueError, match=r"first-law violation: net_work != q_in - q_out"):
            one_point_table(w1=1.0, w2=2.0, q_in=5.0, q_out=1.0, net_work=3.0, efficiency=0.5)

    def test_rejects_bad_efficiency(self):
        # no stroke works, as in a two-stroke table
        with pytest.raises(ValueError, match=r"efficiency 1\.5 outside \(0, 1\) at positive work"):
            one_point_table(TWO_STROKE_HBAC, q_in=5.0, q_out=1.0, net_work=4.0, efficiency=1.5)

    def test_closure_tolerance_scales_with_the_largest_term(self):
        # a residual of 1.5e-9 is inside 1e-9 of q_out = 2 but not of q_in or net_work, whose size is 1
        one_point_table(TWO_STROKE_HBAC, q_in=1.0, q_out=2.0, net_work=-1.0 - 1.5e-9, efficiency=0.5)
        with pytest.raises(ValueError, match=r"first-law violation: net_work != q_in - q_out"):
            one_point_table(TWO_STROKE_HBAC, q_in=1.0, q_out=2.0, net_work=-1.0 - 2.5e-9, efficiency=0.5)

    def test_exact_closure_passes_when_the_tolerance_underflows(self):
        # 1e-9 of a subnormal scale rounds to 0; a residual of 0 does not exceed it
        one_point_table(w1=2e-323, w2=-1e-323, q_in=2e-323, q_out=1e-323, net_work=1e-323, efficiency=0.5)

    def test_sweep_table_rejects_unsorted_axes(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepTable(axes=("n_rounds",), engine_kind=FOUR_STROKE_HBAC, columns={"n_rounds": np.array([2, 1])})

    def test_sweep_table_rejects_an_axis_column_along_another_axis(self):
        # a 2x2 table whose round counts vary along the frequency axis
        with pytest.raises(ValueError, match="axis column n_rounds of shape \\(2,\\) does not lie along axis 0"):
            SweepTable(("n_rounds", "omega_s"), TWO_STROKE_HBAC,
                       {"n_rounds": np.array([1, 2]), "omega_s": np.array([1.0, 2.0])})

    def test_sweep_table_rejects_incomplete_rows(self, tce):
        table = sweep_four_stroke(tce, [0])
        with pytest.raises(ValueError, match="incomplete"):
            SweepTable(
                ("n_rounds",),
                table.engine_kind,
                {"n_rounds": np.array([0, 1]), **{
                    name: table.column(name) for name in ("q_in", "q_out", "net_work", "efficiency")
                }},
            )

    @pytest.mark.parametrize(
        "shape", [(2,), (2, 2), (1, 3, 1), (1, 1)], ids=["wrong-length", "wrong-axis", "extra-axis", "no-axis"]
    )
    def test_sweep_table_rejects_a_column_that_does_not_fit(self, shape):
        cells = {"q_in": np.full((2, 3), 5.0), "q_out": np.ones((2, 3)), "net_work": np.full((2, 3), 4.0), **GRID_2X3}
        with pytest.raises(ValueError, match="incomplete"):
            SweepTable(("n_rounds", "omega_s"), TWO_STROKE_HBAC,
                       {**cells, "efficiency": np.full(shape, 0.8)})

    def test_sweep_table_takes_its_arrays_read_only(self):
        cells = {"q_in": np.full((2, 3), 5.0), "q_out": np.ones((2, 3)), "net_work": np.full((2, 3), 4.0), **GRID_2X3}
        per_frequency = np.array([0.7, 0.8, 0.9])
        table = SweepTable(("n_rounds", "omega_s"), TWO_STROKE_HBAC,
                           {**cells, "efficiency": per_frequency})
        assert table.columns["efficiency"] is per_frequency and not per_frequency.flags.writeable
        assert table.column("efficiency").tolist() == [0.7, 0.8, 0.9] * 2
        assert table.cell("efficiency", 4) == 0.8 and len(table) == 6

    def test_cell_reads_each_column_at_its_own_index(self, tce):
        # a 3x4 two-stroke table: omega_s and efficiency are (G,), n_rounds and the cycle time (R, 1), the work (R, G)
        table = sweep_two_stroke(tce, [mhz(w) for w in (200.0, 430.0, 700.0, 900.0)], [1, 2, 5])
        shapes = {name: column.shape for name, column in table.columns.items()}
        assert {shapes["omega_s"], shapes["n_rounds"], shapes["net_work"]} == {(4,), (3, 1), (3, 4)}
        size = len(table)
        for name in table.columns:
            column = table.column(name)
            for row in [*range(-size, size), np.intp(size - 1), np.int64(-size)]:
                assert table.cell(name, row) == column.item(row), (name, row)
            for row in (size, -size - 1, 10**12):
                with pytest.raises(IndexError) as expected:
                    column.item(row)
                with pytest.raises(IndexError, match=f"^{re.escape(str(expected.value))}$"):
                    table.cell(name, row)
