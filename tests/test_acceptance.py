"""Acceptance criteria, one test per criterion at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -v -s``
or in captured output) before asserting, so the suite doubles as a
checklist.  The strokes of criterion 6 are the dense reference
propagator's, at the default drive period of 0.1 s.
"""

import math

import numpy as np
import pytest

import oracles
from dense import (
    COMPRESSION,
    EXPANSION,
    comp_unitary,
    diagonal_state,
    fidelity,
    partial_trace,
    product_state,
    single_qubit_state,
    stroke,
    trace_rows,
)
from oracles import mhz
from spinotto.engines import (
    isochoric_crossover,
    positive_work_window,
    sweep_four_stroke,
    sweep_two_stroke,
)
from spinotto.hbac import run_ppa, shannon_bound
from spinotto.spinsys import thermal_marginal_polarization

TWO_PI = 2.0 * math.pi


def check(criterion: str, conditions: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in conditions if not ok]
    status = "FAIL" if failed else "PASS"
    detail = f" [{'; '.join(failed)}]" if failed else ""
    print(f"ACCEPTANCE {criterion}: {status}{detail}")
    assert not failed, f"{criterion} failed: {failed}"


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


# Criterion 5 bounds against the exact-map oracles, about twice the measured
# worst relative error.  Four-stroke: 5.6e-12, the J couplings the oracle
# omits, which lower the hot target's polarization by 5.6e-12 relative.
# Two-stroke (no hot register state enters): 1.3e-15, round-off.
FOUR_STROKE_ORACLE_RTOL = 1e-11
TWO_STROKE_ORACLE_RTOL = 3e-15


def worst_relative_error(column, expected):
    """Largest relative error of the heat, work and power columns against per-row oracle dicts."""
    worst = 0.0
    for key, name in (("q_in", "q_in"), ("q_out", "q_out"), ("work", "net_work"), ("power", "power")):
        want = np.array([row[key] for row in expected])
        worst = max(worst, float(np.max(abs(column(name) - want) / abs(want))))
    return worst


@pytest.fixture(scope="module")
def default_four_stroke_table(tce):
    return sweep_four_stroke(tce, range(11))


class TestCriterion1:
    def test_ppa_cooling_curve(self, tce):
        trace = run_ppa(thermal_marginal_polarization(tce, "C1", 0.5), tce, 0.5, 7)
        bound = shannon_bound(tce, 0.5)
        eps0 = trace.columns["eps_target"][0]
        t1 = trace.columns["T_eff"][1]
        eps7 = trace.columns["eps_target"][7]
        t7 = trace.columns["T_eff"][7]
        exceeded = bool((trace.columns["eps_target"][1:] > bound).all())
        check(
            "1 (PPA cooling curve)",
            [
                (f"zeroth polarization {eps0:.3e} = 2.00e-5 +-2%", within(eps0, 2.00e-5, 0.02)),
                (f"round-1 temperature {t1:.2f} K = 50 +-2 K", abs(t1 - 50.0) <= 2.0),
                (f"round-7 polarization {eps7:.3e} = 4.0e-5 +-2%", within(eps7, 4.0e-5, 0.02)),
                (f"round-7 temperature {t7:.2f} K = 37.7 +-1 K", abs(t7 - 37.7) <= 1.0),
                ("Shannon bound exceeded from round 1 onward", exceeded),
            ],
        )


class TestCriterion2:
    def test_four_stroke_heats_and_work(self, default_four_stroke_table):
        column = default_four_stroke_table.column
        q_in, q_out, work = column("q_in")[1], column("q_out")[1], column("net_work")[1]
        plateau = column("net_work")[-1]
        check(
            "2 (four-stroke heats and work)",
            [
                (f"Q_in(1) {q_in:.3e} = 5.0e-7 +-5%", within(q_in, 5.0e-7, 0.05)),
                (f"Q_out(1) {q_out:.3e} = 2.5e-7 +-5%", within(q_out, 2.5e-7, 0.05)),
                (f"W(1) {work:.3e} = 2.5e-7 +-5%", within(work, 2.5e-7, 0.05)),
                (f"work plateau {plateau:.3e} = 3.7e-7 +-5%", within(plateau, 3.7e-7, 0.05)),
                ("efficiency exactly 0.5", bool((column("efficiency") == 0.5).all())),
            ],
        )


class TestCriterion3:
    def test_four_stroke_power_optimum(self, default_four_stroke_table):
        table = default_four_stroke_table
        best = table.argmax_power()
        n, power = table.column("n_rounds")[best], table.column("power")[best]
        crossover = isochoric_crossover(table)
        check(
            "3 (four-stroke power optimum)",
            [
                (f"argmax power n={n} is 2", n == 2),
                (f"P(2) {power:.3e} = 5.2e-9 +-5%", within(power, 5.2e-9, 0.05)),
                (f"isochoric reference overtakes at n={crossover} (want 6)", crossover == 6),
            ],
        )

    def test_crossover_is_the_closed_form(self, default_four_stroke_table):
        crossover = isochoric_crossover(default_four_stroke_table)
        bound = (oracles.TAU_T / oracles.TAU_R - 1.0) / 2.0
        formula = oracles.isochoric_crossover()
        check(
            "3 (isochoric crossover in closed form)",
            [(f"crossover n={crossover} is the first n > (tau_T/tau_R - 1)/2 = {bound:.2f}, n={formula}",
              crossover == formula)],
        )


class TestCriterion4:
    def test_two_stroke_optima(self, tce):
        fast = sweep_two_stroke(tce, [mhz(430.0)], [1]).column
        work, power, eta = fast("net_work")[0], fast("power")[0], fast("efficiency")[0]
        big = sweep_two_stroke(tce, [mhz(580.0)], [5]).column("net_work")[0]
        check(
            "4 (two-stroke optima)",
            [
                (f"W(430,1) {work:.3e} = 1.5e-6 +-7%", within(work, 1.5e-6, 0.07)),
                (f"P(430,1) {power:.3e} = 1.47e-7 +-5%", within(power, 1.47e-7, 0.05)),
                (f"eta(430,1) {eta:.4f} = 0.707 +-0.01", abs(eta - 0.707) <= 0.01),
                (f"W(580,5) {big:.3e} = 3.0e-6 +-7%", within(big, 3.0e-6, 0.07)),
            ],
        )

    def test_paper_grid_finds_the_closed_form_optimum(self, tce):
        # the paper grid, 150..1000 MHz in 1 MHz steps, with one round count at a time
        step, omega_t = mhz(1.0), mhz(oracles.OMEGA_T_MHZ)
        grid = mhz(np.arange(150.0, 1001.0))
        conditions = []
        for n in range(1, 9):
            table = sweep_two_stroke(tce, grid, [n])
            best = table.argmax_power()
            omega_s, eta = table.cell("omega_s", best), table.cell("efficiency", best)
            optimum, eta_star = oracles.two_stroke_optimum(n)
            # eta* is 1 - omega_T/omega_S at the window's midpoint, a few hundred Hz from the
            # optimum; within a grid step of the optimum eta moves by at most this
            midpoint = omega_t / (1.0 - eta_star)
            eta_bound = omega_t * (step + abs(optimum - midpoint)) / (min(optimum, midpoint) - step) ** 2
            conditions += [
                (f"n={n}: best omega_S {omega_s / TWO_PI / 1e6:.2f} MHz within 1 MHz of "
                 f"omega_S* {optimum / TWO_PI / 1e6:.4f}", abs(omega_s - optimum) <= step),
                (f"n={n}: eta {eta:.6f} within {eta_bound:.1e} of eta* {eta_star:.6f}",
                 abs(eta - eta_star) <= eta_bound),
            ]
        check("4 (two-stroke optimum in closed form)", conditions)


class TestCriterion5:
    def test_oracle_equivalence(self, tce, default_four_stroke_table):
        conditions = []
        column = default_four_stroke_table.column
        expected = [oracles.four_stroke_closed_form(n) for n in column("n_rounds").tolist()]
        worst = worst_relative_error(column, expected)
        conditions.append(
            (
                f"four-stroke worst relative error {worst:.2e} <= {FOUR_STROKE_ORACLE_RTOL:g}",
                worst <= FOUR_STROKE_ORACLE_RTOL,
            )
        )

        grid = [mhz(w) for w in (200.0, 430.0, 580.0, 900.0)]
        column = sweep_two_stroke(tce, grid, range(11)).column
        cells = zip((column("omega_s") / TWO_PI / 1e6).tolist(), column("n_rounds").tolist())
        worst2 = worst_relative_error(column, [oracles.two_stroke_closed_form(w, n) for w, n in cells])
        conditions.append(
            (
                f"two-stroke worst relative error {worst2:.2e} <= {TWO_STROKE_ORACLE_RTOL:g}",
                worst2 <= TWO_STROKE_ORACLE_RTOL,
            )
        )
        check("5 (closed-form oracle equivalence)", conditions)


class TestCriterion6:
    def test_property_suites(self, tce, tce_thermal, default_four_stroke_table):
        conditions = []

        # (a) state invariants through every stage of a cycle's pipeline
        state_checks = []
        rho1 = stroke(tce_thermal, tce, COMPRESSION)
        trace = run_ppa(thermal_marginal_polarization(tce, "C1", 1.0), tce, 0.5, 3)
        rows = trace_rows(trace, rho1, tce, shannon_bound(tce, 0.5))
        cooled = [diagonal_state(populations, tce.labels) for populations in rows]
        rho3 = stroke(cooled[-1], tce, EXPANSION)
        for state in [tce_thermal, rho1, *cooled, rho3]:
            m = state.matrix
            state_checks.append(abs(np.trace(m) - 1) <= 1e-12)
            state_checks.append(np.max(np.abs(m - m.conj().T)) <= 1e-12)
            state_checks.append(np.min(np.linalg.eigvalsh(m)) >= -1e-10)
        conditions.append(("(a) trace/Hermiticity/PSD at every stage", all(state_checks)))

        # (b) first-law closure on every four-stroke cycle
        c = default_four_stroke_table.column
        closure = np.max(abs(c("net_work") - (c("w1") + c("w2"))) / np.maximum(abs(c("q_in")), abs(c("q_out"))))
        conditions.append((f"(b) first-law closure {closure:.2e} <= 1e-9", closure <= 1e-9))

        # (c) strokes freeze diagonal populations to 1e-12
        drift1 = np.max(np.abs(rho1.populations - tce_thermal.populations))
        drift2 = np.max(np.abs(rho3.populations - cooled[-1].populations))
        conditions.append(
            (f"(c) stroke population drift {max(drift1, drift2):.2e} <= 1e-12",
             max(drift1, drift2) <= 1e-12)
        )

        # (d) compression-gate polarization law on randomized products
        rng = np.random.default_rng(2024)
        gate = comp_unitary(("t", "c", "r"))
        law_error = 0.0
        for _ in range(100):
            eps_t, eps_c, eps_r = rng.uniform(0.0, 1e-3, size=3)
            rho = product_state(
                single_qubit_state(eps_t, "t"),
                single_qubit_state(eps_c, "c"),
                single_qubit_state(eps_r, "r"),
            )
            target = rho.populations[gate.gather(rho.qubits)].reshape(2, 4).sum(axis=1)
            got = target[0] - target[1]
            law_error = max(law_error, abs(got - (eps_t / 2 + (eps_c + eps_r) / 2)))
        conditions.append((f"(d) COMP law error {law_error:.2e} <= 1e-9", law_error <= 1e-9))

        # (e) positive work strictly inside and only inside the window
        cooled_n1 = sweep_two_stroke(tce, [mhz(430.0)], [1]).column("cooled_target_temperature")[0]
        low, high = positive_work_window(tce.omega("C1"), tce.bath_temperature, cooled_n1)
        grid = [mhz(w) for w in range(120, 1001)]
        sweep = sweep_two_stroke(tce, grid, [1]).column
        omega_s = sweep("omega_s")
        window_ok = bool(((sweep("net_work") > 0) == ((low < omega_s) & (omega_s < high))).all())
        conditions.append(("(e) positive work iff inside the window (1 MHz sweep)", window_ok))

        # (f) product-state fidelity of the register thermal state
        product = product_state(
            *(partial_trace(tce_thermal, {q}) for q in tce_thermal.qubits)
        )
        f = fidelity(tce_thermal, product)
        conditions.append((f"(f) thermal-state product fidelity {f:.8f} >= 0.999999", f >= 0.999999))

        check("6 (property suites)", conditions)
