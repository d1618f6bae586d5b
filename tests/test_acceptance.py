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
    run_two_stroke,
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


@pytest.fixture(scope="module")
def default_four_stroke_table(tce):
    return sweep_four_stroke(tce, 10)


class TestCriterion1:
    def test_ppa_cooling_curve(self, tce):
        trace = run_ppa(thermal_marginal_polarization(tce, "C1", 0.5), tce, 0.5, 7)
        bound = shannon_bound(tce, 0.5)
        eps0 = trace.target_polarization[0]
        t1 = trace.target_effective_temperature[1]
        eps7 = trace.target_polarization[7]
        t7 = trace.target_effective_temperature[7]
        exceeded = bool((trace.target_polarization[1:] > bound).all())
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
        table = default_four_stroke_table
        first = table.reports[1]
        plateau = table.reports[-1]
        check(
            "2 (four-stroke heats and work)",
            [
                (f"Q_in(1) {first.q_in:.3e} = 5.0e-7 +-5%", within(first.q_in, 5.0e-7, 0.05)),
                (f"Q_out(1) {first.q_out:.3e} = 2.5e-7 +-5%", within(first.q_out, 2.5e-7, 0.05)),
                (f"W(1) {first.net_work:.3e} = 2.5e-7 +-5%", within(first.net_work, 2.5e-7, 0.05)),
                (
                    f"work plateau {plateau.net_work:.3e} = 3.7e-7 +-5%",
                    within(plateau.net_work, 3.7e-7, 0.05),
                ),
                ("efficiency exactly 0.5", all(r.efficiency == 0.5 for r in table.reports)),
            ],
        )


class TestCriterion3:
    def test_four_stroke_power_optimum(self, default_four_stroke_table):
        table = default_four_stroke_table
        best = table.argmax_power()
        crossover = isochoric_crossover(table)
        check(
            "3 (four-stroke power optimum)",
            [
                (f"argmax power n={best.n_rounds} is 2", best.n_rounds == 2),
                (f"P(2) {best.power:.3e} = 5.2e-9 +-5%", within(best.power, 5.2e-9, 0.05)),
                (f"isochoric reference overtakes at n={crossover} (want 6)", crossover == 6),
            ],
        )


class TestCriterion4:
    def test_two_stroke_optima(self, tce):
        fast = run_two_stroke(tce, mhz(430.0), 1)
        big = run_two_stroke(tce, mhz(580.0), 5)
        check(
            "4 (two-stroke optima)",
            [
                (f"W(430,1) {fast.net_work:.3e} = 1.5e-6 +-7%", within(fast.net_work, 1.5e-6, 0.07)),
                (f"P(430,1) {fast.power:.3e} = 1.47e-7 +-5%", within(fast.power, 1.47e-7, 0.05)),
                (
                    f"eta(430,1) {fast.efficiency:.4f} = 0.707 +-0.01",
                    abs(fast.efficiency - 0.707) <= 0.01,
                ),
                (f"W(580,5) {big.net_work:.3e} = 3.0e-6 +-7%", within(big.net_work, 3.0e-6, 0.07)),
            ],
        )


class TestCriterion5:
    def test_oracle_equivalence(self, tce, default_four_stroke_table):
        conditions = []
        worst = 0.0
        for report in default_four_stroke_table.reports:
            expected = oracles.four_stroke_closed_form(report.n_rounds)
            for key, got in (
                ("q_in", report.q_in),
                ("q_out", report.q_out),
                ("work", report.net_work),
                ("power", report.power),
            ):
                worst = max(worst, abs(got - expected[key]) / abs(expected[key]))
        conditions.append(
            (
                f"four-stroke worst relative error {worst:.2e} <= {FOUR_STROKE_ORACLE_RTOL:g}",
                worst <= FOUR_STROKE_ORACLE_RTOL,
            )
        )

        worst2 = 0.0
        grid = [mhz(w) for w in (200.0, 430.0, 580.0, 900.0)]
        table = sweep_two_stroke(tce, grid, range(11))
        for report in table.reports:
            expected = oracles.two_stroke_closed_form(report.omega_s / TWO_PI / 1e6, report.n_rounds)
            for key, got in (
                ("q_in", report.q_in),
                ("q_out", report.q_out),
                ("work", report.net_work),
                ("power", report.power),
            ):
                worst2 = max(worst2, abs(got - expected[key]) / abs(expected[key]))
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
        cooled = [diagonal_state(populations, trace.qubits) for populations in rows]
        rho3 = stroke(cooled[-1], tce, EXPANSION)
        for state in [tce_thermal, rho1, *cooled, rho3]:
            m = state.matrix
            state_checks.append(abs(np.trace(m) - 1) <= 1e-12)
            state_checks.append(np.max(np.abs(m - m.conj().T)) <= 1e-12)
            state_checks.append(np.min(np.linalg.eigvalsh(m)) >= -1e-10)
        conditions.append(("(a) trace/Hermiticity/PSD at every stage", all(state_checks)))

        # (b) first-law closure on every four-stroke report
        closure = max(
            abs(r.net_work - (r.w1 + r.w2)) / max(abs(r.q_in), abs(r.q_out))
            for r in default_four_stroke_table.reports
        )
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
        report_n1 = run_two_stroke(tce, mhz(430.0), 1)
        low, high = positive_work_window(
            tce.omega("C1"), tce.bath_temperature, report_n1.cooled_target_temperature
        )
        grid = [mhz(w) for w in range(120, 1001)]
        sweep = sweep_two_stroke(tce, grid, [1])
        window_ok = all(
            (r.net_work > 0) == (low < r.omega_s < high) for r in sweep.reports
        )
        conditions.append(("(e) positive work iff inside the window (1 MHz sweep)", window_ok))

        # (f) product-state fidelity of the register thermal state
        product = product_state(
            *(partial_trace(tce_thermal, {q}) for q in tce_thermal.qubits)
        )
        f = fidelity(tce_thermal, product)
        conditions.append((f"(f) thermal-state product fidelity {f:.8f} >= 0.999999", f >= 0.999999))

        check("6 (property suites)", conditions)
