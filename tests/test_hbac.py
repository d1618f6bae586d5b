import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
import oracles
from dense import (
    DensityMatrix,
    is_diagonal,
    partial_trace,
    product_state,
    reset_channel,
    single_qubit_state,
    thermal_state,
)
from spinotto import hbac
from spinotto.hbac import PpaTrace, ppa_round, run_ppa, shannon_bound
from spinotto.spinsys import (
    ConfigError,
    Role,
    StateInvariantError,
    effective_temperature,
    thermal_marginal_polarization,
    thermal_polarization,
)

TCE_ORDER = ("C1", "C2", "H")

# Measured bounds, each about twice the worst error seen.
# Populations of the registers a trace describes against the dense channel,
# relative per population: 6.7e-16 over 2000 rounds in both register orders
# at field scales 0.5 and 1.
POPULATION_RTOL = 1.5e-15
# Polarizations the dense channel forms as differences of two marginal
# populations near 1/2, which cancels about 4.5 digits: its target is off
# the trace by 7.8e-12 relative and its reset qubit by 9.7e-12.
DENSE_POLARIZATION_RTOL = 2e-11
# The trace's target against the exact map in rational arithmetic, started
# from the same float eps_b: 2.3e-16 relative over 300 rounds.
EXACT_MAP_RTOL = 1e-15


def tce_product(eps_t, eps_c, eps_r):
    """A (C1, C2, H) product state with these polarizations."""
    return product_state(
        single_qubit_state(eps_t, "C1"),
        single_qubit_state(eps_c, "C2"),
        single_qubit_state(eps_r, "H"),
    )


def thermal_target(sys, field_scale):
    """The target polarization of the register's Gibbs state, a thermal cooling run's input."""
    return thermal_marginal_polarization(sys, sys.label_for_role(Role.TARGET), field_scale)


def rel_err(got, want):
    return np.max(np.abs(np.asarray(got) - want) / np.abs(want))


def dense_polarizations(rows, qubits, label):
    """A qubit's polarization in each dense population row, as the dense channel forms it."""
    p = np.moveaxis(np.reshape(rows, (-1, 2, 2, 2)), qubits.index(label) + 1, 1)
    return (p[:, 0] - p[:, 1]).sum(axis=(1, 2))


def exact_map(eps_b, n_rounds):
    """The target polarization of every round by the exact map in rational arithmetic."""
    eps_b = Fraction(eps_b)
    a = (1 - eps_b * eps_b) / 2
    out = [eps_b]
    for _ in range(n_rounds):
        out.append(out[-1] * a + eps_b)
    return out


@pytest.fixture(scope="module")
def eps_bath_half(tce):
    return thermal_polarization(tce.omega("H", 0.5), tce.bath_temperature)


class TestInitialStage:
    def test_thermal_half_field_reaches_bath_polarization(self, tce, eps_bath_half):
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 0)
        assert trace.target_polarization[0] == eps_bath_half
        assert trace.target_polarization[0] == pytest.approx(2.000e-5, rel=2e-2)

    def test_target_already_at_reset_polarization(self, tce, eps_bath_half):
        trace = run_ppa(eps_bath_half, tce, 0.5, 0)
        assert trace.target_polarization[0] == eps_bath_half
        assert trace.reset_polarization[0] == pytest.approx(eps_bath_half, rel=DENSE_POLARIZATION_RTOL, abs=0)

    def test_reset_takes_the_input_target_marginal(self, tce, tce_thermal_half):
        # the dense initial stage's SWAP hands the reset qubit the target's
        # input marginal, which is all a run takes of its input
        for rho, eps_in in (
            (tce_thermal_half, thermal_target(tce, 0.5)),
            (tce_product(3e-5, 0.0, 0.7), 3e-5),
        ):
            trace = run_ppa(eps_in, tce, 0.5, 2)
            state = dense.initial_stage(rho, dense.schedule(rho, tce, 0.5))
            want = dense.polarization_of(state, "H")
            assert abs(trace.reset_polarization[0] - want) <= DENSE_POLARIZATION_RTOL * want

    def test_compression_marginal_untouched(self, tce, eps_bath_half):
        # the trace's row 0 takes the compression qubit's input marginal as it
        # is: the dense initial stage leaves it there
        rho = tce_product(3e-5, 1.7e-5, 0.7)
        state = dense.initial_stage(rho, dense.schedule(rho, tce, 0.5))
        assert dense.polarization_of(state, "C2") == pytest.approx(1.7e-5, rel=DENSE_POLARIZATION_RTOL, abs=0)
        rows = dense.trace_rows(run_ppa(3e-5, tce, 0.5, 0), rho, tce, eps_bath_half)
        assert rel_err(rows[0], state.populations) <= POPULATION_RTOL

    def test_rejects_wrong_register(self, tce):
        # cooling needs one target, one compression and one reset qubit
        bad = replace(tce, qubits=tuple(replace(q, role=Role.TARGET) for q in tce.qubits))
        with pytest.raises(ConfigError, match="exactly one target, one compression and one reset"):
            run_ppa(1e-5, bad, 0.5, 1)


class TestPpaRound:
    def test_recurrence_single_step(self, tce, eps_bath_half):
        # one dense round from a product state whatever its compression and
        # reset qubits hold, against the map and the oracle's recurrence
        for eps_in in (2.0e-5, 3.0e-5, 4.0e-5, 0.3):
            rho = tce_product(eps_in, 1e-5, 7e-6)
            state = dense.ppa_round(rho, dense.schedule(rho, tce, 0.5))
            eps = ppa_round(eps_in, eps_bath_half)
            assert abs(dense.polarization_of(state, "C1") - eps) <= DENSE_POLARIZATION_RTOL * eps
        expected = oracles.eps_by_recurrence(eps_bath_half, 1)
        assert ppa_round(eps_bath_half, eps_bath_half) == pytest.approx(expected, rel=EXACT_MAP_RTOL, abs=0)
        assert expected == pytest.approx(3.0e-5, rel=1e-3)

    def test_fixed_point_at_twice_bath(self, eps_bath_half):
        # the exact fixed point is the limit 2 eps_b/(1 + eps_b**2); twice the
        # bath misses it by the cubic term, about 1e-14 here
        limit = 2 * eps_bath_half / (1 + eps_bath_half**2)
        assert ppa_round(limit, eps_bath_half) == pytest.approx(limit, rel=EXACT_MAP_RTOL, abs=0)
        assert ppa_round(2 * eps_bath_half, eps_bath_half) == pytest.approx(2 * eps_bath_half, abs=1e-13)

    def test_compression_and_reset_carry_half_the_old_target(self, tce, eps_bath_half):
        # COMP moves the same population out of both auxiliary qubits: after a
        # round each holds eps_b less the target's gain, eps_in (1 - a), about
        # half the incoming target polarization
        eps_in = 3.0e-5
        rho = tce_product(eps_in, 1e-5, 1e-5)
        state = dense.ppa_round(rho, dense.schedule(rho, tce, 0.5))
        left = eps_bath_half - (ppa_round(eps_in, eps_bath_half) - eps_in)
        assert left == pytest.approx(eps_in / 2, abs=1e-12)
        for label in ("C2", "H"):
            assert dense.polarization_of(state, label) == pytest.approx(left, rel=DENSE_POLARIZATION_RTOL, abs=0)


class TestDenseReference:
    @pytest.mark.parametrize(
        "system,field_scale",
        [("tce", 0.5), ("tce", 1.0), ("tce_h_first", 0.5)],
    )
    def test_run_matches_dense_rounds_bit_for_bit(self, request, system, field_scale):
        # named for the population loop it compared bit for bit; the closed
        # form is held to the measured bounds state by state: the registers
        # the trace describes against each dense state (measured 6.7e-16), and
        # the target and reset marginals against its partial traces (4.4e-16)
        system = request.getfixturevalue(system)
        rho = thermal_state(system, field_scale)
        trace = run_ppa(thermal_target(system, field_scale), system, field_scale, 200)
        states = dense.cooling_states(rho, system, field_scale, 200)
        assert len(trace.target_polarization) == len(states) == 201
        rows = dense.trace_rows(trace, rho, system, shannon_bound(system, field_scale))
        expected = np.array([state.populations for state in states])
        assert rel_err(rows, expected) <= POPULATION_RTOL
        columns = (("C1", trace.target_polarization), ("H", trace.reset_polarization))
        for n, state in enumerate(states):
            described = dense.diagonal_state(rows[n], rho.qubits)
            assert np.allclose(described.matrix, state.matrix, rtol=POPULATION_RTOL, atol=0)
            for label, column in columns:
                eps = column[n]
                want = partial_trace(state, {label}).populations
                assert rel_err([(1 + eps) / 2, (1 - eps) / 2], want) <= POPULATION_RTOL
        for label, column in columns:
            assert rel_err(column, dense_polarizations(expected, rho.qubits, label)) <= DENSE_POLARIZATION_RTOL

    @pytest.mark.parametrize("field_scale", [1.0, 0.5])
    @pytest.mark.parametrize("system", ["tce", "tce_h_first"])
    def test_float_loop_matches_dense_rounds_over_2000_rounds(self, request, system, field_scale):
        # named for the round loop on eight floats that the closed form
        # replaced: the registers the trace describes against the dense
        # channel (gates.reset_channel, gates.apply), in both register orders
        system = request.getfixturevalue(system)
        rho = thermal_state(system, field_scale)
        trace = run_ppa(thermal_target(system, field_scale), system, field_scale, 2000)
        expected = dense.cooling_rows(rho, system, field_scale, 2000)
        assert expected.shape == (2001, 8)
        rows = dense.trace_rows(trace, rho, system, shannon_bound(system, field_scale))
        assert rel_err(rows, expected) <= POPULATION_RTOL
        for label, column in (("C1", trace.target_polarization), ("H", trace.reset_polarization)):
            assert rel_err(column, dense_polarizations(expected, rho.qubits, label)) <= DENSE_POLARIZATION_RTOL

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(
        temperature=st.floats(0.01, 1e4),
        field_scale=st.floats(0.05, 4.0),
        order=st.sampled_from(["tce", "tce_h_first"]),
    )
    def test_property_matches_dense_and_never_cools_less(self, request, temperature, field_scale, order):
        system = replace(request.getfixturevalue(order), bath_temperature=temperature)
        rho = thermal_state(system, field_scale)
        trace = run_ppa(thermal_target(system, field_scale), system, field_scale, 12)
        expected = dense.cooling_rows(rho, system, field_scale, 12)
        rows = dense.trace_rows(trace, rho, system, shannon_bound(system, field_scale))
        # relative to each row's largest population: near-saturated registers
        # hold populations many orders below it
        assert np.max(np.abs(rows - expected) / expected.max(axis=1, keepdims=True)) <= POPULATION_RTOL
        eps = trace.target_polarization
        assert (eps[1:] >= eps[:-1]).all()

    def test_reset_matches_dense_channel(self):
        # the closed form rests on a reset being the product of the other
        # qubits' marginals with the bath: checked on correlated diagonal
        # states, every slot reset
        rng = np.random.default_rng(31)
        labels = ("t", "c", "r")
        for _ in range(20):
            p = rng.random(8)
            p /= p.sum()
            rho = DensityMatrix(np.diag(p).astype(complex), labels)
            marginals = [np.moveaxis(p.reshape(2, 2, 2), i, 0).reshape(2, 4).sum(axis=1) for i in range(3)]
            for slot, label in enumerate(labels):
                bath = rng.random()
                fresh = DensityMatrix(np.diag([bath, 1.0 - bath]).astype(complex), (label,))
                factors = [fresh.populations if i == slot else m for i, m in enumerate(marginals)]
                want = np.kron(np.kron(factors[0], factors[1]), factors[2])
                got = reset_channel(rho, label, fresh).populations
                assert rel_err(got, want) <= POPULATION_RTOL

    def test_validations_do_not_grow_with_rounds(self, tce, monkeypatch):
        # a run is columns of polarizations and builds no state to validate:
        # its spin temperatures, range check included, are one pass over the
        # whole target column, once per run whatever its length
        calls = []
        honest = hbac.effective_temperature

        def counted(*args):
            calls.append(len(args[0]))
            return honest(*args)

        monkeypatch.setattr(hbac, "effective_temperature", counted)
        for n_max in (1, 50):
            run_ppa(thermal_target(tce, 0.5), tce, 0.5, n_max)
        assert calls == [2, 51]


class TestExactMap:
    @pytest.mark.parametrize("field_scale", [0.5, 1.0])
    def test_target_matches_rational_map_over_300_rounds(self, tce, field_scale):
        trace = run_ppa(thermal_target(tce, field_scale), tce, field_scale, 300)
        exact = exact_map(shannon_bound(tce, field_scale), 300)
        worst = max(abs(Fraction(float(got)) - want) / want for got, want in zip(trace.target_polarization, exact))
        assert worst <= EXACT_MAP_RTOL

    def test_limit_at_the_largest_round_count(self, tce):
        eps_b = shannon_bound(tce, 0.5)
        limit = Fraction(2) * Fraction(eps_b) / (1 + Fraction(eps_b) ** 2)
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 10**6)
        ulp = Fraction(math.ulp(float(limit)))
        # measured: the last row, the largest, lies 0.72 ulp above the rational
        # limit (0.86 ulp at field scale 1); allow one ulp either way
        assert abs(Fraction(float(trace.target_polarization[-1])) - limit) <= ulp
        assert Fraction(float(trace.target_polarization.max())) <= limit + ulp


class TestRunPpa:
    def test_seven_rounds_half_field(self, tce, eps_bath_half):
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 7)
        expected = oracles.eps_after_rounds(eps_bath_half, 7)
        assert trace.target_polarization[-1] == pytest.approx(expected, rel=EXACT_MAP_RTOL, abs=0)
        assert trace.target_polarization[-1] == pytest.approx(4.0e-5, rel=2e-2)
        assert trace.target_effective_temperature[-1] == pytest.approx(37.9, abs=0.1)

    def test_zero_rounds_trace(self, tce, eps_bath_half):
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 0)
        assert [len(c) for c in (trace.target_polarization, trace.reset_polarization)] == [1, 1]
        assert trace.target_polarization[0] == eps_bath_half
        assert trace.target_effective_temperature[0] == pytest.approx(75.4, abs=0.1)

    def test_shannon_bound_exceeded_from_round_one(self, tce):
        bound = shannon_bound(tce, 0.5)
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 7)
        assert (trace.target_polarization[1:] > bound).all()
        assert trace.target_polarization[0] <= bound * (1 + 1e-9)

    def test_rejects_negative_rounds(self, tce):
        with pytest.raises(ValueError):
            run_ppa(thermal_target(tce, 0.5), tce, 0.5, -1)

    def test_saturated_polarization_is_an_invariant_error(self, tce):
        # at 1 mK the first round drives the target polarization to exactly 1.0,
        # which has no finite spin temperature
        cold = replace(tce, bath_temperature=0.001)
        with pytest.raises(StateInvariantError, match=r"round 1: target .* 0\.001 K"):
            run_ppa(thermal_target(cold, 1.0), cold, 1.0, 2)

    def test_saturated_bath_stops_at_round_zero(self, tce):
        # at 0.5 mK the bath polarization itself rounds to 1.0
        cold = replace(tce, bath_temperature=0.0005)
        with pytest.raises(StateInvariantError, match=r"round 0: target polarization 1\.0 .* 0\.0005 K"):
            run_ppa(thermal_target(cold, 1.0), cold, 1.0, 2)

    def test_hot_bath_has_no_finite_spin_temperature(self, tce):
        # at 1e300 K the bath polarization is about 1e-302, and hbar omega /
        # (2 k arctanh(eps)) overflows: the run stops at round 0, unwarned
        hot = replace(tce, bath_temperature=1e300)
        message = r"round 0: target polarization 6\.0006\d*e-303 has no finite spin temperature at bath temperature 1e\+300 K"
        with pytest.raises(StateInvariantError, match=message):
            run_ppa(thermal_target(hot, 0.5), hot, 0.5, 2)

    @pytest.mark.parametrize("eps_in", [0.0, -1e-5, 1.0, math.nan])
    def test_rejects_input_polarization_outside_unit_interval(self, tce, eps_in):
        # the input is row 0's reset polarization and is checked with it
        with pytest.raises(StateInvariantError, match=rf"round 0: reset polarization {eps_in} outside \(0, 1\)"):
            run_ppa(eps_in, tce, 0.5, 1)

    @pytest.mark.parametrize(
        "row,corrupt,message",
        [
            (0, lambda eps: 2 * eps, r"round 1: target polarization 1\.92\d*"),
            (0, lambda eps: math.nan, "round 1: target polarization nan"),
            (0, lambda eps: 1.0 + 1e-9, r"round 1: target polarization 1\.000000001"),
            (1, lambda eps: -eps, r"round 1: reset polarization -0\.70\d*"),
        ],
        ids=["trace", "nan", "negative", "reset-sign"],
    )
    def test_every_round_is_checked(self, tce, monkeypatch, row, corrupt, message):
        # a polarization outside (0, 1) has no spin temperature, and past 1 (or
        # NaN) it is no state: the run names the first round that has one.  A
        # 10 mK bath cools the target to 0.96 in round 1, so that doubling it,
        # as doubling a register's populations doubles its polarizations, leaves (0, 1)
        cold = replace(tce, bath_temperature=0.01)
        honest = hbac.cooling_polarizations

        def corrupted(*args):
            # round 2 is bad too, and the report names round 1
            columns = honest(*args)
            columns[row, 1] = corrupt(columns[row, 1])
            columns[row, 2] = math.nan
            return columns

        monkeypatch.setattr(hbac, "cooling_polarizations", corrupted)
        with pytest.raises(StateInvariantError, match=message + r" outside \(0, 1\) at bath temperature 0\.01 K"):
            run_ppa(thermal_target(cold, 1.0), cold, 1.0, 2)

    def test_memory_per_round_is_bounded(self, tce):
        # a round keeps two polarizations and a temperature, 8 B each, and
        # allocates nothing more that outlives it; the difference of two runs
        # cancels what does not grow with n
        def traced(n_rounds):
            tracemalloc.start()
            try:
                trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, n_rounds)
                return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        traced(0)
        n_rounds = 20_000
        (retained0, peak0), (retained, peak) = traced(0), traced(n_rounds)
        assert retained - retained0 <= 24 * n_rounds + 1024
        # measured: the round indices of the power and the temperature's
        # temporaries peak at 35 B a round
        assert peak - peak0 <= 48 * n_rounds + 1024

    def test_full_field_run(self, tce):
        # the two-stroke engine cools at the unscaled field
        eps_bath = thermal_polarization(tce.omega("H", 1.0), tce.bath_temperature)
        trace = run_ppa(thermal_target(tce, 1.0), tce, 1.0, 1)
        assert trace.target_polarization[-1] == pytest.approx(
            oracles.eps_after_rounds(eps_bath, 1), rel=EXACT_MAP_RTOL
        )
        assert trace.target_effective_temperature[-1] == pytest.approx(50.3, abs=0.1)


class TestClosedFormEquivalence:
    def test_matches_recurrence_up_to_twenty_rounds(self, tce, eps_bath_half):
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 20)
        for n, eps in enumerate(trace.target_polarization):
            expected = oracles.eps_after_rounds(eps_bath_half, n)
            assert eps == pytest.approx(expected, rel=EXACT_MAP_RTOL, abs=0)
            # the two scalar oracle forms agree with each other too
            assert oracles.eps_by_recurrence(eps_bath_half, n) == pytest.approx(expected, rel=EXACT_MAP_RTOL, abs=0)

    def test_monotone_convergence_with_ratio_half(self, tce, eps_bath_half):
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 30)
        limit = 2 * eps_bath_half / (1 + eps_bath_half**2)
        eps = trace.target_polarization
        assert (eps[1:] > eps[:-1]).all()
        # each round closes the gap to the limit by a = (1 - eps_b**2)/2, until
        # the gap nears the limit's own round-off
        gaps = [limit - e for e in eps[:21]]
        for previous, current in zip(gaps, gaps[1:]):
            assert current / previous == pytest.approx((1 - eps_bath_half**2) / 2, rel=1e-8)

    def test_reset_polarization_never_exceeds_bound(self, tce):
        bound = shannon_bound(tce, 0.5)
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 12)
        assert (trace.reset_polarization[1:] < bound).all()

    def test_diagonality_preserved(self, tce, tce_thermal_half):
        # the dense rounds stay diagonal, so the trace's polarizations describe
        # them fully: the registers it describes are the dense states
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 5)
        states = dense.cooling_states(tce_thermal_half, tce, 0.5, 5)
        rows = dense.trace_rows(trace, tce_thermal_half, tce, shannon_bound(tce, 0.5))
        for populations, state in zip(rows, states):
            assert is_diagonal(state.matrix, atol=0.0)
            assert rel_err(populations, state.populations) <= POPULATION_RTOL

    def test_target_polarization_nondecreasing(self, tce):
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 10_000)
        eps = trace.target_polarization
        assert (eps[1:] >= eps[:-1]).all()


class TestTelemetry:
    def test_thermal_reset_state(self, tce, eps_bath_half):
        fresh = dense.thermal_reset_state(tce, 0.5)
        assert fresh.shape == (2,) and fresh.sum() == pytest.approx(1.0, abs=1e-15)
        assert fresh[0] - fresh[1] == pytest.approx(eps_bath_half, abs=1e-15)

    def test_trace_rows_schema(self, tce, tce_thermal_half, eps_bath_half):
        # the trace is read-only columns whose rows are the dense rounds
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 3)
        states = dense.cooling_states(tce_thermal_half, tce, 0.5, 3)
        assert (trace.qubits, trace.target) == (TCE_ORDER, "C1")
        columns = (trace.target_polarization, trace.reset_polarization, trace.target_effective_temperature)
        assert [c.shape for c in columns] == [(4,)] * 3
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        for n, state in enumerate(states):
            target = dense.polarization_of(state, "C1")
            assert trace.target_polarization[n] == pytest.approx(target, rel=DENSE_POLARIZATION_RTOL, abs=0)
            assert trace.reset_polarization[n] == pytest.approx(dense.polarization_of(state, "H"), rel=DENSE_POLARIZATION_RTOL, abs=0)
            assert trace.target_effective_temperature[n] == effective_temperature(
                trace.target_polarization[n], tce.omega("C1", 0.5)
            )
        assert shannon_bound(tce, 0.5) == eps_bath_half

    def test_trace_holds_valid_states(self, tce, tce_thermal_half):
        trace = run_ppa(thermal_target(tce, 0.5), tce, 0.5, 4)
        assert isinstance(trace, PpaTrace)
        for populations in dense.trace_rows(trace, tce_thermal_half, tce, shannon_bound(tce, 0.5)):
            # construction enforces unit trace, Hermiticity and the eigenvalue floor
            m = dense.diagonal_state(populations, trace.qubits).matrix
            assert abs(np.trace(m) - 1) <= 1e-12
            assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
