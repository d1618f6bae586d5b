from dataclasses import replace

import numpy as np
import pytest

import dense
import oracles
from spinotto import hbac
from spinotto.gates import reset_channel
from spinotto.hbac import (
    PpaTrace,
    cooling_schedule,
    initial_stage,
    marginal,
    ppa_round,
    reset,
    run_ppa,
    shannon_bound,
    thermal_reset_state,
)
from spinotto.qmath import (
    DensityMatrix,
    StateInvariantError,
    is_diagonal,
    partial_trace,
    product_state,
    single_qubit_state,
)
from spinotto.spinsys import effective_temperature, polarization, thermal_polarization, thermal_state

TCE_ORDER = ("C1", "C2", "H")


def tce_product(eps_t, eps_c, eps_r):
    """Population tensor of a (C1, C2, H) product state."""
    return product_state(
        single_qubit_state(eps_t, "C1"),
        single_qubit_state(eps_c, "C2"),
        single_qubit_state(eps_r, "H"),
    ).populations.reshape(2, 2, 2)


def push_below_zero(populations):
    """Move all of the first population and 1e-9 more onto the second."""
    shifted = populations.copy()
    shifted.flat[1] += shifted.flat[0] + 1e-9
    shifted.flat[0] = -1e-9
    return shifted


def eps_of(populations, label):
    m = marginal(populations, TCE_ORDER.index(label))
    return m[0] - m[1]


@pytest.fixture(scope="module")
def eps_bath_half(tce):
    return thermal_polarization(tce.omega("H", 0.5), tce.bath_temperature)


@pytest.fixture(scope="module")
def schedule_half(tce):
    return cooling_schedule(tce, TCE_ORDER, 0.5)


class TestInitialStage:
    def test_thermal_half_field_reaches_bath_polarization(
        self, tce_thermal_half, eps_bath_half, schedule_half
    ):
        p = initial_stage(tce_thermal_half.populations.reshape(2, 2, 2), schedule_half)
        assert eps_of(p, "C1") == pytest.approx(eps_bath_half, abs=1e-15)
        assert eps_of(p, "C1") == pytest.approx(2.000e-5, rel=2e-2)

    def test_target_already_at_reset_polarization(self, eps_bath_half, schedule_half):
        p = initial_stage(tce_product(eps_bath_half, 5e-6, 5e-6), schedule_half)
        assert eps_of(p, "C1") == pytest.approx(eps_bath_half, abs=1e-15)

    def test_compression_marginal_untouched(self, tce_thermal_half, schedule_half):
        before = tce_thermal_half.populations.reshape(2, 2, 2)
        p = initial_stage(before, schedule_half)
        assert eps_of(p, "C2") == pytest.approx(eps_of(before, "C2"), abs=1e-15)

    def test_rejects_wrong_register(self, tce):
        bad = product_state(
            single_qubit_state(0.0, "a"),
            single_qubit_state(0.0, "b"),
            single_qubit_state(0.0, "c"),
        )
        with pytest.raises(ValueError, match="missing roles"):
            run_ppa(bad, tce, 0.5, 1)
        with pytest.raises(ValueError, match="missing roles"):
            cooling_schedule(tce, ("a", "b", "c"), 0.5)


class TestPpaRound:
    def test_recurrence_single_step(self, eps_bath_half, schedule_half):
        # start at the post-initial-stage polarization and apply one round
        p = ppa_round(tce_product(eps_bath_half, 1e-5, 1e-5), schedule_half)
        expected = oracles.eps_by_recurrence(eps_bath_half, 1)
        assert eps_of(p, "C1") == pytest.approx(expected, abs=1e-12)
        assert eps_of(p, "C1") == pytest.approx(3.0e-5, rel=1e-3)

    def test_fixed_point_at_twice_bath(self, eps_bath_half, schedule_half):
        p = ppa_round(tce_product(2 * eps_bath_half, 1e-5, 1e-5), schedule_half)
        # cubic corrections are ~1e-14 at these polarizations
        assert eps_of(p, "C1") == pytest.approx(2 * eps_bath_half, abs=1e-13)

    def test_compression_and_reset_carry_half_the_old_target(self, schedule_half):
        # the compression gate pushes entropy into both auxiliary qubits:
        # after a full round each holds half the incoming target polarization
        eps_in = 3.0e-5
        p = ppa_round(tce_product(eps_in, 1e-5, 1e-5), schedule_half)
        assert eps_of(p, "C2") == pytest.approx(eps_in / 2, abs=1e-12)
        assert eps_of(p, "H") == pytest.approx(eps_in / 2, abs=1e-12)


class TestDenseReference:
    @pytest.mark.parametrize(
        "system,field_scale",
        [("tce", 0.5), ("tce", 1.0), ("tce_h_first", 0.5)],
    )
    def test_run_matches_dense_rounds_bit_for_bit(self, request, system, field_scale):
        system = request.getfixturevalue(system)
        rho = thermal_state(system, field_scale)
        trace = run_ppa(rho, system, field_scale, 200)
        states = dense.cooling_states(rho, system, field_scale, 200)
        assert len(trace.populations) == len(states) == 201
        assert np.array_equal(trace.populations.reshape(201, 8), [s.populations for s in states])
        slot = trace.qubits.index("C1")
        for n, state in enumerate(states):
            assert np.array_equal(dense.diagonal_state(trace.populations[n], trace.qubits).matrix, state.matrix)
            target = partial_trace(state, {"C1"})
            assert np.array_equal(marginal(trace.populations[n], slot), target.populations)
            assert trace.target_polarization[n] == polarization(target)
            assert trace.reset_polarization[n] == polarization(partial_trace(state, {"H"}))
        final_target = dense.diagonal_state(marginal(trace.populations[-1], slot), ("C1",))
        assert np.array_equal(final_target.matrix, partial_trace(states[-1], {"C1"}).matrix)

    def test_reset_matches_dense_channel(self):
        # correlated diagonal states, every slot reset, and a stack of baths
        # broadcast against one register
        rng = np.random.default_rng(31)
        labels = ("t", "c", "r")
        baths = rng.random((5, 2))
        baths /= baths.sum(axis=1, keepdims=True)
        for _ in range(20):
            p = rng.random(8)
            p /= p.sum()
            rho = DensityMatrix(np.diag(p).astype(complex), labels)
            for slot, label in enumerate(labels):
                fresh = [DensityMatrix(np.diag(b).astype(complex), (label,)) for b in baths]
                expected = [reset_channel(rho, label, f).populations for f in fresh]
                got = reset(p.reshape(2, 2, 2), slot, baths)
                assert np.array_equal(got.reshape(5, 8), np.array(expected))
                single = reset(p.reshape(2, 2, 2), slot, baths[0])
                assert np.array_equal(single.ravel(), expected[0])

    def test_validations_do_not_grow_with_rounds(self, tce, tce_thermal_half, monkeypatch):
        # rounds run on populations, and the reset qubit's bath state is a
        # population vector: a run builds no DensityMatrix at all
        calls = []
        validate = DensityMatrix.__post_init__

        def counted(self):
            calls.append(None)
            validate(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        counts = []
        for n_max in (1, 50):
            calls.clear()
            run_ppa(tce_thermal_half, tce, 0.5, n_max)
            counts.append(len(calls))
        assert counts == [0, 0]


class TestRunPpa:
    def test_seven_rounds_half_field(self, tce, tce_thermal_half, eps_bath_half):
        trace = run_ppa(tce_thermal_half, tce, 0.5, 7)
        expected = oracles.eps_after_rounds(eps_bath_half, 7)
        assert trace.target_polarization[-1] == pytest.approx(expected, abs=1e-12)
        assert trace.target_polarization[-1] == pytest.approx(4.0e-5, rel=2e-2)
        assert trace.target_effective_temperature[-1] == pytest.approx(37.9, abs=0.1)

    def test_zero_rounds_trace(self, tce, tce_thermal_half):
        trace = run_ppa(tce_thermal_half, tce, 0.5, 0)
        assert trace.populations.shape == (1, 2, 2, 2)
        assert trace.target_polarization[0] == pytest.approx(2.000e-5, rel=1e-3)
        assert trace.target_effective_temperature[0] == pytest.approx(75.4, abs=0.1)
        final_target = partial_trace(dense.diagonal_state(trace.populations[-1], trace.qubits), {"C1"})
        assert polarization(final_target) == trace.target_polarization[0]

    def test_shannon_bound_exceeded_from_round_one(self, tce, tce_thermal_half):
        bound = shannon_bound(tce, 0.5)
        trace = run_ppa(tce_thermal_half, tce, 0.5, 7)
        assert (trace.target_polarization[1:] > bound).all()
        assert trace.target_polarization[0] <= bound * (1 + 1e-9)

    def test_rejects_negative_rounds(self, tce, tce_thermal_half):
        with pytest.raises(ValueError):
            run_ppa(tce_thermal_half, tce, 0.5, -1)

    def test_saturated_polarization_is_an_invariant_error(self, tce):
        # at 1 mK the first round drives the target polarization to exactly 1.0,
        # which has no finite spin temperature
        cold = replace(tce, bath_temperature=0.001)
        with pytest.raises(StateInvariantError, match=r"round 1: target .* 0\.001 K"):
            run_ppa(thermal_state(cold, 1.0), cold, 1.0, 2)

    def test_rejects_coherent_input(self, tce):
        coherent = DensityMatrix(np.full((8, 8), 1 / 8, dtype=complex), TCE_ORDER)
        with pytest.raises(ValueError, match="diagonal"):
            run_ppa(coherent, tce, 0.5, 1)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda p: 2 * p, r"round 1: trace is off 1 by 1\.000e\+00"),
            (lambda p: np.where(p == p.max(), np.nan, p), "round 1: trace is off 1 by nan"),
            (push_below_zero, "round 1: negative population -1.000e-09"),
        ],
        ids=["trace", "nan", "negative"],
    )
    def test_every_round_is_checked(self, tce, tce_thermal_half, monkeypatch, corrupt, message):
        # the checks DensityMatrix runs (unit trace, finiteness, the
        # eigenvalue floor) run on every cooled population tensor
        honest = hbac.ppa_round
        monkeypatch.setattr(hbac, "ppa_round", lambda p, schedule: corrupt(honest(p, schedule)))
        with pytest.raises(StateInvariantError, match=message):
            run_ppa(tce_thermal_half, tce, 0.5, 2)

    def test_full_field_run(self, tce, tce_thermal):
        # the two-stroke engine cools at the unscaled field
        eps_bath = thermal_polarization(tce.omega("H", 1.0), tce.bath_temperature)
        trace = run_ppa(tce_thermal, tce, 1.0, 1)
        assert trace.target_polarization[-1] == pytest.approx(
            oracles.eps_after_rounds(eps_bath, 1), abs=1e-12
        )
        assert trace.target_effective_temperature[-1] == pytest.approx(50.3, abs=0.1)


class TestClosedFormEquivalence:
    def test_matches_recurrence_up_to_twenty_rounds(self, tce, tce_thermal_half, eps_bath_half):
        trace = run_ppa(tce_thermal_half, tce, 0.5, 20)
        for n, eps in enumerate(trace.target_polarization):
            expected = oracles.eps_after_rounds(eps_bath_half, n)
            assert abs(eps - expected) <= 1e-9
            # the two scalar oracle forms agree with each other too
            assert oracles.eps_by_recurrence(eps_bath_half, n) == pytest.approx(expected, abs=1e-18)

    def test_monotone_convergence_with_ratio_half(self, tce, tce_thermal_half, eps_bath_half):
        trace = run_ppa(tce_thermal_half, tce, 0.5, 12)
        ceiling = 2 * eps_bath_half
        eps = trace.target_polarization
        assert (eps[1:] > eps[:-1]).all()
        # beyond round ~8 the cubic corrections (~1e-14) rival the gap itself
        gaps = [ceiling - e for e in eps[:9]]
        for previous, current in zip(gaps, gaps[1:]):
            assert current / previous == pytest.approx(0.5, rel=1e-6)

    def test_reset_polarization_never_exceeds_bound(self, tce, tce_thermal_half):
        bound = shannon_bound(tce, 0.5)
        trace = run_ppa(tce_thermal_half, tce, 0.5, 12)
        assert (trace.reset_polarization <= bound * (1 + 1e-12)).all()

    def test_diagonality_preserved(self, tce, tce_thermal_half):
        trace = run_ppa(tce_thermal_half, tce, 0.5, 5)
        for populations in trace.populations:
            assert is_diagonal(dense.diagonal_state(populations, trace.qubits).matrix, atol=0.0)

    def test_target_polarization_nondecreasing(self, tce, tce_thermal_half):
        trace = run_ppa(tce_thermal_half, tce, 0.5, 10)
        eps = trace.target_polarization
        assert (eps[1:] >= eps[:-1]).all()


class TestTelemetry:
    def test_thermal_reset_state(self, tce, eps_bath_half):
        fresh = thermal_reset_state(tce, 0.5)
        assert fresh.shape == (2,) and fresh.sum() == pytest.approx(1.0, abs=1e-15)
        assert fresh[0] - fresh[1] == pytest.approx(eps_bath_half, abs=1e-15)

    def test_trace_rows_schema(self, tce, tce_thermal_half, eps_bath_half):
        # the trace is read-only columns whose rows are the dense rounds, bit for bit
        trace = run_ppa(tce_thermal_half, tce, 0.5, 3)
        states = dense.cooling_states(tce_thermal_half, tce, 0.5, 3)
        assert (trace.qubits, trace.target) == (TCE_ORDER, "C1")
        assert trace.populations.shape == (4, 2, 2, 2)
        columns = (trace.target_polarization, trace.reset_polarization, trace.target_effective_temperature)
        assert [c.shape for c in columns] == [(4,)] * 3
        for column in (trace.populations, *columns):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        for n, state in enumerate(states):
            assert np.array_equal(trace.populations[n].ravel(), state.populations)
            target = polarization(partial_trace(state, {"C1"}))
            assert trace.target_polarization[n] == target
            assert trace.reset_polarization[n] == polarization(partial_trace(state, {"H"}))
            assert trace.target_effective_temperature[n] == effective_temperature(target, tce.omega("C1", 0.5))
        assert shannon_bound(tce, 0.5) == pytest.approx(eps_bath_half, abs=1e-15)

    def test_trace_holds_valid_states(self, tce, tce_thermal_half):
        trace = run_ppa(tce_thermal_half, tce, 0.5, 4)
        assert isinstance(trace, PpaTrace)
        for populations in trace.populations:
            # DensityMatrix construction already enforced the invariants;
            # re-check the stored matrices anyway.
            m = dense.diagonal_state(populations, trace.qubits).matrix
            assert abs(np.trace(m) - 1) <= 1e-12
            assert np.min(np.linalg.eigvalsh(m)) >= -1e-10
