import numpy as np
import pytest

import oracles
from dense import (
    DensityMatrix,
    fidelity,
    is_diagonal,
    kron,
    partial_trace,
    product_state,
    register_levels,
    single_qubit_state,
)
from spinotto.spinsys import StateInvariantError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_diagonal_state(rng, label):
    p = rng.random(2) + 0.05
    p /= p.sum()
    return DensityMatrix(np.diag(p).astype(complex), (label,))


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.eye(4) / 4, ("a", "b"))
        assert rho.dim == 4
        assert rho.qubits == ("a", "b")

    def test_rejects_bad_trace(self):
        with pytest.raises(StateInvariantError, match="trace"):
            DensityMatrix(np.eye(2), ("a",))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateInvariantError, match="Hermitian"):
            DensityMatrix(m, ("a",))

    def test_rejects_nan_matrix(self):
        # NaN compares False both ways, so it must fail the trace check
        # instead of reaching the eigensolver
        with pytest.raises(StateInvariantError, match="trace"):
            DensityMatrix(np.full((2, 2), np.nan, dtype=complex), ("a",))

    def test_rejects_nan_coherence(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(StateInvariantError, match="Hermitian"):
            DensityMatrix(m, ("a",))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(StateInvariantError, match="eigenvalue"):
            DensityMatrix(m, ("a",))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            DensityMatrix(np.eye(4) / 4, ("a",))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(np.eye(3) / 3, ("a",))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2, ("a",))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projector_product(self):
        got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_sigma_x_pair_maps_00_to_11(self):
        # 4x4 permutation worked out by hand: flips both bits.
        xx = kron(SIGMA_X, SIGMA_X)
        e00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.array_equal(xx @ e00, np.array([0, 0, 0, 1], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kron(np.ones((2, 3)), np.eye(2))


class TestPartialTrace:
    def test_product_factor_recovery(self):
        rng = np.random.default_rng(11)
        a = random_diagonal_state(rng, "A")
        b = random_diagonal_state(rng, "B")
        joint = product_state(a, b)
        assert partial_trace(joint, {"A"}).close_to(a)
        assert partial_trace(joint, {"B"}).close_to(b)

    def test_maximally_mixed_marginal(self):
        rho = DensityMatrix(np.eye(8) / 8, ("a", "b", "c"))
        for q in ("a", "b", "c"):
            got = partial_trace(rho, {q})
            assert np.allclose(got.matrix, np.eye(2) / 2, atol=1e-14)

    def test_gibbs_marginal_against_expm_oracle(self, tce, tce_thermal):
        # Oracle: scipy expm for the thermal state, direct index summation
        # for the single-qubit populations.
        h = np.diag(register_levels(tce, 1.0))
        rho_oracle = oracles.gibbs_by_expm(h, tce.bath_temperature)
        expected = oracles.marginal_populations(rho_oracle, 0, 3)
        got = partial_trace(tce_thermal, {"C1"})
        assert np.allclose(got.populations, expected, atol=1e-12)
        eps = expected[0] - expected[1]
        assert eps == pytest.approx(1.006e-5, rel=1e-3)

    def test_trace_preserved(self, tce_thermal):
        reduced = partial_trace(tce_thermal, {"C1", "H"})
        assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-13)
        assert reduced.qubits == ("C1", "H")

    def test_unknown_label(self, tce_thermal):
        with pytest.raises(KeyError, match="X"):
            partial_trace(tce_thermal, {"X"})

    def test_empty_keep(self, tce_thermal):
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(tce_thermal, set())

    def test_randomized_product_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            factors = [random_diagonal_state(rng, label) for label in "PQR"]
            joint = product_state(*factors)
            for factor in factors:
                got = partial_trace(joint, set(factor.qubits))
                assert np.max(np.abs(got.matrix - factor.matrix)) <= 1e-12


class TestFidelity:
    def test_self_fidelity(self, tce_thermal):
        assert fidelity(tce_thermal, tce_thermal) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        up = single_qubit_state(1.0, "a")
        down = single_qubit_state(-1.0, "a")
        assert fidelity(up, down) == pytest.approx(0.0, abs=1e-12)

    def test_gibbs_vs_marginal_product(self, tce_thermal):
        product = product_state(
            *(partial_trace(tce_thermal, {q}) for q in tce_thermal.qubits)
        )
        assert fidelity(tce_thermal, product) >= 0.999999

    def test_dimension_mismatch(self, tce_thermal):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(tce_thermal, single_qubit_state(0.0, "a"))

    def test_symmetric_and_discriminating_on_commuting_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = rng.random(4) + 0.05
            p /= p.sum()
            q = rng.random(4) + 0.05
            q /= q.sum()
            rho = DensityMatrix(np.diag(p).astype(complex), ("x", "y"))
            sigma = DensityMatrix(np.diag(q).astype(complex), ("x", "y"))
            f_rs = fidelity(rho, sigma)
            f_sr = fidelity(sigma, rho)
            assert f_rs == pytest.approx(f_sr, abs=1e-12)
            # commuting case reduces to the squared Bhattacharyya overlap
            assert f_rs == pytest.approx(np.sum(np.sqrt(p * q)) ** 2, abs=1e-12)
            if np.max(np.abs(p - q)) > 1e-3:
                assert f_rs < 1.0 - 1e-8
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_is_diagonal():
    assert is_diagonal(np.diag([1.0, 2.0]))
    off = np.diag([1.0, 2.0]).astype(complex)
    off[0, 1] = 1e-6
    assert not is_diagonal(off)
