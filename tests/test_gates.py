import numpy as np
import pytest

import oracles
from dense import (
    DensityMatrix,
    GateUnitary,
    apply,
    comp_unitary,
    is_diagonal,
    partial_trace,
    polarization,
    product_state,
    reset_channel,
    single_qubit_state,
    swap_unitary,
)
from test_qmath import random_density

REG = ("t", "c", "r")


def matrix_of(gate):
    """Dense 0/1 matrix of a gate: column ``i`` has its 1 in row ``perm[i]``."""
    dim = len(gate.perm)
    u = np.zeros((dim, dim), dtype=complex)
    u[list(gate.perm), range(dim)] = 1.0
    return u


def reorder_slots(matrix, axes):
    """Operator with its tensor slots listed in the order ``axes`` of the old ones."""
    k = len(axes)
    tensor = matrix.reshape((2,) * (2 * k))
    return tensor.transpose(list(axes) + [k + a for a in axes]).reshape(matrix.shape)


def product_from_polarizations(eps_t, eps_c, eps_r):
    return product_state(
        single_qubit_state(eps_t, "t"),
        single_qubit_state(eps_c, "c"),
        single_qubit_state(eps_r, "r"),
    )


class TestGateUnitary:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            GateUnitary((0, 0), ("a",), "repeated")
        with pytest.raises(ValueError, match="permutation"):
            GateUnitary((0, 1), ("a", "b"), "short")
        with pytest.raises(ValueError, match="permutation"):
            GateUnitary((1, 0, 2), ("a",), "long")


class TestSwap:
    def test_two_qubit_01_to_10(self):
        gate = swap_unitary(("a", "b"), "a", "b")
        e01 = np.zeros(4)
        e01[1] = 1.0
        out = matrix_of(gate) @ e01
        assert np.array_equal(out, np.array([0, 0, 1, 0], dtype=complex))

    def test_exchanges_marginals_of_product(self):
        rho = product_from_polarizations(1e-5, 5e-6, 3e-5)
        swapped = apply(swap_unitary(REG, "t", "r"), rho)
        assert polarization(partial_trace(swapped, {"t"})) == pytest.approx(3e-5, abs=1e-15)
        assert polarization(partial_trace(swapped, {"r"})) == pytest.approx(1e-5, abs=1e-15)
        assert polarization(partial_trace(swapped, {"c"})) == pytest.approx(5e-6, abs=1e-15)

    def test_three_qubit_basis_permutation(self):
        # Oracle: enumerate the permutation by swapping the t and r bits of
        # every basis index by hand.
        gate = swap_unitary(REG, "t", "r")
        for idx in range(8):
            t, c, r = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
            expected = (r << 2) | (c << 1) | t
            column = matrix_of(gate)[:, idx]
            assert column[expected] == 1.0 and column.sum() == 1.0
        # (t,c,r) = (0,1,1) -> (1,1,0)
        assert gate.perm[0b011] == 0b110

    def test_label_errors(self):
        with pytest.raises(KeyError):
            swap_unitary(REG, "t", "x")
        with pytest.raises(ValueError, match="itself"):
            swap_unitary(REG, "t", "t")


class TestComp:
    def test_fixes_ground_state(self):
        gate = comp_unitary(REG)
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.array_equal(matrix_of(gate) @ e0, e0.astype(complex))

    def test_exchanges_011_and_100(self):
        expected_perm = list(range(8))
        expected_perm[0b011], expected_perm[0b100] = 0b100, 0b011
        assert comp_unitary(REG).perm == tuple(expected_perm)

    def test_explicit_three_matrix_product(self):
        # Oracle: rebuild CNotNot and Toffoli directly as permutations and
        # multiply the 8x8 matrices here.
        def cnn_perm(idx):
            return idx ^ 0b011 if idx & 0b100 else idx

        def toffoli_perm(idx):
            return idx ^ 0b100 if (idx & 0b011) == 0b011 else idx

        cnn = np.zeros((8, 8))
        tof = np.zeros((8, 8))
        for idx in range(8):
            cnn[cnn_perm(idx), idx] = 1.0
            tof[toffoli_perm(idx), idx] = 1.0
        assert np.array_equal(matrix_of(comp_unitary(REG)), cnn @ tof @ cnn)

    def test_equal_polarization_law(self):
        # brute force over all 8 basis populations predicts (3e - e^3)/2
        eps = 2e-4
        rho = product_from_polarizations(eps, eps, eps)
        out = apply(comp_unitary(REG), rho)
        got = polarization(partial_trace(out, {"t"}))
        assert got == pytest.approx((3 * eps - eps**3) / 2, abs=1e-15)

    def test_thermal_product_example(self):
        rho = product_from_polarizations(1.006e-5, 1.006e-5, 2.000e-5)
        out = apply(comp_unitary(REG), rho)
        got = polarization(partial_trace(out, {"t"}))
        assert got == pytest.approx(2.006e-5, rel=1e-6)

    def test_polarization_law_randomized(self):
        rng = np.random.default_rng(42)
        gate = comp_unitary(REG)
        for _ in range(50):
            eps_t, eps_c, eps_r = rng.uniform(0.0, 1e-3, size=3)
            rho = product_from_polarizations(eps_t, eps_c, eps_r)
            out = apply(gate, rho)
            got = polarization(partial_trace(out, {"t"}))
            assert abs(got - (eps_t / 2 + (eps_c + eps_r) / 2)) <= 1e-9
            # exact check against the population-permutation oracle
            expected = oracles.comp_permutation_populations(rho.populations)
            assert np.max(np.abs(out.populations - expected)) <= 1e-15

    def test_rejects_wrong_register(self):
        with pytest.raises(ValueError, match="3-qubit"):
            comp_unitary(("t", "c"))


class TestApply:
    def test_identity_gate(self):
        rho = product_from_polarizations(1e-5, 2e-5, 3e-5)
        identity = GateUnitary(tuple(range(8)), REG, "I")
        assert apply(identity, rho).close_to(rho)

    def test_sends_basis_state_i_to_perm_i(self):
        # Every cooling gate is an involution, so only a gate that is not
        # its own inverse tells the permutation from its inverse.
        gate = GateUnitary((1, 2, 0, 3), ("a", "b"), "cycle")
        for i in range(4):
            basis = np.zeros((4, 4), dtype=complex)
            basis[i, i] = 1.0
            out = apply(gate, DensityMatrix(basis, ("a", "b")))
            expected = np.zeros((4, 4), dtype=complex)
            expected[gate.perm[i], gate.perm[i]] = 1.0
            assert np.array_equal(out.matrix, expected)

    def test_matches_conjugation_bit_for_bit(self):
        rng = np.random.default_rng(11)
        gates = [
            swap_unitary(REG, "t", "r"),
            swap_unitary(REG, "c", "r"),
            comp_unitary(REG),
            GateUnitary((1, 2, 0, 4, 3, 5, 7, 6), REG, "mixed"),
        ]
        for gate in gates:
            rho = DensityMatrix(random_density(rng, 8), REG)
            u = matrix_of(gate)
            assert np.array_equal(apply(gate, rho).matrix, u @ rho.matrix @ u.conj().T)

    def test_swap_involution(self):
        rho = product_from_polarizations(1e-5, 2e-5, 3e-5)
        gate = swap_unitary(REG, "t", "r")
        twice = apply(gate, apply(gate, rho))
        assert np.max(np.abs(twice.matrix - rho.matrix)) <= 1e-14

    def test_register_reordering(self):
        rho = product_from_polarizations(1e-5, 2e-5, 3e-5)
        gate = swap_unitary(("r", "c", "t"), "t", "r")  # same labels, other order
        direct = apply(swap_unitary(REG, "t", "r"), rho)
        assert apply(gate, rho).close_to(direct)

    def test_comp_on_reordered_state(self):
        # The same dense state with its slots stored as (r, t, c): COMP on
        # the (t, c, r) register must give the (t, c, r) result, reordered.
        rng = np.random.default_rng(12)
        rho = DensityMatrix(random_density(rng, 8), REG)
        order = ("r", "t", "c")
        axes = [REG.index(q) for q in order]
        rho_rtc = DensityMatrix(reorder_slots(rho.matrix, axes), order)
        direct = apply(comp_unitary(REG), rho)
        out = apply(comp_unitary(REG), rho_rtc)
        assert out.qubits == order
        assert np.array_equal(out.matrix, reorder_slots(direct.matrix, axes))

    def test_label_mismatch(self):
        rho = product_from_polarizations(1e-5, 2e-5, 3e-5)
        with pytest.raises(ValueError, match="register"):
            apply(swap_unitary(("a", "b", "c"), "a", "b"), rho)

    def test_diagonal_in_diagonal_out(self):
        rng = np.random.default_rng(5)
        p = rng.random(8)
        p /= p.sum()
        rho = DensityMatrix(np.diag(p).astype(complex), REG)
        for gate in (swap_unitary(REG, "c", "r"), comp_unitary(REG)):
            assert is_diagonal(apply(gate, rho).matrix, atol=0.0)


class TestResetChannel:
    def test_fixed_point_on_thermal_product(self):
        thermal = single_qubit_state(2e-5, "r")
        rho = product_state(
            single_qubit_state(1e-5, "t"), single_qubit_state(5e-6, "c"), thermal
        )
        out = reset_channel(rho, "r", thermal)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_correlated_input_keeps_other_marginals(self):
        rng = np.random.default_rng(8)
        p = rng.random(8)
        p /= p.sum()
        rho = DensityMatrix(np.diag(p).astype(complex), REG)  # correlated t-c block
        thermal = single_qubit_state(2e-5, "r")
        out = reset_channel(rho, "r", thermal)
        for q in ("t", "c"):
            before = partial_trace(rho, {q})
            after = partial_trace(out, {q})
            assert np.max(np.abs(after.matrix - before.matrix)) <= 1e-15
        assert polarization(partial_trace(out, {"r"})) == pytest.approx(2e-5, abs=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        p = rng.random(8)
        p /= p.sum()
        rho = DensityMatrix(np.diag(p).astype(complex), REG)
        thermal = single_qubit_state(2e-5, "r")
        once = reset_channel(rho, "r", thermal)
        twice = reset_channel(once, "r", thermal)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-15

    def test_errors(self):
        rho = product_from_polarizations(1e-5, 2e-5, 3e-5)
        with pytest.raises(KeyError):
            reset_channel(rho, "x", single_qubit_state(0.0, "x"))
        with pytest.raises(ValueError, match="single-qubit"):
            reset_channel(rho, "r", rho)
