"""Field-ramp strokes: populations are frozen, and the work is the level-energy change.

The package propagates no stroke: the engines keep the target's
polarization through each ramp.  These tests check that claim on the
dense reference stroke (``dense.stroke``), which propagates a state
under the drive the ``oracles`` build, by ``scipy`` matrix exponential.
"""

import numpy as np
import pytest

import oracles
from dense import (
    COMPRESSION,
    EXPANSION,
    DensityMatrix,
    local_levels,
    partial_trace,
    product_state,
    register_levels,
    single_qubit_state,
    stroke,
    stroke_work,
    thermal_state,
)
from spinotto import cli
from spinotto.spinsys import HBAR
from test_qmath import random_density

TAU = 0.1


def endpoint_levels(tce, direction):
    start, end = direction
    return register_levels(tce, start), register_levels(tce, end)


def local_hamiltonian(sys, label, field_scale):
    return np.diag(local_levels(sys, label, field_scale))


def coherent_state(tce, tce_thermal, label):
    """|+> on one qubit, the others thermal."""
    factors = [
        DensityMatrix(np.full((2, 2), 0.5, dtype=complex), (q,))
        if q == label
        else partial_trace(tce_thermal, {q})
        for q in tce.labels
    ]
    return product_state(*factors)


class TestStrokeSpec:
    @pytest.mark.parametrize("tau", ["inf", "nan"])
    def test_rejects_non_finite_tau(self, tau, capsys):
        # the drive period enters the package only through --tau, whose
        # parser must turn a non-finite period away before any stroke is set up
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["four-stroke", "--tau", tau])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--tau" in err
        assert "finite" in err


class TestDriveHamiltonian:
    def test_diagonal_at_all_times(self, tce):
        # the frozen populations rest on this: the drive built densely from
        # Iz operators is diagonal at every instant, with the interpolated
        # register levels on its diagonal
        start, end = endpoint_levels(tce, COMPRESSION)
        j_hz = {(0, 1): 103.0, (0, 2): 9.0, (1, 2): 200.8}
        for s in np.linspace(0.0, 1.0, 7):
            omegas = [tce.omega(q, 1.0 - 0.5 * s) for q in tce.labels]
            h = oracles.iz_hamiltonian(omegas, j_hz)
            assert np.array_equal(h, np.diag(np.diag(h)))
            assert np.allclose(np.diag(h), (1 - s) * start + s * end, rtol=1e-9, atol=0.0)


class TestEvolveStroke:
    def test_thermal_populations_frozen(self, tce, tce_thermal):
        out = stroke(tce_thermal, tce, COMPRESSION)
        assert np.max(np.abs(out.populations - tce_thermal.populations)) <= 1e-16
        assert np.max(np.abs(out.matrix - np.diag(np.diag(out.matrix)))) == 0.0

    @pytest.mark.parametrize("tau", [1e-300, 0.1])
    def test_diagonal_input_returned_unchanged(self, tce, tce_thermal, tau):
        # no coherence to turn: a diagonal state comes back diagonal, with its populations
        for direction in (COMPRESSION, EXPANSION):
            out = stroke(tce_thermal, tce, direction, tau)
            assert np.max(np.abs(out.matrix - tce_thermal.matrix)) <= 1e-16

    def test_tau_independence_for_diagonal_input(self, tce, tce_thermal):
        pops = [stroke(tce_thermal, tce, COMPRESSION, tau).populations for tau in (1e-3, 2e-2)]
        assert np.max(np.abs(pops[0] - pops[1])) <= 1e-16

    @pytest.mark.parametrize("direction", [COMPRESSION, EXPANSION], ids=["compression", "expansion"])
    def test_coherence_phase_matches_quadrature(self, tce, direction):
        # uniform superposition of all 8 levels: every off-diagonal entry
        # (j, k) only rotates, by the quadrature of E_j(t) - E_k(t)
        rho0 = DensityMatrix(np.full((8, 8), 1 / 8, dtype=complex), tce.labels)
        out = stroke(rho0, tce, direction)

        e_start, e_end = endpoint_levels(tce, direction)
        worst = 0.0
        for j in range(8):
            for k in range(8):
                if j == k:
                    continue
                phase = oracles.ramp_phase(
                    e_start[j] - e_start[k], e_end[j] - e_end[k], TAU, HBAR
                )
                residual = np.angle(8 * out.matrix[j, k] * np.exp(1j * phase))
                worst = max(worst, abs(residual))
        assert worst <= 1e-6
        assert np.max(np.abs(np.abs(out.matrix) - np.abs(rho0.matrix))) <= 1e-15
        assert np.max(np.abs(out.populations - rho0.populations)) <= 1e-16

    @pytest.mark.parametrize("direction", [COMPRESSION, EXPANSION], ids=["compression", "expansion"])
    def test_matches_exact_propagation(self, tce, direction):
        # the stroke equals constant-Hamiltonian evolution for unit time
        # under the time-integrated drive of the package's level energies
        start, end = endpoint_levels(tce, direction)
        h_area = np.diag(start * TAU / 2 + (end - start) * TAU / np.pi)
        rng = np.random.default_rng(8)
        for _ in range(3):
            rho0 = DensityMatrix(random_density(rng, 8), tce.labels)
            out = stroke(rho0, tce, direction)
            expected = oracles.exact_propagation(h_area, rho0.matrix, 1.0, HBAR)
            assert np.max(np.abs(out.matrix - expected)) <= 1e-7
            assert np.max(np.abs(out.populations - rho0.populations)) <= 1e-15

    @pytest.mark.parametrize("label", ["C1", "C2", "H"])
    def test_coherent_qubit_survives_both_strokes(self, tce, tce_thermal, label):
        # at the default tau the coherences turn through 1e7 to 1e8 rad per stroke
        rho0 = coherent_state(tce, tce_thermal, label)
        out = stroke(stroke(rho0, tce, COMPRESSION), tce, EXPANSION)
        assert np.max(np.abs(out.populations - rho0.populations)) <= 1e-16
        assert np.max(np.abs(np.abs(out.matrix) - np.abs(rho0.matrix))) <= 1e-15


class TestStrokeWork:
    def test_zero_for_identical_endpoints(self, tce):
        h = local_hamiltonian(tce, "C1", 1.0)
        rho = thermal_state(tce, 1.0)
        rho_t = partial_trace(rho, {"C1"})
        assert stroke_work(h, rho_t, h, rho_t) == 0.0

    def test_compression_work_on_frozen_polarization(self, tce):
        # polarization frozen at the hot thermal value while the field halves
        eps = 1.006e-5
        h0 = local_hamiltonian(tce, "C1", 1.0)
        h1 = local_hamiltonian(tce, "C1", 0.5)
        rho = single_qubit_state(eps, "C1")
        got = stroke_work(h0, rho, h1, rho)
        omega_half = tce.omega("C1", 0.5)
        assert got == pytest.approx(-0.5 * HBAR * omega_half * eps, rel=1e-12)
        assert got == pytest.approx(-2.096e-31, rel=1e-3)

    def test_expansion_work_after_cooling(self, tce):
        eps = 3.0e-5
        h0 = local_hamiltonian(tce, "C1", 1.0)
        h1 = local_hamiltonian(tce, "C1", 0.5)
        rho = single_qubit_state(eps, "C1")
        got = stroke_work(h1, rho, h0, rho)
        assert got == pytest.approx(+6.25e-31, rel=1e-3)

    def test_dimension_mismatch(self, tce, tce_thermal):
        h = local_hamiltonian(tce, "C1", 1.0)
        with pytest.raises(ValueError, match="dimensions"):
            stroke_work(h, tce_thermal, h, tce_thermal)
