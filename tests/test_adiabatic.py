import numpy as np
import pytest

import oracles
from spinotto.adiabatic import (
    COMPRESSION,
    EXPANSION,
    StrokeSpec,
    evolve_stroke,
    stroke_endpoints,
)
from dense import local_levels, stroke_work
from spinotto.qmath import DensityMatrix, StateInvariantError, partial_trace, product_state
from spinotto.spinsys import CODATA2018, register_levels, thermal_state
from test_qmath import random_density

HBAR = CODATA2018.hbar
TAU = StrokeSpec(COMPRESSION).tau


def endpoint_levels(tce, direction):
    full = register_levels(tce, 1.0)
    half = register_levels(tce, 0.5)
    return (full, half) if direction == COMPRESSION else (half, full)


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
    def test_defaults(self):
        spec = StrokeSpec(COMPRESSION)
        assert spec.tau == 0.1
        assert spec.duration == 0.05

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            StrokeSpec("sideways")

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            StrokeSpec(COMPRESSION, tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            StrokeSpec(COMPRESSION, tau=tau)


class TestDriveHamiltonian:
    # the drive (1 - s) H_start + s H_end is fixed by the stroke endpoints

    def test_compression_boundaries_bit_for_bit(self, tce):
        start, end = stroke_endpoints(tce, StrokeSpec(COMPRESSION))
        assert np.array_equal(start, register_levels(tce, 1.0))
        assert np.array_equal(end, register_levels(tce, 0.5))

    def test_expansion_boundaries_bit_for_bit(self, tce):
        start, end = stroke_endpoints(tce, StrokeSpec(EXPANSION))
        assert np.array_equal(start, register_levels(tce, 0.5))
        assert np.array_equal(end, register_levels(tce, 1.0))

    def test_diagonal_at_all_times(self, tce):
        # the closed-form stroke rests on this: the drive built densely from
        # Iz operators is diagonal at every instant, with the interpolated
        # endpoint levels on its diagonal
        start, end = stroke_endpoints(tce, StrokeSpec(COMPRESSION))
        j_hz = {(0, 1): 103.0, (0, 2): 9.0, (1, 2): 200.8}
        for s in np.linspace(0.0, 1.0, 7):
            omegas = [tce.omega(q, 1.0 - 0.5 * s) for q in tce.labels]
            h = oracles.iz_hamiltonian(omegas, j_hz)
            assert np.array_equal(h, np.diag(np.diag(h)))
            # the oracle's hbar is scipy's unrounded value
            assert np.allclose(np.diag(h), (1 - s) * start + s * end, rtol=1e-9, atol=0.0)


class TestEvolveStroke:
    def test_thermal_populations_frozen(self, tce, tce_thermal):
        out = evolve_stroke(tce_thermal, tce, StrokeSpec(COMPRESSION))
        assert np.array_equal(out.matrix, tce_thermal.matrix)

    @pytest.mark.parametrize("tau", [1e-300, 0.1, 1e308])
    def test_diagonal_input_returned_unchanged(self, tce, tce_thermal, tau):
        # no coherence to turn, so even phases that overflow are never formed
        for direction in (COMPRESSION, EXPANSION):
            assert evolve_stroke(tce_thermal, tce, StrokeSpec(direction, tau=tau)) is tce_thermal

    def test_overflowing_phase_rejects_coherent_state(self, tce, tce_thermal):
        # tau = 1e308 is finite, but the level phases overflow to NaN
        rho0 = coherent_state(tce, tce_thermal, "C1")
        with pytest.raises(StateInvariantError):
            evolve_stroke(rho0, tce, StrokeSpec(COMPRESSION, tau=1e308))

    def test_tau_independence_for_diagonal_input(self, tce, tce_thermal):
        pops = []
        for tau in (1e-3, 2e-2):
            spec = StrokeSpec(COMPRESSION, tau=tau)
            pops.append(evolve_stroke(tce_thermal, tce, spec).populations)
        assert np.array_equal(pops[0], pops[1])

    @pytest.mark.parametrize("direction", [COMPRESSION, EXPANSION])
    def test_coherence_phase_matches_quadrature(self, tce, direction):
        # uniform superposition of all 8 levels: every off-diagonal entry
        # (j, k) only rotates, by the quadrature of E_j(t) - E_k(t)
        rho0 = DensityMatrix(np.full((8, 8), 1 / 8, dtype=complex), tce.labels)
        out = evolve_stroke(rho0, tce, StrokeSpec(direction))

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
        assert np.array_equal(out.populations, rho0.populations)

    @pytest.mark.parametrize("direction", [COMPRESSION, EXPANSION])
    def test_matches_exact_propagation(self, tce, direction):
        # the stroke equals constant-Hamiltonian evolution for unit time
        # under the time-integrated drive
        start, end = endpoint_levels(tce, direction)
        h_area = np.diag(start * TAU / 2 + (end - start) * TAU / np.pi)
        rng = np.random.default_rng(8)
        for _ in range(3):
            rho0 = DensityMatrix(random_density(rng, 8), tce.labels)
            out = evolve_stroke(rho0, tce, StrokeSpec(direction))
            expected = oracles.exact_propagation(h_area, rho0.matrix, 1.0, HBAR)
            assert np.max(np.abs(out.matrix - expected)) <= 1e-7
            assert np.array_equal(out.populations, rho0.populations)

    @pytest.mark.parametrize("label", ["C1", "C2", "H"])
    def test_coherent_qubit_survives_both_strokes(self, tce, tce_thermal, label):
        # at the default tau the coherences turn through 1e7 to 1e8 rad per stroke
        rho0 = coherent_state(tce, tce_thermal, label)
        out = evolve_stroke(rho0, tce, StrokeSpec(COMPRESSION))
        out = evolve_stroke(out, tce, StrokeSpec(EXPANSION))
        assert np.array_equal(np.diag(out.matrix), np.diag(rho0.matrix))
        assert np.max(np.abs(np.abs(out.matrix) - np.abs(rho0.matrix))) <= 1e-15


class TestStrokeWork:
    def test_zero_for_identical_endpoints(self, tce):
        h = local_hamiltonian(tce, "C1", 1.0)
        rho = thermal_state(tce, 1.0)
        rho_t = partial_trace(rho, {"C1"})
        assert stroke_work(h, rho_t, h, rho_t) == 0.0

    def test_compression_work_on_frozen_polarization(self, tce):
        # polarization frozen at the hot thermal value while the field halves
        from spinotto.qmath import single_qubit_state

        eps = 1.006e-5
        h0 = local_hamiltonian(tce, "C1", 1.0)
        h1 = local_hamiltonian(tce, "C1", 0.5)
        rho = single_qubit_state(eps, "C1")
        got = stroke_work(h0, rho, h1, rho)
        omega_half = tce.omega("C1", 0.5)
        assert got == pytest.approx(-0.5 * HBAR * omega_half * eps, rel=1e-12)
        assert got == pytest.approx(-2.096e-31, rel=1e-3)

    def test_expansion_work_after_cooling(self, tce):
        from spinotto.qmath import single_qubit_state

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
