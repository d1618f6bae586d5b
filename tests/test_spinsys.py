import math
from pathlib import Path

import numpy as np
import pytest

import exact
import oracles
from conftest import changed
from dense import (
    DensityMatrix,
    local_levels,
    polarization,
    polarization_of,
    register_levels,
    thermal_populations,
    thermal_state,
    zeeman_levels,
)
from spinotto.config import from_config_text
from spinotto.hbac import run_ppa
from spinotto.spinsys import (
    HBAR,
    ConfigError,
    QubitSpec,
    Role,
    SpinSystem,
    effective_temperature,
    load_system,
    tce_system,
    thermal_marginal_polarization,
    thermal_polarization,
)

TWO_PI = 2.0 * math.pi


def single_spin(omega_mhz: float, role=Role.TARGET) -> SpinSystem:
    return SpinSystem(
        qubits=(QubitSpec("q", role, gamma_over_2pi=10.0, t1=1.0, omega_over_2pi=omega_mhz),),
        j_over_2pi={},
        b_field=omega_mhz / 10.0,
        bath_temperature=300.0,
    )


class TestTcePreset:
    def test_table_values(self, tce):
        by_label = {q.label: q for q in tce.qubits}
        assert by_label["C1"].role is Role.TARGET
        assert by_label["C2"].role is Role.COMPRESSION
        assert by_label["H"].role is Role.RESET
        assert by_label["C1"].gamma_over_2pi == 10.7084
        assert by_label["H"].gamma_over_2pi == 42.477
        assert (by_label["C1"].t1, by_label["C2"].t1, by_label["H"].t1) == (43.0, 20.0, 3.5)
        assert tce.j_coupling("C1", "C2") == 103.0
        assert tce.j_coupling("C1", "H") == 9.0
        assert tce.j_coupling("C2", "H") == 200.8
        assert tce.bath_temperature == 300.0

    def test_frequencies(self, tce):
        assert tce.omega("C1") == pytest.approx(TWO_PI * 125.77e6, rel=1e-12)
        assert tce.omega("H") == pytest.approx(TWO_PI * 500.13e6, rel=1e-12)
        # field derived from the proton line
        assert tce.omega("H") == pytest.approx(
            TWO_PI * 1e6 * 42.477 * tce.b_field, rel=1e-12
        )
        assert tce.omega("C1", 0.5) == pytest.approx(TWO_PI * 62.885e6, rel=1e-12)

    def test_role_lookup(self, tce):
        assert tce.label_for_role(Role.TARGET) == "C1"
        assert tce.label_for_role(Role.RESET) == "H"
        # the roles resolve once, at construction; a register without one qubit
        # per role still constructs, and every lookup names its roles: a second
        # compression qubit leaves the register without a target, and so does
        # a fourth qubit with any role
        qubits = tuple(changed(q, role=Role.COMPRESSION) if q.label == "C1" else q for q in tce.qubits)
        two_compression = changed(tce, qubits=qubits)
        extra = changed(tce, qubits=(*tce.qubits, QubitSpec("X", Role.RESET, 10.0, 1.0)))
        needs = "; cooling needs exactly one target, one compression and one reset qubit"
        cases = [
            (two_compression, "register ('C1', 'C2', 'H') has roles ['compression', 'compression', 'reset']" + needs),
            (extra, "register ('C1', 'C2', 'H', 'X') has roles ['target', 'compression', 'reset', 'reset']" + needs),
        ]
        for sys, message in cases:
            for role in Role:
                with pytest.raises(ConfigError) as caught:
                    sys.label_for_role(role)
                assert str(caught.value) == message


class TestSpinSystemValidation:
    def test_a_generator_of_qubits_builds_the_same_system(self, tce):
        # the qubits are read once, into the stored tuple, before any check reads their labels
        assert SpinSystem((q for q in tce.qubits), tce.j_over_2pi, tce.b_field, 300.0) == tce

    def test_rejects_duplicate_labels(self):
        q = QubitSpec("a", Role.TARGET, 10.0, 1.0)
        with pytest.raises(ConfigError, match="duplicate"):
            SpinSystem((q, q), {}, 1.0, 300.0)

    def test_rejects_self_coupling(self):
        q = QubitSpec("a", Role.TARGET, 10.0, 1.0)
        with pytest.raises(ConfigError, match="self-coupling"):
            SpinSystem((q,), {("a", "a"): 1.0}, 1.0, 300.0)

    def test_rejects_unknown_coupling_label(self):
        q = QubitSpec("a", Role.TARGET, 10.0, 1.0)
        with pytest.raises(ConfigError, match="unknown"):
            SpinSystem((q,), {("a", "b"): 1.0}, 1.0, 300.0)

    def test_rejects_conflicting_symmetric_values(self):
        qs = (QubitSpec("a", Role.TARGET, 10.0, 1.0), QubitSpec("b", Role.RESET, 10.0, 1.0))
        with pytest.raises(ConfigError, match="conflicting"):
            SpinSystem(qs, {("a", "b"): 1.0, ("b", "a"): 2.0}, 1.0, 300.0)

    def test_symmetric_duplicates_allowed_when_equal(self):
        qs = (QubitSpec("a", Role.TARGET, 10.0, 1.0), QubitSpec("b", Role.RESET, 10.0, 1.0))
        sys = SpinSystem(qs, {("b", "a"): 1.5}, 1.0, 300.0)
        assert sys.j_coupling("a", "b") == 1.5
        assert sys.j_coupling("b", "a") == 1.5

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            QubitSpec("a", Role.TARGET, -1.0, 1.0)
        with pytest.raises(ConfigError):
            QubitSpec("a", Role.TARGET, 1.0, 0.0)
        q = QubitSpec("a", Role.TARGET, 10.0, 1.0)
        with pytest.raises(ConfigError):
            SpinSystem((q,), {}, -1.0, 300.0)
        with pytest.raises(ConfigError):
            SpinSystem((q,), {}, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, value):
        for args in ((value, 1.0, None), (10.0, value, None), (10.0, 1.0, value)):
            with pytest.raises(ConfigError, match="finite"):
                QubitSpec("a", Role.TARGET, *args)
        q = QubitSpec("a", Role.TARGET, 10.0, 1.0)
        with pytest.raises(ConfigError, match="finite"):
            SpinSystem((q,), {}, value, 300.0)
        with pytest.raises(ConfigError, match="finite"):
            SpinSystem((q,), {}, 1.0, value)

    def test_rejects_an_overflowing_larmor_frequency(self):
        # gamma * B is finite in MHz, but not in rad/s
        q = QubitSpec("a", Role.TARGET, 10.0, 1.0)
        with pytest.raises(ConfigError, match=r"^qubit a: Larmor frequency 1e\+305 MHz at field scale 1 overflows"):
            SpinSystem((q,), {}, 1e304, 300.0)
        with pytest.raises(ConfigError, match=r"^qubit q: Larmor frequency 500\.13 MHz at field scale 1e\+305 overflows"):
            single_spin(500.13).omega("q", 1e305)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_field_scale(self, scale, tce):
        # such a scale does not overflow: it is no number to scale by
        with pytest.raises(ConfigError, match=rf"^qubit q: field scale {scale:g} is not finite$"):
            single_spin(500.13).omega("q", scale)
        eps = thermal_marginal_polarization(tce, "C1", 0.5)
        with pytest.raises(ConfigError, match=rf"^qubit H: field scale {scale:g} is not finite$"):
            run_ppa(eps, tce, scale, 3)

    def test_unknown_label(self, tce):
        for call in (tce.qubit, lambda label: thermal_marginal_polarization(tce, label)):
            with pytest.raises(KeyError, match=r"unknown qubit label 'X'; register is \('C1', 'C2', 'H'\)"):
                call("X")


class TestValueSemantics:
    # the records a caller holds: fields fixed at construction, compared and hashed as a frozen dataclass's

    @pytest.mark.parametrize("name", ["qubits", "b_field", "bath_temperature", "other"])
    def test_a_system_cannot_be_assigned(self, name):
        system = tce_system()
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(system, name, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(system, name)
        assert system == tce_system()

    def test_a_qubit_and_a_table_cannot_be_assigned(self, tce):
        table = run_ppa(1e-5, tce, 0.5, 2)
        for record, name in ((tce.qubits[0], "t1"), (table, "axes"), (table, "columns")):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, ())

    def test_systems_and_qubits_compare_by_field(self, tce):
        assert tce_system() == tce and tce_system() is not tce
        assert changed(tce, bath_temperature=310.0) != tce
        assert changed(tce, j_over_2pi={}) != tce
        q = QubitSpec("a", Role.TARGET, 10.0, 1.0)
        assert q == QubitSpec(label="a", role=Role.TARGET, gamma_over_2pi=10.0, t1=1.0, omega_over_2pi=None)
        assert q != QubitSpec("a", Role.TARGET, 10.0, 1.0, 100.0)
        # only a record of the same class is equal
        assert q != ("a", Role.TARGET, 10.0, 1.0, None) and tce != tce.qubits
        assert q.__eq__(object()) is NotImplemented

    def test_a_qubit_hashes_and_a_system_does_not(self, tce):
        assert hash(QubitSpec("a", Role.TARGET, 10.0, 1.0)) == hash(QubitSpec("a", Role.TARGET, 10.0, 1.0))
        assert len(set(tce.qubits) | set(tce_system().qubits)) == 3
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(tce)

    def test_repr_lists_the_fields(self, tce):
        assert repr(tce.qubits[0]) == (
            "QubitSpec(label='C1', role=<Role.TARGET: 'target'>, gamma_over_2pi=10.7084, t1=43.0, omega_over_2pi=125.77)"
        )
        assert repr(tce).startswith(f"SpinSystem(qubits=({tce.qubits[0]!r}, ")
        assert repr(tce).endswith(f"j_over_2pi={tce.j_over_2pi!r}, b_field={tce.b_field!r}, bath_temperature=300.0)")
        table = run_ppa(1e-5, tce, 0.5, 1)
        assert repr(table) == f"SweepTable(axes=('n_rounds',), engine_kind='ppa', columns={table.columns!r})"

    def test_fields_match_positionally(self, tce):
        match tce.qubits[2]:
            case QubitSpec(label, Role.RESET, _, t1, omega):
                assert (label, t1, omega) == ("H", 3.5, 500.13)
            case _:
                pytest.fail("QubitSpec did not match its fields positionally")

    def test_tables_compare_by_identity_and_cache_their_shape(self, tce):
        table, again = run_ppa(1e-5, tce, 0.5, 3), run_ppa(1e-5, tce, 0.5, 3)
        assert table == table and table != again and len({table, again}) == 2
        # the check at construction computes the shape once, and it is kept
        assert table.shape == (4,) and vars(table)["shape"] is table.shape


class TestStaticHamiltonian:
    # stored as its level energies, one per computational basis state

    def test_single_qubit_zeeman(self):
        sys = single_spin(100.0)
        levels = register_levels(sys, 1.0)
        omega = sys.omega("q")
        expected = [-HBAR * omega / 2, +HBAR * omega / 2]
        assert np.allclose(levels, expected, rtol=1e-14)
        assert np.array_equal(local_levels(sys, "q", 1.0), levels)

    def test_zeeman_levels_broadcast_over_frequencies(self):
        omegas = np.array([1e8, 2e8, 3e8])
        levels = zeeman_levels(omegas)
        assert levels.shape == (3, 2)
        for omega, row in zip(omegas, levels):
            assert np.array_equal(row, zeeman_levels(omega))

    def test_tce_ground_entry_by_hand(self, tce):
        # |000>: every spin up, so Zeeman gives -hbar*(sum w)/2 and each
        # J pair contributes +hbar*2pi*J/4.
        levels = register_levels(tce, 1.0)
        omega_sum = tce.omega("C1") + tce.omega("C2") + tce.omega("H")
        j_sum = TWO_PI * (103.0 + 9.0 + 200.8)
        expected = -HBAR * omega_sum / 2 + HBAR * j_sum / 4
        assert levels[0] == pytest.approx(expected, rel=1e-12)

    def test_half_field_scales_zeeman_only(self, tce):
        h_full = register_levels(tce, 1.0)
        h_half = register_levels(tce, 0.5)
        no_j = SpinSystem(tce.qubits, {}, tce.b_field, tce.bath_temperature)
        z_full = register_levels(no_j, 1.0)
        j_part = h_full - z_full
        assert np.allclose(h_half, 0.5 * z_full + j_part, rtol=1e-12)

    def test_always_real_diagonal(self, tce):
        # the Zeeman and Iz-Iz operators, built densely, sum to a diagonal
        # matrix with the stored levels on its diagonal
        labels = tce.labels
        j_hz = {(0, 1): 103.0, (0, 2): 9.0, (1, 2): 200.8}
        for scale in (1.0, 0.5, 0.25):
            h = oracles.iz_hamiltonian([tce.omega(q, scale) for q in labels], j_hz)
            levels = register_levels(tce, scale)
            assert levels.shape == (8,) and levels.dtype == np.float64
            assert np.array_equal(h, np.diag(np.diag(h)))
            # the oracle's hbar is scipy's unrounded value, 6e-10 off CODATA's 10 digits
            assert np.allclose(np.diag(h), levels, rtol=1e-9, atol=0.0)

    def test_rejects_nonpositive_scale(self, tce):
        with pytest.raises(ValueError):
            register_levels(tce, 0.0)


def bits(values) -> list[int]:
    """The binary64 bit patterns of ``values``, so that -0.0 and 0.0 differ too."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# each marginal below is this close to the exact Gibbs sum; measured: at most 1.95 ulp, the
# target-last register's H at field scale 1 (at most 1.08 ulp for TCE, 1.32 for the 1e20 K register)
ULP_BOUND = 1.95


def marginal_ulps(sys, label, scale) -> float:
    """How far the package's marginal is from the exact Gibbs sum, in ulps."""
    return exact.ulps(thermal_marginal_polarization(sys, label, scale), exact.marginal(sys, label, scale))


class TestLevelBits:
    """Gibbs marginals: within ``ULP_BOUND`` of the exact Gibbs sum, and the TCE target's bits kept at the engines' field scales."""

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.3])
    @pytest.mark.parametrize("register", ["tce", "target-last"])
    def test_match_the_summed_reference_bit_for_bit(self, register, scale, tce):
        if register == "tce":
            sys = tce
        else:
            # (H, C2, C1): the target is the last qubit, and C1-H is not coupled
            sys = from_config_text(TARGET_LAST_CONFIG)
            assert sys.labels == ("H", "C2", "C1") and sys.label_for_role(Role.TARGET) == "C1"
        for label in sys.labels:
            assert abs(marginal_ulps(sys, label, scale)) <= ULP_BOUND
        # the input of every README run: the four-stroke sweeps' at full field, the ppa run's at half field
        pinned = {1.0: 1.0060013355225949e-05, 0.5: 5.030006677740238e-06}
        if register == "tce" and scale in pinned:
            assert bits(thermal_marginal_polarization(sys, "C1", scale)) == bits(pinned[scale])

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_a_line_far_below_the_others_keeps_its_splitting(self, scale):
        # at 1e20 K with H at 1e20 MHz each level energy is about 4e17 times C1's splitting, past
        # the 2^53 a float resolves: a difference of two levels rounds that splitting to 0
        sys = from_config_text(hot_bath_config())
        for label in sys.labels:
            assert abs(marginal_ulps(sys, label, scale)) <= ULP_BOUND


class TestGibbsState:
    # thermal_state is the register's Gibbs state at the bath temperature

    def test_infinite_temperature_limit(self, tce):
        hot = changed(tce, bath_temperature=1e12)
        rho = thermal_state(hot, 1.0)
        assert np.max(np.abs(rho.matrix - np.eye(8) / 8)) <= 1e-10

    def test_single_qubit_polarization(self):
        sys = single_spin(500.13)
        eps = polarization(thermal_state(sys, 1.0))
        assert eps == pytest.approx(oracles.eps_thermal(oracles.mhz(500.13)), abs=1e-12)
        assert eps == pytest.approx(4.000e-5, rel=1e-3)

    def test_tce_target_marginal(self, tce_thermal):
        eps = polarization_of(tce_thermal, "C1")
        assert eps == pytest.approx(1.006e-5, rel=1e-3)

    def test_populations_decrease_with_energy(self, tce, tce_thermal):
        energies = register_levels(tce, 1.0)
        populations = tce_thermal.populations
        order = np.argsort(energies)
        assert np.all(np.diff(populations[order]) < 0)

    def test_matches_expm_oracle(self, tce, tce_thermal_half):
        h = np.diag(register_levels(tce, 0.5))
        expected = oracles.gibbs_by_expm(h, tce.bath_temperature)
        assert np.max(np.abs(tce_thermal_half.matrix - expected)) <= 1e-12

    def test_rejects_nonpositive_temperature(self, tce):
        # the Gibbs temperature is the system's bath temperature
        with pytest.raises(ValueError, match="bath_temperature"):
            changed(tce, bath_temperature=0.0)

    def test_populations_broadcast_over_temperatures(self, tce):
        levels = local_levels(tce, "C1", 0.5)
        temperatures = np.array([1.0, 50.0, 300.0])
        rows = thermal_populations(levels, temperatures)
        for t, row in zip(temperatures, rows):
            assert np.array_equal(row, thermal_populations(levels, t))


class TestPolarization:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2, ("a",))
        assert polarization(rho) == 0.0

    def test_pure_up(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), ("a",))
        assert polarization(rho) == 1.0

    def test_hydrogen_half_field(self, tce):
        rho = thermal_state(tce, 0.5)
        eps = polarization_of(rho, "H")
        assert eps == pytest.approx(2.000e-5, rel=1e-3)

    def test_rejects_multi_qubit_input(self, tce_thermal):
        with pytest.raises(ValueError, match="single-qubit"):
            polarization(tce_thermal)


def test_hbar_is_derived_from_the_exact_planck_constant():
    # h is exact in the SI since 2019; scipy derives hbar the same way
    assert HBAR == 6.62607015e-34 / (2 * math.pi) == oracles.HBAR


class TestThermalMarginalPolarization:
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_matches_the_decimal_oracle(self, tce, scale):
        omegas = [tce.omega(q, scale) for q in tce.labels]
        couplings = {(0, 1): 103.0, (0, 2): 9.0, (1, 2): 200.8}
        for slot, label in enumerate(tce.labels):
            want = oracles.coupled_marginal_polarization(omegas, couplings, slot)
            # measured: at most 1.7e-16 relative
            assert thermal_marginal_polarization(tce, label, scale) == pytest.approx(want, rel=1e-15, abs=0)

    def test_couplings_shift_the_target_below_the_bare_line(self, tce):
        # the C1 couplings lower its marginal by 5.6e-12 relative of tanh
        eps = thermal_marginal_polarization(tce, "C1")
        bare = thermal_polarization(tce.omega("C1"), tce.bath_temperature)
        assert (eps - bare) / bare == pytest.approx(-5.6e-12, rel=0.05, abs=0)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_half_splittings_past_the_overflow_of_cosh(self, scale):
        # a C1-C2 coupling of 1e17 Hz splits the pairs by about 4000 kT:
        # sinh and cosh overflow there, their logarithms do not.  Measured
        # 1.4e-8 and 4.8e-9 relative, the round-off of half-splittings that
        # large (4000 kT to 1 ulp), which the oracle takes in 40 digits
        sys = from_config_text(huge_coupling_config())
        omegas = [sys.omega(q, scale) for q in sys.labels]
        couplings = {(0, 1): 1e17, (0, 2): 9.0, (1, 2): 200.8}
        want = oracles.coupled_marginal_polarization(omegas, couplings, 0)
        assert thermal_marginal_polarization(sys, "C1", scale) == pytest.approx(want, rel=1e-7, abs=0)

    def test_looks_up_each_coupling_once(self, tce, monkeypatch):
        # one lookup per pair, in register-index order, so the J terms sum as they always have
        seen = []
        lookup = SpinSystem.j_coupling
        monkeypatch.setattr(SpinSystem, "j_coupling", lambda self, a, b: seen.append((a, b)) or lookup(self, a, b))
        for label in tce.labels:
            thermal_marginal_polarization(tce, label, 1.0)
            assert seen == [("C1", "C2"), ("C1", "H"), ("C2", "H")]
            seen.clear()

    def test_matches_the_dense_marginal(self, tce, tce_thermal):
        # the dense marginal cancels about 4.5 digits in its population difference
        for label in tce.labels:
            dense_eps = polarization_of(tce_thermal, label)
            assert thermal_marginal_polarization(tce, label) == pytest.approx(dense_eps, rel=1e-10, abs=0)


class TestThermalPolarization:
    def test_zero_frequency_limit(self):
        assert thermal_polarization(1e-30, 300.0) == pytest.approx(0.0, abs=1e-20)

    def test_carbon_full_field(self):
        got = thermal_polarization(TWO_PI * 125.77e6, 300.0)
        assert got == pytest.approx(oracles.eps_thermal(oracles.mhz(125.77)), rel=1e-15, abs=0)
        assert got == pytest.approx(1.006e-5, rel=1e-3)

    def test_hydrogen_full_field(self):
        got = thermal_polarization(TWO_PI * 500.13e6, 300.0)
        assert got == pytest.approx(oracles.eps_thermal(oracles.mhz(500.13)), rel=1e-15, abs=0)
        assert got == pytest.approx(4.000e-5, rel=1e-3)


class TestEffectiveTemperature:
    def test_round_trip(self):
        omega = TWO_PI * 125.77e6
        eps = thermal_polarization(omega, 300.0)
        assert effective_temperature(eps, omega) == pytest.approx(300.0, rel=1e-9)

    def test_half_field_anchor_after_one_round(self):
        omega = TWO_PI * 62.885e6
        assert effective_temperature(3.0e-5, omega) == pytest.approx(50.3, abs=0.1)

    def test_half_field_anchor_at_ceiling(self):
        omega = TWO_PI * 62.885e6
        assert effective_temperature(4.0e-5, omega) == pytest.approx(37.7, abs=0.1)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            effective_temperature(eps, TWO_PI * 1e6)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, omega):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            effective_temperature(0.5, omega)


def test_marginal_polarization_matches_tanh_everywhere(tce):
    # J couplings perturb the thermal marginals far below this tolerance.
    for scale in (1.0, 0.5, 0.25):
        rho = thermal_state(tce, scale)
        for q in tce.labels:
            eps = polarization_of(rho, q)
            expected = thermal_polarization(tce.omega(q, scale), tce.bath_temperature)
            assert abs(eps - expected) <= 2e-9


def huge_coupling_config():
    """The TCE INI text with C1 at 200 MHz and a C1-C2 coupling of 1e17 Hz."""
    text = TCE_CONFIG.replace("omega_mhz = 125.77\n\n[qubit.C2]", "omega_mhz = 200.0\n\n[qubit.C2]")
    return text.replace("C1-C2 = 103.0", "C1-C2 = 1e17")


def hot_bath_config():
    """The TCE INI text at a 1e20 K bath with H's line at 1e20 MHz."""
    text = TCE_CONFIG.replace("temperature_kelvin = 300.0", "temperature_kelvin = 1e20")
    return text.replace("t1_seconds = 3.5\nomega_mhz = 500.13", "t1_seconds = 3.5\nomega_mhz = 1e20")


TCE_CONFIG = """\
[system]
temperature_kelvin = 300.0
reference_qubit = H
reference_omega_mhz = 500.13

[qubit.C1]
role = target
gamma_mhz_per_tesla = 10.7084
t1_seconds = 43.0
omega_mhz = 125.77

[qubit.C2]
role = compression
gamma_mhz_per_tesla = 10.7084
t1_seconds = 20.0
omega_mhz = 125.77

[qubit.H]
role = reset
gamma_mhz_per_tesla = 42.477
t1_seconds = 3.5
omega_mhz = 500.13

[j_coupling]
C1-C2 = 103.0
C1-H = 9.0
C2-H = 200.8
"""


TARGET_LAST_CONFIG = """\
[system]
temperature_kelvin = 300.0
reference_qubit = H
reference_omega_mhz = 500.13

[qubit.H]
role = reset
gamma_mhz_per_tesla = 42.477
t1_seconds = 3.5
omega_mhz = 500.13

[qubit.C2]
role = compression
gamma_mhz_per_tesla = 10.7084
t1_seconds = 20.0
omega_mhz = 125.77

[qubit.C1]
role = target
gamma_mhz_per_tesla = 10.7084
t1_seconds = 43.0
omega_mhz = 125.77

[j_coupling]
C1-C2 = 103.0
C2-H = 200.8
"""


class TestConfig:
    def test_round_trip_matches_preset(self, tce):
        sys = from_config_text(TCE_CONFIG)
        assert sys == tce

    def test_explicit_field(self):
        text = TCE_CONFIG.replace(
            "reference_qubit = H\nreference_omega_mhz = 500.13",
            "b_field_tesla = 11.774136591567203",
        )
        sys = from_config_text(text)
        assert sys.b_field == pytest.approx(tce_system().b_field, rel=1e-12)

    def test_load_system_preset_and_file(self, tce, tmp_path):
        assert load_system("tce") == tce
        path = tmp_path / "custom.cfg"
        path.write_text(TCE_CONFIG)
        assert load_system(path) == tce

    def test_a_file_with_a_byte_order_mark_loads(self, tce, tmp_path, monkeypatch, capsys):
        # an editor may save UTF-8 with a BOM ahead of "[system]"
        from spinotto import cli

        path = tmp_path / "bom.ini"
        path.write_text(TCE_CONFIG, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf[system]")
        assert load_system(path) == tce
        monkeypatch.chdir(tmp_path)
        assert cli.run(["ppa", "--system", "bom.ini", "--format", "summary"]) == 0
        assert capsys.readouterr().err == ""

    def test_a_path_is_always_a_file(self, tce, tmp_path, monkeypatch):
        # only a str names a preset: a Path named like one is the file it names
        (tmp_path / "tce").write_text(TCE_CONFIG.replace("temperature_kelvin = 300.0", "temperature_kelvin = 310.0"))
        monkeypatch.chdir(tmp_path)
        assert load_system(Path("tce")).bath_temperature == 310.0
        assert load_system("tce") == tce
        (tmp_path / "empty").mkdir()
        monkeypatch.chdir(tmp_path / "empty")
        with pytest.raises(ConfigError, match="^config not found: tce$"):
            load_system(Path("tce"))

    def test_readme_ini_matches_preset(self, tce):
        # its headers carry inline comments, and trailing whitespace leaves a header as it is too
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "[qubit.C1]                     # one section per qubit" in text
        assert from_config_text(text) == tce
        assert from_config_text(text.replace("[system]", "[system] \t")) == tce

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_system("missing.cfg")

    @pytest.mark.parametrize(
        "mangle,message",
        [
            (lambda t: t.replace("[system]\ntemperature_kelvin = 300.0\n", "[system]\n"), "temperature_kelvin"),
            (lambda t: t.replace("role = target", "role = boss"), "role"),
            (lambda t: t.replace("t1_seconds = 43.0", "t1_seconds = -1"), "positive"),
            (lambda t: t.replace("t1_seconds = 43.0", "t1_seconds = inf"), "finite"),
            (lambda t: t.replace("omega_mhz = 125.77", "omega_mhz = nan", 1), "finite"),
            (lambda t: t.replace("C1-H = 9.0", "C1-H = inf"), "finite"),
            (lambda t: t.replace("C1-C2", "C1-C9"), "unknown"),
            (lambda t: t.replace("reference_qubit = H", "reference_qubit = Z"), "reference_qubit"),
            (lambda t: t.replace("C1-C2 = 103.0", "C1C2 = 103.0"), "LABEL-LABEL"),
            (lambda t: t.replace("omega_mhz = 125.77", "omega_mh = 125.77", 1), r"\[qubit.C1\]: unknown keys \['omega_mh'\]"),
            (lambda t: t.replace("[j_coupling]", "[j_coupl]"), r"\[j_coupl\]: unknown keys \['C1-C2', 'C1-H', 'C2-H'\]"),
            (lambda t: t.replace("[j_coupling]\n", ""), r"\[qubit.H\]: unknown keys \['C1-C2', 'C1-H', 'C2-H'\]"),
            # text after a header's "]" is not part of the header, and configparser names the line
            (lambda t: t.replace("[system]", "[system]x"), r"line: 1\n'\[system\]x"),
            (lambda t: t.replace("[j_coupling]", "[j_coupling] extra"), r"\[line 24\]: '\[j_coupling\] extra"),
            # an empty or blank label would print as "# qubit : ..." and couple as "-C2"
            (lambda t: t.replace("[qubit.C1]", "[qubit.]").replace("C1-", "-"), r"\[qubit\.\]: empty qubit label"),
            (lambda t: t.replace("[qubit.C1]", "[qubit. ]").replace("C1-C2 = 103.0\nC1-H = 9.0\n", ""),
             r"\[qubit\. \]: empty qubit label"),
            # configparser strips [j_coupling] keys, so a label with whitespace around it could not be coupled
            (lambda t: t.replace("[qubit.C1]", "[qubit. C1]"), r"\[qubit\. C1\]: qubit label ' C1' has leading or trailing whitespace"),
            (lambda t: t.replace("[qubit.C1]", "[qubit.C1 ]"), r"\[qubit\.C1 \]: qubit label 'C1 ' has leading"),
            # finite in Hz, but 2 pi J overflows in rad/s
            (lambda t: t.replace("C2-H = 200.8", "C2-H = 1.7e308"), r"coupling C2-H: J 1\.7e\+308 Hz is not finite in rad/s"),
        ],
    )
    def test_rejects_bad_configs(self, mangle, message):
        with pytest.raises(ConfigError, match=message):
            from_config_text(mangle(TCE_CONFIG))

    def test_hyphenated_labels_can_be_coupled(self, tce):
        sys = from_config_text(TCE_CONFIG.replace("C1", "C-1"))
        assert [q.label for q in sys.qubits] == ["C-1", "C2", "H"]
        assert (sys.j_coupling("C-1", "C2"), sys.j_coupling("C-1", "H")) == (103.0, 9.0)
        assert sys.omega_mhz("C-1") == tce.omega_mhz("C1")

    def test_ambiguous_coupling_key_exits_2(self, tmp_path, monkeypatch, capsys):
        from spinotto import cli

        # with labels H-C and C-H, the key H-C-H reads as H + C-H and as H-C + H
        text = TCE_CONFIG.replace("C1", "H-C").replace("C2", "C-H")
        assert "H-C-H = 9.0" in text
        (tmp_path / "ambiguous.cfg").write_text(text)
        monkeypatch.chdir(tmp_path)
        assert cli.run(["ppa", "--system", "ambiguous.cfg", "--format", "summary"]) == 2
        assert capsys.readouterr().err == (
            "error: ambiguous.cfg: [j_coupling] key 'H-C-H' is ambiguous: 2 of its '-' split it into defined labels\n"
        )

    def test_rejects_a_config_without_qubits(self):
        with pytest.raises(ConfigError, match=r"^<config>: no \[qubit\.<LABEL>\] sections"):
            from_config_text("[system]\ntemperature_kelvin = 300.0\n")

    def test_missing_field_definition(self):
        text = TCE_CONFIG.replace(
            "reference_qubit = H\nreference_omega_mhz = 500.13\n", ""
        )
        with pytest.raises(ConfigError, match="b_field_tesla"):
            from_config_text(text)
