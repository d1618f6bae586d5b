import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spinotto
from spinotto import cli
from spinotto.spinsys import StateInvariantError

from test_spinsys import TCE_CONFIG, huge_coupling_config


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.run(args)


def data_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestPpaCommand:
    def test_seven_rounds_anchor(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(
            ["ppa", "--system", "tce", "--rounds", "7", "--field-scale", "0.5"],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shannon_crossing_round=1" in out
        header, rows = data_rows(tmp_path / "ppa_trace.csv")
        assert header == ["round", "eps_target", "eps_reset", "T_eff_K", "shannon_bound_eps"]
        assert len(rows) == 8
        final = rows[-1]
        assert float(final[1]) == pytest.approx(3.98e-5, rel=1e-2)
        assert float(final[3]) == pytest.approx(37.9, abs=0.1)

    def test_zero_rounds_single_row(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["ppa", "--rounds", "0"], tmp_path, monkeypatch)
        assert rc == 0
        _, rows = data_rows(tmp_path / "ppa_trace.csv")
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(2.000e-5, rel=1e-2)

    def test_missing_config_exits_2(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["ppa", "--system", "missing.cfg"], tmp_path, monkeypatch)
        assert rc == 2
        assert "not found" in capsys.readouterr().err
        assert not (tmp_path / "ppa_trace.csv").exists()

    def test_rejects_round_range(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["ppa", "--rounds", "0..5"], tmp_path, monkeypatch)
        assert rc == 2

    def test_custom_config_file(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "tce_copy.cfg"
        config.write_text(TCE_CONFIG)
        rc = run_cli(
            ["ppa", "--system", str(config), "--rounds", "1"], tmp_path, monkeypatch
        )
        assert rc == 0
        _, rows = data_rows(tmp_path / "ppa_trace.csv")
        assert float(rows[-1][1]) == pytest.approx(3.0e-5, rel=1e-2)


class TestFourStrokeCommand:
    def test_default_sweep_summary_and_schema(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["four-stroke"], tmp_path, monkeypatch)
        assert rc == 0
        out = capsys.readouterr().out
        assert "max power at n=2" in out
        assert "dominates from n=6" in out
        header, rows = data_rows(tmp_path / "four_stroke_sweep.csv")
        assert header == [
            "n",
            "Qin_J_per_mol",
            "Qout_J_per_mol",
            "W_J_per_mol",
            "P_W_per_mol",
            "P_iso_W_per_mol",
            "T_cold_K",
            "iso_dominates",
        ]
        assert [r[0] for r in rows] == [str(n) for n in range(11)]
        by_n = {int(r[0]): r for r in rows}
        assert float(by_n[2][4]) == pytest.approx(5.2e-9, rel=5e-2)
        assert [r[7] for r in rows] == ["false"] * 6 + ["true"] * 5

    def test_single_point_range(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["four-stroke", "--rounds", "1..1"], tmp_path, monkeypatch)
        assert rc == 0
        _, rows = data_rows(tmp_path / "four_stroke_sweep.csv")
        assert len(rows) == 1
        assert float(rows[0][3]) == pytest.approx(2.5e-7, rel=5e-2)


class TestTwoStrokeCommand:
    def test_sweep_schema_and_windows(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(
            ["two-stroke", "--omega-s", "100:900:50", "--rounds", "1..2"],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "positive-work window n=1" in out
        header, rows = data_rows(tmp_path / "two_stroke_sweep.csv")
        assert header == ["omega_s_MHz", "n", "W_J_per_mol", "P_W_per_mol", "eta", "in_window"]
        assert len(rows) == 17 * 2
        for row in rows:
            inside = row[5] == "true"
            assert (float(row[2]) > 0) == inside

    def test_default_grid_optimum(self, tmp_path, monkeypatch, capsys):
        # default grid 150:1000:1 MHz, rounds 1..8; top of the work curve is
        # flat, so the grid argmax lands a few MHz above the 430 MHz anchor
        rc = run_cli(["two-stroke", "--format", "summary"], tmp_path, monkeypatch)
        assert rc == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert "n=1" in summary
        fields = dict(
            part.split("=", 1) for part in summary.replace(":", "").split() if "=" in part
        )
        assert 420.0 <= float(fields["omega_s"]) <= 450.0
        assert float(fields["P"]) == pytest.approx(1.47e-7, rel=5e-2)

    def test_grid_below_target_frequency(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(
            ["two-stroke", "--omega-s", "50:120:10", "--rounds", "1..1"],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        _, rows = data_rows(tmp_path / "two_stroke_sweep.csv")
        assert all(row[5] == "false" for row in rows)
        assert all(float(row[2]) <= 0 for row in rows)

    def test_anchor_580mhz_five_rounds(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(
            ["two-stroke", "--omega-s", "580:580:1", "--rounds", "5..5"],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        _, rows = data_rows(tmp_path / "two_stroke_sweep.csv")
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(2.95e-6, rel=2e-2)

    def test_summary_text(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(
            ["two-stroke", "--rounds", "1..3", "--omega-s", "100:900:50", "--format", "summary"],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "two-stroke max power at omega_s=450.00 MHz, n=1: "
            "P=1.479332e-07 W/mol (W=1.553299e-06 J/mol, eta=0.7205)",
            "positive-work window n=1: (125.77, 750.20) MHz",
            "positive-work window n=2: (125.77, 875.23) MHz",
            "positive-work window n=3: (125.77, 937.74) MHz",
        ]

    def test_summary_joins_round_counts_with_the_same_window(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(
            ["two-stroke", "--rounds", "15..1000", "--omega-s", "900:900:1", "--format", "summary"],
            tmp_path,
            monkeypatch,
        )
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "positive-work window n=15: (125.77, 1000.24) MHz",
            "positive-work window n=16: (125.77, 1000.25) MHz",
            "positive-work window n=17..1000: (125.77, 1000.26) MHz",
        ]

    def test_bad_grid_exits_2(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["two-stroke", "--omega-s", "900:100:1"], tmp_path, monkeypatch)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "grid,reason",
        [
            ("1:inf:1", "values must be finite"),
            ("150:200:inf", "values must be finite"),
            ("1e308:1.7e308:1e308", "overflows in rad/s"),
        ],
        ids=["infinite-stop", "infinite-step", "overflows-rad-per-s"],
    )
    def test_non_finite_grid_exits_2(self, grid, reason, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["two-stroke", "--rounds", "1", "--omega-s", grid], tmp_path, monkeypatch)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # argparse prints its usage lines, then one error line
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"spinotto two-stroke: error: argument --omega-s: omega grid {reason}: {grid!r}"
        ]
        assert list(tmp_path.iterdir()) == []


class TestOutputContract:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch, capsys):
        args = ["two-stroke", "--omega-s", "200:400:100", "--rounds", "1..2"]
        run_cli(args + ["--out", "a.csv"], tmp_path, monkeypatch)
        run_cli(args + ["--out", "b.csv"], tmp_path, monkeypatch)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_metadata_header(self, tmp_path, monkeypatch, capsys):
        run_cli(["ppa", "--rounds", "1"], tmp_path, monkeypatch)
        text = (tmp_path / "ppa_trace.csv").read_text()
        assert "# config_hash=sha256:" in text
        assert "# constants: hbar=" in text
        assert "# qubit C1: role=target" in text

    def test_summary_format_writes_no_file(self, tmp_path, monkeypatch, capsys):
        rc = run_cli(["ppa", "--rounds", "1", "--format", "summary"], tmp_path, monkeypatch)
        assert rc == 0
        assert not (tmp_path / "ppa_trace.csv").exists()
        assert "final eps_target" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["ppa", "--rounds", "3"],
            ["four-stroke", "--rounds", "0..3"],
            ["two-stroke", "--rounds", "1..2", "--omega-s", "150:400:50"],
        ],
        ids=["ppa", "four-stroke", "two-stroke"],
    )
    def test_summary_format_renders_no_csv(self, args, tmp_path, monkeypatch, capsys):
        assert run_cli([*args, "--format", "summary"], tmp_path, monkeypatch) == 0
        expected = capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("a CSV was rendered under --format summary")

        for name in ("render_ppa_csv", "render_four_stroke_csv", "render_two_stroke_csv"):
            monkeypatch.setattr(cli.reports, name, refuse)
        assert run_cli([*args, "--format", "summary"], tmp_path, monkeypatch) == 0
        assert capsys.readouterr() == expected
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["four-stroke", "--tau", "nan"],
            ["four-stroke", "--tau", "inf"],
            ["four-stroke", "--tau", "0"],
            ["ppa", "--field-scale", "inf"],
            ["four-stroke", "--dt", "0.001"],  # not an option
        ],
        ids=["tau-nan", "tau-inf", "tau-zero", "field-scale-inf", "dt-removed"],
    )
    def test_bad_arguments_exit_2(self, args, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(args, tmp_path, monkeypatch)
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_extreme_tau_keeps_data_rows(self, tmp_path, monkeypatch, capsys):
        # the field ramps freeze populations, so tau enters only the config
        # hash: no drive period, however extreme, changes a data row
        def rows(tau):
            out = f"tau_{tau}.csv"
            args = ["four-stroke", "--rounds", "0..10", "--tau", tau, "--out", out]
            assert run_cli(args, tmp_path, monkeypatch) == 0
            return data_rows(tmp_path / out)

        reference = rows("0.1")
        assert rows("1e308") == reference
        assert rows("1e-300") == reference
        assert "Traceback" not in capsys.readouterr().err

    def test_numerical_invariant_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise StateInvariantError("synthetic failure")

        monkeypatch.setattr(cli.hbac, "run_ppa", explode)
        rc = run_cli(["ppa", "--rounds", "1"], tmp_path, monkeypatch)
        assert rc == 3
        assert "synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["two-stroke", "--rounds", "1..2", "--omega-s", "150:200:50"],
        ["ppa", "--field-scale", "1"],
    ],
    ids=["two-stroke", "ppa"],
)
def test_saturated_polarization_exits_3(args, tmp_path, monkeypatch, capsys):
    # a 1 mK bath cools the target to a polarization that rounds to exactly 1.0
    config = tmp_path / "cold.cfg"
    config.write_text(TCE_CONFIG.replace("temperature_kelvin = 300.0", "temperature_kelvin = 0.001"))
    rc = run_cli([*args, "--system", str(config)], tmp_path, monkeypatch)
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "numerical invariant violated: round 1: target polarization 1.0 outside (0, 1) "
        "at bath temperature 0.001 K"
    ]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "args",
    [
        ["two-stroke", "--rounds", "1..2", "--omega-s", "150:200:50"],
        ["four-stroke", "--rounds", "0..2"],
        ["ppa", "--field-scale", "1"],
    ],
    ids=["two-stroke", "four-stroke", "ppa"],
)
def test_saturated_bath_exits_3_at_round_0(args, tmp_path, monkeypatch, capsys):
    # at 0.5 mK the reset qubit's bath polarization itself rounds to 1.0 at
    # full field (four-stroke cools at half field, where it is 1 - 7.5e-11 and
    # the first round rounds to 1.0)
    config = tmp_path / "cold.cfg"
    config.write_text(TCE_CONFIG.replace("temperature_kelvin = 300.0", "temperature_kelvin = 0.0005"))
    rc = run_cli([*args, "--system", str(config)], tmp_path, monkeypatch)
    assert rc == 3
    first_bad = 1 if args[0] == "four-stroke" else 0
    assert capsys.readouterr().err.splitlines() == [
        f"numerical invariant violated: round {first_bad}: target polarization 1.0 outside (0, 1) "
        "at bath temperature 0.0005 K"
    ]
    assert list(tmp_path.iterdir()) == [config]


def test_saturated_run_stops_at_the_first_bad_round(tmp_path, monkeypatch, capsys):
    # the 1 mK bath saturates the target at round 1: a run asked for the
    # largest round count reports that round, and it is the closed form, so
    # no round is stepped through to get there
    config = tmp_path / "cold.cfg"
    config.write_text(TCE_CONFIG.replace("temperature_kelvin = 300.0", "temperature_kelvin = 0.001"))
    calls = []
    honest = cli.hbac.ppa_round

    def counted(*args):
        calls.append(None)
        return honest(*args)

    monkeypatch.setattr(cli.hbac, "ppa_round", counted)
    argv = ["ppa", "--field-scale", "1", "--rounds", str(cli.MAX_VALUES), "--system", str(config)]
    assert run_cli(argv, tmp_path, monkeypatch) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical invariant violated: round 1: target polarization 1.0 outside (0, 1) "
        "at bath temperature 0.001 K"
    ]
    assert calls == []
    assert list(tmp_path.iterdir()) == [config]


def test_largest_round_count_reaches_the_limit(tmp_path, monkeypatch, capsys):
    argv = ["ppa", "--rounds", str(cli.MAX_VALUES), "--format", "summary"]
    assert run_cli(argv, tmp_path, monkeypatch) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    # 2 eps_b/(1 + eps_b**2) at the compressed field, to the printed 7 digits
    assert "final eps_target=4.000409e-05 T_eff=37.721 K" in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "old,new",
    [
        ("t1_seconds = 43.0", "t1_seconds = nan"),
        ("temperature_kelvin = 300.0", "temperature_kelvin = inf"),
        ("temperature_kelvin = 300.0", "temperature_kelvin = nan"),
        ("C1-C2 = 103.0", "C1-C2 = nan"),
        ("C1-C2 = 103.0", "C1-C2 = -inf"),
    ],
    ids=["t1-nan", "temperature-inf", "temperature-nan", "j-nan", "j-minus-inf"],
)
def test_non_finite_config_exits_2(old, new, tmp_path, monkeypatch, capsys):
    # every subcommand loads the system through the same call before it runs
    config = tmp_path / "bad.cfg"
    config.write_text(TCE_CONFIG.replace(old, new))
    rc = run_cli(["two-stroke", "--system", str(config), "--rounds", "1"], tmp_path, monkeypatch)
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [config]


SUBCOMMANDS = [
    ["ppa"],
    ["four-stroke", "--rounds", "0..2"],
    ["two-stroke", "--rounds", "1", "--omega-s", "150:200:50"],
]


@pytest.mark.parametrize("args", SUBCOMMANDS, ids=["ppa", "four-stroke", "two-stroke"])
def test_huge_coupling_runs_without_warnings(args, tmp_path, monkeypatch, capsys):
    # pairs split by about 4000 kT, where sinh and cosh of the Gibbs
    # marginal overflow; any warning fails the test
    config = tmp_path / "coupled.cfg"
    config.write_text(huge_coupling_config())
    assert run_cli([*args, "--system", str(config), "--format", "summary"], tmp_path, monkeypatch) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "nan" not in captured.out


@pytest.mark.parametrize("args", SUBCOMMANDS, ids=["ppa", "four-stroke", "two-stroke"])
def test_bath_too_hot_for_a_spin_temperature_exits_3(args, tmp_path, monkeypatch, capsys):
    # at 1e300 K the cooled target's spin temperature overflows to inf,
    # which no CSV cell may hold
    config = tmp_path / "hot.cfg"
    config.write_text(TCE_CONFIG.replace("temperature_kelvin = 300.0", "temperature_kelvin = 1e300"))
    assert run_cli([*args, "--system", str(config)], tmp_path, monkeypatch) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "has no finite spin temperature at bath temperature 1e+300 K" in err[0]
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("args", SUBCOMMANDS, ids=["ppa", "four-stroke", "two-stroke"])
def test_overflowing_larmor_frequency_exits_2(args, tmp_path, monkeypatch, capsys):
    # C1 takes its frequency from gamma * B, 1.07e305 MHz, which overflows in rad/s
    config = tmp_path / "strong.cfg"
    text = TCE_CONFIG.replace("reference_qubit = H\nreference_omega_mhz = 500.13", "b_field_tesla = 1e304")
    config.write_text(text.replace("omega_mhz = 125.77\n\n[qubit.C2]", "\n[qubit.C2]"))
    assert run_cli([*args, "--system", str(config)], tmp_path, monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {config}: qubit C1: Larmor frequency 1.07084e+305 MHz at field scale 1 overflows in rad/s"
    ]
    assert list(tmp_path.iterdir()) == [config]


def test_overflowing_field_scale_exits_2(tmp_path, monkeypatch, capsys):
    assert run_cli(["ppa", "--field-scale", "1e305"], tmp_path, monkeypatch) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: qubit C1: Larmor frequency 125.77 MHz at field scale 1e+305 overflows in rad/s"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "old,new",
    [
        ("C2-H = 200.8\n", "C2-H = 200.8\n\n[qubit.S]\nrole = swap-partner\ngamma_mhz_per_tesla = 10.0\nt1_seconds = 1.0\n"),
        ("C2-H = 200.8\n", "C2-H = 200.8\n\n[qubit.S]\nrole = reset\ngamma_mhz_per_tesla = 10.0\nt1_seconds = 1.0\n"),
        ("role = target", "role = compression"),
    ],
    ids=["swap-partner", "fourth-qubit", "second-compression"],
)
@pytest.mark.parametrize("args", SUBCOMMANDS, ids=["ppa", "four-stroke", "two-stroke"])
def test_register_without_one_qubit_per_role_exits_2(args, old, new, tmp_path, monkeypatch, capsys):
    config = tmp_path / "roles.cfg"
    text = TCE_CONFIG.replace(old, new)
    assert text != TCE_CONFIG
    config.write_text(text)
    rc = run_cli([*args, "--system", str(config)], tmp_path, monkeypatch)
    assert rc == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "args",
    [
        ["two-stroke", "--rounds", "1..1", "--omega-s", "1:1e9:1e-6"],
        ["four-stroke", "--rounds", "0..1000000000000"],
        ["ppa", "--rounds", "1000000000000"],
        ["four-stroke", "--rounds", "0..1000000"],
        ["two-stroke", "--rounds", "0..999", "--omega-s", "1:2000:1"],
    ],
    ids=["grid-points", "round-range", "round-count", "round-values", "table-rows"],
)
def test_oversized_input_exits_2(args, tmp_path, monkeypatch, capsys):
    start = time.perf_counter()
    try:
        rc = run_cli(args, tmp_path, monkeypatch)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "1000000" in err
    assert list(tmp_path.iterdir()) == []


def test_default_grid_is_recorded(tmp_path, monkeypatch, capsys):
    # the default two-stroke run is the README command, header and all
    assert run_cli(["two-stroke", "--out", "default.csv"], tmp_path, monkeypatch) == 0
    args = ["two-stroke", "--rounds", "1..8", "--omega-s", "150:1000:1", "--out", "explicit.csv"]
    assert run_cli(args, tmp_path, monkeypatch) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


def child_env():
    """The environment of a child ``python -m spinotto`` that imports this suite's package.

    The child runs from an unrelated directory, so a relative PYTHONPATH
    (such as PYTHONPATH=src) would no longer resolve: put the absolute
    directory of the package this suite imported in front of it.
    """
    package_root = str(Path(spinotto.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, inherited]))
    return env


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "spinotto", "ppa", "--rounds", "1", "--format", "summary"],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "final eps_target" in result.stdout
    # --format summary prints only: no file is written and nothing crashed.
    assert list(tmp_path.iterdir()) == []
    assert "Traceback" not in result.stderr


def test_closed_stdout_exits_0(tmp_path):
    # as `spinotto two-stroke --format summary | head -1`: the reader
    # closes the pipe after the first summary line, the rest of it has
    # nowhere to go, and the run itself succeeded
    child = subprocess.Popen(
        [sys.executable, "-m", "spinotto", "two-stroke", "--format", "summary"],
        cwd=tmp_path,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert first.startswith(b"two-stroke max power at omega_s=")
    assert stderr == b""


@pytest.mark.parametrize(
    "args,name,digest",
    [
        (
            ["ppa", "--system", "tce", "--rounds", "7", "--field-scale", "0.5"],
            "ppa_trace.csv",
            # row 0's eps_reset is the closed-form Gibbs marginal, 5.030006677740e-06 as the
            # decimal oracle gives it, not a difference of populations (...773e-06)
            "cc83811c7585a88a9ce189a559a2de9edb4419a5bd0bbc5022f98ff780c49bc5",
        ),
        (
            ["four-stroke", "--rounds", "0..10", "--tau", "0.1"],
            "four_stroke_sweep.csv",
            "da8f61eba3c1afd92f2d6251fc7f8fac3c3c757e624fd4565d4b0932c953c4c3",
        ),
        (
            ["two-stroke", "--rounds", "1..8", "--omega-s", "150:1000:1"],
            "two_stroke_sweep.csv",
            "d40f00529cc5c26c8f0d5e167ec5161d20b54f31a699ea0760c0d46f168b3298",
        ),
    ],
    ids=["ppa", "four-stroke", "two-stroke"],
)
def test_readme_commands_keep_their_bytes(args, name, digest, tmp_path, monkeypatch, capsys):
    # the README's three commands; a change that alters these files on
    # purpose updates the digest and says why
    rc = run_cli([*args, "--out", name], tmp_path, monkeypatch)
    assert rc == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def heated_target_config(tmp_path):
    # the reset line at 100 MHz is below the 125.77 MHz target, so the
    # initial stage leaves the target hotter than the bath
    config = tmp_path / "slow_reset.cfg"
    text = TCE_CONFIG.replace("t1_seconds = 3.5\nomega_mhz = 500.13", "t1_seconds = 3.5\nomega_mhz = 100.0")
    assert text != TCE_CONFIG
    config.write_text(text)
    return config


def test_heated_target_two_stroke_reports_no_window(tmp_path, monkeypatch, capsys):
    config = heated_target_config(tmp_path)
    args = ["two-stroke", "--system", str(config), "--rounds", "0..1", "--omega-s", "150:200:50"]
    rc = run_cli(args, tmp_path, monkeypatch)
    assert rc == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out.splitlines()[2:] == [
        "positive-work window n=0: none",
        "positive-work window n=1: (125.77, 150.00) MHz",
    ]
    _, rows = data_rows(tmp_path / "two_stroke_sweep.csv")
    # round 1's upper edge is 150.0000000008 MHz in 40-digit arithmetic, so
    # the 150 MHz partner lies just inside the window and gains work
    assert [(row[1], row[5]) for row in rows] == [
        ("0", "false"), ("0", "false"), ("1", "true"), ("1", "false")
    ]
    assert float(rows[2][2]) > 0


def test_heated_target_four_stroke_exits_2(tmp_path, monkeypatch, capsys):
    config = heated_target_config(tmp_path)
    rc = run_cli(["four-stroke", "--system", str(config), "--rounds", "0..3"], tmp_path, monkeypatch)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: round 0: cooling leaves the target at 377.31 K, above the bath temperature "
        "300 K, so the isochoric reference has no cold bath"
    ]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]
    rc = run_cli(["four-stroke", "--system", str(config), "--rounds", "1..3"], tmp_path, monkeypatch)
    assert rc == 0
    assert (tmp_path / "four_stroke_sweep.csv").exists()


@pytest.mark.parametrize(
    "content",
    [b"\xff" + TCE_CONFIG.encode(), TCE_CONFIG.replace("[system]", "# r\xe9glage\n[system]").encode("latin-1")],
    ids=["xff", "latin-1-e9"],
)
@pytest.mark.parametrize("args", SUBCOMMANDS, ids=["ppa", "four-stroke", "two-stroke"])
def test_non_utf8_config_exits_2(args, content, tmp_path, monkeypatch, capsys):
    config = tmp_path / "latin.cfg"
    config.write_bytes(content)
    rc = run_cli([*args, "--system", str(config)], tmp_path, monkeypatch)
    assert rc == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        captured.err.strip()
    ]
    assert f"cannot read config {config}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "block,out,reason",
    [
        (Path.mkdir, "taken", None),
        (lambda path: path.write_text("keep\n"), "taken/ppa.csv", "taken is not a directory"),
    ],
    ids=["directory", "file-parent"],
)
def test_unwritable_out_exits_2(block, out, reason, tmp_path, monkeypatch, capsys):
    # a directory in place of the file, or a regular file in place of its parent
    block(tmp_path / "taken")
    rc = run_cli(["ppa", "--out", out], tmp_path, monkeypatch)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    if reason is not None:
        assert captured.err == f"error: cannot write {out}: {reason}\n"
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    # no temp file is left behind
    assert list(tmp_path.rglob("*")) == [tmp_path / "taken"]


@pytest.mark.parametrize(
    "args,old,new,message",
    [
        (
            ["four-stroke", "--rounds", "0..2"],
            "t1_seconds = 43.0",
            "t1_seconds = 1e-320",
            "four_stroke_isochoric_ref: power is inf at n_rounds=0",
        ),
        (
            ["two-stroke", "--rounds", "1..1", "--omega-s", "1e-320:1e-320:1"],
            None,
            None,
            "two_stroke_hbac: efficiency is -inf at n_rounds=1, omega_s=6.28312e-314 rad/s (1e-320 MHz)",
        ),
        (
            ["four-stroke", "--rounds", "0..2"],
            "t1_seconds = 3.5",
            "t1_seconds = 1e308",
            "four_stroke_hbac: cycle_time is inf at n_rounds=1",
        ),
        (
            ["two-stroke", "--rounds", "0..2", "--omega-s", "150:200:50"],
            "t1_seconds = 3.5",
            "t1_seconds = 1e308",
            "two_stroke_hbac: cycle_time is inf at n_rounds=1, omega_s=9.42478e+08 rad/s (150.0 MHz)",
        ),
    ],
    ids=["tiny-target-t1", "tiny-partner-frequency", "huge-reset-t1-four", "huge-reset-t1-two"],
)
def test_non_finite_result_exits_3(args, old, new, message, tmp_path, monkeypatch, capsys):
    # each input passes the parsers but overflows a sweep column
    config = tmp_path / "overflow.cfg"
    config.write_text(TCE_CONFIG if old is None else TCE_CONFIG.replace(old, new))
    rc = run_cli([*args, "--system", str(config)], tmp_path, monkeypatch)
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"numerical invariant violated: {message}"]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]
