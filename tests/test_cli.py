import argparse
import hashlib
import itertools
import math
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spinotto
from spinotto import cli, engines, reports
from spinotto.spinsys import TWO_PI, StateInvariantError

import exact
import oracles
from test_spinsys import TCE_CONFIG, huge_coupling_config


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.run(args)


def readme_ini() -> str:
    """The README's INI example, comments and all."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


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


# the paper-grid summary of rounds 1..16, as the per-round-count summary printed it
PAPER_SUMMARY = [
    "two-stroke max power at omega_s=450.00 MHz, n=1: P=1.479332e-07 W/mol (W=1.553299e-06 J/mol, eta=0.7205)",
    "positive-work window n=1: (125.77, 750.20) MHz",
    "positive-work window n=2: (125.77, 875.23) MHz",
    "positive-work window n=3: (125.77, 937.74) MHz",
    "positive-work window n=4: (125.77, 969.00) MHz",
    "positive-work window n=5: (125.77, 984.63) MHz",
    "positive-work window n=6: (125.77, 992.45) MHz",
    "positive-work window n=7: (125.77, 996.35) MHz",
    "positive-work window n=8: (125.77, 998.31) MHz",
    "positive-work window n=9: (125.77, 999.28) MHz",
    "positive-work window n=10: (125.77, 999.77) MHz",
    "positive-work window n=11: (125.77, 1000.02) MHz",
    "positive-work window n=12: (125.77, 1000.14) MHz",
    "positive-work window n=13: (125.77, 1000.20) MHz",
    "positive-work window n=14: (125.77, 1000.23) MHz",
    "positive-work window n=15: (125.77, 1000.24) MHz",
    "positive-work window n=16: (125.77, 1000.25) MHz",
]


def reference_window_lines(rounds, omega_t, bath_t, cooled):
    """The window lines computed one round count at a time: one window and one text each, then grouped."""
    windows = (engines.positive_work_window(omega_t, bath_t, t) for t in cooled.tolist())
    shown = ["none" if w is None else "(%.2f, %.2f) MHz" % (w[0] / TWO_PI / 1e6, w[1] / TWO_PI / 1e6) for w in windows]
    lines = []
    for text, run in itertools.groupby(zip(rounds, shown), key=lambda pair: pair[1]):
        first, *rest = (n for n, _ in run)
        lines.append(f"positive-work window n={first}{'..%d' % rest[-1] if rest else ''}: {text}")
    return lines


@st.composite
def cooled_columns(draw):
    """Round counts and a cooled-temperature column of runs of equal values.

    The values include the bath temperature and values above it, temperatures one ulp
    apart, and temperatures whose edges differ but print alike at two decimals.
    """
    omega_t = draw(st.sampled_from([TWO_PI * 125.77e6, TWO_PI * 1e-3, TWO_PI * 3e9]))
    bath_t = draw(st.sampled_from([300.0, 4.2e-3]))
    below = draw(st.floats(bath_t / 64, bath_t, exclude_max=True))
    levels = [bath_t, bath_t * 1.25, math.nextafter(bath_t, math.inf), math.nextafter(bath_t, 0.0),
              below, math.nextafter(below, 0.0), math.nextafter(below, math.inf), below * (1 + 1e-12), below / 2]
    runs = draw(st.lists(st.tuples(st.sampled_from(levels), st.integers(1, 4)), min_size=1, max_size=12))
    cooled = np.repeat([value for value, _ in runs], [count for _, count in runs])
    start = draw(st.integers(0, 10**6 - cooled.size))
    return range(start, start + cooled.size), omega_t, bath_t, cooled


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
        # every cycle loses work, and the efficiency 1 - omega_T/omega_S is huge and negative
        rc = run_cli(["two-stroke", "--rounds", "3", "--omega-s", "1e-300:1e-300:1", "--format", "summary"],
                     tmp_path, monkeypatch)
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "two-stroke max power at omega_s=0.00 MHz, n=3: "
            "P=-7.682341e-08 W/mol (W=-1.882174e-06 J/mol, eta=-1.258e+302)"
        )

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

    def test_each_window_is_computed_once(self, tmp_path, monkeypatch, capsys):
        """80 round counts on 18 frequencies: one edge computation for the run, one text per distinct edge at most."""
        calls, texts = [], []

        def counting(*args):
            calls.append(edges(*args))
            return calls[-1]

        def recording(omega_t, values):
            texts.append(window_texts(omega_t, values))
            return texts[-1]

        edges, window_texts = engines.window_upper_edges, cli._window_texts
        monkeypatch.setattr(engines, "window_upper_edges", counting)
        monkeypatch.setattr(cli, "_window_texts", recording)
        rc = run_cli(["two-stroke", "--rounds", "1..80", "--omega-s", "150:1000:50"], tmp_path, monkeypatch)
        assert rc == 0
        assert [len(edges) for edges in calls] == [80]
        # n = 17..80 print alike, but 36 distinct edges lie among them
        assert [len(shown) for shown in texts] == [len(np.unique(calls[0]))] == [52]
        assert capsys.readouterr().out.splitlines()[2] == "positive-work window n=1: (125.77, 750.20) MHz"

    @pytest.mark.parametrize(
        "args,lines",
        [
            (["--rounds", "1..80", "--omega-s", "150:1000:50"], PAPER_SUMMARY[:17] + ["positive-work window n=17..80: (125.77, 1000.26) MHz"]),
            (["--rounds", "1..1000000", "--omega-s", "430:430:1"], [
                "two-stroke max power at omega_s=430.00 MHz, n=1: P=1.480559e-07 W/mol (W=1.554587e-06 J/mol, eta=0.7075)",
                *PAPER_SUMMARY[1:17], "positive-work window n=17..1000000: (125.77, 1000.26) MHz",
            ]),
        ],
        ids=["80-rounds", "limit-rounds"],
    )
    def test_summaries_keep_their_text(self, args, lines, tmp_path, monkeypatch, capsys):
        # the full stdout, as the per-round-count summary printed it
        assert run_cli(["two-stroke", *args, "--format", "summary"], tmp_path, monkeypatch) == 0
        assert capsys.readouterr().out.splitlines() == lines
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "edits,args,lines",
        [
            ({}, ["--rounds", "1", "--omega-s", "1e290:1e290:1"], [
                "two-stroke max power at omega_s=1e+290 MHz, n=1: P=-1.900035e+285 W/mol (W=-1.995037e+286 J/mol, eta=1)",
                "positive-work window n=1: (125.77, 750.20) MHz",
            ]),
            # a 1e15 K bath and a 1e15 MHz reset line cool the target to about 125.77 / 2e15 of the bath
            ({"temperature_kelvin = 300.0": "temperature_kelvin = 1e15", "t1_seconds = 3.5\nomega_mhz = 500.13": "t1_seconds = 3.5\nomega_mhz = 1e15"},
             ["--rounds", "1..2", "--omega-s", "150:200:50"], [
                "two-stroke max power at omega_s=200.00 MHz, n=1: P=5.076929e-08 W/mol (W=5.330776e-07 J/mol, eta=0.3711)",
                "positive-work window n=1: (125.77, 1.50000000007198e+15) MHz",
                "positive-work window n=2: (125.77, 1.75000000011696e+15) MHz",
            ]),
        ],
        ids=["partner-1e290-MHz", "edge-1e15-MHz"],
    )
    def test_huge_frequencies_print_bounded_texts(self, edits, args, lines, tmp_path, monkeypatch, capsys):
        # %.2f printed 1e290 MHz as 291 digits; from 1e15 MHz on a frequency takes 15 significant digits
        text = TCE_CONFIG
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        config = tmp_path / "system.cfg"
        config.write_text(text)
        assert run_cli(["two-stroke", "--system", str(config), *args, "--format", "summary"], tmp_path, monkeypatch) == 0
        assert capsys.readouterr().out.splitlines() == lines

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=cooled_columns())
    def test_window_lines_match_one_window_per_round_count(self, case):
        rounds, omega_t, bath_t, cooled = case
        assert cli._window_lines(rounds, omega_t, bath_t, cooled) == reference_window_lines(rounds, omega_t, bath_t, cooled)

    def test_bad_grid_exits_2(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["two-stroke", "--omega-s", "900:100:1"], tmp_path, monkeypatch)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "grid,error",
        [
            ("150:1000", "omega grid must be start:stop:step in MHz, got '150:1000'"),
            ("150:1000:1:2", "omega grid must be start:stop:step in MHz, got '150:1000:1:2'"),
            ("150:abc:1", "omega grid values must be numbers: '150:abc:1'"),
        ],
        ids=["two-parts", "four-parts", "not-a-number"],
    )
    def test_malformed_grid_exits_2(self, grid, error, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["two-stroke", "--rounds", "1", "--omega-s", grid], tmp_path, monkeypatch)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"spinotto two-stroke: error: argument --omega-s: {error}"
        ]

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

        for name in ("render_csv", "write_atomic"):
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
            # grids whose points repeat once they are floats
            ["two-stroke", "--omega-s", "1e17:100000000000000100:4"],
            ["two-stroke", "--omega-s", "1:1.000000000000002:0.0000000000000002"],
        ],
        ids=[
            "tau-nan", "tau-inf", "tau-zero", "field-scale-inf", "dt-removed",
            "omega-repeats-near-1e17", "omega-repeats-near-1",
        ],
    )
    def test_bad_arguments_exit_2(self, args, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(args, tmp_path, monkeypatch)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1
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
    # one evaluation of every round finds it, with no round stepped through
    config = tmp_path / "cold.cfg"
    config.write_text(TCE_CONFIG.replace("temperature_kelvin = 300.0", "temperature_kelvin = 0.001"))
    calls = []
    honest = cli.hbac.cooling_polarizations

    def counted(*args):
        calls.append(args[2])
        return honest(*args)

    monkeypatch.setattr(cli.hbac, "cooling_polarizations", counted)
    argv = ["ppa", "--field-scale", "1", "--rounds", str(cli.MAX_VALUES), "--system", str(config)]
    assert run_cli(argv, tmp_path, monkeypatch) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical invariant violated: round 1: target polarization 1.0 outside (0, 1) "
        "at bath temperature 0.001 K"
    ]
    assert calls == [cli.MAX_VALUES]
    assert list(tmp_path.iterdir()) == [config]


def test_largest_round_count_reaches_the_limit(tmp_path, monkeypatch, capsys):
    argv = ["ppa", "--rounds", str(cli.MAX_VALUES), "--format", "summary"]
    assert run_cli(argv, tmp_path, monkeypatch) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    # 2 eps_b/(1 + eps_b**2) at the compressed field, to the printed 7 digits
    assert "final eps_target=4.000409e-05 T_eff=37.721 K" in captured.out
    assert list(tmp_path.iterdir()) == []


def test_cold_bath_summary_prints_a_nonzero_spin_temperature(tmp_path, monkeypatch, capsys):
    # the README's INI at a 3 mK bath cools the target to 0.377 mK, which three
    # fixed decimals printed as T_eff=0.000 K
    config = tmp_path / "cold.cfg"
    config.write_text(readme_ini().replace("temperature_kelvin = 300.0", "temperature_kelvin = 0.003"))
    argv = ["ppa", "--rounds", "50", "--system", str(config), "--format", "summary"]
    assert run_cli(argv, tmp_path, monkeypatch) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ppa rounds=50 field_scale=0.5: final eps_target=9.993298e-01 T_eff=0.00037721 K shannon_crossing_round=1"
    ]
    # the uncoupled closed form, to the printed five digits
    eps = oracles.eps_after_rounds(oracles.eps_thermal(0.5 * oracles.mhz(oracles.OMEGA_H_MHZ), 0.003), 50)
    assert f"{oracles.spin_temperature(eps, 0.5 * oracles.mhz(oracles.OMEGA_T_MHZ)):.5g}" == "0.00037721"


@pytest.mark.parametrize(
    "old,new",
    [
        ("t1_seconds = 43.0", "t1_seconds = nan"),
        ("temperature_kelvin = 300.0", "temperature_kelvin = inf"),
        ("temperature_kelvin = 300.0", "temperature_kelvin = nan"),
        ("C1-C2 = 103.0", "C1-C2 = nan"),
        ("C1-C2 = 103.0", "C1-C2 = -inf"),
        ("C2-H = 200.8", "C2-H = 1.7e308"),
    ],
    ids=["t1-nan", "temperature-inf", "temperature-nan", "j-nan", "j-minus-inf", "j-overflows-in-rad-s"],
)
def test_non_finite_config_exits_2(old, new, tmp_path, monkeypatch, capsys):
    # every subcommand loads the system through the same call before it runs; any warning fails the test
    config = tmp_path / "bad.cfg"
    config.write_text(TCE_CONFIG.replace(old, new))
    rc = run_cli(["two-stroke", "--system", str(config), "--rounds", "1"], tmp_path, monkeypatch)
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("header", ["qubit. C1", "qubit.C1 ", "qubit.\tC1"])
def test_qubit_label_with_whitespace_exits_2(header, tmp_path, monkeypatch, capsys):
    # the label would print as "# qubit  C1: ..." and "C1-C2" could not couple it
    config = tmp_path / "spaced.cfg"
    config.write_text(TCE_CONFIG.replace("[qubit.C1]", f"[{header}]"))
    rc = run_cli(["two-stroke", "--system", str(config), "--rounds", "1"], tmp_path, monkeypatch)
    assert rc == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    label = header.partition(".")[2]
    assert captured.err.splitlines() == [
        f"error: {config}: [{header}]: qubit label {label!r} has leading or trailing whitespace"
    ]
    assert captured.out == ""
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


@pytest.mark.parametrize(
    "args,temperature,reset_mhz",
    [*((args, "5e-302", "500.13") for args in SUBCOMMANDS), (["ppa"], "1e-30", "1e290")],
    ids=["ppa", "four-stroke", "two-stroke", "ppa-reset-line-1e290-MHz"],
)
def test_splittings_past_the_float_range_in_k_t_exit_3_at_round_0(args, temperature, reset_mhz, tmp_path, monkeypatch, capsys):
    # below about 8.9e-302 K, 2 k_B T underflows to 0.0 and every splitting is infinite in kT;
    # at 1e-30 K a 1e290 MHz reset line's splitting overflows in kT.  The reset qubit's bath
    # polarization is then tanh(inf) = 1.0; any warning fails the test
    config = tmp_path / "frozen.cfg"
    text = TCE_CONFIG.replace("temperature_kelvin = 300.0", f"temperature_kelvin = {temperature}")
    config.write_text(text.replace("t1_seconds = 3.5\nomega_mhz = 500.13", f"t1_seconds = 3.5\nomega_mhz = {reset_mhz}"))
    assert run_cli([*args, "--system", str(config)], tmp_path, monkeypatch) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"numerical invariant violated: round 0: target polarization 1.0 outside (0, 1) at bath temperature {temperature} K"
    ]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


def test_a_line_far_below_the_reset_line_runs_every_subcommand(tmp_path, monkeypatch, capsys):
    # the README's INI at 1e20 K with H at 1e20 MHz: each level energy is about 4e17 times
    # C1's splitting, which a difference of two levels rounded to 0, so every subcommand
    # exited 3 with "round 0: reset polarization 0.0 outside (0, 1)"
    ini = readme_ini().replace("temperature_kelvin = 300.0", "temperature_kelvin = 1e20")
    config = tmp_path / "hot.cfg"
    config.write_text(ini.replace("t1_seconds = 3.5\nomega_mhz = 500.13", "t1_seconds = 3.5\nomega_mhz = 1e20"))
    for argv in (
        ["ppa", "--rounds", "3"],
        ["four-stroke", "--rounds", "0..3"],
        ["two-stroke", "--rounds", "1..3", "--omega-s", "150:200:50"],
    ):
        assert run_cli([*argv, "--system", str(config)], tmp_path, monkeypatch) == 0
        assert capsys.readouterr().err == ""
    # round 0's reset qubit holds the target's Gibbs marginal at half field, to the CSV's 13 digits
    header, rows = data_rows(tmp_path / "ppa_trace.csv")
    want = exact.marginal(spinotto.load_system(config), "C1", 0.5)
    assert rows[0][header.index("eps_reset")] == f"{float(want):.12e}" == "1.509002003342e-23"


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


NEEDS_ONE_PER_ROLE = "; cooling needs exactly one target, one compression and one reset qubit\n"


@pytest.mark.parametrize(
    "old,new,err",
    [
        ("C2-H = 200.8\n", "C2-H = 200.8\n\n[qubit.S]\nrole = swap-partner\ngamma_mhz_per_tesla = 10.0\nt1_seconds = 1.0\n",
         "error: {config}: [qubit.S]: role must be one of ['target', 'compression', 'reset'], got 'swap-partner'\n"),
        ("C2-H = 200.8\n", "C2-H = 200.8\n\n[qubit.S]\nrole = reset\ngamma_mhz_per_tesla = 10.0\nt1_seconds = 1.0\n",
         "error: register ('C1', 'C2', 'H', 'S') has roles ['target', 'compression', 'reset', 'reset']" + NEEDS_ONE_PER_ROLE),
        ("role = target", "role = compression",
         "error: register ('C1', 'C2', 'H') has roles ['compression', 'compression', 'reset']" + NEEDS_ONE_PER_ROLE),
    ],
    ids=["swap-partner", "fourth-qubit", "second-compression"],
)
@pytest.mark.parametrize("args", SUBCOMMANDS, ids=["ppa", "four-stroke", "two-stroke"])
def test_register_without_one_qubit_per_role_exits_2(args, old, new, err, tmp_path, monkeypatch, capsys):
    # an unknown role fails the INI; a register without one qubit per role loads,
    # and the first role lookup names its roles
    config = tmp_path / "roles.cfg"
    text = TCE_CONFIG.replace(old, new)
    assert text != TCE_CONFIG
    config.write_text(text)
    rc = run_cli([*args, "--system", str(config)], tmp_path, monkeypatch)
    assert rc == 2
    assert capsys.readouterr() == ("", err.format(config=config))
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


# the help each parse prints at COLUMNS=80; both parses read one option table, so the
# equivalence test below cannot catch a wrong entry in it, and these pins can
HELP_TEXTS = {
    "top": (
        [],
        """\
usage: spinotto [-h] {ppa,four-stroke,two-stroke} ...

Quantum Otto engines with heat-bath algorithmic cooling

positional arguments:
  {ppa,four-stroke,two-stroke}
    ppa                 run the cooling algorithm and trace per-round
                        telemetry
    four-stroke         sweep the four-stroke engine over round counts
    two-stroke          sweep the two-stroke engine over partner frequencies

options:
  -h, --help            show this help message and exit
""",
    ),
    "ppa": (
        ["ppa"],
        """\
usage: spinotto ppa [-h] [--rounds ROUNDS] [--field-scale FIELD_SCALE]
                    [--system SYSTEM] [--out OUT] [--format {csv,summary}]

options:
  -h, --help            show this help message and exit
  --rounds ROUNDS, -n ROUNDS
  --field-scale FIELD_SCALE
                        static-field scale during cooling (0.5 = compressed
                        field)
  --system SYSTEM       preset name (tce) or path to an INI system definition
  --out OUT             CSV output path
  --format {csv,summary}
                        csv writes a file and prints a summary; summary prints
                        only
""",
    ),
    "four-stroke": (
        ["four-stroke"],
        """\
usage: spinotto four-stroke [-h] [--rounds ROUNDS] [--tau TAU]
                            [--system SYSTEM] [--out OUT]
                            [--format {csv,summary}]

options:
  -h, --help            show this help message and exit
  --rounds ROUNDS, -n ROUNDS
  --tau TAU             drive period in seconds; changes no number, is
                        recorded in the config hash only and kept for the
                        benchmark
  --system SYSTEM       preset name (tce) or path to an INI system definition
  --out OUT             CSV output path
  --format {csv,summary}
                        csv writes a file and prints a summary; summary prints
                        only
""",
    ),
    "two-stroke": (
        ["two-stroke"],
        """\
usage: spinotto two-stroke [-h] [--rounds ROUNDS] [--omega-s OMEGA_S]
                           [--system SYSTEM] [--out OUT]
                           [--format {csv,summary}]

options:
  -h, --help            show this help message and exit
  --rounds ROUNDS, -n ROUNDS
  --omega-s OMEGA_S     partner frequency grid start:stop:step in MHz (default
                        150:1000:1)
  --system SYSTEM       preset name (tce) or path to an INI system definition
  --out OUT             CSV output path
  --format {csv,summary}
                        csv writes a file and prints a summary; summary prints
                        only
""",
    ),
}


@pytest.mark.parametrize("command,text", HELP_TEXTS.values(), ids=HELP_TEXTS.keys())
def test_help_texts(command, text, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        cli.run([*command, "-h"])
    assert excinfo.value.code == 0
    assert capsys.readouterr() == (text, "")


DEFAULT_ARGS = {
    "ppa": {
        "command": "ppa", "rounds": range(7, 8), "field_scale": 0.5, "system": "tce",
        "out": Path("ppa_trace.csv"), "output_format": "csv",
    },
    "four-stroke": {
        "command": "four-stroke", "rounds": range(0, 11), "tau": 0.1, "system": "tce",
        "out": Path("four_stroke_sweep.csv"), "output_format": "csv",
    },
    "two-stroke": {
        "command": "two-stroke", "rounds": range(1, 9), "omega_s": np.arange(150.0, 1001.0),
        "system": "tce", "out": Path("two_stroke_sweep.csv"), "output_format": "csv",
    },
}


class Parsed:
    """A parsed value that equals another as ``==`` does, or, for arrays, as ``np.array_equal`` does."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        if isinstance(self.value, np.ndarray) or isinstance(other.value, np.ndarray):
            return type(self.value) is type(other.value) and np.array_equal(self.value, other.value)
        return self.value == other.value

    def __repr__(self):
        return repr(self.value)


@pytest.mark.parametrize("command", DEFAULT_ARGS)
def test_default_args(command):
    for parse in (cli._parse_args, lambda argv: cli.build_parser().parse_args(argv)):
        values = vars(parse([command]))
        assert {k: Parsed(v) for k, v in values.items()} == {k: Parsed(v) for k, v in DEFAULT_ARGS[command].items()}
        assert {k: type(v) for k, v in values.items()} == {k: type(v) for k, v in DEFAULT_ARGS[command].items()}
        if command == "two-stroke":
            # one float64 array in MHz, which no later layer can change
            assert values["omega_s"].dtype == np.float64 and not values["omega_s"].flags.writeable


# argvs that `_parse_args` must treat exactly as the full parser does
PARSE_CASES = {
    "help": ["-h"],
    "ppa-help": ["ppa", "-h"],
    "four-stroke-help": ["four-stroke", "-h"],
    "two-stroke-help": ["two-stroke", "-h"],
    "empty": [],
    "unknown-subcommand": ["bogus"],
    "ppa-defaults": ["ppa"],
    "four-stroke-defaults": ["four-stroke"],
    "two-stroke-defaults": ["two-stroke"],
    "ppa-every-option": [
        "ppa", "--rounds", "3", "--field-scale", "1", "--system", "tce", "--out", "p.csv", "--format", "summary",
    ],
    "four-stroke-every-option": [
        "four-stroke", "-n", "0..4", "--tau", "0.2", "--system", "x.cfg", "--out", "f.csv", "--format", "csv",
    ],
    "two-stroke-every-option": [
        "two-stroke", "--rounds", "1..2", "--omega-s=150:200:50", "--system", "tce", "--out", "t.csv",
        "--format", "summary",
    ],
    "abbreviation": ["two-stroke", "--rou", "1..3"],
    "repeated-n": ["ppa", "-n", "3", "-n", "5"],
    "tau-nan": ["four-stroke", "--tau", "nan"],
    "tau-no-value": ["four-stroke", "--tau"],
    "out-no-value": ["ppa", "--out"],
    "flag-as-value": ["ppa", "--out", "--system"],
    "dt-removed": ["four-stroke", "--dt", "1"],
    "stray-positional": ["ppa", "stray"],
    "bad-format": ["ppa", "--format", "xml"],
    "bad-rounds": ["four-stroke", "--rounds", "5..1"],
    "double-dash": ["ppa", "--", "x"],
    "omega-repeats": ["two-stroke", "--omega-s", "1:1.000000000000002:0.0000000000000002"],
    "omega-overflows": ["two-stroke", "--omega-s", "1e308:1.7e308:1e308"],
    "out-empty": ["ppa", "--out="],
    "out-dash": ["ppa", "--out", "-"],
    "n-attached": ["four-stroke", "-n3"],
    "n-equals": ["four-stroke", "-n=3"],
    "rounds-negative": ["four-stroke", "--rounds", "-1"],
    "format-equals": ["ppa", "--format=summary"],
    "bad-then-good-n": ["four-stroke", "-n", "5..1", "-n", "3"],
    "repeated-omega": ["two-stroke", "--omega-s", "150:200:50", "--omega-s", "300:300:1"],
}


def parse_outcome(parse, argv, capsys):
    """Exit status (None if ``parse(argv)`` returns), stdout, stderr and parsed values."""
    try:
        values, status = {k: Parsed(v) for k, v in vars(parse(argv)).items()}, None
    except SystemExit as exc:
        values, status = None, exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err, values


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_subcommand_parse_matches_the_full_parser(argv, tmp_path, monkeypatch, capsys):
    # help and usage lines wrap at the terminal width, so pin it for both
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    expected = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert parse_outcome(cli._parse_args, argv, capsys) == expected
    status, out, err, _ = expected
    if status is not None:
        # a run that stops in the parser prints the same and exits the same way
        assert parse_outcome(cli.run, argv, capsys) == (status, out, err, None)
    assert list(tmp_path.iterdir()) == []


# the token shapes of an argv: a flag, exact or abbreviated or unknown, with its value apart,
# after "=" or attached, and lone tokens; values fit their flag, or are any value, rejected ones included
FITS = {
    "--rounds": ["3", "0..2"], "-n": ["2", "1..3"], "--field-scale": ["0.2"], "--tau": ["0.2"],
    "--omega-s": ["150:200:50", "300:300:1"], "--system": ["tce", "x.cfg"], "--out": ["", "p.csv", "a b"],
    "--format": ["csv", "summary"], "--rou": ["1..3"], "--dt": ["1"],
}
VALUES = ["", "-", "-1", "3", "5..1", "1e400", "nan", "1:1:0", "summary", "xml", "--out", "a=b"]


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(["ppa", "four-stroke", "two-stroke", "bogus"]))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(list(FITS)))
        # two values in three fit their flag
        value = draw(st.sampled_from(FITS[flag] if draw(st.integers(0, 2)) else VALUES))
        shape = draw(st.sampled_from(["apart", "apart", "apart", "equals", "equals", "attached", "lone"]))
        if shape == "apart":
            argv += [flag, value]
        elif shape == "equals":
            argv.append(f"{flag}={value}")
        elif shape == "attached":
            argv.append(f"-n{value}")
        else:
            argv.append(draw(st.sampled_from(["-h", "--", "stray", flag])))
    return argv


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_exact_parse_matches_the_full_parser_on_drawn_argvs(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    expected = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert parse_outcome(cli._parse_args, argv, capsys) == expected


def test_unrecognized_arguments_are_a_top_level_error(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["four-stroke", "--dt", "1"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: spinotto [-h] {ppa,four-stroke,two-stroke} ...",
        "spinotto: error: unrecognized arguments: --dt 1",
    ]


def test_argv_none_reads_the_command_line(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["spinotto", "four-stroke", "-n", "2"])
    args = cli._parse_args(None)
    assert (args.command, args.rounds) == ("four-stroke", range(2, 3))


def test_config_line_shows_the_parsed_grid(tmp_path, monkeypatch, capsys):
    # 2.0000000000015 MHz reads 2.000000000001e+00 after the round trip through rad/s, which
    # the omega_s_MHz column shows; the config line shows the point as it was parsed
    assert run_cli(["two-stroke", "--rounds", "1..1", "--omega-s", "2.0000000000015:2.0000000000015:1"],
                   tmp_path, monkeypatch) == 0
    lines = (tmp_path / "two_stroke_sweep.csv").read_text().splitlines()
    assert "# config: omega_s_mhz=2.000000000002e+00..2.000000000002e+00" in lines
    assert lines[-1].startswith("2.000000000001e+00,1,")


def config_text(argv):
    """The config lines of a run, joined as the config hash reads them, from the parsed arguments alone."""
    return "\n".join(cli.canonical_lines(cli._parse_args(argv)))


def test_config_text_stays_small_at_the_limits():
    # the CSV's n and omega_s_MHz columns list every value; the config names each list by its ends
    for argv in (["four-stroke", "--rounds", "1..1000000"], ["two-stroke", "--rounds", "1", "--omega-s", "1:1000000:1"]):
        assert len(config_text(argv)) < 200


def test_config_hash_follows_the_parsed_grid():
    grids = ("150:1000:1", "150.0:1000.5:1.0", "150:1000:0.5")
    hashes = [reports.config_hash(cli.canonical_lines(cli._parse_args(["two-stroke", "--omega-s", g]))) for g in grids]
    # the same 851 points spelled two ways hash the same; the same ends with twice the points do not
    assert hashes[0] == hashes[1] != hashes[2]
    assert config_text(["two-stroke", "--omega-s", grids[2]]).endswith("\nomega_s_points=1701")


# the README's three commands
README_ARGVS = {
    "ppa": ["ppa", "--system", "tce", "--rounds", "7", "--field-scale", "0.5"],
    "four-stroke": ["four-stroke", "--rounds", "0..10", "--tau", "0.1"],
    "two-stroke": ["two-stroke", "--rounds", "1..8", "--omega-s", "150:1000:1"],
}
FULL_PARSER = ["spinotto", "spinotto ppa", "spinotto four-stroke", "spinotto two-stroke"]


@pytest.mark.parametrize(
    "args,parsers",
    [
        *((argv, []) for argv in README_ARGVS.values()),
        (["-h"], FULL_PARSER),
        (["two-stroke", "--rou", "1..3"], FULL_PARSER),
        (["four-stroke", "--rounds=0..10"], FULL_PARSER),
    ],
    ids=[*README_ARGVS, "help", "abbreviation", "equals"],
)
def test_a_run_builds_one_parser(args, parsers, tmp_path, monkeypatch, capsys):
    # a README command parses without argparse; help, an abbreviation and a flag=value token need the full parser
    built = []
    honest = argparse.ArgumentParser.__init__

    def counted(self, *a, **kw):
        built.append(kw.get("prog"))
        honest(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        status = run_cli([*args, "--format", "summary"], tmp_path, monkeypatch)
    except SystemExit as exc:
        status = exc.code
    assert (status, built) == (0, parsers)


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


def test_preset_run_leaves_configparser_unimported(tmp_path):
    # only an INI system definition needs configparser
    code = (
        "import sys, spinotto.cli; spinotto.cli.load_system('tce'); "
        "print('configparser' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


def test_import_and_preset_leave_the_ini_reader_and_dataclasses_unimported(tmp_path):
    # the INI reader is loaded for an INI path only, and the records need no dataclass code generation
    code = (
        "import sys, numpy; numpy_dataclasses = 'dataclasses' in sys.modules; "
        "import spinotto; spinotto.load_system('tce'); "
        "print(*(name in sys.modules for name in ('spinotto.config', 'configparser', 'dataclasses')), numpy_dataclasses); "
        f"spinotto.load_system({str(tmp_path / 'tce.ini')!r}); "
        "print(*(name in sys.modules for name in ('spinotto.config', 'configparser')))"
    )
    (tmp_path / "tce.ini").write_text(TCE_CONFIG)
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, "")
    preset, ini = result.stdout.splitlines()
    config, configparser, dataclasses, numpy_dataclasses = preset.split()
    assert (config, configparser) == ("False", "False")
    if numpy_dataclasses == "False":
        assert dataclasses == "False"
    assert ini == "True True"


def test_preset_run_leaves_locale_unimported(tmp_path):
    # argparse's messages go through gettext, which imports locale; a run parsed without argparse does not
    code = (
        "import sys, spinotto.cli; status = spinotto.cli.run(['four-stroke', '--format', 'summary']); "
        "print(status, 'locale' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert (result.returncode, result.stdout.splitlines()[-1], result.stderr) == (0, "0 False", "")


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
    "args,name,digest,summary",
    [
        (
            README_ARGVS["ppa"],
            "ppa_trace.csv",
            # row 0's eps_reset is the closed-form Gibbs marginal, 5.030006677740e-06 as the
            # decimal oracle gives it, not a difference of populations (...773e-06)
            "cc83811c7585a88a9ce189a559a2de9edb4419a5bd0bbc5022f98ff780c49bc5",
            ["ppa rounds=7 field_scale=0.5: final eps_target=3.984782e-05 T_eff=37.869 K shannon_crossing_round=1"],
        ),
        (
            README_ARGVS["four-stroke"],
            "four_stroke_sweep.csv",
            "fd1caf8b90d9de0266b2c6af17963211a473efd2bb29320705fe8e7c19e49552",
            [
                "four-stroke max power at n=2: P=5.172818e-09 W/mol (W=3.129555e-07 J/mol, eta=0.5); "
                "isochoric reference dominates from n=6"
            ],
        ),
        (
            README_ARGVS["two-stroke"],
            "two_stroke_sweep.csv",
            "7a50a34a3629390e43c64fb45dc5c85a7141273b45fa06b97b71c46793ea08f2",
            [
                "two-stroke max power at omega_s=438.00 MHz, n=1: P=1.481527e-07 W/mol "
                "(W=1.555604e-06 J/mol, eta=0.7129)",
                "positive-work window n=1: (125.77, 750.20) MHz",
                "positive-work window n=2: (125.77, 875.23) MHz",
                "positive-work window n=3: (125.77, 937.74) MHz",
                "positive-work window n=4: (125.77, 969.00) MHz",
                "positive-work window n=5: (125.77, 984.63) MHz",
                "positive-work window n=6: (125.77, 992.45) MHz",
                "positive-work window n=7: (125.77, 996.35) MHz",
                "positive-work window n=8: (125.77, 998.31) MHz",
            ],
        ),
    ],
    ids=["ppa", "four-stroke", "two-stroke"],
)
def test_readme_commands_keep_their_bytes(args, name, digest, summary, tmp_path, monkeypatch, capsys):
    # the README's three commands, file and printed summary; a change that
    # alters either on purpose updates the pin and says why
    rc = run_cli([*args, "--out", name], tmp_path, monkeypatch)
    assert rc == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.splitlines() == [f"wrote {name}", *summary]


def test_readme_column_lists_match_the_schema():
    # the README's Columns: bullets name each subcommand's CSV headers, in order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.partition("Columns:")[2].partition("\n## ")[0]
    listed = dict(re.findall(r"^- `([a-z-]+)`: `([^`]+)`", section, flags=re.MULTILINE))
    schema = {command: ", ".join(header for header, _ in entry[4]) for command, entry in cli._COMMANDS.items()}
    assert {command: " ".join(text.split()) for command, text in listed.items()} == schema


def test_readme_shows_the_two_stroke_config_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = cli.canonical_lines(cli._parse_args(README_ARGVS["two-stroke"]))
    shown = [f"# config_hash={reports.config_hash(lines)}", *(f"# config: {line}" for line in lines)]
    assert "\n".join(shown) in readme


def test_readme_table_columns_match_the_runs():
    # the README's Library table: each run's axes, then its other columns, in order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", readme, flags=re.MULTILINE)
    tce = spinotto.tce_system()
    tables = {
        "run_ppa": spinotto.run_ppa(0.25, tce, 1.0, 2),
        "sweep_four_stroke": spinotto.sweep_four_stroke(tce, [2]),
        "sweep_two_stroke": spinotto.sweep_two_stroke(tce, [TWO_PI * 300e6], [2]),
    }
    listed = {name: (re.findall(r"`(\w+)`", axes), re.findall(r"`(\w+)`", others)) for name, axes, others in rows}
    assert listed == {
        name: (list(table.axes), [c for c in table.columns if c not in table.axes]) for name, table in tables.items()
    }


def test_readme_python_example_runs(capsys):
    # the README's Python block, run as written, so it cannot go stale
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    net_work, power, efficiency = map(float, capsys.readouterr().out.split())
    assert net_work > 0 and power > 0 and efficiency == 0.5


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


def test_heated_target_summary_keeps_its_text(tmp_path, monkeypatch, capsys):
    # round 0 leaves the target above the bath, so its window is none
    args = ["two-stroke", "--system", str(heated_target_config(tmp_path)), "--rounds", "0..5", "--omega-s", "200:200:1"]
    assert run_cli([*args, "--format", "summary"], tmp_path, monkeypatch) == 0
    assert capsys.readouterr().out.splitlines() == [
        "two-stroke max power at omega_s=200.00 MHz, n=5: P=-9.615396e-11 W/mol (W=-3.701928e-09 J/mol, eta=0.3711)",
        "positive-work window n=0: none",
        "positive-work window n=1: (125.77, 150.00) MHz",
        "positive-work window n=2: (125.77, 175.00) MHz",
        "positive-work window n=3: (125.77, 187.50) MHz",
        "positive-work window n=4: (125.77, 193.75) MHz",
        "positive-work window n=5: (125.77, 196.88) MHz",
    ]


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


# the TCE INI text's lines, those of its couplings, and the values a mutation may set
TCE_LINES = TCE_CONFIG.splitlines()
COUPLING_LINES = TCE_LINES[TCE_LINES.index("[j_coupling]") + 1 :]
MUTANT_VALUES = ["", "nan", "inf", "-1", "1e400", "x", "\0"]
# text after a header's "]": only whitespace and an inline comment leave the header as it was
HEADER_SUFFIXES = {"x": False, " extra": False, "]": False, "]x": False, "#c": False, "\tjunk": False,
                   "  ": True, " # note": True, "\t; note": True}


@st.composite
def mutated_configs(draw):
    """The TCE INI text with one line changed, and whether it still defines a valid system.

    A line is dropped or repeated, a section header loses one character or gains text
    after its "]", or a value is replaced.  The system stays valid only when a blank line
    is dropped or repeated, an omega_mhz line is dropped (omega then follows from gamma
    and the field), a coupling is dropped or set to -1 Hz, or a header gains whitespace
    or an inline comment.
    """
    kind = draw(st.sampled_from(["drop", "repeat", "garble", "append", "value"]))
    lines = list(TCE_LINES)
    if kind == "drop":
        line = lines.pop(draw(st.integers(0, len(lines) - 1)))
        valid = line == "" or line.startswith("omega_mhz") or line in COUPLING_LINES
    elif kind == "repeat":
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])
        valid = lines[i] == ""
    elif kind == "garble":
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("[")]))
        k = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:k] + lines[i][k + 1 :]
        valid = False
    elif kind == "append":
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("[")]))
        suffix = draw(st.sampled_from(list(HEADER_SUFFIXES)))
        lines[i] += suffix
        valid = HEADER_SUFFIXES[suffix]
    else:
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line]))
        value = draw(st.sampled_from(MUTANT_VALUES))
        valid = lines[i] in COUPLING_LINES and value == "-1"
        lines[i] = f"{lines[i].partition(' = ')[0]} = {value}"
    return "\n".join(lines) + "\n", valid


@settings(derandomize=True, database=None, max_examples=190, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_configs())
def test_malformed_config_text_exits_2(case, tmp_path, monkeypatch, capsys):
    # invalid INI text exits 2 with one error; text that still defines a system runs
    text, valid = case
    config = tmp_path / "mutated.cfg"
    config.write_text(text)
    rc = run_cli(["ppa", "--rounds", "1", "--system", str(config), "--format", "summary"], tmp_path, monkeypatch)
    captured = capsys.readouterr()
    if valid:
        assert rc in (0, 3)
    else:
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "block,out,reason",
    [
        (Path.mkdir, "taken", None),
        (lambda path: path.write_text("keep\n"), "taken/ppa.csv", "taken is not a directory"),
        (os.mkfifo, "taken", "not a regular file"),
        (Path.touch, "", "not a regular file"),
    ],
    ids=["directory", "file-parent", "fifo", "empty"],
)
def test_unwritable_out_exits_2(block, out, reason, tmp_path, monkeypatch, capsys):
    # a directory or a FIFO in place of the file, a regular file in place of
    # its parent, or an empty path, which names the working directory
    block(tmp_path / "taken")
    kind = stat.S_IFMT(os.lstat(tmp_path / "taken").st_mode)
    rc = run_cli(["ppa", "--out", out], tmp_path, monkeypatch)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {Path(out)}: ")
    if reason is not None:
        assert captured.err == f"error: cannot write {Path(out)}: {reason}\n"
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    # no temp file is left behind, and a FIFO is still a FIFO
    assert list(tmp_path.rglob("*")) == [tmp_path / "taken"]
    assert stat.S_IFMT(os.lstat(tmp_path / "taken").st_mode) == kind


def test_out_with_a_nul_byte_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    # only an in-process argv can hold NUL; os.open would refuse it after the whole run
    monkeypatch.setattr(cli.hbac, "run_ppa", lambda *a: pytest.fail("the run started"))
    assert run_cli(["ppa", "--rounds", "1", "--out", "a\0b.csv"], tmp_path, monkeypatch) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: cannot write a\0b.csv: embedded null byte\n")
    assert list(tmp_path.iterdir()) == []


def test_out_through_a_symlink_to_a_regular_file(tmp_path, monkeypatch, capsys):
    # the rename replaces the link with the CSV and leaves the file it named alone
    (tmp_path / "old.csv").write_text("keep\n")
    (tmp_path / "link.csv").symlink_to("old.csv")
    assert run_cli(["ppa", "--out", "link.csv"], tmp_path, monkeypatch) == 0
    assert capsys.readouterr().out.startswith("wrote link.csv\n")
    assert not (tmp_path / "link.csv").is_symlink() and (tmp_path / "link.csv").read_text().startswith("#")
    assert (tmp_path / "old.csv").read_text() == "keep\n"


@pytest.mark.parametrize(
    "args,old,new,message",
    [
        (
            ["four-stroke", "--rounds", "0..2"],
            "t1_seconds = 43.0",
            "t1_seconds = 1e-320",
            "four_stroke_hbac: power_isochoric is inf at n_rounds=0",
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
