"""The benchmark's tracer must still find every package function it wraps.

``perfbench/tracer.py`` records a renamed or deleted target as absent and
keeps running, so a rename in ``src/`` would only show up as zero calls
in a traced benchmark.  This loads the tracer by path, without importing
the rest of the benchmark, and checks that exactly the retired targets
are absent, and that its cycle counter still reads the sweep tables.
"""

import importlib.util
from pathlib import Path

import pytest

from spinotto import cli
from spinotto.engines import sweep_four_stroke, sweep_two_stroke
from spinotto.spinsys import mhz_to_rad_s

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


# The package keeps no density matrix, gate or stroke propagator: the dense
# code moved to the tests' reference (tests/dense.py), and a stroke is the
# frozen polarization in engines.  Nor does it keep one-cycle engine entry
# points (a single cycle is a one-point sweep) or a one-round cooling map (a
# run is the closed form), nor one renderer per subcommand (one render_csv
# serves all three).  The tracer still names these targets, which count 0
# calls until the benchmark's layers are renamed with them.
RETIRED = [
    "spinotto.qmath.DensityMatrix.__post_init__",
    "spinotto.qmath.partial_trace",
    "spinotto.qmath.product_state",
    "spinotto.gates.apply",
    "spinotto.gates.reset_channel",
    "spinotto.gates.swap_unitary",
    "spinotto.gates.comp_unitary",
    "spinotto.hbac.ppa_round",
    "spinotto.adiabatic.evolve_stroke",
    "spinotto.engines.run_four_stroke",
    "spinotto.engines.run_isochoric_reference",
    "spinotto.reports.render_ppa_csv",
    "spinotto.reports.render_four_stroke_csv",
    "spinotto.reports.render_two_stroke_csv",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    assert load_tracer().Tracer().absent == RETIRED


def test_tracer_counts_the_cycles_of_one_table(tce):
    # the tracer counts engines.cycles as len(table.reports) of each sweep:
    # a four-stroke sweep's 11 rows, whose isochoric references are one
    # column of the same table, and the paper's two-stroke grid, 8 round
    # counts x 851 frequencies
    tracer = load_tracer().Tracer()
    tracer._observe_sweep({}, sweep_four_stroke(tce, range(11)))
    assert tracer.cycles == 11
    tracer.begin_op(1)
    grid = mhz_to_rad_s(cli._parse_omega_grid("150:1000:1"))
    tracer._observe_sweep({}, sweep_two_stroke(tce, grid, cli._parse_rounds("1..8")))
    assert tracer.cycles == 6808


@pytest.mark.parametrize(
    "argv,sweep",
    [
        (["ppa", "--rounds", "3"], None),
        (["four-stroke", "--rounds", "0..2", "--tau", "0.1"], "engines.sweep_four_stroke"),
        (["two-stroke", "--rounds", "1..2", "--omega-s", "150:1000:425"], "engines.sweep_two_stroke"),
    ],
    ids=["ppa", "four-stroke", "two-stroke"],
)
def test_tracer_sees_each_layer_of_a_cli_run(argv, sweep, tmp_path, capsys):
    # the benchmark's per-layer counts come from rebinding these names; a run
    # that calls a layer through a name the tracer does not rebind counts 0
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.run([*argv, "--system", "tce", "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        tracer.uninstall()
    calls = {layer: totals["calls"] for layer, totals in tracer.layer_totals().items()}
    once = ["cli.run", "spinsys.load_system", "hbac.run_ppa", "reports.write_atomic"]
    sweeps = ["engines.sweep_four_stroke", "engines.sweep_two_stroke"]
    assert {layer: calls[layer] for layer in once + sweeps} == {
        **dict.fromkeys(once, 1), **{layer: int(layer == sweep) for layer in sweeps}
    }
    # the reports.render layer names only the retired per-subcommand renderers,
    # so it counts 0; render_csv runs, uncounted, inside the write_atomic span
    assert calls["reports.render"] == 0
    assert (tmp_path / "out.csv").exists() and capsys.readouterr().out.startswith("wrote ")
