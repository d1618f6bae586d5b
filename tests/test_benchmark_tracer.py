"""The benchmark's tracer must still find every package function it wraps.

``perfbench/tracer.py`` records a renamed or deleted target as absent and
keeps running, so a rename in ``src/`` would only show up as zero calls
in a traced benchmark.  This loads the tracer by path, without importing
the rest of the benchmark, and checks that exactly the retired targets
are absent.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


# The package keeps no density matrix, gate or stroke propagator: the dense
# code moved to the tests' reference (tests/dense.py), and a stroke is the
# frozen polarization in engines.  Nor does it keep one-cycle engine entry
# points: a single cycle is a one-point sweep.  The tracer still names these
# targets, which count 0 calls until the benchmark's layers are renamed with them.
RETIRED = [
    "spinotto.qmath.DensityMatrix.__post_init__",
    "spinotto.qmath.partial_trace",
    "spinotto.qmath.product_state",
    "spinotto.gates.apply",
    "spinotto.gates.reset_channel",
    "spinotto.gates.swap_unitary",
    "spinotto.gates.comp_unitary",
    "spinotto.adiabatic.evolve_stroke",
    "spinotto.engines.run_four_stroke",
    "spinotto.engines.run_isochoric_reference",
]


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == RETIRED
