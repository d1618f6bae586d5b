"""The benchmark's tracer must still find every package function it wraps.

``perfbench/tracer.py`` records a renamed or deleted target as absent and
keeps running, so a rename in ``src/`` would only show up as zero calls
in a traced benchmark.  This loads the tracer by path, without importing
the rest of the benchmark, and checks its targets resolve.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == []
