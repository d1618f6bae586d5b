"""Every benchmark workload's CSV passes the benchmark's own output checks.

``perfbench/run.py`` counts an operation whose CSV fails
``checks.check_csv`` as failed (``outputs_incorrect``).  This runs each
workload's command line through ``cli.run`` at seeds 0-3 and applies
the same checks, so a change the benchmark would refuse for its output
fails here first.  The benchmark's modules are loaded by path, without
importing the rest of the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spinotto import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks, workloads = load("checks"), load("workloads")
ORACLES = checks.load_oracles(PERFBENCH.parent)

# the data rows of each workload's CSV at seed 0, as the benchmark reports them
SEED_0_DIGESTS = {
    "four_stroke_paper": "sha256:3a0c354b150f81fe",
    "two_stroke_paper": "sha256:10fc7d33595efa93",
    "cooling_sweep": "sha256:24546030ce66a182",
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_output_passes_the_benchmark_checks(name, seed, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    out = tmp_path / "out.csv"
    assert cli.run([*workload.argv(seed), "--out", str(out)]) == 0
    text = out.read_text()
    check = checks.check_csv(workload, seed, text, ORACLES)
    assert check.ok, check.problems
    if seed == 0:
        assert checks.rows_digest(text) == SEED_0_DIGESTS[name]
