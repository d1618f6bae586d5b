"""End-to-end and per-layer benchmark of the spinotto command line.

Run from the repository root:

    python3 perfbench/run.py --workload two_stroke_paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both runs, as tables
    python3 perfbench/run.py --workload all --smoke  # tiny inputs, for the harness's tests

One operation is ``spinotto.cli.run(argv)`` for the workload's fixed
argv (see ``workloads.py``), called in-process in a fresh worker
interpreter with one BLAS thread.  Every operation's CSV is checked
against ``tests/oracles.py`` and the paper's anchors (``checks.py``); an
operation fails on a nonzero exit status, an exception or a failed check.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
layer tracer (``tracer.py``) in a separate worker and reports per-layer
calls and self times.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run also writes ``perfbench/out/result-*.json`` with the
sample counts, output digests and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import NOMINAL_S, scale  # noqa: E402
from checks import check_csv, load_oracles  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS  # noqa: E402

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
SETUP_REFERENCE_SAMPLES = 40
# A run splits its measuring time over up to this many worker processes,
# so that cold_wall_s has several samples.  An operation that outlasts a
# worker's share is timed once, as the cold and only operation, and no
# worker starts when less than half of a cold operation still fits.
WORKERS_PER_RUN = 3
# wall_s_tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170.0
# Times the set-up, then the reference loop on the same CPU to scale it by.
SETUP_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import spinotto\n"
    "from spinotto.spinsys import load_system\n"
    "load_system('tce')\n"
    "setup = time.perf_counter() - start\n"
    "import calibrate\n"
    "calibrate.time_reference(3)\n"
    f"print(setup, *calibrate.time_reference({SETUP_REFERENCE_SAMPLES}))\n"
)

# The metrics of the JSON line, bounded in BENCHMARK.json.
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "cold_wall_s": "s",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed and recorded only: the tail is the slowest single operation
# when a run has 10 or fewer, and the raw times move with the host.
EXTRA_UNITS = {
    "wall_s_tail": "s",
    "fail_frac": "ratio",
    "raw_wall_s": "s",
    "raw_cpu_s": "s",
    "reference_ms": "ms",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (missing sources, a crashed worker)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(HERE)))
    env["TMPDIR"] = str(OUT)
    return env


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
    }


def measure_setup(samples: int) -> list[float]:
    """Seconds to import spinotto and load the tce preset, each in a fresh
    interpreter, scaled to the reference host."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise HarnessError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        setup, *reference = map(float, done.stdout.split())
        times.append(scale(setup, reference))
    return times


def run_worker(argv: list[str], mode: str, budget: float, spans_file: Path | None = None) -> dict:
    spec = {
        "argv": argv,
        "mode": mode,
        "budget": budget,
        "out_dir": str(OUT),
        "spans_file": None if spans_file is None else str(spans_file),
    }
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S:g} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise HarnessError(f"worker exited {done.returncode}: {done.stderr.strip()[-1000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and that percentile.

    With ``TAIL_BEYOND`` samples or fewer no such percentile exists; the
    maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * k / (len(ordered) - 1)


class Outputs:
    """Checks each distinct CSV once and marks every operation that wrote it."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.oracles = load_oracles(ROOT)
        self.checks: dict[str, object] = {}
        self.first_digest: str | None = None

    def judge(self, worker: dict) -> None:
        for digest, path in worker["outputs"].items():
            if digest not in self.checks:
                self.checks[digest] = check_csv(self.workload, self.seed, Path(path).read_text(), self.oracles)
            Path(path).unlink(missing_ok=True)
        for op in worker["ops"]:
            if op["error"] is not None:
                continue
            self.first_digest = self.first_digest or op["digest"]
            check = self.checks[op["digest"]]
            if not check.ok:
                op["error"] = "; ".join(check.problems[:3])
            elif op["digest"] != self.first_digest:
                op["error"] = f"output {op['digest']} differs from {self.first_digest} for the same input"

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks.values()), default=0.0)


def end_to_end(workload, seed: int, seconds: float, setup_samples: int) -> dict:
    setup = measure_setup(setup_samples)
    outputs = Outputs(workload, seed)
    workers = []
    start = time.perf_counter()
    while not workers or time.perf_counter() - start < seconds:
        left = seconds - (time.perf_counter() - start)
        if workers and left < workers[-1]["ops"][0]["wall_s"] / 2:
            break  # less than half of a cold operation still fits
        budget = min(seconds / WORKERS_PER_RUN, left)
        workers.append(run_worker(workload.argv(seed), "plain", budget))
        outputs.judge(workers[-1])
    ops = [op for w in workers for op in w["ops"]]
    scaled = [op["scaled_s"] for op in ops]
    cold = [op["scaled_s"] for op in ops if op["kind"] == "cold"]
    tail_value, tail_pct = tail(scaled)
    failed = sum(op["error"] is not None for op in ops)
    samples = {
        "wall_s": len(scaled),
        "wall_s_tail": f"{len(scaled)} (p{tail_pct:.1f})",
        "cpu_s": len(ops),
        "cold_wall_s": len(cold),
        "rows_per_s": len(ops),
        "setup_s": len(setup),
        "peak_rss_mib": len(workers),
        "fail_frac": len(ops),
        "raw_wall_s": len(ops),
        "raw_cpu_s": len(ops),
        "reference_ms": len(ops),
    }
    values = {
        "wall_s": statistics.median(scaled),
        "cpu_s": statistics.median(op["cpu_s"] * NOMINAL_S / op["reference_s"] for op in ops),
        "cold_wall_s": statistics.median(cold),
        "rows_per_s": statistics.median(op.get("rows", 0) / op["scaled_s"] for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": max(w["peak_rss_mib"] for w in workers),
    }
    extra = {
        "wall_s_tail": tail_value,
        "fail_frac": failed / len(ops),
        "raw_wall_s": statistics.median(op["wall_s"] for op in ops),
        "raw_cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "reference_ms": 1e3 * statistics.median(op["reference_s"] for op in ops),
    }
    return {
        "metrics": {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()},
        "extra": {name: {"value": v, "unit": EXTRA_UNITS[name]} for name, v in extra.items()},
        "samples": samples,
        "ops": ops,
        "failed": failed,
        "outputs": outputs,
        "numpy": workers[0]["numpy"],
    }


def per_layer(workload, seed: int, seconds: float, spans_file: Path) -> dict:
    outputs = Outputs(workload, seed)
    worker = run_worker(workload.argv(seed), "trace", seconds, spans_file)
    outputs.judge(worker)
    ops = worker["ops"]
    traced = worker["traced"]
    untraced = [op["wall_s"] for op in ops if op["kind"] == "untraced"]
    metrics: dict[str, dict] = {}
    for layer in LAYERS:
        calls = statistics.median(t["layers"][layer]["calls"] for t in traced)
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{layer}.self_s"] = {
            "value": statistics.median(t["layers"][layer]["self_s"] for t in traced),
            "unit": "s",
        }
    for name, unit in (
        ("engines.cycles", "count"),
        ("reports.csv_bytes", "bytes"),
        ("hbac.round_reuse", "ratio"),
        ("adiabatic.stroke_reuse", "ratio"),
    ):
        metrics[name] = {"value": statistics.median(t["values"][name] for t in traced), "unit": unit}
    metrics["check.max_rel_err"] = {"value": outputs.max_rel_err, "unit": "ratio"}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(untraced), "unit": "s"}
    metrics["trace.unaccounted_s"] = {
        "value": statistics.median(t["wall_s"] - t["self_total_s"] for t in traced),
        "unit": "s",
    }
    failed = sum(op["error"] is not None for op in ops)
    return {
        "metrics": metrics,
        "samples": {"traced": len(traced), "untraced": len(untraced)},
        "ops": ops,
        "failed": failed,
        "outputs": outputs,
        "absent": worker["absent"],
        "numpy": worker["numpy"],
    }


def report(workload, seed: int, trace: int, result: dict, env: dict) -> dict:
    """Print the human-readable table and write the result file; return the contract line."""
    print(f"workload {workload.name} seed {seed} trace {trace}: spinotto {' '.join(workload.argv(seed))}")
    samples = result["samples"]
    for name, metric in result["metrics"].items():
        count = samples.get(name, samples.get("traced", ""))
        print(f"  {name:40s} {metric['value']:<14.6g} {metric['unit']:6s} n={count}")
    for name, metric in result.get("extra", {}).items():
        print(f"  {name:40s} {metric['value']:<14.6g} {metric['unit']:6s} n={samples[name]}")
    if trace == 1:
        total = result["metrics"]["trace.wall_s"]["value"]
        share = result["metrics"]["adiabatic.evolve_stroke.self_s"]["value"] / total
        print(f"  evolve_stroke share of traced wall time: {share:.3f}")
        if result["absent"]:
            print(f"  absent (0 calls): {', '.join(result['absent'])}")
    digests = sorted(result["outputs"].checks)
    print(f"  output rows digest: {', '.join(digests)}")
    print(f"  oracle max_rel_err: {result['outputs'].max_rel_err:.3e}")
    for op in result["ops"]:
        if op["error"] is not None:
            print(f"  failed op ({op['kind']}): {op['error']}")
    print(f"  environment: {json.dumps(env)}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": len(result["ops"]),
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "argv": workload.argv(seed),
        "samples": samples,
        "digests": digests,
        "environment": env,
        "ops": [{k: op.get(k) for k in ("kind", "wall_s", "cpu_s", "scaled_s", "reference_s", "error")} for op in result["ops"]],
        **line,
    }
    if trace == 0:
        record["extra"] = result["extra"]
    (OUT / f"result-{workload.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return line


def run_one(workload, seed: int, seconds: float, trace: int, setup_samples: int) -> dict:
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    if trace == 0:
        result = end_to_end(workload, seed, seconds, setup_samples)
    else:
        spans = OUT / f"spans-{workload.name}-seed{seed}.json"
        result = per_layer(workload, seed, seconds, spans)
    env["loadavg_end"] = os.getloadavg()
    env["numpy"] = result["numpy"]
    env["scipy"] = sys.modules["scipy"].__version__
    return report(workload, seed, trace, result, env)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/spinotto/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a spinotto checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    # One CPU for this process and every worker it starts, so the reference
    # loop is timed on the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.dont_write_bytecode = True
    OUT.mkdir(exist_ok=True)
    catalog = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    setup_samples = 2 if args.smoke else SETUP_SAMPLES
    try:
        if args.workload != "all":
            line = run_one(catalog[args.workload], args.seed, args.seconds, args.trace, setup_samples)
        else:
            line = {
                f"{name}.trace{trace}": run_one(workload, args.seed, args.seconds, trace, setup_samples)
                for name, workload in catalog.items()
                for trace in (0, 1)
            }
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
