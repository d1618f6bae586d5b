"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import tracer  # noqa: E402
from run import tail  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]  # 30 samples
    value, pct = tail(values)
    assert value == 20.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 19 / 29)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_scale_divides_by_the_mean_of_the_fastest_reference_times():
    nominal = calibrate.NOMINAL_S
    assert calibrate.scale(3.0, [nominal]) == pytest.approx(3.0)
    # the slowest tenth, two pauses of 100x, is dropped; the rest average 3x
    paused = [2 * nominal] * 9 + [4 * nominal] * 9 + [100 * nominal] * 2
    assert calibrate.reference_mean(paused) == pytest.approx(3 * nominal)
    assert calibrate.scale(3.0, paused) == pytest.approx(1.0)


def test_sampler_samples_while_busy_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert 0 < sampler.paused_s < 0.3
    assert sampler.paused_s == pytest.approx(sum(s for _, s in sampler.samples), rel=0.2)
    first, last = sampler.samples[0][0], sampler.samples[-1][0]
    assert len(sampler.around(first, last)) == len(sampler.samples)
    # nothing near a later instant: every sample stands in
    assert len(sampler.around(last + 10, last + 11)) == len(sampler.samples)


def test_tracer_counts_calls_self_time_and_reuse(monkeypatch):
    from spinotto import hbac
    from spinotto.spinsys import tce_system, thermal_state

    monkeypatch.setitem(tracer.LAYERS, "qmath.gone", (("spinotto.qmath", "no_such_function"),))
    system = tce_system()
    rho = thermal_state(system, 0.5)
    originals = (hbac.run_ppa, hbac.ppa_round)
    t = tracer.Tracer()
    assert t.absent == ["spinotto.qmath.no_such_function"]
    t.begin_op(0)
    t.install()
    try:
        hbac.run_ppa(rho, system, 0.5, 3)
        hbac.run_ppa(rho, system, 0.5, 2)
    finally:
        t.uninstall()
    assert (hbac.run_ppa, hbac.ppa_round) == originals
    totals = t.layer_totals()
    assert totals["hbac.run_ppa"]["calls"] == 2
    assert totals["hbac.ppa_round"]["calls"] == 5
    assert totals["qmath.gone"] == {"calls": 0, "self_s": 0.0}
    roots = [s for s in t.spans if s[4] == -1]
    assert {s[1] for s in roots} == {"hbac.run_ppa"}
    assert t.self_total() == pytest.approx(sum(s[3] - s[2] for s in roots), rel=1e-9)
    # the same input cooled to depth 3 needs 3 distinct rounds out of 5 run
    assert t.values()["hbac.round_reuse"] == pytest.approx(3 / 5)


def run_bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_smoke_run_reports_every_metric():
    done = run_bench("--workload", "all", "--smoke", "--seconds", "0.2", cwd=ROOT)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in ("four_stroke_paper", "two_stroke_paper", "cooling_sweep"):
        plain, traced = results[f"{name}.trace0"], results[f"{name}.trace1"]
        for line in (plain, traced):
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(plain["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
        assert all(m["value"] > 0 for m in plain["metrics"].values())
        strokes = traced["metrics"]["adiabatic.evolve_stroke.calls"]["value"]
        assert (strokes > 0) == (name == "four_stroke_paper")
    four = results["four_stroke_paper.trace1"]["metrics"]
    share = four["adiabatic.evolve_stroke.self_s"]["value"] / four["trace.wall_s"]["value"]
    assert share >= 0.95


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "two_stroke_paper", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
