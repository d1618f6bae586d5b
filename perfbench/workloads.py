"""The benchmark's workloads: fixed spinotto CLI argument lists.

A seed shifts the ``--omega-s`` start of a two-stroke grid by a fraction
of one grid step and keeps the point count, so every seed runs the same
amount of work on slightly different inputs.  Seed 0 is the grid as
written.  The four-stroke workload has no frequency axis and ignores the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]  # subcommand and every flag except --omega-s and --out
    rounds: tuple[int, int]  # inclusive range passed as --rounds a..b
    grid: tuple[float, float, int] | None = None  # omega-s start and step (MHz), point count
    paper_anchors: bool = False  # the four-stroke figure's optimum and crossover apply

    def _start(self, seed: int) -> float:
        start, step, _ = self.grid
        return start + (0.0 if seed == 0 else random.Random(seed).random() * step)

    def argv(self, seed: int) -> list[str]:
        first, last = self.rounds
        args = [*self.command, "--rounds", f"{first}..{last}"]
        if self.grid is not None:
            _, step, count = self.grid
            start = self._start(seed)
            # half a step of headroom so the CLI's floor() yields exactly `count` points
            stop = start + (count - 1) * step + step / 2
            args += ["--omega-s", f"{start!r}:{stop!r}:{step!r}"]
        return args

    def round_values(self) -> list[int]:
        return list(range(self.rounds[0], self.rounds[1] + 1))

    def omega_values(self, seed: int) -> list[float]:
        """The partner frequencies (MHz) the CLI parses out of ``argv(seed)``."""
        if self.grid is None:
            return []
        _, step, count = self.grid
        start = self._start(seed)
        return [start + i * step for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "four_stroke_paper",
            "the paper's four-stroke power curve and isochoric reference; the RK4 field-ramp strokes dominate",
            ("four-stroke", "--system", "tce", "--tau", "0.1"),
            rounds=(0, 10),
            paper_anchors=True,
        ),
        Workload(
            "two_stroke_paper",
            "the paper's two-stroke map, 851 frequencies x 8 rounds; per-cycle engine, state and gate work dominates",
            ("two-stroke", "--system", "tce"),
            rounds=(1, 8),
            grid=(150.0, 1.0, 851),
        ),
        Workload(
            "cooling_sweep",
            "80 rounds on 18 frequencies; recomputing every cooling prefix (PPA rounds, resets) dominates",
            ("two-stroke", "--system", "tce"),
            rounds=(1, 80),
            grid=(150.0, 50.0, 18),
        ),
    )
}

# Same code paths as WORKLOADS at a few milliseconds to seconds per
# operation, for the harness's own tests.
SMOKE_WORKLOADS = {
    "four_stroke_paper": Workload(
        "four_stroke_paper", "smoke", ("four-stroke", "--system", "tce", "--tau", "0.1"), rounds=(1, 1)
    ),
    "two_stroke_paper": Workload(
        "two_stroke_paper", "smoke", ("two-stroke", "--system", "tce"), rounds=(1, 2), grid=(150.0, 50.0, 6)
    ),
    "cooling_sweep": Workload(
        "cooling_sweep", "smoke", ("two-stroke", "--system", "tce"), rounds=(1, 4), grid=(150.0, 425.0, 3)
    ),
}
