"""Output checks: every CSV a benchmark operation writes is compared with
the closed forms in ``tests/oracles.py`` and with the paper's anchors.

Errors are normwise per column: the largest absolute deviation over the
rows divided by the largest oracle magnitude in that column, so a column
that crosses zero (two-stroke work at the window edges) is still judged
on its scale.  The tolerance is the acceptance suite's 1e-3.
"""

from __future__ import annotations

import hashlib
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-3
# rows this close to a sign change or a window edge are not classified
EDGE_RTOL = 1e-6

FOUR_STROKE_COLUMNS = {
    "Qin_J_per_mol": "q_in",
    "Qout_J_per_mol": "q_out",
    "W_J_per_mol": "work",
    "P_W_per_mol": "power",
    "P_iso_W_per_mol": "power_iso",
    "T_cold_K": "t_cold",
}
TWO_STROKE_COLUMNS = {"W_J_per_mol": "work", "P_W_per_mol": "power", "eta": "eta"}


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` by path, without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location("spinotto_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def data_rows(text: str) -> list[str]:
    """CSV lines after the ``#`` metadata and the column header."""
    return [line for line in text.splitlines() if not line.startswith("#")][1:]


def rows_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256("\n".join(data_rows(text)).encode()).hexdigest()[:16]


@dataclass
class Check:
    max_rel_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def compare(self, name: str, got: list[float], expected: list[float]) -> None:
        scale = max(abs(e) for e in expected)
        err = max(abs(g - e) for g, e in zip(got, expected)) / scale
        self.max_rel_err = max(self.max_rel_err, err)
        self.require(err <= REL_TOL, f"{name}: normwise error {err:.3e} > {REL_TOL:g}")


def _table(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def check_csv(workload, seed: int, text: str, oracles) -> Check:
    """Check one CSV written by ``workload.argv(seed)``."""
    check = Check()
    try:
        rows = _table(text)
        if workload.command[0] == "four-stroke":
            _check_four_stroke(workload, rows, oracles, check)
        else:
            _check_two_stroke(workload, seed, rows, oracles, check)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        check.problems.append(f"unreadable CSV: {exc!r}")
    return check


def _check_four_stroke(workload, rows, oracles, check: Check) -> None:
    n_values = [int(r["n"]) for r in rows]
    check.require(n_values == workload.round_values(), f"round column {n_values}")
    expected = [oracles.four_stroke_closed_form(n) for n in n_values]
    for column, key in FOUR_STROKE_COLUMNS.items():
        check.compare(column, [float(r[column]) for r in rows], [e[key] for e in expected])
    iso = [r["iso_dominates"] == "true" for r in rows]
    for n, flag, e in zip(n_values, iso, expected):
        if abs(e["power_iso"] - e["power"]) > EDGE_RTOL * abs(e["power"]):
            check.require(flag == (e["power_iso"] > e["power"]), f"iso_dominates wrong at n={n}")
    # the engine's efficiency is exactly 1 - 1/2
    for n, r in zip(n_values, rows):
        eta = float(r["W_J_per_mol"]) / float(r["Qin_J_per_mol"])
        check.require(abs(eta - 0.5) <= 1e-9, f"eta={eta!r} at n={n}, want 0.5")
    if workload.paper_anchors:
        powers = [float(r["P_W_per_mol"]) for r in rows]
        best = n_values[powers.index(max(powers))]
        check.require(best == 2, f"max power at n={best}, paper has n=2")
        crossover = next((n for n, flag in zip(n_values, iso) if flag), None)
        check.require(crossover == 6, f"isochoric crossover at n={crossover}, paper has n=6")


def _check_two_stroke(workload, seed: int, rows, oracles, check: Check) -> None:
    want_grid = [(n, w) for n in workload.round_values() for w in workload.omega_values(seed)]
    got_grid = [(int(r["n"]), float(r["omega_s_MHz"])) for r in rows]
    check.require(
        len(got_grid) == len(want_grid)
        and all(gn == wn and _close(gw, ww) for (gn, gw), (wn, ww) in zip(got_grid, want_grid)),
        f"grid has {len(got_grid)} rows, want {len(want_grid)} in round-major order",
    )
    expected = [oracles.two_stroke_closed_form(w, n) for n, w in got_grid]
    for column, key in TWO_STROKE_COLUMNS.items():
        check.compare(column, [float(r[column]) for r in rows], [e[key] for e in expected])
    work_scale = max(abs(e["work"]) for e in expected)
    for (n, w), r, e in zip(got_grid, rows, expected):
        omega = oracles.mhz(w)
        low, high = e["window"]
        in_window = r["in_window"] == "true"
        if min(abs(omega - low), abs(omega - high)) > EDGE_RTOL * omega:
            check.require(in_window == (low < omega < high), f"in_window wrong at {w} MHz, n={n}")
        if abs(e["work"]) > EDGE_RTOL * work_scale:
            # positive work exactly inside the window
            check.require((float(r["W_J_per_mol"]) > 0) == in_window, f"work sign at {w} MHz, n={n}")
