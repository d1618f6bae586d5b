"""CSV rendering with reproducibility headers, and atomic file output.

Output files start with ``#``-prefixed metadata lines (a hash of the run
configuration, the physical constants, and the spin system) so every data
row can be traced back to its inputs.  No timestamps: identical inputs
must produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .engines import SweepTable
from .hbac import PpaTrace, trace_rows
from .spinsys import CODATA2018, PhysicalConstants, SpinSystem

TWO_PI = 2.0 * math.pi


def fmt(value) -> str:
    """Deterministic cell formatting: 12-digit scientific for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12e")
    if value is None:
        return ""
    return str(value)


def config_hash(lines: Iterable[str]) -> str:
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"sha256:{digest[:16]}"


def system_lines(sys: SpinSystem) -> list[str]:
    lines = [
        f"system: B={fmt(sys.b_field)} T, bath={fmt(sys.bath_temperature)} K"
    ]
    for q in sys.qubits:
        omega = q.omega_over_2pi if q.omega_over_2pi is not None else q.gamma_over_2pi * sys.b_field
        lines.append(
            f"qubit {q.label}: role={q.role.value} gamma={fmt(q.gamma_over_2pi)} MHz/T "
            f"omega={fmt(omega)} MHz t1={fmt(q.t1)} s"
        )
    for (a, b), j in sorted(sys.j_over_2pi.items()):
        lines.append(f"J {a}-{b}: {fmt(j)} Hz")
    return lines


def metadata_lines(
    title: str,
    config_lines: Sequence[str],
    sys: SpinSystem,
    constants: PhysicalConstants = CODATA2018,
) -> list[str]:
    lines = [f"# {title}", f"# config_hash={config_hash(config_lines)}"]
    lines += [f"# config: {line}" for line in config_lines]
    lines.append(
        f"# constants: hbar={fmt(constants.hbar)} J*s "
        f"k_boltzmann={fmt(constants.k_boltzmann)} J/K "
        f"avogadro={fmt(constants.avogadro)} 1/mol"
    )
    lines += [f"# {line}" for line in system_lines(sys)]
    return lines


def _table(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    lines = [",".join(header)]
    lines += [",".join(fmt(cell) for cell in row) for row in rows]
    return lines


def _column_rows(*columns: np.ndarray) -> Iterable[tuple]:
    # tolist() yields Python floats, ints and bools, which fmt knows
    return zip(*(column.tolist() for column in columns))


def render_ppa_csv(
    trace: PpaTrace,
    sys: SpinSystem,
    field_scale: float,
    config_lines: Sequence[str],
    constants: PhysicalConstants = CODATA2018,
) -> str:
    rows = trace_rows(trace, sys, field_scale, constants)
    lines = metadata_lines("algorithmic cooling trace", config_lines, sys, constants)
    lines += _table(
        ("round", "eps_target", "eps_reset", "T_eff_K", "shannon_bound_eps"), rows
    )
    return "\n".join(lines) + "\n"


def render_four_stroke_csv(
    table: SweepTable,
    config_lines: Sequence[str],
    sys: SpinSystem,
    constants: PhysicalConstants = CODATA2018,
) -> str:
    assert table.reference_reports is not None
    cols, ref = table.columns, table.reference_reports.columns
    rows = _column_rows(
        *(cols[name] for name in ("n_rounds", "q_in", "q_out", "net_work", "power")),
        ref["power"],
        cols["cooled_target_temperature"],
        ref["power"] > cols["power"],
    )
    lines = metadata_lines("four-stroke cycle sweep", config_lines, sys, constants)
    lines += _table(
        (
            "n",
            "Qin_J_per_mol",
            "Qout_J_per_mol",
            "W_J_per_mol",
            "P_W_per_mol",
            "P_iso_W_per_mol",
            "T_cold_K",
            "iso_dominates",
        ),
        rows,
    )
    return "\n".join(lines) + "\n"


def render_two_stroke_csv(
    table: SweepTable,
    config_lines: Sequence[str],
    sys: SpinSystem,
    constants: PhysicalConstants = CODATA2018,
) -> str:
    cols = table.columns
    rows = _column_rows(
        cols["omega_s"] / TWO_PI / 1e6,
        *(cols[name] for name in ("n_rounds", "net_work", "power", "efficiency", "in_window")),
    )
    lines = metadata_lines("two-stroke cycle sweep", config_lines, sys, constants)
    lines += _table(
        ("omega_s_MHz", "n", "W_J_per_mol", "P_W_per_mol", "eta", "in_window"), rows
    )
    return "\n".join(lines) + "\n"


def write_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
