"""CSV rendering with reproducibility headers, and atomic file output.

Output files start with ``#``-prefixed metadata lines (a hash of the run
configuration, the physical constants, and the spin system) so every data
row can be traced back to its inputs.  No timestamps: identical inputs
must produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .engines import SweepTable
from .hbac import PpaTrace, shannon_bound
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


# every data row is one %-format string; a bool cell indexes this pair
_BOOL = ("false", "true")
_PPA_ROW = "%d,%.12e,%.12e,%.12e,%.12e"
_FOUR_STROKE_ROW = "%d,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,%s"
_TWO_STROKE_ROW = "%s,%d,%.12e,%.12e,%s,%s"


def _csv(metadata: list[str], header: Sequence[str], rows: Iterable[str]) -> str:
    return "\n".join([*metadata, ",".join(header), *rows]) + "\n"


def render_ppa_csv(
    trace: PpaTrace,
    sys: SpinSystem,
    field_scale: float,
    config_lines: Sequence[str],
    constants: PhysicalConstants = CODATA2018,
) -> str:
    bound = shannon_bound(sys, field_scale, constants)
    rows = zip(
        itertools.count(),
        trace.target_polarization.tolist(),
        trace.reset_polarization.tolist(),
        trace.target_effective_temperature.tolist(),
        itertools.repeat(bound),
    )
    return _csv(
        metadata_lines("algorithmic cooling trace", config_lines, sys, constants),
        ("round", "eps_target", "eps_reset", "T_eff_K", "shannon_bound_eps"),
        map(_PPA_ROW.__mod__, rows),
    )


def render_four_stroke_csv(
    table: SweepTable,
    config_lines: Sequence[str],
    sys: SpinSystem,
    constants: PhysicalConstants = CODATA2018,
) -> str:
    assert table.reference_reports is not None
    cols, ref = table.columns, table.reference_reports.columns
    # tolist() yields Python ints, floats and bools, which %d and %.12e render
    rows = zip(
        *(cols[name].tolist() for name in ("n_rounds", "q_in", "q_out", "net_work", "power")),
        ref["power"].tolist(),
        cols["cooled_target_temperature"].tolist(),
        map(_BOOL.__getitem__, (ref["power"] > cols["power"]).tolist()),
    )
    return _csv(
        metadata_lines("four-stroke cycle sweep", config_lines, sys, constants),
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
        map(_FOUR_STROKE_ROW.__mod__, rows),
    )


def render_two_stroke_csv(
    table: SweepTable,
    config_lines: Sequence[str],
    sys: SpinSystem,
    constants: PhysicalConstants = CODATA2018,
) -> str:
    """Rows are round-count-major; the frequency cells of one block serve every block."""
    cols = table.columns
    omega_mhz = np.array(table.axes["omega_s"]) / TWO_PI / 1e6
    points = len(omega_mhz)
    efficiency = cols["efficiency"]
    # reuse the first block's cells only if every block repeats its bits:
    # 0.0 and -0.0 compare equal but render differently
    blocks = efficiency.view(np.uint64).reshape(-1, points)
    repeats = len(blocks)
    if (blocks == blocks[0]).all():
        eta = ["%.12e" % e for e in efficiency[:points].tolist()] * repeats
    else:
        eta = map("%.12e".__mod__, efficiency.tolist())
    rows = zip(
        ["%.12e" % w for w in omega_mhz.tolist()] * repeats,
        cols["n_rounds"].tolist(),
        cols["net_work"].tolist(),
        cols["power"].tolist(),
        eta,
        map(_BOOL.__getitem__, cols["in_window"].tolist()),
    )
    return _csv(
        metadata_lines("two-stroke cycle sweep", config_lines, sys, constants),
        ("omega_s_MHz", "n", "W_J_per_mol", "P_W_per_mol", "eta", "in_window"),
        map(_TWO_STROKE_ROW.__mod__, rows),
    )


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
