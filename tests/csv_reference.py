"""Reference CSV renderer: every cell through ``reports.fmt``, one call each.

The package renders tables column by column: numpy builds each float's
``%.12e`` bytes from a power-of-ten table and a digit table, and only the
cells that could round wrongly (a digit fraction near one half, zero,
non-finite, subnormal or three-digit-exponent values) go through
Python's ``%``.  This per-cell renderer is the reference its bytes must
match.  The metadata lines are shared with the package.
"""

import numpy as np

from spinotto.hbac import shannon_bound
from spinotto.reports import TWO_PI, fmt, metadata_lines
from spinotto.spinsys import CODATA2018


def _table(header, rows):
    lines = [",".join(header)]
    lines += [",".join(fmt(cell) for cell in row) for row in rows]
    return lines


def _column_rows(*columns):
    # tolist() yields Python floats, ints and bools, which fmt knows
    return zip(*(column.tolist() for column in columns))


def canonical_omega_line(omega_s_mhz):
    """The config line of a partner-frequency grid, as ``RunConfig`` writes it."""
    return "omega_s_mhz=" + ",".join(fmt(w) for w in omega_s_mhz)


def render_ppa_csv(trace, sys, field_scale, config_lines, constants=CODATA2018):
    n = len(trace.target_polarization)
    rows = _column_rows(
        np.arange(n),
        trace.target_polarization,
        trace.reset_polarization,
        trace.target_effective_temperature,
        np.full(n, shannon_bound(sys, field_scale, constants)),
    )
    lines = metadata_lines("algorithmic cooling trace", config_lines, sys, constants)
    lines += _table(
        ("round", "eps_target", "eps_reset", "T_eff_K", "shannon_bound_eps"), rows
    )
    return "\n".join(lines) + "\n"


def render_four_stroke_csv(table, config_lines, sys, constants=CODATA2018):
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


def render_two_stroke_csv(table, config_lines, sys, constants=CODATA2018):
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
