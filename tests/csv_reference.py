"""Reference CSV renderer: every cell through Python's ``%``, one call each.

The package renders tables column by column: numpy builds each float's
``%.12e`` bytes from a power-of-ten table and a digit table, and only the
cells that could round wrongly (a digit fraction near one half, zero,
non-finite, subnormal or three-digit-exponent values) go through
Python's ``%``.  This per-cell renderer is the reference its bytes must
match.  Its cell and config-value texts are its own; the metadata lines
are shared with the package.
"""

import numpy as np

from spinotto.hbac import shannon_bound
from spinotto.reports import metadata_lines
from spinotto.spinsys import TWO_PI


def _cell(value):
    """A cell's text: true or false for a bool, ``%.12e`` for a float, ``%d`` for an int."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return ("%.12e" if isinstance(value, float) else "%d") % value


def _table(header, rows):
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return lines


def _column_rows(*columns):
    # tolist() yields Python floats, ints and bools, which _cell knows
    return zip(*(column.tolist() for column in columns))


def config_lines(args):
    """The config lines of a parsed run, built here rather than by ``cli.canonical_lines``.

    Round counts and grid points are named by their first and last values, and the grid by its point count too.
    """
    rounds = args.rounds
    lines = [f"command={args.command}", f"system={args.system}", f"rounds={rounds[0]}"]
    if len(rounds) > 1:
        lines[-1] += f"..{rounds[-1]}"
    if args.command == "ppa":
        lines.append("field_scale=%.12e" % args.field_scale)
    if args.command == "two-stroke":
        grid = args.omega_s
        lines += ["omega_s_mhz=%.12e..%.12e" % (grid[0], grid[-1]), f"omega_s_points={len(grid)}"]
    if args.command == "four-stroke":
        lines.append("tau=%.12e" % args.tau)
    return lines


def render_ppa_csv(table, sys, field_scale, config_lines):
    column = table.column
    n = len(column("n_rounds"))
    rows = _column_rows(
        column("n_rounds"),
        column("eps_target"),
        column("eps_reset"),
        column("T_eff"),
        np.full(n, shannon_bound(sys, field_scale)),
    )
    lines = metadata_lines("algorithmic cooling trace", config_lines, sys)
    lines += _table(
        ("round", "eps_target", "eps_reset", "T_eff_K", "shannon_bound_eps"), rows
    )
    return "\n".join(lines) + "\n"


def render_four_stroke_csv(table, config_lines, sys):
    column = table.column
    rows = _column_rows(
        *(column(name) for name in ("n_rounds", "q_in", "q_out", "net_work", "power", "power_isochoric")),
        column("cooled_target_temperature"),
        column("power_isochoric") > column("power"),
    )
    lines = metadata_lines("four-stroke cycle sweep", config_lines, sys)
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


def render_two_stroke_csv(table, config_lines, sys):
    column = table.column
    rows = _column_rows(
        column("omega_s") / TWO_PI / 1e6,
        *(column(name) for name in ("n_rounds", "net_work", "power", "efficiency", "in_window")),
    )
    lines = metadata_lines("two-stroke cycle sweep", config_lines, sys)
    lines += _table(
        ("omega_s_MHz", "n", "W_J_per_mol", "P_W_per_mol", "eta", "in_window"), rows
    )
    return "\n".join(lines) + "\n"
