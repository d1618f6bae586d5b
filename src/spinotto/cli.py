"""Command-line front end: run cooling traces and engine sweeps, emit CSV.

Subcommands: ``ppa``, ``four-stroke``, ``two-stroke``.  Frequencies are
accepted in MHz (units of omega/2pi) and converted to rad/s once here;
all physics below this layer is SI.  Exit status: 0 on success, 2 on
configuration errors, 3 on numerical-invariant violations.  Every option is
one entry of a subcommand's table; an argv of ``--flag value`` pairs is parsed
from that table without argparse, and help, usage and errors come from the full parser.
"""

import argparse
import math
import os
import sys as _sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import engines, hbac, reports
from .engines import COMPRESSED_FIELD_SCALE
from .spinsys import ConfigError, Role, SpinSystem, StateInvariantError, _positive_finite, load_system
from .spinsys import mhz_to_rad_s, rad_s_to_mhz, thermal_marginal_polarization

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the most values one flag may list, the largest round count and the most rows of a two-stroke
# table; a cooling run keeps 32 B per round (its round count, two polarizations, a temperature).
# CHANGES.md records the peak RSS of a run at each limit, in the entry on one table type and one CSV schema
MAX_VALUES = 10**6


def canonical_lines(args: argparse.Namespace) -> list[str]:
    """Deterministic description of a parsed run for the config hash.

    The round counts and the partner grid are named by their ends, the grid with its point
    count too; the CSV's ``n`` and ``omega_s_MHz`` columns hold every value.
    """
    first, last = args.rounds[0], args.rounds[-1]
    lines = [f"command={args.command}", f"system={args.system}", f"rounds={first}" + (f"..{last}" if last != first else "")]
    if hasattr(args, "field_scale"):
        lines.append(f"field_scale={reports.fmt(args.field_scale)}")
    if hasattr(args, "omega_s"):
        grid = args.omega_s
        lines += [f"omega_s_mhz={reports.fmt(grid[0])}..{reports.fmt(grid[-1])}", f"omega_s_points={len(grid)}"]
    if hasattr(args, "tau"):
        lines.append(f"tau={reports.fmt(args.tau)}")
    return lines


def _parse_rounds(text: str) -> range:
    try:
        first, dots, last = text.partition("..")
        lo = int(first)
        hi = int(last) if dots else lo
        if lo > hi:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rounds must be an integer or a..b range, got {text!r}"
        ) from None
    if lo < 0:
        raise argparse.ArgumentTypeError("round counts must be >= 0")
    if hi > MAX_VALUES or hi - lo >= MAX_VALUES:
        raise argparse.ArgumentTypeError(f"at most {MAX_VALUES} round counts up to {MAX_VALUES}: {text!r}")
    return range(lo, hi + 1)


def _parse_omega_grid(text: str) -> np.ndarray:
    """The grid points in MHz, as one read-only float64 array."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"omega grid must be start:stop:step in MHz, got {text!r}"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"omega grid values must be numbers: {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"omega grid values must be finite: {text!r}")
    if start <= 0 or step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(
            "omega grid needs start > 0, step > 0, stop >= start"
        )
    count = (stop - start) / step + 1e-9
    # floor(count) + 1 points; an infinite count fails this too
    if not count < MAX_VALUES:
        raise argparse.ArgumentTypeError(f"omega grid has more than {MAX_VALUES} points: {text!r}")
    # the sweep runs in rad/s, where the points must stay finite and distinct too; the last point,
    # the largest, is checked first in Python floats, whose overflow raises no warning
    if not math.isfinite(mhz_to_rad_s(start + int(count) * step)):
        raise argparse.ArgumentTypeError(f"omega grid overflows in rad/s: {text!r}")
    grid = start + np.arange(int(count) + 1) * step
    rad_s = mhz_to_rad_s(grid)
    if (rad_s[1:] <= rad_s[:-1]).any():
        raise argparse.ArgumentTypeError(
            f"omega grid repeats a point in rad/s (step below float resolution): {text!r}"
        )
    grid.setflags(write=False)
    return grid


def _parse_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not _positive_finite(value):
        raise argparse.ArgumentTypeError(f"value must be positive and finite, got {value}")
    return value


# one option of a subcommand: its flags, the attribute it sets, the function that converts its
# value, its default as a command-line string, the values it allows (None for any) and its help
Option = tuple[tuple[str, ...], str, Callable[[str], object], str, tuple[str, ...] | None, str | None]


def _common(default_out: str) -> tuple[Option, ...]:
    """The options every subcommand has, writing its CSV to ``default_out`` by default."""
    return (
        (("--system",), "system", str, "tce", None, "preset name (tce) or path to an INI system definition"),
        (("--out",), "out", Path, default_out, None, "CSV output path"),
        (("--format",), "output_format", str, "csv", ("csv", "summary"),
         "csv writes a file and prints a summary; summary prints only"),
    )


def build_parser() -> argparse.ArgumentParser:
    """The full parser: top level and every subcommand."""
    parser = argparse.ArgumentParser(
        prog="spinotto",
        description="Quantum Otto engines with heat-bath algorithmic cooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, dest, convert, default, choices, text in options:
            p.add_argument(*flags, dest=dest, type=convert, default=default, choices=choices, help=text)
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building no parser for ``--flag value`` pairs.

    A subcommand followed only by ``--flag value`` pairs, each flag exactly one of its
    options and each value not starting with "-", is parsed here when every value
    converts and is one of its flag's choices.  Any other argv goes to the full
    parser, which prints the help, usage and errors.
    """
    if argv is None:
        argv = _sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        args = _parse_exact(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def _parse_exact(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser gives ``[command, *tokens]``, or None if argparse must decide."""
    if len(tokens) % 2:
        return None
    options = _COMMANDS[command][1]
    by_flag = {flag: option for option in options for flag in option[0]}
    values = {}
    for flag, value in zip(tokens[::2], tokens[1::2]):
        if flag not in by_flag or value.startswith("-"):
            return None
        _, dest, convert, _, choices, _ = by_flag[flag]
        try:
            value = convert(value)
        except argparse.ArgumentTypeError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for _, dest, convert, default, _, _ in options:
        if dest not in values:
            values[dest] = convert(default)
    return argparse.Namespace(command=command, **values)


# what a subcommand hands back to ``run``: its table and its summary
Outcome = tuple[engines.SweepTable, str]

# a CSV column: its header and the table column it shows, or a function of the columns, system and args
Column = tuple[str, str | Callable[[dict[str, np.ndarray], SpinSystem, argparse.Namespace], np.ndarray]]


@np.errstate(all="ignore")  # as in the sweeps: a bath too cold for k_B T gives non-finite values, which run_ppa rejects
def _cmd_ppa(args: argparse.Namespace, system: SpinSystem) -> Outcome:
    if len(args.rounds) != 1:
        raise ConfigError("ppa takes a single round count, not a range")
    n_rounds = args.rounds[0]
    field_scale = args.field_scale
    eps_in = thermal_marginal_polarization(system, system.label_for_role(Role.TARGET), field_scale)
    table = hbac.run_ppa(eps_in, system, field_scale, n_rounds)
    eps, t_eff = table.columns["eps_target"], table.columns["T_eff"]
    # the first round past the bound, found without listing every later one
    above = eps > hbac.shannon_bound(system, field_scale) * (1.0 + 1e-6)
    summary = (
        f"ppa rounds={n_rounds} field_scale={field_scale:g}: "
        f"final eps_target={eps[-1]:.6e} T_eff={t_eff[-1]:.5g} K "
        f"shannon_crossing_round={np.argmax(above) if above.any() else '-'}"
    )
    return table, summary


def _cmd_four_stroke(args: argparse.Namespace, system: SpinSystem) -> Outcome:
    table = engines.sweep_four_stroke(system, args.rounds)
    best = table.argmax_power()
    n, power, work, eta = (table.cell(k, best) for k in ("n_rounds", "power", "net_work", "efficiency"))
    crossover = engines.isochoric_crossover(table)
    summary = (
        f"four-stroke max power at n={n}: "
        f"P={power:.6e} W/mol (W={work:.6e} J/mol, eta={eta:g}); "
        f"isochoric reference dominates from "
        f"{'-' if crossover is None else 'n=%d' % crossover}"
    )
    return table, summary


def _mhz_text(mhz: float) -> str:
    """A frequency in MHz to two decimals, or from 1e15 MHz on, where they stop resolving, to 15 significant digits."""
    return "%.2f" % mhz if mhz < 1e15 else "%.15g" % mhz


def _window_texts(omega_t: float, edges: list[float]) -> list[str]:
    """The window text of each upper edge in ``edges`` (MHz, negative for no window)."""
    head = f"({_mhz_text(rad_s_to_mhz(omega_t))}, "
    return ["none" if e < 0 else f"{head}{_mhz_text(e)}) MHz" for e in edges]


def _window_lines(rounds: range, omega_t: float, bath_t: float, cooled: np.ndarray) -> list[str]:
    """The summary's positive-work window lines for the round counts ``rounds`` cooled to ``cooled`` (K).

    One line names each stretch of consecutive round counts whose window prints the same.  The
    edges are one array pass; the cooling stops changing at n = 1074, so the round counts hold
    few distinct edges, and one text is formatted per run of equal edges.
    """
    # every round count's upper edge in MHz, negative where there is no window
    edges = rad_s_to_mhz(engines.window_upper_edges(omega_t, bath_t, cooled))
    starts = np.flatnonzero(np.concatenate(([True], edges[1:] != edges[:-1])))
    shown = _window_texts(omega_t, edges[starts].tolist())
    starts = starts.tolist()
    # a line starts at each run whose window prints other than the run before
    heads = [0, *(i for i in range(1, len(shown)) if shown[i] != shown[i - 1])]
    lines = []
    for i, end in zip(heads, [*(starts[i] for i in heads[1:]), len(edges)]):
        first, last = rounds[starts[i]], rounds[end - 1]
        lines.append(f"positive-work window n={first}{'..%d' % last if last != first else ''}: {shown[i]}")
    return lines


def _cmd_two_stroke(args: argparse.Namespace, system: SpinSystem) -> Outcome:
    rows = len(args.rounds) * len(args.omega_s)
    if rows > MAX_VALUES:
        raise ConfigError(f"two-stroke table would have {rows} rows, more than {MAX_VALUES}")
    try:
        table = engines.sweep_two_stroke(system, mhz_to_rad_s(args.omega_s), args.rounds)
    except engines.NonFiniteCell as exc:
        # the sweep runs in rad/s; name the point as it was passed, in MHz
        raise StateInvariantError(f"{exc} ({args.omega_s[exc.point['omega_s']].item()!r} MHz)") from None
    best = table.argmax_power()
    omega_s, n, power, work, eta = (
        table.cell(k, best) for k in ("omega_s", "n_rounds", "power", "net_work", "efficiency")
    )
    lines = [
        f"two-stroke max power at omega_s={_mhz_text(rad_s_to_mhz(omega_s))} MHz, "
        f"n={n}: P={power:.6e} W/mol (W={work:.6e} J/mol, eta={eta:.4g})"
    ]
    omega_t = system.omega(system.label_for_role(Role.TARGET), 1.0)
    cooled = table.columns["cooled_target_temperature"].ravel()
    lines += _window_lines(args.rounds, omega_t, system.bath_temperature, cooled)
    return table, "\n".join(lines)


# each subcommand's help text, its options in help order, the function that runs it, and its CSV's
# title and columns: the only place a subcommand is defined
_COMMANDS: dict[str, tuple[str, tuple[Option, ...], Callable[..., Outcome], str, tuple[Column, ...]]] = {
    "ppa": (
        "run the cooling algorithm and trace per-round telemetry",
        (
            (("--rounds", "-n"), "rounds", _parse_rounds, "7", None, None),
            (("--field-scale",), "field_scale", _parse_positive, str(COMPRESSED_FIELD_SCALE), None,
             "static-field scale during cooling (0.5 = compressed field)"),
            *_common("ppa_trace.csv"),
        ),
        _cmd_ppa,
        "algorithmic cooling trace",
        (("round", "n_rounds"), ("eps_target", "eps_target"), ("eps_reset", "eps_reset"), ("T_eff_K", "T_eff"),
         # one 0-d cell, formatted once and repeated on every row
         ("shannon_bound_eps", lambda columns, system, args: np.float64(hbac.shannon_bound(system, args.field_scale)))),
    ),
    "four-stroke": (
        "sweep the four-stroke engine over round counts",
        (
            (("--rounds", "-n"), "rounds", _parse_rounds, "0..10", None, None),
            (("--tau",), "tau", _parse_positive, "0.1", None,
             "drive period in seconds; changes no number, is recorded in the config hash only and kept for the benchmark"),
            *_common("four_stroke_sweep.csv"),
        ),
        _cmd_four_stroke,
        "four-stroke cycle sweep",
        (("n", "n_rounds"), ("Qin_J_per_mol", "q_in"), ("Qout_J_per_mol", "q_out"), ("W_J_per_mol", "net_work"),
         ("P_W_per_mol", "power"), ("P_iso_W_per_mol", "power_isochoric"), ("T_cold_K", "cooled_target_temperature"),
         ("iso_dominates", "iso_dominates")),
    ),
    "two-stroke": (
        "sweep the two-stroke engine over partner frequencies",
        (
            (("--rounds", "-n"), "rounds", _parse_rounds, "1..8", None, None),
            (("--omega-s",), "omega_s", _parse_omega_grid, "150:1000:1", None,
             "partner frequency grid start:stop:step in MHz (default %(default)s)"),
            *_common("two_stroke_sweep.csv"),
        ),
        _cmd_two_stroke,
        "two-stroke cycle sweep",
        (("omega_s_MHz", lambda columns, system, args: rad_s_to_mhz(columns["omega_s"])), ("n", "n_rounds"),
         ("W_J_per_mol", "net_work"), ("P_W_per_mol", "power"), ("eta", "efficiency"), ("in_window", "in_window")),
    ),
}


def run(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        if args.output_format == "csv" and "\0" in str(args.out):
            # os.open would raise ValueError only after the run
            raise ConfigError(f"cannot write {args.out}: embedded null byte")
        if args.output_format == "csv" and os.path.exists(args.out) and not os.path.isfile(args.out):
            # renaming the CSV over a FIFO or device would replace it
            raise ConfigError(f"cannot write {args.out}: not a regular file")
        _, _, command, title, schema = _COMMANDS[args.command]
        system = load_system(args.system)
        table, summary = command(args, system)
        if args.output_format == "csv":
            columns = [(h, table.columns[c] if isinstance(c, str) else c(table.columns, system, args)) for h, c in schema]
            try:
                reports.write_atomic(args.out, reports.render_csv(title, columns, canonical_lines(args), system))
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from None
            print(f"wrote {args.out}")
        print(summary)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except StateInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    try:
        status = run()
        _sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout after the run finished its work; point
        # stdout at devnull so the interpreter's final flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        status = EXIT_OK
    raise SystemExit(status)


if __name__ == "__main__":
    main()
