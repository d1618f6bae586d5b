"""Command-line front end: run cooling traces and engine sweeps, emit CSV.

Subcommands: ``ppa``, ``four-stroke``, ``two-stroke``.  Frequencies are
accepted in MHz (units of omega/2pi) and converted to rad/s once here;
all physics below this layer is SI.  Exit status: 0 on success, 2 on
configuration errors, 3 on numerical-invariant violations.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys as _sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engines, hbac, reports
from .engines import COMPRESSED_FIELD_SCALE
from .spinsys import TWO_PI, ConfigError, Role, SpinSystem, StateInvariantError, load_system
from .spinsys import thermal_marginal_polarization

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the most values one flag may list, the largest round count and the most rows of a two-stroke
# table; a cooling run keeps 24 B per round, and `ppa --rounds 1000000` peaks at 76 MiB RSS
MAX_VALUES = 10**6

# drive period of the field ramps (s); they freeze populations, so --tau only enters the config hash
DEFAULT_TAU = 0.1


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    command: str
    system_source: str
    rounds: tuple[int, ...]
    field_scale: float | None = None
    omega_s_mhz: tuple[float, ...] | None = None
    tau: float | None = None
    out: Path | None = None
    output_format: str = "csv"

    def canonical_lines(self) -> list[str]:
        """Deterministic description of the run, used for the config hash."""
        lines = [
            f"command={self.command}",
            f"system={self.system_source}",
            f"rounds={','.join(str(n) for n in self.rounds)}",
        ]
        if self.field_scale is not None:
            lines.append(f"field_scale={reports.fmt(self.field_scale)}")
        if self.omega_s_mhz is not None:
            lines.append(f"omega_s_mhz={reports.fmt_floats(self.omega_s_mhz)}")
        if self.tau is not None:
            lines.append(f"tau={reports.fmt(self.tau)}")
        return lines


def _parse_rounds(text: str) -> tuple[int, ...]:
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
    return tuple(range(lo, hi + 1))


def _parse_omega_grid(text: str) -> tuple[float, ...]:
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
    grid = tuple(start + i * step for i in range(int(math.floor(count)) + 1))
    # the sweep runs in rad/s, which must stay finite too
    if not math.isfinite(TWO_PI * 1e6 * grid[-1]):
        raise argparse.ArgumentTypeError(f"omega grid overflows in rad/s: {text!r}")
    return grid


def _parse_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"value must be positive and finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinotto",
        description="Quantum Otto engines with heat-bath algorithmic cooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_out: str) -> None:
        p.add_argument(
            "--system",
            default="tce",
            help="preset name (tce) or path to an INI system definition",
        )
        p.add_argument("--out", type=Path, default=Path(default_out), help="CSV output path")
        p.add_argument(
            "--format",
            choices=("csv", "summary"),
            default="csv",
            dest="output_format",
            help="csv writes a file and prints a summary; summary prints only",
        )

    p_ppa = sub.add_parser("ppa", help="run the cooling algorithm and trace per-round telemetry")
    p_ppa.add_argument("--rounds", "-n", type=_parse_rounds, default=(7,))
    p_ppa.add_argument(
        "--field-scale",
        type=_parse_positive,
        default=COMPRESSED_FIELD_SCALE,
        help="static-field scale during cooling (0.5 = compressed field)",
    )
    add_common(p_ppa, "ppa_trace.csv")

    p_four = sub.add_parser("four-stroke", help="sweep the four-stroke engine over round counts")
    p_four.add_argument("--rounds", "-n", type=_parse_rounds, default=tuple(range(11)))
    p_four.add_argument(
        "--tau",
        type=_parse_positive,
        default=DEFAULT_TAU,
        help="drive period in seconds; changes no number, is recorded in the config hash only and kept for the benchmark",
    )
    add_common(p_four, "four_stroke_sweep.csv")

    p_two = sub.add_parser("two-stroke", help="sweep the two-stroke engine over partner frequencies")
    p_two.add_argument("--rounds", "-n", type=_parse_rounds, default=tuple(range(1, 9)))
    p_two.add_argument(
        "--omega-s",
        type=_parse_omega_grid,
        default="150:1000:1",
        help="partner frequency grid start:stop:step in MHz (default %(default)s)",
    )
    add_common(p_two, "two_stroke_sweep.csv")

    return parser


def _emit(config: RunConfig, render: Callable[[], Iterable[bytes]], summary: str) -> None:
    """Write the CSV blocks ``render()`` yields, in csv format only, then print the summary.

    An output path that cannot be written is a ``ConfigError``.
    """
    if config.output_format == "csv":
        assert config.out is not None
        try:
            reports.write_atomic(config.out, render())
        except OSError as exc:
            raise ConfigError(f"cannot write {config.out}: {exc.strerror or exc}") from None
        print(f"wrote {config.out}")
    print(summary)


def _cmd_ppa(config: RunConfig, system: SpinSystem) -> int:
    if len(config.rounds) != 1:
        raise ConfigError("ppa takes a single round count, not a range")
    n_rounds = config.rounds[0]
    field_scale = config.field_scale
    eps_in = thermal_marginal_polarization(system, system.label_for_role(Role.TARGET), field_scale)
    trace = hbac.run_ppa(eps_in, system, field_scale, n_rounds)

    bound = hbac.shannon_bound(system, field_scale)
    crossing = np.flatnonzero(trace.target_polarization > bound * (1.0 + 1e-6))
    summary = (
        f"ppa rounds={n_rounds} field_scale={field_scale:g}: "
        f"final eps_target={trace.target_polarization[-1]:.6e} "
        f"T_eff={trace.target_effective_temperature[-1]:.3f} K "
        f"shannon_crossing_round={crossing[0] if crossing.size else '-'}"
    )
    _emit(
        config,
        lambda: reports.render_ppa_csv(trace, system, field_scale, config.canonical_lines()),
        summary,
    )
    return EXIT_OK


def _cmd_four_stroke(config: RunConfig, system: SpinSystem) -> int:
    table = engines.sweep_four_stroke(system, config.rounds)
    best = table.argmax_power()
    crossover = engines.isochoric_crossover(table)
    summary = (
        f"four-stroke max power at n={best.n_rounds}: "
        f"P={best.power:.6e} W/mol (W={best.net_work:.6e} J/mol, eta={best.efficiency:g}); "
        f"isochoric reference dominates from "
        f"{'-' if crossover is None else 'n=%d' % crossover}"
    )
    _emit(
        config,
        lambda: reports.render_four_stroke_csv(table, config.canonical_lines(), system),
        summary,
    )
    return EXIT_OK


def _cmd_two_stroke(config: RunConfig, system: SpinSystem) -> int:
    rows = len(config.rounds) * len(config.omega_s_mhz)
    if rows > MAX_VALUES:
        raise ConfigError(f"two-stroke table would have {rows} rows, more than {MAX_VALUES}")
    grid = [TWO_PI * 1e6 * w for w in config.omega_s_mhz]
    try:
        table = engines.sweep_two_stroke(system, grid, config.rounds)
    except engines.NonFiniteCell as exc:
        # the sweep runs in rad/s; name the point as it was passed, in MHz
        raise StateInvariantError(f"{exc} ({config.omega_s_mhz[exc.point['omega_s']]!r} MHz)") from None
    best = table.argmax_power()
    omega_t = system.omega(system.label_for_role(Role.TARGET), 1.0)
    lines = [
        f"two-stroke max power at omega_s={best.omega_s / TWO_PI / 1e6:.2f} MHz, "
        f"n={best.n_rounds}: P={best.power:.6e} W/mol "
        f"(W={best.net_work:.6e} J/mol, eta={best.efficiency:.4f})"
    ]
    # rows are round-count-major, so each round count's block starts every len(grid) rows
    cooled = table.columns["cooled_target_temperature"][:: len(grid)].tolist()
    bounds = [engines.positive_work_window(omega_t, system.bath_temperature, t) for t in cooled]
    shown = ["none" if w is None else "(%.2f, %.2f) MHz" % tuple(f / TWO_PI / 1e6 for f in w) for w in bounds]
    # one line per run of consecutive round counts whose window prints the same
    for text, run in itertools.groupby(zip(table.axes["n_rounds"], shown), key=lambda pair: pair[1]):
        first, *rest = (n for n, _ in run)
        lines.append(f"positive-work window n={first}{'..%d' % rest[-1] if rest else ''}: {text}")
    _emit(
        config,
        lambda: reports.render_two_stroke_csv(table, config.canonical_lines(), system),
        "\n".join(lines),
    )
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        system_source=args.system,
        rounds=args.rounds,
        field_scale=getattr(args, "field_scale", None),
        omega_s_mhz=getattr(args, "omega_s", None),
        tau=getattr(args, "tau", None),
        out=args.out,
        output_format=args.output_format,
    )
    try:
        system = load_system(config.system_source)
        if config.command == "ppa":
            return _cmd_ppa(config, system)
        if config.command == "four-stroke":
            return _cmd_four_stroke(config, system)
        return _cmd_two_stroke(config, system)
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
