"""CSV rendering with reproducibility headers, and atomic file output.

Output files start with ``#``-prefixed metadata lines (a hash of the run
configuration, the physical constants, and the spin system) so every data
row can be traced back to its inputs.  No timestamps: identical inputs
must produce byte-identical files.
"""

from __future__ import annotations

import errno
import hashlib
import math
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .engines import SweepTable
from .hbac import PpaTrace, shannon_bound
from .spinsys import CODATA2018, TWO_PI, PhysicalConstants, SpinSystem


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
        lines.append(
            f"qubit {q.label}: role={q.role.value} gamma={fmt(q.gamma_over_2pi)} MHz/T "
            f"omega={fmt(sys.omega_mhz(q.label))} MHz t1={fmt(q.t1)} s"
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


# Tables render in blocks of rows, each column as word-major arrays: a cell is up to five
# uint32 words of NUL-padded ASCII (two for a bool), and NUL never occurs in a CSV.  Every
# array a block makes lives only for that block, and each page the allocator has to fetch
# anew costs a minor fault, about 3 us on a 2-vCPU VM.  So a block works out its digits in
# place and copies its words once, row-major, for bytes.translate to drop the padding: a
# 2048-row block of the paper's two-stroke table peaks near 0.55 MiB.  Smaller blocks
# cost long tables more in per-call overhead than they save.
_BLOCK_ROWS = 1 << 11
# ASCII digit j of each k < 10**4 in row j, then with NUL for leading zeros but the last
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(ord("0"))
_TRIMMED = np.where(np.arange(10**4) < np.array([[1000], [100], [10], [0]]), 0, _DIGITS)
# words: k < 10**4 trimmed, then zero-padded, then a float's lead word (NUL, sign, digit, "."), then "e+07"
_WORDS = np.concatenate([
    np.concatenate([_TRIMMED.T, _DIGITS.T]).copy().view(np.uint32).ravel(),
    np.array([b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)]).view(np.uint32),
    np.array([b"e%+03d" % e for e in range(-100, 101)], "S4").view(np.uint32),
])
_PADDED, _LEADS, _EXPONENTS = _WORDS[10**4 :], _WORDS[2 * 10**4 :], _WORDS[2 * 10**4 + 20 :]
# by exponent + 100: 10**(12 - exponent) correctly rounded for exponents -100..99, then NaN
_POW10 = np.array([*(float("1e%d" % (12 - e)) for e in range(-100, 100)), math.nan])
_BOOL_WORDS = np.array([b"false", b"true"], "S8").view(np.uint32).reshape(2, 2).T.copy()
_COMMA, _NEWLINE = np.array([b",", b"\n"], "S4").view(np.uint32)


def _exact(cells, fast, x, spec: bytes):
    """Overwrite the cells of ``x`` that ``fast`` leaves out with Python's ``spec % value``."""
    slow = np.flatnonzero(~fast)
    if slow.size:
        values = x.reshape(-1)[slow].tolist()
        cells.reshape(5, -1)[:, slow] = np.array([spec % v for v in values], "S20").view("u4").reshape(-1, 5).T
    return cells


@np.errstate(all="ignore")
def _float_cells(x: np.ndarray) -> np.ndarray:
    """``b"%.12e" % v`` of each value of a 2-D float64 array as five words: shape ``(5,) + x.shape``.

    The digits are ``m = |x| * 10**(12 - e)`` rounded, ``e`` from ``log10`` less 1e-12
    (never above the exponent, so ``m >= 1e12``).  Two roundings of 2**-53 leave
    ``m`` within 2.2e-3 of exact, so only a fraction within that of one half
    could round wrongly; a window of 0.005 keeps twice that margin.  Cells in the
    window take the exact path.  A rounded ``m`` of exactly 1e13, from ``e`` one
    too small (an exact power of ten) or from a carry, is 1e12 at ``e + 1``; one
    above 1e13 takes the exact path, as do, through the exponent range check and
    the NaN ends of ``_POW10``, zero, subnormal, non-finite and three-digit-exponent
    values.
    """
    a = np.abs(x)
    s = np.log10(a)
    s += 100 - 1e-12
    k = s.astype(np.intp)
    m = a * _POW10.take(k, mode="clip")
    r = np.rint(m, out=a)
    fast = np.abs(m - r) < 0.495
    carry = r == 1e13
    r[carry] = 1e12
    k += carry
    # two-digit exponents only, and no m of more than 1e13
    fast &= (k >= 1) & (k <= 199) & (r < 1e13)
    r += 1e13 * (x < 0)  # a 14th digit: the lead word of a negative value
    cells = np.empty((5,) + x.shape, np.uint32)
    _EXPONENTS.take(k, out=cells[4], mode="clip")
    # four-digit groups from the last, as integers in k, then in s and m reused
    digits, quotient, scratch = k, s.view(np.intp), m.view(np.intp)
    np.copyto(digits, r, casting="unsafe")
    for group in (3, 2, 1):
        np.floor_divide(digits, 10**4, out=quotient)
        digits -= np.multiply(quotient, 10**4, out=scratch)
        _PADDED.take(digits, out=cells[group], mode="clip")
        digits, quotient = quotient, digits
    _LEADS.take(digits, out=cells[0], mode="clip")
    return _exact(cells, fast, x, b"%.12e")


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``b"%d" % v`` of each integer as up to five words; the exact path takes v outside [0, 1e8)."""
    high, low = np.divmod(v, 10**4)
    cells = np.zeros((5,) + v.shape, np.uint32)
    # no high word below 1e4; after one, the low word keeps its leading zeros
    np.multiply(_WORDS.take(high, mode="clip"), high > 0, out=cells[3])
    _WORDS.take(np.minimum(v, low + 10**4), out=cells[4], mode="clip")
    cells = _exact(cells, v.astype(np.uint64) < 10**8, v, b"%d")
    # less the leading words that are NUL in every row
    return cells[cells.any(axis=1).argmax() :]


def _words(block: Sequence[np.ndarray]) -> np.ndarray:
    """A block's lines as word-major rows: each column's cells, then a comma or, last, a newline."""
    floats = np.array([c for c in block if c.dtype.kind == "f"], float).reshape(-1, len(block[0]))
    floats = iter(_float_cells(floats).swapaxes(0, 1))
    words = [np.full((1, len(block[0])), _COMMA)] * (2 * len(block))
    words[::2] = [next(floats) if c.dtype.kind == "f" else _BOOL_WORDS.take(c.astype(np.intp), axis=1)
                  if c.dtype.kind == "b" else _int_cells(c) for c in block]
    words[-1] = np.full_like(words[-1], _NEWLINE)
    return np.concatenate(words)


def _rows(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """Lines of ``columns`` as bytes, a block of rows at a time: ``%.12e``, ``%d`` and true/false cells."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        # the cell arrays are freed as _words returns; then one row-major copy, less its NUL padding
        yield _words([c[start : start + _BLOCK_ROWS] for c in columns]).T.tobytes().translate(None, b"\0")


def fmt_floats(values: Sequence[float]) -> str:
    """``",".join("%.12e" % v for v in values)``, through the table renderer."""
    return b"".join(_rows([np.asarray(values, dtype=float)]))[:-1].replace(b"\n", b",").decode()


def _csv(metadata: list[str], header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    yield "\n".join([*metadata, ",".join(header), ""]).encode()
    yield from _rows(columns)


def render_ppa_csv(
    trace: PpaTrace,
    sys: SpinSystem,
    field_scale: float,
    config_lines: Sequence[str],
    constants: PhysicalConstants = CODATA2018,
) -> Iterator[bytes]:
    bound = np.broadcast_to(shannon_bound(sys, field_scale, constants), len(trace.target_polarization))
    return _csv(
        metadata_lines("algorithmic cooling trace", config_lines, sys, constants),
        ("round", "eps_target", "eps_reset", "T_eff_K", "shannon_bound_eps"),
        (np.arange(len(bound)), trace.target_polarization, trace.reset_polarization,
         trace.target_effective_temperature, bound),
    )


def render_four_stroke_csv(
    table: SweepTable,
    config_lines: Sequence[str],
    sys: SpinSystem,
    constants: PhysicalConstants = CODATA2018,
) -> Iterator[bytes]:
    assert table.reference_reports is not None
    cols, ref = table.columns, table.reference_reports.columns
    return _csv(
        metadata_lines("four-stroke cycle sweep", config_lines, sys, constants),
        ("n", "Qin_J_per_mol", "Qout_J_per_mol", "W_J_per_mol", "P_W_per_mol", "P_iso_W_per_mol",
         "T_cold_K", "iso_dominates"),
        (*(cols[name] for name in ("n_rounds", "q_in", "q_out", "net_work", "power")),
         ref["power"], cols["cooled_target_temperature"], ref["power"] > cols["power"]),
    )


def render_two_stroke_csv(
    table: SweepTable,
    config_lines: Sequence[str],
    sys: SpinSystem,
    constants: PhysicalConstants = CODATA2018,
) -> Iterator[bytes]:
    cols = table.columns
    return _csv(
        metadata_lines("two-stroke cycle sweep", config_lines, sys, constants),
        ("omega_s_MHz", "n", "W_J_per_mol", "P_W_per_mol", "eta", "in_window"),
        (cols["omega_s"] / TWO_PI / 1e6,
         *(cols[name] for name in ("n_rounds", "net_work", "power", "efficiency", "in_window"))),
    )


def write_atomic(path: str | Path, blocks: Iterable[bytes]) -> None:
    """Write ``blocks`` to a sibling temp file, then rename: no reader sees partial or failed output.

    The temp file is created as ``open`` creates a file, mode 0o666 less the umask.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        # mkdir's reason for a regular file in place of the parent is "File exists"
        raise NotADirectoryError(errno.ENOTDIR, f"{path.parent} is not a directory") from None
    while True:
        tmp_name = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(blocks)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
