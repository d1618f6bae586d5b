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

from .spinsys import AVOGADRO, HBAR, K_BOLTZMANN, SpinSystem


def fmt(value) -> str:
    """Deterministic cell formatting: 12-digit scientific for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12e")
    return str(value)


def config_hash(lines: Iterable[str]) -> str:
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"sha256:{digest[:16]}"


def metadata_lines(title: str, config_lines: Sequence[str], sys: SpinSystem) -> list[str]:
    lines = [f"# {title}", f"# config_hash={config_hash(config_lines)}"]
    lines += [f"# config: {line}" for line in config_lines]
    lines.append(
        f"# constants: hbar={fmt(HBAR)} J*s "
        f"k_boltzmann={fmt(K_BOLTZMANN)} J/K "
        f"avogadro={fmt(AVOGADRO)} 1/mol"
    )
    lines.append(f"# system: B={fmt(sys.b_field)} T, bath={fmt(sys.bath_temperature)} K")
    for q in sys.qubits:
        lines.append(
            f"# qubit {q.label}: role={q.role.value} gamma={fmt(q.gamma_over_2pi)} MHz/T "
            f"omega={fmt(sys.omega_mhz(q.label))} MHz t1={fmt(q.t1)} s"
        )
    for (a, b), j in sorted(sys.j_over_2pi.items()):
        lines.append(f"# J {a}-{b}: {fmt(j)} Hz")
    return lines


# Tables render in blocks of rows, each column as word-major arrays: a cell is up to five
# uint32 words of NUL-padded ASCII (two for a bool), and NUL never occurs in a CSV.  Every
# array a block makes lives only for that block, and each page the allocator has to fetch
# anew costs a minor fault, about 3 us on a 2-vCPU VM.  So a block works out its digits in
# place and copies its words once, row-major, for bytes.translate to drop the padding: a
# 2048-row block of the paper's two-stroke table peaks near 0.56 MiB.  Smaller blocks
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
# by exponent + 100: 10**(12 - exponent) correctly rounded for exponents -100..99, then NaN;
# and how far from a half the digit fraction must lie for the fast path (see _float_cells)
_POW10 = np.array([*(float("1e%d" % (12 - e)) for e in range(-100, 100)), math.nan])
_MARGINS = np.array([0.499 if 0 <= 12 - e <= 22 else 0.495 for e in range(-100, 101)])
_BOOL_WORDS = np.array([b"false", b"true"], "S8").view(np.uint32).reshape(2, 2).T.copy()
_COMMA, _NEWLINE = np.array([b",", b"\n"], "S4").view(np.uint32)


def _exact(cells, fast, x, spec: bytes):
    """Overwrite the cells of ``x`` that ``fast`` leaves out with Python's ``spec % value``."""
    if not fast.all():
        slow = np.flatnonzero(~fast)
        values = x.reshape(-1)[slow].tolist()
        cells.reshape(5, -1)[:, slow] = np.array([spec % v for v in values], "S20").view("u4").reshape(-1, 5).T
    return cells


@np.errstate(all="ignore")
def _float_cells(x: np.ndarray) -> np.ndarray:
    """``b"%.12e" % v`` of each value of a 2-D float64 array as five words: shape ``(5,) + x.shape``.

    The digits are ``m = |x| * 10**(12 - e)`` rounded, ``e`` from ``log10`` less 1e-12
    (never above the exponent, so ``m >= 1e12``).  A cell whose fraction ``m - rint(m)``
    lies within a window of one half could round wrongly, and takes the exact path.
    For ``0 <= 12 - e <= 22`` the scale ``10**(12 - e)`` is exact in binary64 (5**22 <
    2**53), so ``m`` carries one rounding, at most half an ulp: 2**-10 for ``m < 2**44``,
    which holds below the 1e13 the fast path allows.  A fraction more than 0.001 from
    one half then lies on the same side of it as the exact product, and the window
    is 0.001 (``_MARGINS``).  For other exponents the scale is rounded too; two
    roundings of 2**-53 leave ``m`` within 2.2e-3 of exact, and a window of 0.005
    keeps twice that margin.  A rounded ``m`` of exactly 1e13, from ``e`` one
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
    fast = np.abs(m - r) < _MARGINS.take(k, mode="clip")
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


def _format(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each 1-D array's cells as word-major rows, one kernel call per dtype: int64 and uint64 would join as float64."""
    cells = [_BOOL_WORDS.take(a.astype(np.intp), axis=1) if a.dtype.kind == "b" else None for a in arrays]
    for dtype in dict.fromkeys(a.dtype for a, c in zip(arrays, cells) if c is None):
        picked = [k for k, a in enumerate(arrays) if a.dtype == dtype]
        kernel, floats = (_float_cells, np.float64) if dtype.kind == "f" else (_int_cells, None)
        joined, stop = kernel(np.concatenate([arrays[k] for k in picked], dtype=floats)), 0
        for k in picked:
            start, stop = stop, stop + len(arrays[k])
            cells[k] = joined[:, start:stop]
    return cells


def _words(flat: Sequence[np.ndarray], small: dict, shape: tuple, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` as word-major rows: each column's cells, then a comma or, last, a newline.

    ``flat`` holds each column in row order.  ``small`` holds, for a column smaller than
    the table, its cells (None until the first block formats them) and its element step
    along each axis of the table, 0 where it is broadcast.  The block picks those cells
    by its rows' axis indices.
    """
    rows = stop - start
    full = [k for k in range(len(flat)) if k not in small]
    fresh = [k for k, (cells, _) in small.items() if cells is None]
    cells = _format([*(flat[k][start:stop] for k in full), *(flat[k] for k in fresh)])
    for k, column_cells in zip(fresh, cells[len(full) :]):
        # a copy, so that the block's cells are freed with the block
        small[k][0] = column_cells.copy()
    picked = dict(zip(full, cells))
    if small:
        axis_index = np.unravel_index(np.arange(start, stop), shape)
        for k, (column_cells, steps) in small.items():
            # a cell's flat index: each axis index times the column's step along it
            terms = [i if step == 1 else i * step for i, step in zip(axis_index, steps) if step]
            picked[k] = column_cells.take(sum(terms[1:], terms[0]) if terms else np.zeros(rows, np.intp), axis=1)
    words = [np.full((1, rows), _COMMA)] * (2 * len(flat))
    words[::2] = [picked[k] for k in range(len(flat))]
    words[-1] = np.full_like(words[-1], _NEWLINE)
    return np.concatenate(words)


def _rows(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """Lines of ``columns`` as bytes, a block of rows at a time: ``%.12e``, ``%d`` and true/false cells.

    The columns broadcast to the table's shape, whose rows run in row-major order.  A
    full-size column is sliced per block.  A smaller column, such as one value per
    frequency or one per round count, is formatted once, with the first block.  Each block
    makes one kernel call per dtype of its cells: for the CLI's tables, one ``_float_cells`` and one ``_int_cells``.
    """
    shape = np.broadcast(*columns).shape
    size = math.prod(shape)
    flat = [c.reshape(-1) for c in columns]
    small = {}
    for k, c in enumerate(flat):
        if c.size < size:
            dims = (1,) * (len(shape) - np.ndim(columns[k])) + np.shape(columns[k])
            # int8 elements make the strides the element steps
            steps = [step if n > 1 else 0 for n, step in zip(dims, np.empty(dims, np.int8).strides)]
            small[k] = [None, steps]
    for start in range(0, size, _BLOCK_ROWS):
        # the cell arrays are freed as _words returns; then one row-major copy, less its NUL padding
        yield _words(flat, small, shape, start, min(start + _BLOCK_ROWS, size)).T.tobytes().translate(None, b"\0")


def render_csv(title: str, columns: Sequence[tuple[str, np.ndarray]], config_lines: Sequence[str], sys: SpinSystem) -> Iterator[bytes]:
    """The CSV blocks of ``(header, values)`` pairs whose values broadcast to one table: metadata and header, then rows."""
    headers, values = zip(*columns)
    yield "\n".join([*metadata_lines(title, config_lines, sys), ",".join(headers), ""]).encode()
    yield from _rows(values)


def write_atomic(path: str | Path, blocks: Iterable[bytes]) -> None:
    """Write ``blocks`` to a sibling temp file, then rename: no reader sees partial or failed output.

    The temp file is created as ``open`` creates a file, mode 0o666 less the umask.
    """
    path = os.fspath(Path(path))  # spelled as Path spells it: no "." parts, no trailing slash
    parent, name = os.path.split(path)
    if parent and not os.path.isdir(parent):
        try:
            os.makedirs(parent, exist_ok=True)
        except FileExistsError:  # makedirs' reason for a regular file in place of the parent
            raise NotADirectoryError(errno.ENOTDIR, f"{parent} is not a directory") from None
    while True:
        tmp_name = os.path.join(parent, f".{name}.{os.urandom(6).hex()}.tmp")
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
