"""CSV rendering with reproducibility headers, and atomic file output.

Output files start with ``#``-prefixed metadata lines (a hash of the run
configuration, the physical constants, and the spin system) so every data
row can be traced back to its inputs.  No timestamps: identical inputs
must produce byte-identical files.
"""

import errno
import hashlib
import math
import os
from functools import reduce
from itertools import accumulate
from operator import add, sub
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .spinsys import AVOGADRO, HBAR, K_BOLTZMANN, SpinSystem


def fmt(value) -> str:
    """Deterministic text of a metadata or config value: 12-digit scientific for floats."""
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


# A table of more than _ROW_FORMAT_ROWS rows renders in blocks of rows.  A cell is up to five
# uint32 words of NUL-padded ASCII (two for a bool; a sixth for a float whose exact text needs
# it), and NUL never occurs in a CSV.
# A float or bool cell carries the comma before it in a spare byte of its own words, so a row
# of the paper's two-stroke table is 24 words, not 29.  A block lays its words out
# word-major, then copies them row-major into a text buffer that every block of the table
# reuses, so that a block does not fault in fresh pages, and bytearray.translate drops the
# padding.  Only the text buffer is kept: keeping the word-major array too would hold three
# block-sized arrays at once (test_rendering_a_block_touches_little_fresh_memory bounds the
# render of that table at 640,000 bytes under tracemalloc).
# Smaller blocks cost long tables more in per-call overhead than they save.
_BLOCK_ROWS = 1 << 11
# A shorter table is one block of one bytes % per row, which costs about 11-19 us plus 1.6-2.3 us
# a row against the kernels' 74-96 us plus 0.2-0.5 us a row: the row path is faster up to 35 rows
# of the four-stroke schema, 50 of the two-stroke and 56 of the ppa (each path timed on 8 to 64
# rows of each schema, interleaved, best of 20 samples of 100 renders, on 2 shared CPUs).
_ROW_FORMAT_ROWS = 32
# a short table's cell spec by dtype kind, and its bool cells' texts
_ROW_SPECS = {"f": b"%.12e", "i": b"%d", "u": b"%d", "b": b"%s"}
_BOOL_TEXT = (b"false", b"true")
# ASCII digit j of each k < 10**4 in row j, then with NUL for leading zeros but the last
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(ord("0"))
_TRIMMED = np.where(np.arange(10**4) < np.array([[1000], [100], [10], [0]]), 0, _DIGITS)
# words: k < 10**4 trimmed, then zero-padded, then a float's lead word (",", sign, digit, "."), then "e+07"
_WORDS = np.concatenate([
    np.concatenate([_TRIMMED.T, _DIGITS.T]).copy().view(np.uint32).ravel(),
    np.array([b",%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)]).view(np.uint32),
    np.array([b"e%+03d" % e for e in range(-100, 101)], "S4").view(np.uint32),
])
_PADDED, _LEADS, _EXPONENTS = _WORDS[10**4 :], _WORDS[2 * 10**4 :], _WORDS[2 * 10**4 + 20 :]
# by exponent + 100: 10**(12 - exponent) correctly rounded for exponents -100..99, then NaN;
# and how far from a half the digit fraction must lie for the fast path (see _float_cells)
_POW10 = np.array([*(float("1e%d" % (12 - e)) for e in range(-100, 100)), math.nan])
_MARGINS = np.array([0.499 if 0 <= 12 - e <= 22 else 0.495 for e in range(-100, 101)])
# false and true as two words each, by (comma before, newline after)
_BOOL_WORDS = {
    (comma, newline): np.array([b"," * comma + text + b"\n" * newline for text in _BOOL_TEXT], "S8")
    .view(np.uint32).reshape(2, 2).T.copy()
    for comma in (False, True) for newline in (False, True)
}
_COMMA, _NEWLINE = np.array([b",", b"\n"], "S4").view(np.uint32)
# ANDed into a float's first word, drops its comma
_UNLED = np.array([b"\0\xff\xff\xff"]).view(np.uint32)


def _exact(cells, fast, x, spec: bytes):
    """Overwrite the cells of ``x`` that ``fast`` leaves out with Python's ``spec % value``.

    A text longer than the cells' words, such as ``",-1.000000000000e-100"`` in five,
    widens every cell by NUL words.
    """
    if not fast.all():
        slow = np.flatnonzero(~fast)
        texts = [spec % v for v in x.reshape(-1)[slow].tolist()]
        words = max(len(cells), -(-max(map(len, texts)) // 4))
        if words > len(cells):
            cells = np.concatenate([cells, np.zeros((words - len(cells),) + cells.shape[1:], np.uint32)])
        cells.reshape(words, -1)[:, slow] = np.array(texts, f"S{4 * words}").view("u4").reshape(-1, words).T
    return cells


@np.errstate(all="ignore")
def _float_cells(x: np.ndarray) -> np.ndarray:
    """``b",%.12e" % v`` of each value of a float64 array as five words: shape ``(5,) + x.shape``.

    The comma is the first byte of the first word; ``_UNLED`` drops it.  A negative
    value with a three-digit exponent takes 21 bytes, and a sixth word (see ``_exact``).

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
    # four arrays of x's size, each reused: a holds r, s holds m, then |m - r|
    a = np.abs(x)
    s = np.log10(a)
    s += 100 - 1e-12
    k = s.astype(np.intp)
    # every take clips, not wraps: an exact-path cell's index may lie far out (INT_MIN for zero,
    # NaN and inf), and numpy's "wrap" takes time linear in |index| / table size
    m = np.multiply(a, _POW10.take(k, out=s, mode="clip"), out=s)
    r = np.rint(m, out=a)
    m -= r
    fast = np.abs(m, out=m) < _MARGINS.take(k, mode="clip")
    carry = r == 1e13
    r[carry] = 1e12
    k += carry
    # two-digit exponents only, and no m of more than 1e13
    fast &= (k >= 1) & (k <= 199) & (r < 1e13)
    r += 1e13 * (x < 0)  # a 14th digit: the lead word of a negative value
    cells = np.empty((5,) + x.shape, np.uint32)
    _EXPONENTS.take(k, out=cells[4], mode="clip")
    # four-digit groups from the last, as integers in k, then in m and r reused
    digits, quotient, scratch = k, m.view(np.intp), r.view(np.intp)
    np.copyto(digits, r, casting="unsafe")
    for group in (3, 2, 1):
        np.floor_divide(digits, 10**4, out=quotient)
        digits -= np.multiply(quotient, 10**4, out=scratch)
        _PADDED.take(digits, out=cells[group], mode="clip")
        digits, quotient = quotient, digits
    _LEADS.take(digits, out=cells[0], mode="clip")
    return _exact(cells, fast, x, b",%.12e")


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``b"%d" % v`` of each integer as up to five words; the exact path takes v outside [0, 1e8)."""
    high, low = np.divmod(v, 10**4)
    # clipped as in _float_cells: a big int's high part is a far-out index
    cells = np.zeros((5,) + v.shape, np.uint32)
    # no high word below 1e4; after one, the low word keeps its leading zeros
    np.multiply(_WORDS.take(high, mode="clip"), high > 0, out=cells[3])
    _WORDS.take(np.minimum(v, low + 10**4), out=cells[4], mode="clip")
    cells = _exact(cells, v.astype(np.uint64) < 10**8, v, b"%d")
    # less the leading words that are NUL in every row
    return cells[cells.any(axis=1).argmax() :]


def _row_text(columns: Sequence[np.ndarray], shape: tuple[int, ...]) -> bytes:
    """The lines of a short table, one bytes ``%`` per row."""
    size = math.prod(shape)
    spec = b",".join(_ROW_SPECS[c.dtype.kind] for c in columns) + b"\n"
    # a full column is in row order already, and np.broadcast_to costs about 5 us a call
    cells = [(c if c.size == size else np.broadcast_to(c, shape)).reshape(-1).tolist() for c in columns]
    cells = [list(map(_BOOL_TEXT.__getitem__, v)) if c.dtype.kind == "b" else v for c, v in zip(columns, cells)]
    return b"".join(map(spec.__mod__, zip(*cells)))


def _rows(columns: Sequence[np.ndarray]) -> Iterator[bytes | bytearray]:
    """Lines of ``columns`` as bytes, a block of rows at a time: ``%.12e``, ``%d`` and true/false cells.

    A table of at most ``_ROW_FORMAT_ROWS`` rows is one block of one bytes ``%`` per row
    (``_row_text``); a longer one goes through the kernels as follows, to the same bytes.

    The columns broadcast to the table's shape, whose rows run in row-major order.  A
    full-size column is sliced per block.  A smaller column, such as one value per
    frequency or one per round count, is formatted once, with the first block, and each
    block picks its cells by its rows' axis indices.  Each block makes one kernel call
    per dtype of its int and float cells, its full columns' rows side by side and, in the
    first block, the smaller columns after them: for the CLI's tables, one
    ``_float_cells`` and one ``_int_cells``.  int64 and uint64 would join as float64, so
    each dtype has its own call.

    A float or bool cell carries the comma before it, and a bool the newline after it
    when it ends the row; an int cell has a comma word before it, and a row that does
    not end in a bool a newline word.  A block maps each column to its word-major cells
    and writes them at the column's first word, then copies the block row-major into a
    buffer that every block of the table reuses, for ``bytearray.translate`` to drop the
    NUL padding.
    """
    shape = np.broadcast(*columns).shape
    size = math.prod(shape)
    if size <= _ROW_FORMAT_ROWS:
        if size:
            yield _row_text(columns, shape)
        return
    flat = [c.reshape(-1) for c in columns]
    kinds = [c.dtype.kind for c in flat]
    last = len(flat) - 1
    # by column: a smaller column's step along each axis, a full bool column's word table and a
    # smaller column's cells; by dtype: the full and the smaller columns of one kernel call
    small, bools, fixed, calls = {}, {}, {}, {}
    for k, c in enumerate(flat):
        if c.size < size:
            dims = (1,) * (len(shape) - np.ndim(columns[k])) + np.shape(columns[k])
            # int8 elements make the strides the element steps
            small[k] = [step if n > 1 else 0 for n, step in zip(dims, np.empty(dims, np.int8).strides)]
        if kinds[k] == "b":
            words = _BOOL_WORDS[k > 0, k == last]
            if k in small:
                fixed[k] = words.take(c, axis=1)
            else:
                bools[k] = words
        else:
            calls.setdefault(c.dtype, ([], []))[k in small].append(k)
    # a comma word before each int cell but column 0's, and a newline word unless a bool ends the row
    separated = [k > 0 and kind in "iu" for k, kind in enumerate(kinds)] + [kinds[last] != "b"]
    # the axes along which a small column moves
    axes = sorted({a for steps in small.values() for a, step in enumerate(steps) if step})
    widths = None
    for start in range(0, size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, size)
        rows = stop - start
        cells, joined = {**bools, **fixed}, None
        for dtype, (part, smaller) in calls.items():
            fresh = smaller if start == 0 else []
            if not part and not fresh:
                continue
            arrays = [flat[k][start:stop] for k in part] + [flat[k] for k in fresh]
            floats = dtype.kind == "f"
            joined = (_float_cells if floats else _int_cells)(np.concatenate(arrays, dtype=np.float64 if floats else None))
            offsets = list(accumulate(map(len, arrays), initial=0))
            for k, begin, end in zip(part + fresh, offsets, offsets[1:]):
                cells[k] = joined[:, begin:end]
            for k in fresh:
                # a copy, so that the block's cells are freed with the block
                cells[k] = fixed[k] = cells[k].copy()
        if [len(cells[k]) for k in range(len(flat))] != widths:
            # the first block, or a cell width changed, as an int column's does at 10**4
            widths = [len(cells[k]) for k in range(len(flat))]
            ends = list(accumulate(map(add, separated, widths)))
            starts = list(map(sub, ends, widths))
            width = ends[-1] + separated[-1]
            buffer = None
        block = np.empty((width, rows), np.uint32)
        if separated[-1]:
            block[-1] = _NEWLINE
        axis_index = [None] * len(shape)
        row = np.arange(start, stop) if axes else None
        for a in axes:
            # the rows' index along axis a, as np.unravel_index gives it, for the axes in use only
            along = row // math.prod(shape[a + 1 :]) if a < len(shape) - 1 else row
            axis_index[a] = along % shape[a] if a else along
        for k, column_cells in cells.items():
            at = starts[k]
            words = block[at : at + len(column_cells)]
            if separated[k]:
                block[at - 1] = _COMMA
            # every index is in range: "wrap" skips the bounds check, which also copies through a buffer
            if k in bools:
                column_cells.take(flat[k][start:stop], axis=1, out=words, mode="wrap")
            elif any(small.get(k, ())):
                # a cell's flat index: each axis index times the column's step along it
                terms = (i if step == 1 else i * step for i, step in zip(axis_index, small[k]) if step)
                column_cells.take(reduce(add, terms), axis=1, out=words, mode="wrap")
            else:
                words[...] = column_cells
        # the cells, and the loop's views of them and of the block, go before the buffer is made
        del cells, joined, column_cells, words
        if kinds[0] == "f":
            # the row's first cell has no comma before it
            block[0] &= _UNLED
        if buffer is None:
            # made once the block's cells are freed: the text of every block with these widths
            buffer = bytearray(4 * width * min(size, _BLOCK_ROWS))
        np.ndarray((rows, width), np.uint32, buffer)[...] = block.T
        del block
        n = 4 * width * rows
        # the block's text: its words less their NUL padding
        yield (buffer if n == len(buffer) else buffer[:n]).translate(None, b"\0")


def render_csv(title: str, columns: Sequence[tuple[str, np.ndarray]], config_lines: Sequence[str], sys: SpinSystem) -> Iterator[bytes | bytearray]:
    """The CSV blocks of ``(header, values)`` pairs whose values broadcast to one table: metadata and header, then rows."""
    headers, values = zip(*columns)
    yield "\n".join([*metadata_lines(title, config_lines, sys), ",".join(headers), ""]).encode()
    yield from _rows(values)


def write_atomic(path: str | Path, blocks: Iterable[bytes]) -> None:
    """Write ``blocks`` to a sibling temp file, then rename: no reader sees partial or failed output.

    The temp file is created as ``open`` creates a file, mode 0o666 less the umask.  Missing
    parent directories are made, and only looked for when the temp file cannot be created.
    """
    # spelled as Path spells it: no "." parts, no trailing slash (a Path is already)
    path = os.fspath(path if isinstance(path, Path) else Path(path))
    parent, name = os.path.split(path)
    while True:
        tmp_name = os.path.join(parent, f".{name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except (FileNotFoundError, NotADirectoryError):  # no parent directory: make it, or say why not
            if not parent or os.path.isdir(parent):
                raise
            try:
                os.makedirs(parent, exist_ok=True)
            except FileExistsError:  # makedirs' reason for a regular file in place of the parent
                raise NotADirectoryError(errno.ENOTDIR, f"{parent} is not a directory") from None
    try:
        try:
            for block in blocks:
                written = os.write(fd, block)
                while written < len(block):  # a short write: write the rest
                    written += os.write(fd, memoryview(block)[written:])
                # freed before the renderer makes the next block, which can then reuse its pages
                del block
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
