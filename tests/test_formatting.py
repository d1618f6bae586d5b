"""The columnar cell formatter against Python's own ``%`` formatting, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinotto import cli, engines, reports
from test_reports import render

# a fixed, small example budget keeps the whole file at about a second
SETTINGS = settings(derandomize=True, database=None, max_examples=120, deadline=None)


def as_floats(bits):
    """64-bit patterns reinterpreted as float64: every sign, exponent and mantissa."""
    return np.array(bits, dtype=np.uint64).view(np.float64)


def expected(values):
    return "".join("%.12e\n" % v for v in values.tolist())


def assert_same_text(blocks, want):
    """Name the first differing lines; a diff of the whole text would take minutes."""
    got = b"".join(blocks).decode()
    wrong = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
    assert (wrong[:5], len(got)) == ([], len(want))


def ulps_around(value, count):
    """``value`` and the ``count`` floats on either side of it."""
    below = above = value
    out = [value]
    for _ in range(count):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


def edge_values():
    powers = [float("1e%d" % k) for k in range(-307, 309)]
    near_powers = [v for p in powers for v in ulps_around(p, 3)]
    # 14-digit integers whose last digit is an exact tie at 13 digits
    ties = [float(10**13 + 10 * i + 5) for i in [*range(1000), *range(10**3, 9 * 10**12, 10**10 + 7)]]
    scaled_ties = [t * 2.0**-20 for t in ties]
    # the same ties written in decimal: the nearest float lies within about
    # 1e-3 of the tie in the last digit, on either side
    decimal_ties = [float("%.13fe%d" % (t / 1e13, k)) for t in ties for k in range(-290, 291, 29)]
    # the largest 13-digit mantissa, where rounding carries into the exponent
    carries = [v for k in range(-300, 300) for v in ulps_around(float("9.9999999999995e%d" % k), 3)]
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]
    # fractions on both sides of both exact-path windows, 0.001 and 0.005, in both exponent classes
    windows = [d for w in (0.001, 0.005) for d in (w - 2e-4, w, w + 2e-4)]
    return np.array(near_powers + ties + scaled_ties + decimal_ties + carries + specials
                    + near_ties(range(-40, 41), windows, count=12))


def near_ties(exponents, distances, count):
    """Values whose 13-digit mantissa lies ``distance`` from a rounding tie, above and below.

    Decimal strings, so the tie is exact before the float rounds it.
    """
    rng = np.random.default_rng(11)
    mantissas = rng.integers(10**12, 10**13, count).tolist()
    return [
        float("%d.%de%d" % (n, 5000000 + sign * round(d * 1e7), e - 12))
        for e in exponents for d in distances for sign in (-1, 1) for n in mantissas
    ]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_edge_values_match_python(sign):
    values = sign * edge_values()
    assert_same_text(reports._rows([values]), expected(values))


# powers of ten, values that carry into the next exponent, 13th digits at a half, and any magnitude in 1e-320..1e308
DECIMAL_FLOATS = st.one_of(
    st.integers(-320, 308).map(lambda k: float("1e%d" % k)),
    st.integers(-300, 299).map(lambda k: float("9.9999999999995e%d" % k)),
    st.tuples(st.integers(10**12, 10**13 - 1), st.integers(-290, 290)).map(lambda t: float("%d.5e%d" % t)),
    st.floats(min_value=1e-320, max_value=1e308),
)


@SETTINGS
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.lists(DECIMAL_FLOATS, max_size=30))
@example([0x7FF8000000000001, 0xFFF8000000000000, 0x8000000000000001], [])
# a parsed grid, then the smallest subnormal, a three-digit exponent, a negative and a carry
@example([0], [*cli._parse_omega_grid("0.1:3:0.1").tolist(), 5e-324, 1e100, -2.5, 9.9999999999995])
def test_any_bit_pattern_matches_python(bits, floats):
    values = np.concatenate([as_floats(bits), floats])
    assert_same_text(reports._rows([values]), expected(values))


@SETTINGS
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
@example([0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, -1, -7, 2**40, -(2**63)])
def test_any_int64_matches_python(ints):
    values = np.array(ints, dtype=np.int64)
    assert_same_text(reports._rows([values]), "".join("%d\n" % n for n in ints))


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.booleans()), min_size=1, max_size=40))
def test_mixed_rows_match_python(rows):
    bits, ints, flags = zip(*rows)
    floats = as_floats(bits)
    columns = [floats, np.array(ints), floats[::-1].copy(), np.array(flags)]
    lines = zip(floats.tolist(), ints, floats[::-1].tolist(), flags)
    want = "".join("%.12e,%d,%.12e,%s\n" % (a, n, b, "true" if f else "false") for a, n, b, f in lines)
    assert_same_text(reports._rows(columns), want)


def test_most_cells_take_the_vectorised_path(monkeypatch):
    """Only cells near a rounding tie, or with extreme exponents, go through Python."""
    exact = []

    def counting(cells, fast, values, spec):
        exact.append(int(fast.size - fast.sum()))
        return original(cells, fast, values, spec)

    original = reports._exact
    monkeypatch.setattr(reports, "_exact", counting)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(10**4) * 10.0 ** rng.integers(-40, 40, 10**4)
    assert_same_text(reports._rows([values]), expected(values))
    # a fraction within 0.005 of one half, or 0.001 for exponents -10..12: 78 of these 10^4 cells
    assert 0 < sum(exact) <= 0.015 * values.size


def test_near_ties_take_the_path_their_exponent_allows(monkeypatch):
    """Where ``10**(12 - e)`` is exact the window is 0.001, elsewhere 0.005.

    The float's own rounding moves a decimal fraction by up to 0.0011, and the
    product by up to 0.001 or 0.0022 more.  So a fraction 0.004 from one half
    takes the vectorised path for exponents -10..12, and one 0.0005 from one
    half takes the exact path for the others.
    """
    exact = []

    def counting(cells, fast, values, spec):
        exact.extend(values.reshape(-1)[~fast.reshape(-1)].tolist())
        return original(cells, fast, values, spec)

    original = reports._exact
    monkeypatch.setattr(reports, "_exact", counting)
    scale_exact, scale_rounded = range(-10, 13), [*range(-99, -10), *range(13, 100)]
    wide = near_ties(scale_exact, [0.004], count=20)
    narrow = near_ties(scale_rounded, [0.0005], count=4)
    values = np.array(wide + narrow)
    assert_same_text(reports._rows([values]), expected(values))
    assert sorted(exact) == sorted(narrow)


def test_paper_table_sends_few_cells_to_the_exact_path(tce, monkeypatch):
    """The paper's two-stroke table, 851 frequencies x 8 round counts, as the CLI renders it."""
    exact = []

    def counting(cells, fast, values, spec):
        exact.append(int(fast.size - fast.sum()))
        return original(cells, fast, values, spec)

    original = reports._exact
    monkeypatch.setattr(reports, "_exact", counting)
    table = engines.sweep_two_stroke(tce, 2 * math.pi * 1e6 * np.arange(150.0, 1001.0), range(1, 9))
    for _ in render("two-stroke", table, tce, ["command=two-stroke"]):
        pass
    # measured: 32 cells, against 205 when the frequency and efficiency cells
    # were formatted once per row and every exponent had the 0.005 window
    assert sum(exact) <= 40


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_powers_of_ten_take_the_vectorised_path(sign, monkeypatch):
    """Every exact power of ten with a two-digit exponent, and the carries just below one.

    ``log10`` less 1e-12 puts an exact power one exponent low, so its rounded
    mantissa is 1e13; such a cell is 1e12 at the next exponent.
    """
    exact = []

    def counting(cells, fast, values, spec):
        exact.append(values[~fast].tolist())
        return original(cells, fast, values, spec)

    original = reports._exact
    monkeypatch.setattr(reports, "_exact", counting)
    powers = [float("1e%d" % k) for k in range(-99, 100)]
    carries = [float("9.99999999999995e%d" % k) for k in range(-100, 99)]
    values = sign * np.array(powers + carries)
    assert_same_text(reports._rows([values]), expected(values))
    assert sum(map(len, exact)) == 0


def test_rows_span_several_blocks(monkeypatch):
    monkeypatch.setattr(reports, "_BLOCK_ROWS", 7)
    values = np.linspace(-3.0, 3.0, 50)
    lines = [b"%d,%.12e\n" % pair for pair in zip(range(50), values.tolist())]
    # one block of bytes per 7 rows, the last one short
    want = [b"".join(lines[start : start + 7]) for start in range(0, 50, 7)]
    assert list(reports._rows([np.arange(50), values])) == want


@pytest.mark.parametrize("first", ["float", "int", "bool"])
def test_cell_widths_change_between_blocks(first, monkeypatch):
    """Blocks share one text buffer, laid out again when a cell width changes.

    A negative value with a three-digit exponent and the comma before it take 21
    bytes, so that block's float cells are six words wide; an int column widens at 10**4.
    """
    monkeypatch.setattr(reports, "_BLOCK_ROWS", 4)
    rows = 18  # blocks of 4, 4, 4, 4 and 2 rows
    floats = np.linspace(-2.0, 3.0, rows)
    floats[[5, 13]] = [-1.5e-150, -2.5e200]
    ints = np.array([9] * 8 + [10**4, 12] + [123456] * 8)
    flags = np.arange(rows) % 3 == 0
    lead = {"float": floats[::-1].copy(), "int": ints[::-1].copy(), "bool": ~flags}[first]
    columns = [lead, floats, ints, flags, floats * 1e-3]
    texts = [[b"%.12e" % v if isinstance(v, float) else (b"true" if v else b"false") if isinstance(v, bool) else b"%d" % v
              for v in row] for row in zip(*(c.tolist() for c in columns))]
    lines = [b",".join(row) + b"\n" for row in texts]
    want = [b"".join(lines[start : start + 4]) for start in range(0, rows, 4)]
    blocks = list(reports._rows(columns))
    assert blocks == want
    # every block is its own object: a later block does not write into an earlier one
    assert len({id(block) for block in blocks}) == len(blocks)


def test_small_columns_of_a_three_axis_table(monkeypatch):
    """A column smaller than the table picks its cells by the rows' index along each axis it spans."""
    monkeypatch.setattr(reports, "_BLOCK_ROWS", 5)
    shape = (2, 3, 4)
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(dims) for dims in [(2, 1, 1), (1, 3, 1), (1, 1, 4), (2, 3, 1), (1, 3, 4), (2, 1, 4), shape]]
    columns += [np.arange(3).reshape(3, 1) * 7, np.float64(2.5), rng.random((1, 3, 1)) < 0.5]
    rows = zip(*(np.broadcast_to(c, shape).reshape(-1).tolist() for c in columns))
    want = "".join(",".join("%.12e" % v if isinstance(v, float) else ("true" if v else "false") if isinstance(v, bool) else "%d" % v
                            for v in row) + "\n" for row in rows)
    assert_same_text(reports._rows(columns), want)


def test_exact_cells_in_every_column_and_block(monkeypatch):
    """Exact-path cells are patched in by flat index: every float and int column of every block has some."""
    monkeypatch.setattr(reports, "_BLOCK_ROWS", 6)
    rows = 21  # blocks of 6, 6, 6 and 3 rows
    special_floats = [
        float("1.2345678901235e7"), float("-1.0000000000005e-7"),  # decimal ties in the 13th digit
        5e-324, -2.5e-310,  # subnormal
        1.5e100, -1e-150, 9.99999999999995e99,  # three-digit exponents, the last one by a carry
        0.0, -0.0, math.nan, math.inf, -math.inf,
    ]
    special_ints = [10**8, -1, 2**63 - 1, -(2**63), 123456789, -10**4]
    rng = np.random.default_rng(7)

    def column(position, specials, ordinary):
        slots = [row for row in range(rows) if (row + position) % 3 == 0]
        ordinary[slots] = [specials[(position + i) % len(specials)] for i in range(len(slots))]
        return ordinary

    columns = [
        column(position, special_floats, rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows))
        if kind == "f" else column(position, special_ints, rng.integers(0, 10**6, rows))
        if kind == "i" else rng.random(rows) < 0.5
        for position, kind in enumerate("fibfif")
    ]
    slow = []

    def counting(cells, fast, values, spec):
        # a block's columns of one kind go through one call, one after another
        slow.append((spec, (~fast).reshape(3 if spec == b",%.12e" else 2, -1).any(axis=-1).tolist()))
        return original(cells, fast, values, spec)

    original = reports._exact
    monkeypatch.setattr(reports, "_exact", counting)
    lines = [
        b",".join(b"%.12e" % v if isinstance(v, float) else (b"true" if v else b"false")
                  if isinstance(v, bool) else b"%d" % v for v in row) + b"\n"
        for row in zip(*(c.tolist() for c in columns))
    ]
    want = [b"".join(lines[start : start + 6]) for start in range(0, rows, 6)]
    assert list(reports._rows(columns)) == want
    # per block: one call for the three float columns, then one for the two int columns
    assert slow == [(b",%.12e", [True] * 3), (b"%d", [True] * 2)] * 4


def test_renders_without_numpy_string_api(monkeypatch, tmp_path, capsys):
    """numpy before 2.0 has neither ``np.strings`` nor ``StringDType``; no table may need them."""
    monkeypatch.chdir(tmp_path)
    commands = {
        "ppa": ["ppa", "--rounds", "12"],
        "four": ["four-stroke", "--rounds", "0..10"],
        "two": ["two-stroke", "--rounds", "0..3", "--omega-s", "100:900:7"],
    }
    for name, args in commands.items():
        assert cli.run([*args, "--out", f"{name}.csv"]) == 0
    before = {name: (tmp_path / f"{name}.csv").read_bytes() for name in commands}
    monkeypatch.delattr(np, "strings", raising=False)
    if hasattr(np, "dtypes"):
        monkeypatch.delattr(np.dtypes, "StringDType", raising=False)
    for name, args in commands.items():
        assert cli.run([*args, "--out", f"{name}.csv"]) == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == before[name]


def test_columns_of_different_dtypes():
    # int64 and uint64 cells would concatenate to float64, and float32 values print as Python prints them
    columns = [np.array([1, -2]), np.array([2**64 - 1, 3], np.uint64), np.array([0.1, 2.5], np.float32), np.arange(2.0)]
    want = "".join("%d,%d,%.12e,%.12e\n" % row for row in zip(*(c.tolist() for c in columns)))
    assert_same_text(reports._rows(columns), want)
