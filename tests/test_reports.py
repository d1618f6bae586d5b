"""The row renderers against the per-cell reference renderer, byte for byte."""

import argparse
import hashlib
import math
import os
import stat
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import csv_reference
from spinotto import cli, engines, hbac, reports, thermal_marginal_polarization

# the reference rendering of each subcommand's table, from the arguments and system it ran with
REFERENCES = {
    "ppa": lambda args, sys, table: csv_reference.render_ppa_csv(
        table, sys, args.field_scale, csv_reference.config_lines(args)
    ),
    "four-stroke": lambda args, sys, table: csv_reference.render_four_stroke_csv(
        table, csv_reference.config_lines(args), sys
    ),
    "two-stroke": lambda args, sys, table: csv_reference.render_two_stroke_csv(
        table, csv_reference.config_lines(args), sys
    ),
}

# signed zeros, the smallest subnormal, the largest float, non-finite
# values, and values whose 13th significant digit is a 5
AWKWARD = [
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    math.nan,
    math.inf,
    -math.inf,
    1.0000000000005,
    9.9999999999995,
    0.1234567890125,
    -2.5000000000005e-13,
    123456789012.5,
]
LARGE_N = [0, 1, 2**31, 2**62, 2**63 - 1]


def text(blocks):
    """The CSV text of a renderer's byte blocks."""
    return b"".join(blocks).decode()


def render(command, table, sys, config_lines, **args):
    """The CSV blocks of ``table`` through the ``command`` columns of ``cli._COMMANDS``, as ``cli.run`` renders them.

    ``args`` are the parsed arguments a derived column reads, such as ``field_scale``.
    """
    *_, title, schema = cli._COMMANDS[command]
    args = argparse.Namespace(**args)
    columns = [(h, table.columns[c] if isinstance(c, str) else c(table.columns, sys, args)) for h, c in schema]
    return reports.render_csv(title, columns, config_lines, sys)


@pytest.fixture
def checked_renders(monkeypatch):
    """The reference CSV text of every table the CLI computes, for the test to compare with the file it wrote."""
    texts = []
    for command, (help_text, options, run, title, schema) in list(cli._COMMANDS.items()):

        def recorded(args, system, _run=run, _reference=REFERENCES[command]):
            table, summary = _run(args, system)
            texts.append(_reference(args, system, table))
            return table, summary

        monkeypatch.setitem(cli._COMMANDS, command, (help_text, options, recorded, title, schema))
    return texts


@pytest.mark.parametrize(
    "args",
    [
        ["ppa", "--system", "tce", "--rounds", "7", "--field-scale", "0.5"],
        ["four-stroke", "--rounds", "0..10", "--tau", "0.1"],
        ["two-stroke", "--rounds", "1..8", "--omega-s", "150:1000:1"],
        ["ppa", "--rounds", "2000"],
        # a block spans many round counts
        ["two-stroke", "--rounds", "1..80", "--omega-s", "150:1000:50"],
        # one round count, 3001 frequencies across two blocks
        ["two-stroke", "--rounds", "3..3", "--omega-s", "150:3150:1"],
        # the one-cell bound column across three blocks
        ["ppa", "--rounds", "5000"],
    ],
    ids=["ppa", "four-stroke", "two-stroke", "ppa-2000-rounds", "two-stroke-80-rounds", "two-stroke-one-round",
         "ppa-5000-rounds"],
)
def test_cli_csv_matches_reference(args, checked_renders, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run([*args, "--out", "out.csv"]) == 0
    assert len(checked_renders) == 1
    assert (tmp_path / "out.csv").read_bytes() == checked_renders[0].encode()


@pytest.mark.parametrize(
    "args",
    [
        ["ppa", "--rounds", "9"],
        ["four-stroke", "--rounds", "0..12"],
        ["two-stroke", "--rounds", "0..5", "--omega-s", "100:900:7"],
    ],
    ids=["ppa", "four-stroke", "two-stroke"],
)
def test_h_first_register_matches_reference(
    args, h_first_config_text, checked_renders, tmp_path, monkeypatch, capsys
):
    config = tmp_path / "h_first.cfg"
    config.write_text(h_first_config_text)
    monkeypatch.chdir(tmp_path)
    assert cli.run([*args, "--system", str(config), "--out", "out.csv"]) == 0
    assert len(checked_renders) == 1
    assert (tmp_path / "out.csv").read_bytes() == checked_renders[0].encode()


def awkward_column(shift, length):
    return np.roll(np.resize(np.array(AWKWARD), length), shift)


def unchecked_table(shape, columns):
    """A table of columns at their own shapes that ``SweepTable`` would reject, such as non-finite cells."""
    return SimpleNamespace(columns=columns, column=lambda name: np.broadcast_to(columns[name], shape).reshape(-1))


def test_ppa_awkward_cells_match_reference(tce):
    length = 3 * len(AWKWARD)
    columns = {
        "n_rounds": np.arange(length),
        "eps_target": awkward_column(0, length),
        "eps_reset": awkward_column(-5, length),
        "T_eff": awkward_column(-9, length),
    }
    trace = unchecked_table((length,), columns)
    rendered = text(render("ppa", trace, tce, ["command=ppa"], field_scale=0.5))
    assert rendered == csv_reference.render_ppa_csv(trace, tce, 0.5, ["command=ppa"])


def test_four_stroke_awkward_cells_match_reference(tce):
    length = 3 * len(AWKWARD)
    names = ("q_in", "q_out", "net_work", "power", "cooled_target_temperature")
    columns = {name: awkward_column(k, length) for k, name in enumerate(names)}
    columns["n_rounds"] = np.resize(np.array(LARGE_N), length)
    columns["power_isochoric"] = awkward_column(7, length)
    columns["iso_dominates"] = columns["power_isochoric"] > columns["power"]
    table = unchecked_table((length,), columns)
    rendered = text(render("four-stroke", table, tce, ["command=four-stroke"]))
    assert rendered == csv_reference.render_four_stroke_csv(table, ["command=four-stroke"], tce)


@pytest.mark.parametrize("tiled", [True, False], ids=["tiled-eta", "signed-zero-eta"])
def test_two_stroke_awkward_cells_match_reference(tiled, tce):
    """Awkward cells in the per-frequency, per-round and full-size columns of one table.

    A tiled efficiency is the same for every round count, and is stored once per frequency.
    """
    omega_s = np.array(AWKWARD)
    points, blocks = len(omega_s), len(LARGE_N)
    efficiency = awkward_column(3, points)
    if not tiled:
        # a full-size column whose later round counts equal the first by value (no NaN)
        # but flip the sign of its zeros, so the first round count's cells must not serve them
        efficiency[np.isnan(efficiency)] = 0.5
        efficiency = np.tile(efficiency, (blocks, 1))
        efficiency[1:][efficiency[1:] == 0.0] *= -1.0
    shape = (blocks, points)
    columns = {
        "omega_s": omega_s,
        "n_rounds": np.array(LARGE_N)[:, None],
        "net_work": awkward_column(1, blocks * points).reshape(shape),
        "power": awkward_column(2, blocks * points).reshape(shape),
        "efficiency": efficiency,
        "in_window": np.resize([True, False, False], shape),
    }
    table = unchecked_table(shape, columns)
    rendered = text(render("two-stroke", table, tce, ["command=two-stroke"]))
    assert rendered == csv_reference.render_two_stroke_csv(table, ["command=two-stroke"], tce)


@pytest.mark.parametrize(
    "args,float_calls,int_calls",
    [
        (["ppa", "--system", "tce", "--rounds", "7", "--field-scale", "0.5"], 1, 1),
        (["four-stroke", "--rounds", "0..10", "--tau", "0.1"], 1, 1),
        # 6808 rows: one float call per block of rows, and the round counts in one int call
        (["two-stroke", "--rounds", "1..8", "--omega-s", "150:1000:1"], math.ceil(8 * 851 / reports._BLOCK_ROWS), 1),
    ],
    ids=["ppa", "four-stroke", "two-stroke"],
)
def test_readme_commands_make_no_extra_kernel_calls(args, float_calls, int_calls, tmp_path, monkeypatch, capsys):
    # a per-axis column formatted apart from the first block would add a call
    calls = []
    for name in ("_float_cells", "_int_cells"):
        kernel = getattr(reports, name)
        monkeypatch.setattr(reports, name, lambda x, _name=name, _kernel=kernel: calls.append(_name) or _kernel(x))
    monkeypatch.chdir(tmp_path)
    assert cli.run([*args, "--out", "out.csv"]) == 0
    assert (calls.count("_float_cells"), calls.count("_int_cells")) == (float_calls, int_calls)
    assert float_calls == 4 or args[0] != "two-stroke"


def test_config_grid_line_matches_reference():
    # parsed grids, and ends whose 13th digit is a 5, subnormal or at the float range's ends
    grids = [cli._parse_omega_grid("150:1000:1"), cli._parse_omega_grid("0.1:3:0.1"), np.array([2.0]),
             np.array([1.0000000000005, 9.9999999999995]), np.array([5e-324, 123456789012.5, 1.7976931348623157e308])]
    for grid in grids:
        args = argparse.Namespace(command="two-stroke", system="tce", rounds=range(1, 2), omega_s=grid)
        assert cli.canonical_lines(args) == csv_reference.config_lines(args)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-less-one", "one-block", "block-plus-one"])
def test_tables_at_the_block_size_match_reference(offset, tce):
    rows = reports._BLOCK_ROWS + offset
    trace = hbac.run_ppa(thermal_marginal_polarization(tce, "C1", 0.5), tce, 0.5, rows - 1)
    grid = np.linspace(2 * math.pi * 150e6, 2 * math.pi * 1000e6, rows)
    table = engines.sweep_two_stroke(tce, grid, [3])
    renders = [
        (render("ppa", trace, tce, ["command=ppa"], field_scale=0.5),
         csv_reference.render_ppa_csv(trace, tce, 0.5, ["command=ppa"])),
        (render("two-stroke", table, tce, ["command=two-stroke"]),
         csv_reference.render_two_stroke_csv(table, ["command=two-stroke"], tce)),
    ]
    for rendered, reference in renders:
        blocks = list(rendered)
        # the header, then one block per _BLOCK_ROWS rows
        assert len(blocks) == 1 + (2 if offset > 0 else 1)
        assert text(blocks) == reference


def failing_blocks():
    yield b"round,eps_target\n"
    raise RuntimeError("rendering failed")


@pytest.mark.parametrize("existing", [b"keep\n", None], ids=["existing-target", "missing-target"])
def test_failed_stream_leaves_the_target_as_it_was(existing, tmp_path):
    target = tmp_path / "out.csv"
    if existing is not None:
        target.write_bytes(existing)
    with pytest.raises(RuntimeError, match="rendering failed"):
        reports.write_atomic(target, failing_blocks())
    # no temp sibling remains, and the target keeps its bytes or stays missing
    assert list(tmp_path.iterdir()) == ([target] if existing is not None else [])
    if existing is not None:
        assert target.read_bytes() == existing


def test_a_failed_cleanup_keeps_the_first_error(tmp_path, monkeypatch):
    # the temp file cannot be removed either: the rendering error still propagates, not the OSError
    def refuse(path):
        raise PermissionError(path)

    monkeypatch.setattr(os, "unlink", refuse)
    with pytest.raises(RuntimeError, match="rendering failed"):
        reports.write_atomic(tmp_path / "out.csv", failing_blocks())
    [left] = tmp_path.iterdir()
    assert left.name.startswith(".out.csv.") and left.name.endswith(".tmp")
    assert left.read_bytes() == b"round,eps_target\n"


def test_many_blocks_keep_their_bytes(tmp_path, monkeypatch, capsys):
    # 100001 rows: 49 blocks, the last one short; the round column widens from one word to
    # two at 10**4, and the cooling powers underflow to zero from round 1075 on
    monkeypatch.chdir(tmp_path)
    assert cli.run(["ppa", "--rounds", "100000", "--out", "ppa.csv"]) == 0
    digest = hashlib.sha256((tmp_path / "ppa.csv").read_bytes()).hexdigest()
    assert digest == "aa3f0ce77591105acde28ba6d6e44c4d3e3473cf5c6e3c3e07d5ef411d57204c"
    assert math.ceil(100001 / reports._BLOCK_ROWS) == 49


@pytest.mark.parametrize(
    "args,rows,digest",
    [
        # the round column widens at 10**4 and again at 10**5, a block after the ppa table's
        (["four-stroke", "--rounds", "0..100000"], 100001,
         "1c909ebebc83d90742681ba4e1e0c6a0e977265f83bce75660da0037ff413906"),
        # 41 round counts x 2441 frequencies: the per-frequency columns move along the last
        # axis, the round column along the first, and most blocks straddle two round counts
        (["two-stroke", "--rounds", "0..40", "--omega-s", "150:2590:1"], 41 * 2441,
         "f82dd30c08c89b1e0992c42e6543a123cd9344753c073afb717e94711d38e04a"),
    ],
    ids=["four-stroke", "two-stroke"],
)
def test_long_tables_keep_their_bytes(args, rows, digest, tmp_path, monkeypatch, capsys):
    # with test_many_blocks_keep_their_bytes's ppa table, 49 blocks each
    monkeypatch.chdir(tmp_path)
    assert cli.run([*args, "--out", "out.csv"]) == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest
    assert math.ceil(rows / reports._BLOCK_ROWS) == 49


def test_writing_a_long_table_holds_one_block_at_a_time(tce, tmp_path):
    rounds = 10**5
    run = hbac.run_ppa(thermal_marginal_polarization(tce, "C1", 0.5), tce, 0.5, 1000)
    # a 10^5-round trace, tiled from a real run to keep the test fast
    columns = {name: np.resize(run.columns[name], rounds + 1) for name in ("eps_target", "eps_reset", "T_eff")}
    trace = hbac.SweepTable(("n_rounds",), "ppa", {"n_rounds": np.arange(rounds + 1), **columns})
    target = tmp_path / "ppa.csv"
    tracemalloc.start()
    try:
        reports.write_atomic(target, render("ppa", trace, tce, ["command=ppa"], field_scale=0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    # measured: a peak of 0.52 MB, 0.063 of the 8.2 MB text; a renderer that
    # held the whole text would peak above its size
    assert peak < 0.4 * size
    lines = target.read_bytes().splitlines()
    assert len([line for line in lines if not line.startswith(b"#")]) == 1 + rounds + 1
    assert lines[-1].startswith(b"%d," % rounds)


def test_rendering_a_block_touches_little_fresh_memory(tce):
    """The paper's two-stroke table (851 frequencies x 8 round counts) rendered block by block."""
    table = engines.sweep_two_stroke(tce, 2 * math.pi * 1e6 * np.arange(150.0, 1001.0), range(1, 9))
    config = cli.canonical_lines(cli._parse_args(["two-stroke"]))
    tracemalloc.start()
    try:
        for block in render("two-stroke", table, tce, config):
            del block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: a peak of 587 kB for 2048-row blocks that share one text buffer (556 kB
    # when each block made its text afresh), against 1.68 MB when each block held
    # (4, columns, rows) float temporaries and a byte mask of its text, and 709 kB
    # when the renderer kept its first block while it rendered the rest
    assert peak < 640_000


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_output_mode_follows_the_umask(umask, mode, tmp_path, monkeypatch, capsys):
    """The CSV gets the mode ``open`` would give it: 0o666 less the umask."""
    monkeypatch.chdir(tmp_path)
    previous = os.umask(umask)
    try:
        assert cli.run(["four-stroke", "--out", "x.csv"]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "x.csv").stat().st_mode) == mode
    assert list(tmp_path.iterdir()) == [tmp_path / "x.csv"]


BLOCKS = [b"a,b\n", b"1,2\n"]


@pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
@pytest.mark.parametrize(
    "target,tree",
    [
        ("out.csv", ["out.csv"]),
        ("new/deeper/out.csv", ["new", "new/deeper", "new/deeper/out.csv"]),
        # spelled as Path spells it: no "." parts, no trailing slash
        ("new/./out.csv/", ["new", "new/out.csv"]),
    ],
    ids=["bare-name", "new-parents", "dot-and-trailing-slash"],
)
def test_write_atomic_targets(kind, target, tree, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reports.write_atomic(kind(target), BLOCKS)
    assert (tmp_path / tree[-1]).read_bytes() == b"a,b\n1,2\n"
    # the target and the directories made for it, and no temp file
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == tree


@pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
def test_write_atomic_under_a_regular_file(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("keep\n")
    with pytest.raises(NotADirectoryError) as raised:
        reports.write_atomic(kind("taken/out.csv"), BLOCKS)
    assert raised.value.strerror == "taken is not a directory"
    assert list(tmp_path.iterdir()) == [tmp_path / "taken"]
    assert (tmp_path / "taken").read_text() == "keep\n"


@pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
def test_write_atomic_failure_leaves_no_temp_file(kind, tmp_path):
    with pytest.raises(RuntimeError, match="rendering failed"):
        reports.write_atomic(kind(tmp_path / "sub" / "out.csv"), failing_blocks())
    # the parent was made; the temp file is gone
    assert list(tmp_path.rglob("*")) == [tmp_path / "sub"]


@pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_write_atomic_mode_follows_the_umask(kind, umask, mode, tmp_path):
    previous = os.umask(umask)
    try:
        reports.write_atomic(kind(tmp_path / "out.csv"), BLOCKS)
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == mode


def test_taken_temp_name_is_left_alone(tmp_path, monkeypatch):
    """A sibling that already has the random temp name is not opened; the write takes another name."""
    names = iter([bytes(6), bytes(6), b"\1" * 6])
    monkeypatch.setattr(reports.os, "urandom", lambda n: next(names))
    taken = tmp_path / ".out.csv.000000000000.tmp"
    taken.write_bytes(b"not ours\n")
    reports.write_atomic(tmp_path / "out.csv", [b"a,b\n", b"1,2\n"])
    assert (tmp_path / "out.csv").read_bytes() == b"a,b\n1,2\n"
    assert taken.read_bytes() == b"not ours\n"
    assert sorted(tmp_path.iterdir()) == [taken, tmp_path / "out.csv"]
