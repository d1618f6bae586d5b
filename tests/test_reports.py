"""The row renderers against the per-cell reference renderer, byte for byte."""

import math
import os
import stat
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import csv_reference
from spinotto import cli, engines, hbac, reports, thermal_marginal_polarization

RENDERERS = ("render_ppa_csv", "render_four_stroke_csv", "render_two_stroke_csv")

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


@pytest.fixture
def checked_renders(monkeypatch):
    """Render every CSV the CLI writes through the reference as well; keep the texts."""
    texts = []
    for name in RENDERERS:

        def both(*args, _new=getattr(reports, name), _reference=getattr(csv_reference, name)):
            rendered = text(_new(*args))
            assert rendered == _reference(*args)
            texts.append(rendered)
            return [rendered.encode()]

        monkeypatch.setattr(reports, name, both)
    return texts


@pytest.mark.parametrize(
    "args",
    [
        ["ppa", "--system", "tce", "--rounds", "7", "--field-scale", "0.5"],
        ["four-stroke", "--rounds", "0..10", "--tau", "0.1"],
        ["two-stroke", "--rounds", "1..8", "--omega-s", "150:1000:1"],
        ["ppa", "--rounds", "2000"],
    ],
    ids=["ppa", "four-stroke", "two-stroke", "ppa-2000-rounds"],
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


def awkward_column(shift, length):
    return np.roll(np.resize(np.array(AWKWARD), length), shift)


def test_ppa_awkward_cells_match_reference(tce):
    length = 3 * len(AWKWARD)
    trace = SimpleNamespace(
        target_polarization=awkward_column(0, length),
        reset_polarization=awkward_column(-5, length),
        target_effective_temperature=awkward_column(-9, length),
    )
    args = (trace, tce, 0.5, ["command=ppa"])
    assert text(reports.render_ppa_csv(*args)) == csv_reference.render_ppa_csv(*args)


def test_four_stroke_awkward_cells_match_reference(tce):
    length = 3 * len(AWKWARD)
    names = ("q_in", "q_out", "net_work", "power", "cooled_target_temperature")
    columns = {name: awkward_column(k, length) for k, name in enumerate(names)}
    columns["n_rounds"] = np.resize(np.array(LARGE_N), length)
    reference = SimpleNamespace(columns={"power": awkward_column(7, length)})
    table = SimpleNamespace(columns=columns, reference_reports=reference)
    args = (table, ["command=four-stroke"], tce)
    assert text(reports.render_four_stroke_csv(*args)) == csv_reference.render_four_stroke_csv(*args)


@pytest.mark.parametrize("tiled", [True, False], ids=["tiled-eta", "signed-zero-eta"])
def test_two_stroke_awkward_cells_match_reference(tiled, tce):
    omega_s = np.array(AWKWARD)
    points, blocks = len(omega_s), len(LARGE_N)
    block = awkward_column(3, points)
    if not tiled:
        # later blocks equal the first by value (no NaN) but flip the sign
        # of its zeros, so the first block's cells must not serve them
        block[np.isnan(block)] = 0.5
    efficiency = np.tile(block, blocks)
    if not tiled:
        efficiency[points:][efficiency[points:] == 0.0] *= -1.0
    length = points * blocks
    table = SimpleNamespace(
        axes={"n_rounds": tuple(LARGE_N), "omega_s": tuple(omega_s.tolist())},
        columns={
            "omega_s": np.tile(omega_s, blocks),
            "n_rounds": np.repeat(np.array(LARGE_N), points),
            "net_work": awkward_column(1, length),
            "power": awkward_column(2, length),
            "efficiency": efficiency,
            "in_window": np.resize([True, False, False], length),
        },
    )
    args = (table, ["command=two-stroke"], tce)
    assert text(reports.render_two_stroke_csv(*args)) == csv_reference.render_two_stroke_csv(*args)


def test_config_grid_line_matches_reference():
    grid = cli._parse_omega_grid("150:1000:1") + cli._parse_omega_grid("0.1:3:0.1")
    grid += (5e-324, 1.0000000000005, 9.9999999999995, 123456789012.5)
    config = cli.RunConfig(command="two-stroke", system_source="tce", rounds=(1,), omega_s_mhz=grid)
    assert config.canonical_lines()[-1] == csv_reference.canonical_omega_line(grid)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-less-one", "one-block", "block-plus-one"])
def test_tables_at_the_block_size_match_reference(offset, tce):
    rows = reports._BLOCK_ROWS + offset
    trace = hbac.run_ppa(thermal_marginal_polarization(tce, "C1", 0.5), tce, 0.5, rows - 1)
    grid = np.linspace(2 * math.pi * 150e6, 2 * math.pi * 1000e6, rows)
    table = engines.sweep_two_stroke(tce, grid, [3])
    renders = [
        (reports.render_ppa_csv, csv_reference.render_ppa_csv, (trace, tce, 0.5, ["command=ppa"])),
        (reports.render_two_stroke_csv, csv_reference.render_two_stroke_csv, (table, ["command=two-stroke"], tce)),
    ]
    for render, reference, args in renders:
        blocks = list(render(*args))
        # the header, then one block per _BLOCK_ROWS rows
        assert len(blocks) == 1 + (2 if offset > 0 else 1)
        assert text(blocks) == reference(*args)


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


def test_writing_a_long_table_holds_one_block_at_a_time(tce, tmp_path):
    rounds = 10**5
    run = hbac.run_ppa(thermal_marginal_polarization(tce, "C1", 0.5), tce, 0.5, 1000)
    # a 10^5-round trace, tiled from a real run to keep the test fast
    trace = SimpleNamespace(**{
        name: np.resize(getattr(run, name), rounds + 1)
        for name in ("target_polarization", "reset_polarization", "target_effective_temperature")
    })
    target = tmp_path / "ppa.csv"
    tracemalloc.start()
    try:
        reports.write_atomic(target, reports.render_ppa_csv(trace, tce, 0.5, ["command=ppa"]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    # measured: a peak of 2.3 MB, 0.29 of the 8.2 MB text (the round column is
    # 0.8 MB of it); a renderer that held the whole text would peak above its size
    assert peak < 0.4 * size
    lines = target.read_bytes().splitlines()
    assert len([line for line in lines if not line.startswith(b"#")]) == 1 + rounds + 1
    assert lines[-1].startswith(b"%d," % rounds)


def test_rendering_a_block_touches_little_fresh_memory(tce):
    """The paper's two-stroke table (851 frequencies x 8 round counts) rendered block by block."""
    table = engines.sweep_two_stroke(tce, 2 * math.pi * 1e6 * np.arange(150.0, 1001.0), range(1, 9))
    tracemalloc.start()
    try:
        for block in reports.render_two_stroke_csv(table, ["command=two-stroke"], tce):
            del block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: a peak of 576 kB for 2048-row blocks, against 1.68 MB when each
    # block held (4, columns, rows) float temporaries and a byte mask of its text
    assert peak < 720_000


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
