"""Times spinotto CLI operations inside one fresh interpreter.

Run by ``run.py`` as ``python3 worker.py '<json spec>'``; prints one JSON
object on stdout.  Each operation is ``spinotto.cli.run(argv)`` writing
its CSV into a private directory; the worker keeps one copy of each
distinct output for ``run.py`` to check, so checking never runs inside
the timed process and adds nothing to its peak memory.

Modes:
  plain  runs operations until ``budget`` seconds have passed, one at least.
         The first is the cold one: the first call in the process.  A
         ``calibrate.Sampler`` times the reference loop throughout; each
         operation's wall and CPU time exclude the sampler's share, and
         ``scaled_s`` is its wall time scaled to the reference host.
  trace  alternates an untraced and a traced operation, starting untraced,
         until ``budget`` seconds have passed and one operation was traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def run_op(cli, argv: list[str], work_dir: Path, sampler=None) -> tuple[dict, str | None]:
    out = work_dir / "op.csv"
    sink = io.StringIO()
    error = None
    paused = (sampler.paused_s, sampler.paused_cpu_s) if sampler else (0.0, 0.0)
    start = time.perf_counter()
    cpu = time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # an operation that raises counts as failed
        code = None
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    wall = end - start
    cpu = time.process_time() - cpu
    if sampler is not None:
        wall -= sampler.paused_s - paused[0]
        cpu -= sampler.paused_cpu_s - paused[1]
    if error is None and code != 0:
        error = f"exit status {code}: {sink.getvalue().strip()[-300:]}"
    text = None
    if error is None:
        try:
            text = out.read_text()
        except OSError as exc:
            error = f"no output: {exc}"
    out.unlink(missing_ok=True)
    return {"wall_s": wall, "cpu_s": cpu, "span": (start, end), "error": error}, text


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from checks import data_rows, rows_digest

    import spinotto.cli as cli
    from calibrate import Sampler, reference_mean, scale

    out_dir = Path(spec["out_dir"])
    outputs: dict[str, str] = {}  # digest -> CSV text
    ops: list[dict] = []
    tracer = None
    traced_ops: list[dict] = []
    if spec["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()

    def one(kind: str) -> None:
        if kind == "traced":
            tracer.begin_op(len(ops))
            tracer.install()
        try:
            record, text = run_op(cli, spec["argv"], work_dir, sampler)
        finally:
            if kind == "traced":
                tracer.uninstall()
        record["kind"] = kind
        if text is not None:
            record["digest"] = rows_digest(text)
            record["rows"] = len(data_rows(text))
            outputs.setdefault(record["digest"], text)
        ops.append(record)
        if kind == "traced":
            traced_ops.append(
                {
                    "wall_s": record["wall_s"],
                    "self_total_s": tracer.self_total(),
                    "layers": tracer.layer_totals(),
                    "values": tracer.values(),
                }
            )

    sampler = Sampler() if tracer is None else None
    work_dir = Path(tempfile.mkdtemp(prefix="ops-", dir=out_dir))
    try:
        start = time.perf_counter()
        if sampler is not None:
            sampler.start()
            try:
                one("cold")
                while time.perf_counter() - start < spec["budget"]:
                    one("warm")
            finally:
                sampler.stop()
            for op in ops:
                near = sampler.around(*op.pop("span"))
                op["reference_s"] = reference_mean(near)
                op["scaled_s"] = scale(op["wall_s"], near)
        else:
            while not traced_ops or time.perf_counter() - start < spec["budget"]:
                one("untraced")
                one("traced")
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    files = {}
    for digest, text in outputs.items():
        path = out_dir / f"{digest.replace(':', '-')}.csv"
        path.write_text(text)
        files[digest] = str(path)
    if tracer is not None and spec.get("spans_file"):
        # spans of the last traced operation, written once measuring is over
        with open(spec["spans_file"], "w") as handle:
            json.dump({"fields": ["op", "layer", "start", "end", "parent", "self_s"], "spans": tracer.spans}, handle)

    import numpy

    print(
        json.dumps(
            {
                "ops": ops,
                "outputs": files,
                "peak_rss_mib": peak_rss_mib,
                "traced": traced_ops,
                "absent": tracer.absent if tracer is not None else [],
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
