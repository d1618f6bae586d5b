"""Spans and counters around spinotto's public functions, installed from outside.

``from .x import y`` copies the name ``y`` into the importing module, so
wrapping a function means rebinding every module-level name that refers
to it.  A target that no longer exists (a renamed or deleted function)
is recorded as absent and counts 0 calls; the benchmark keeps running.

Self time of a span is its duration minus the durations of its direct
child spans, so the self times of one operation sum to the duration of
its root span.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# layer name -> (module, attribute path) of every function it wraps
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "spinsys.load_system": (("spinotto.spinsys", "load_system"),),
    # each DensityMatrix construction validates the state, eigvalsh included
    "qmath.DensityMatrix": (("spinotto.qmath", "DensityMatrix.__post_init__"),),
    "qmath.partial_trace": (("spinotto.qmath", "partial_trace"),),
    "qmath.product_state": (("spinotto.qmath", "product_state"),),
    "gates.apply": (("spinotto.gates", "apply"),),
    "gates.reset_channel": (("spinotto.gates", "reset_channel"),),
    "gates.gate_builds": (("spinotto.gates", "swap_unitary"), ("spinotto.gates", "comp_unitary")),
    "hbac.run_ppa": (("spinotto.hbac", "run_ppa"),),
    "hbac.ppa_round": (("spinotto.hbac", "ppa_round"),),
    "adiabatic.evolve_stroke": (("spinotto.adiabatic", "evolve_stroke"),),
    "engines.sweep_four_stroke": (("spinotto.engines", "sweep_four_stroke"),),
    "engines.sweep_two_stroke": (("spinotto.engines", "sweep_two_stroke"),),
    "engines.run_four_stroke": (("spinotto.engines", "run_four_stroke"),),
    "engines.run_isochoric_reference": (("spinotto.engines", "run_isochoric_reference"),),
    "reports.render": (
        ("spinotto.reports", "render_ppa_csv"),
        ("spinotto.reports", "render_four_stroke_csv"),
        ("spinotto.reports", "render_two_stroke_csv"),
    ),
    "reports.write_atomic": (("spinotto.reports", "write_atomic"),),
    "cli.run": (("spinotto.cli", "run"),),
}


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute, function)`` or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def _fingerprint(value, reprs: dict):
    """Hashable summary of one call argument: state bytes, scalars, or a repr."""
    matrix = getattr(value, "matrix", None)
    if matrix is not None and hasattr(matrix, "tobytes"):
        return (tuple(getattr(value, "qubits", ())), matrix.tobytes())
    if hasattr(value, "tobytes"):
        return value.tobytes()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    key = id(value)
    if key not in reprs:
        reprs[key] = (value, repr(value))  # holding the value keeps its id unique
    return reprs[key][1]


class Tracer:
    """Wraps every target in ``LAYERS`` while installed; one operation at a time."""

    def __init__(self):
        self.absent: list[str] = []
        self._targets = []  # (layer, owner, attr, original)
        self._rebound = []  # (holder, name, original) of every rebinding in place
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                found = _resolve(module_name, path)
                if found is None:
                    self.absent.append(f"{module_name}.{path}")
                else:
                    self._targets.append((layer, *found))
        self.begin_op(0)

    def begin_op(self, op: int) -> None:
        """Drop the spans and counters of the previous operation."""
        self.spans: list = []  # (op, layer, start, end, parent index, self seconds)
        self._stack: list = []  # [span index, child seconds] of the open spans
        self._op = op
        self._reprs: dict = {}
        self.ppa_needed: dict = {}  # run_ppa input -> deepest round requested
        self.stroke_inputs: set = set()
        self.stroke_calls = 0
        self.cycles = 0
        self.csv_bytes = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "spinotto"]
        for layer, owner, attr, original in self._targets:
            wrapper = self._wrap(layer, original)
            bindings = [(owner, attr)]
            for module in modules:
                bindings += [(module, name) for name, value in vars(module).items() if value is original]
            for holder, name in bindings:
                setattr(holder, name, wrapper)
                self._rebound.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._rebound):
            setattr(holder, name, original)
        self._rebound.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        observe = self._observer(layer, fn)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (self._op, layer, start, end, parent, duration - frame[1])
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observer(self, layer: str, fn):
        """Counters read from call arguments and return values, never internals."""
        method = {
            "hbac.run_ppa": self._observe_ppa,
            "adiabatic.evolve_stroke": self._observe_stroke,
            "engines.sweep_four_stroke": self._observe_sweep,
            "engines.sweep_two_stroke": self._observe_sweep,
            "reports.write_atomic": self._observe_write,
        }.get(layer)
        if method is None:
            return None
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            return None

        def observe(args, kwargs, result):
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError:
                return
            bound.apply_defaults()
            method(bound.arguments, result)

        return observe

    def _key(self, named: dict, skip: str | None = None) -> tuple:
        return tuple((k, _fingerprint(v, self._reprs)) for k, v in named.items() if k != skip)

    def _observe_ppa(self, named: dict, result) -> None:
        if "n_rounds" in named:
            key = self._key(named, skip="n_rounds")
            self.ppa_needed[key] = max(self.ppa_needed.get(key, 0), int(named["n_rounds"]))

    def _observe_stroke(self, named: dict, result) -> None:
        self.stroke_calls += 1
        self.stroke_inputs.add(self._key(named))

    def _observe_sweep(self, named: dict, result) -> None:
        for attr in ("reports", "reference_reports"):
            self.cycles += len(getattr(result, attr, None) or ())

    def _observe_write(self, named: dict, result) -> None:
        text = named.get("text")
        if isinstance(text, str):
            self.csv_bytes += len(text.encode())

    # -- summaries ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for span in self.spans:
            if span is None:
                continue
            entry = totals[span[1]]
            entry["calls"] += 1
            entry["self_s"] += span[5]
        return totals

    def self_total(self) -> float:
        return sum(span[5] for span in self.spans if span is not None)

    def values(self) -> dict[str, float]:
        totals = self.layer_totals()
        ppa_rounds = totals["hbac.ppa_round"]["calls"]
        needed = sum(self.ppa_needed.values())
        return {
            "engines.cycles": self.cycles,
            "reports.csv_bytes": self.csv_bytes,
            "hbac.round_reuse": needed / ppa_rounds if ppa_rounds else 0.0,
            "adiabatic.stroke_reuse": (
                len(self.stroke_inputs) / self.stroke_calls if self.stroke_calls else 0.0
            ),
        }
