"""Per-layer spans around boxcorr's public entry points, installed from outside.

Each layer is a set of public functions or methods. The tracer replaces
every one of them with a wrapper that counts the call and times it as a
span. Spans nest: a layer's self time is the span's duration minus the
durations of the spans it encloses, so every second of a job lands in
exactly one layer or in the job's own remainder.

Modules import names directly (``from .maps import t_upper``), so a
module-level function is rebound in every boxcorr module that holds it;
the benchmark itself calls through module attributes. Methods are patched once, on
their class. ``uninstall`` puts the originals back.

``affine`` has no spans: its forms run millions of times per job inside
``maps``, where a wrapper would cost more than the work it times.
"""

from __future__ import annotations

import inspect
import sys
import time

from boxcorr import cli, economy, fixedpoint, gallery, intervals, io, maps, radner, suites
from boxcorr import checks as _checks


def _public_functions(module) -> list[tuple[object, str]]:
    return [(module, name) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


# Span name -> the public entry points it times.
SPANS = {
    # BoxSet.of is a one-line delegate to canonical_boxes, which maps'
    # normalize_value also calls directly.
    "intervals.canon": [(intervals, "canonical_boxes")],
    "intervals.excess": [(intervals.BoxSet, "hausdorff_upper")],
    "intervals.subset": [(intervals.BoxSet, "subset_within")],
    "maps.eval": [(maps.PiecewiseMap, "evaluate")],
    "maps.rebuild": [(maps, "t_upper"), (maps, "adherence"), (maps, "intersect_maps")],
    "checks.usc": [(_checks, "check_usc")],
    "fixedpoint.level": [(fixedpoint, "fixed_points_of_approximation")],
    "fixedpoint.certify": [(fixedpoint, "certify_fixed_points")],
    "economy.hyp": [(economy, "check_theorem_4_1_hypotheses"),
                    (economy, "check_theorem_4_2_hypotheses"),
                    (economy, "check_theorem_4_3_hypotheses")],
    "economy.verify": [(economy, "verify_equilibrium")],
    "radner.search": [(radner.AssociatedEconomy, "search")],
    "radner.inclusion": [(radner, "remark_4_3_inclusion")],
    "radner.clearing": [(radner, "verify_market_clearing")],
    "io.load": [(io, "loads"), (io, "load"), (io, "boxset_from_doc"), (io, "grid_from_doc"),
                (io, "map_from_doc"), (io, "pair_from_doc"), (io, "product_from_doc"),
                (economy, "economy_from_doc"), (radner, "info_economy_from_doc")],
    "gallery": _public_functions(gallery),
    "suites": _public_functions(suites),
    "cli": [(cli, "main")],
}

# Counted but not timed: its time stays in the enclosing radner.search span.
COUNTS = {"radner.verify": [(radner.AssociatedEconomy, "verify")]}

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_METRICS = {
    "intervals.canon.calls": "count", "intervals.canon.self_s": "s",
    "intervals.excess.calls": "count", "intervals.excess.self_s": "s",
    "intervals.excess.distinct_frac": "frac",
    "intervals.subset.calls": "count", "intervals.subset.self_s": "s",
    "maps.eval.calls": "count", "maps.eval.self_s": "s", "maps.eval.distinct_frac": "frac",
    "maps.rebuild.calls": "count", "maps.rebuild.self_s": "s", "maps.rebuild.pieces_out": "count",
    "checks.usc.calls": "count", "checks.usc.self_s": "s", "checks.points": "count",
    "fixedpoint.level.calls": "count", "fixedpoint.level.self_s": "s",
    "fixedpoint.certify.self_s": "s", "fixedpoint.kept": "count",
    "economy.hyp.self_s": "s", "economy.verify.calls": "count", "economy.verify.self_s": "s",
    "radner.search.self_s": "s", "radner.verify.calls": "count",
    "radner.inclusion.self_s": "s", "radner.clearing.self_s": "s",
    "io.load.calls": "count", "io.load.self_s": "s",
    "gallery.self_s": "s", "suites.self_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Counts, self times and distinct-input sets for one traced job at a time."""

    def __init__(self) -> None:
        self.cells = {name: [0, 0.0] for name in (*SPANS, *COUNTS)}  # [calls, self seconds]
        self.sums = {"pieces_out": 0, "points": 0, "kept": 0}
        self.excess_pairs: set = set()
        self.eval_keys: set = set()
        self._eval_maps: dict = {}  # keeps evaluated maps alive so their ids stay distinct
        self._stack: list = [[0.0]]  # child seconds of each open span; the base never closes
        self._undo: list = []
        self._job_start = 0.0
        self.job_self_s = 0.0  # job time outside every span

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        cell = self.cells[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            cell[0] += 1
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                cell[1] += dt - frame[0]
                stack[-1][0] += dt
            if after is not None:
                after(out)
            return out

        return span

    def _count(self, name, fn):
        cell = self.cells[name]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_excess(self, args) -> None:
        self.excess_pairs.add((args[0], args[1]))

    def _on_eval(self, args) -> None:
        m = args[0]
        self._eval_maps[id(m)] = m
        self.eval_keys.add((id(m), tuple(args[1])))

    def _add(self, key: str, value: int) -> None:
        self.sums[key] += value

    def _hooks(self, name: str) -> tuple:
        return {
            "intervals.excess": (self._on_excess, None),
            "maps.eval": (self._on_eval, None),
            "maps.rebuild": (None, lambda out: self._add("pieces_out", len(out.pieces))),
            "checks.usc": (None, lambda out: self._add("points", out.parameters["points_checked"])),
            "fixedpoint.level": (None, lambda out: self._add("kept", len(out.points))),
        }.get(name, (None, None))

    # -- installation ----------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        if inspect.isclass(owner):
            holders = [(owner, attr)]
        else:
            modules = [m for key, m in sys.modules.items()
                       if key == "boxcorr" or key.startswith("boxcorr.")]
            holders = [(m, key) for m in modules
                       for key, v in list(vars(m).items()) if v is original]
        for holder, key in holders:
            setattr(holder, key, wrapper)
            self._undo.append((holder, key, original))

    def install(self) -> None:
        for name, targets in SPANS.items():
            before, after = self._hooks(name)
            for owner, attr in targets:
                wrapper = self._span(name, vars(owner)[attr], before, after)
                self._rebind(owner, attr, wrapper)
        for name, targets in COUNTS.items():
            for owner, attr in targets:
                self._rebind(owner, attr, self._count(name, vars(owner)[attr]))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- one job -----------------------------------------------------------------

    def start_job(self) -> None:
        for cell in self.cells.values():
            cell[0], cell[1] = 0, 0.0
        for key in self.sums:
            self.sums[key] = 0
        self.excess_pairs.clear()
        self.eval_keys.clear()
        self._eval_maps.clear()
        self._stack.append([0.0])
        self._job_start = time.perf_counter()

    def end_job(self) -> float:
        """Close the job span; returns its wall seconds."""
        wall = time.perf_counter() - self._job_start
        self.job_self_s = wall - self._stack.pop()[0]
        self._eval_maps.clear()
        return wall

    def counts(self) -> dict:
        """Every count of the last job; these repeat exactly from job to job."""
        out = {f"{name}.calls": cell[0] for name, cell in self.cells.items()}
        out.update(self.sums)
        out["excess_distinct"] = len(self.excess_pairs)
        out["eval_distinct"] = len(self.eval_keys)
        return out

    def self_seconds(self) -> dict:
        return {name: cell[1] for name, cell in self.cells.items() if name in SPANS}

    def layer_metrics(self, self_s: dict, overhead_frac: float) -> dict:
        c = self.counts()

        def frac(num, den):
            return num / den if den else 0.0

        values = {
            "intervals.excess.distinct_frac": frac(c["excess_distinct"], c["intervals.excess.calls"]),
            "maps.eval.distinct_frac": frac(c["eval_distinct"], c["maps.eval.calls"]),
            "maps.rebuild.pieces_out": c["pieces_out"],
            "checks.points": c["points"],
            "fixedpoint.kept": c["kept"],
            "trace.overhead_frac": overhead_frac,
        }
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = c[f"{layer}.calls"]
            elif kind == "self_s":
                values[metric] = self_s[layer]
        return {m: {"value": values[m], "unit": unit} for m, unit in LAYER_METRICS.items()}
