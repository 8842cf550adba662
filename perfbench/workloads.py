"""The four benchmark workloads and the checks on their outputs.

A workload is built once per process from the seed (its set-up) and then
runs jobs. ``run_job`` is the timed unit of user work and returns the raw
outputs; ``observe`` turns them into one JSON-able observation per
operation outside the timed region, and ``failures`` counts the
operations whose observation differs from the expected one.

The expected observations of ``paper``, ``scan-ex41`` and ``symbolic-n4``
were recorded from the program by ``record_expected.py`` and live in
``expected.json``; ``scan-affine`` must pass every check by Lemma 2.1.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io as _stdio
import json
import math
from importlib import resources
from pathlib import Path

from boxcorr import economy, fixedpoint, gallery, maps
from boxcorr import checks as _checks
from boxcorr import io as bio
from boxcorr.intervals import Grid

import affine_inputs

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# One CLI invocation per bundled document and property; each is one operation.
PAPER_COMMANDS = (
    ("check-map", "ex2_1.map", "--property", "usc"),
    ("check-map", "ex2_1.map", "--property", "w-usc"),
    ("check-map", "ex2_1.map", "--property", "almost-w-usc"),
    ("check-map", "ex2_1.map", "--property", "e-uscs"),
    ("check-map", "ex2_2.pair", "--property", "dual"),
    ("find-fixed-points", "ex2_1.map"),
    ("find-equilibria", "ex4_1_n2.econ"),
    ("check-hypotheses", "ex4_1_n2.econ", "--which", "4.1"),
    ("check-hypotheses", "ex4_1_n2.econ", "--which", "4.2"),
    ("check-hypotheses", "ex4_1_n2.econ", "--which", "4.3"),
    ("build-radner", "radner_toy.econ"),
    ("reproduce-paper",),
)

SCAN_EX41_EPS = (0.5, 2.0, 4.0)
SYMBOLIC_EPS = (0.5, 0.25, 0.125)
# About as long per job as one scan-ex41 job at the seed commit.
SCAN_AFFINE_CASES = 150


@functools.cache
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, dict):
        return {str(k): _json_safe(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(u) for u in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return repr(v)


def _without_runtime(v):
    if isinstance(v, dict):
        return {k: _without_runtime(u) for k, u in v.items() if k != "runtime_s"}
    if isinstance(v, list):
        return [_without_runtime(u) for u in v]
    return v


def _report_tree(rep, path: str = "") -> list:
    """Every node of a CheckReport tree with its verdict, witnesses, notes and parameters."""
    here = f"{path}/{rep.property_name}" if path else rep.property_name
    node = {
        "path": here,
        "verdict": rep.verdict,
        "witnesses": [[w.point, w.neighbor, w.excess, w.category, w.detail] for w in rep.witnesses],
        "notes": list(rep.notes),
        "parameters": rep.parameters,
    }
    out = [_json_safe(node)]
    for c in rep.children:
        out.extend(_report_tree(c, here))
    return out


def _attempt(fn, *args):
    """Run one operation; an exception becomes its observed output."""
    try:
        return fn(*args)
    except Exception as exc:  # a raising operation counts as failed
        return {"error": f"{type(exc).__name__}: {exc}"}


def _raised(raw) -> bool:
    return isinstance(raw, dict) and "error" in raw


class Workload:
    """Subclasses define ``name``, ``run_job()`` and ``observe(raw)``."""

    name = ""

    def failures(self, observed: dict) -> int:
        want = expected()[self.name]
        return sum(1 for key, got in observed.items() if want.get(key) != got)


class Paper(Workload):
    """Every CLI command on the bundled documents, plus reproduce-paper."""

    name = "paper"

    def __init__(self, seed: int) -> None:
        from boxcorr import cli
        self.cli = cli

    def _invoke(self, args: tuple) -> tuple[int | None, str]:
        out = _stdio.StringIO()
        code = None
        with contextlib.redirect_stdout(out):
            try:
                self.cli.main([*args, "--format", "records"], prog_name="boxcorr")
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def run_job(self) -> list:
        return [_attempt(self._invoke, args) for args in PAPER_COMMANDS]

    def observe(self, raw: list) -> dict:
        observed = {}
        for args, got in zip(PAPER_COMMANDS, raw):
            key = " ".join(args)
            if _raised(got):
                observed[key] = got
                continue
            code, text = got
            try:
                rows = [_without_runtime(json.loads(line)) for line in text.splitlines() if line]
            except json.JSONDecodeError as exc:
                observed[key] = {"exit": code, "error": f"bad records output: {exc}"}
                continue
            observed[key] = {"exit": code, "records_sha256": _digest(rows)}
            if args[0] == "find-equilibria":
                observed[key]["equilibria"] = rows[0].get("count") if rows else None
        return observed


class ScanEx41(Workload):
    """Theorem 4.1 hypotheses of the bundled two-agent economy at step 1/16."""

    name = "scan-ex41"

    def __init__(self, seed: int) -> None:
        text = resources.files("boxcorr").joinpath("data", "ex4_1_n2.econ").read_text()
        self.doc = bio.loads(text)
        self.grid = Grid(2, (0.0, 0.0), (4.0, 4.0), 1 / 16)

    def _check(self):
        e = economy.economy_from_doc(self.doc)
        return economy.check_theorem_4_1_hypotheses(e, SCAN_EX41_EPS, self.grid)

    def run_job(self) -> list:
        return [_attempt(self._check)]

    def observe(self, raw: list) -> dict:
        rep = raw[0]
        if _raised(rep):
            return {"hypotheses-4.1": rep}
        tree = _report_tree(rep)
        return {"hypotheses-4.1": {
            "verdicts": {n["path"]: n["verdict"] for n in tree},
            "tree_sha256": _digest(tree),
        }}


class ScanAffine(Workload):
    """USC checks of seeded continuous affine maps and their sum-then-clip maps."""

    name = "scan-affine"

    def __init__(self, seed: int) -> None:
        self.cases = affine_inputs.generate(seed, SCAN_AFFINE_CASES)

    def _check_case(self, case) -> tuple:
        s, sc, k, grid = affine_inputs.build(case)
        clipped = maps.intersect_maps(sc, maps.constant_map(case.domain, k))
        return _checks.check_usc(s, grid), _checks.check_usc(clipped, grid)

    def run_job(self) -> list:
        return [_attempt(self._check_case, case) for case in self.cases]

    def observe(self, raw: list) -> dict:
        observed = {}
        for n, got in enumerate(raw):
            if _raised(got):
                observed[f"case{n}.base-usc"] = observed[f"case{n}.clip-usc"] = got
            else:
                observed[f"case{n}.base-usc"] = got[0].verdict
                observed[f"case{n}.clip-usc"] = got[1].verdict
        return observed

    def failures(self, observed: dict) -> int:
        return sum(1 for got in observed.values() if got != _checks.PASS)


class SymbolicN4(Workload):
    """The Theorem 4.1 construction for four agents and its fixed-point chain."""

    name = "symbolic-n4"

    def __init__(self, seed: int) -> None:
        self.grid = Grid(4, (0.0,) * 4, (2.0,) * 4, 0.5)

    def _chain(self):
        pm = gallery.theorem_4_1_construction(gallery.ex4_1(4))
        return fixedpoint.intersect_qv_chain(pm, self.grid, SYMBOLIC_EPS)

    def run_job(self) -> list:
        return [_attempt(self._chain)]

    def observe(self, raw: list) -> dict:
        res = raw[0]
        if _raised(res):
            return {"chain": res}
        return {"chain": {
            "nested": res.nested,
            "cardinalities": {repr(q.eps): len(q.points) for q in res.qv_sets},
            "intersection": len(res.intersection),
            "certified": len(res.certified),
            "certified_sha256": _digest([list(p) for p in res.certified]),
        }}


WORKLOADS = {w.name: w for w in (Paper, ScanEx41, ScanAffine, SymbolicN4)}
