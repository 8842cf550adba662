"""Command-line front end.

Exit codes are a contract: 0 = property holds / result found, 1 =
property fails, 2 = input error, 3 = nothing found at the requested
resolution. A bare document name (no directory part) is resolved against
the documents shipped with the package when no such file exists on disk;
any other missing path is an input error.
"""

from __future__ import annotations

import json
import math
import sys
from importlib import resources
from pathlib import Path

import click

from . import io as _io
from . import suites
from .checks import (FAIL, PASS, CheckReport, check_dual_w_usc, check_e_uscs,
                     check_usc, check_w_usc, combine_reports)
from .economy import (check_theorem_4_1_hypotheses, check_theorem_4_2_hypotheses,
                      check_theorem_4_3_hypotheses, economy_from_doc,
                      search_equilibria)
from .fixedpoint import (DEFAULT_EPS_CHAIN, ProductMap, chain_result_to_doc,
                         intersect_qv_chain)
from .intervals import MAX_GRID_POINTS, Box, Grid
from .maps import adherence, t_upper
from .radner import (PriceSimplex, check_allocation_axis, info_economy_from_doc,
                     remark_4_3_inclusion, to_abstract_economy)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3


class InputError(click.ClickException):
    exit_code = EXIT_INPUT


def _read_document(name: str) -> dict:
    p = Path(name)
    if p.is_file():
        text = p.read_text()
    else:
        # Only a bare name may fall back to a bundled document; a path with
        # a directory part that does not exist is an input error.
        packaged = resources.files("boxcorr").joinpath("data", p.name)
        if name != p.name or not packaged.is_file():
            raise InputError(f"no such document: {name}")
        text = packaged.read_text()
    try:
        return _io.loads(text)
    except _io.DocumentError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _parse_eps(text: str) -> tuple[float, ...]:
    try:
        eps = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError(f"bad --eps-chain: {exc}") from exc
    if not all(math.isfinite(e) for e in eps):
        raise InputError("--eps-chain entries must be finite")
    if not eps:
        raise InputError("--eps-chain needs at least one radius")
    if any(e <= 0 for e in eps):
        raise InputError("--eps-chain entries must be positive")
    return eps


def _labelled(eps: tuple[float, ...] | None) -> tuple[float, ...] | None:
    """``eps``, unless two radii give one ``{e:g}`` label, which report paths carry."""
    if eps and len({f"{e:g}" for e in eps}) < len(eps):
        raise InputError(f"--eps-chain entries give the same report label twice: {list(eps)}")
    return eps


def _grid_for(domain: Box, step: float) -> Grid:
    """Grid over the domain, stepping inward past open edges."""
    lo = tuple(iv.lo if iv.lo_closed else iv.lo + step for iv in domain)
    hi = tuple(iv.hi if iv.hi_closed else iv.hi - step for iv in domain)
    try:
        grid = Grid(len(domain), lo, hi, step)
    except ValueError as exc:
        raise InputError(f"step {step} does not fit the domain: {exc}") from exc
    return _sized(grid)


def _sized(grid: Grid) -> Grid:
    """``grid``, unless it has more than ``MAX_GRID_POINTS`` points: every
    scan visits each point, so such a grid would not finish."""
    n = grid.point_count()
    if n > MAX_GRID_POINTS:
        raise InputError(f"step {grid.step} gives {n} grid points, more than "
                         f"the limit of {MAX_GRID_POINTS}")
    return grid


def _check_ranges(step: float | None, tol: float | None = None, delta: float | None = None,
                  eps_chain: str | None = None) -> tuple[float, ...] | None:
    """Validate the shared numeric options a command reads (``None`` for
    one it does not); returns the parsed eps chain."""
    for opt, v in (("--step", step), ("--tol", tol), ("--delta", delta)):
        if v is not None and not math.isfinite(v):
            raise InputError(f"{opt} must be finite")
    if step is not None and step <= 0:
        raise InputError("--step must be positive")
    if tol is not None and tol < 0:
        raise InputError("--tol must be nonnegative")
    if delta is not None and delta <= 0:
        raise InputError("--delta must be positive")
    if eps_chain is not None:
        return _parse_eps(eps_chain)
    return None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _json_safe(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(v, dict):
        return {str(k): _json_safe(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(u) for u in v]
    if isinstance(v, (str, int, bool)) or v is None:
        return v
    return str(v)


def _report_rows(r: CheckReport, path: tuple[str, ...] = ()):
    here = path + (r.property_name,)
    yield {
        "record": "check",
        "path": "/".join(here),
        "verdict": r.verdict,
        "parameters": _json_safe(r.parameters),
        "witnesses": [
            {"point": list(w.point),
             "neighbor": list(w.neighbor) if w.neighbor is not None else None,
             "excess": _json_safe(w.excess),
             "category": w.category, "detail": w.detail}
            for w in r.witnesses
        ],
        "notes": list(r.notes),
    }
    for c in r.children:
        yield from _report_rows(c, here)


def _text_lines(r: CheckReport, depth: int = 0):
    pad = "  " * depth
    scalars = {k: v for k, v in r.parameters.items()
               if isinstance(v, (int, float, bool, str)) and len(str(v)) <= 24}
    suffix = ("  " + " ".join(f"{k}={v}" for k, v in scalars.items())) if scalars else ""
    yield f"{pad}{r.verdict.upper():<6} {r.property_name}{suffix}"
    for note in r.notes:
        yield f"{pad}       note: {note}"
    for w in r.witnesses[:4]:
        detail = f" ({w.detail})" if w.detail else ""
        yield (f"{pad}       witness: {w.category} at {tuple(w.point)}"
               f" excess={w.excess:g}{detail}")
    for c in r.children:
        yield from _text_lines(c, depth + 1)


def _emit(rows_records, lines_text, out: str | None, fmt: str | None) -> None:
    if out in ("records", "text") and fmt is None:
        fmt, out = out, None
    fmt = fmt or "text"
    if fmt == "records":
        payload = "\n".join(json.dumps(row, allow_nan=False) for row in rows_records)
    else:
        payload = "\n".join(lines_text)
    if out:
        try:
            Path(out).write_text(payload + "\n")
        except OSError as exc:
            raise InputError(f"cannot write report to {out}: {exc.strerror or exc}") from exc
    else:
        # an explicit stream: click's default stream lookup caches each
        # sys.stdout it sees, so an in-process caller's redirected buffers would stay alive
        click.echo(payload, file=sys.stdout)


def _finish_report(rep: CheckReport, out: str | None, fmt: str | None) -> None:
    _emit(_report_rows(rep), _text_lines(rep), out, fmt)
    sys.exit(EXIT_PASS if rep.passed else EXIT_FAIL)


_OPTIONS = {
    "step": click.option("--step", type=float, default=None,
                         help="grid step (default depends on the command)"),
    "eps_chain": click.option("--eps-chain", "eps_chain", default=None,
                              help="comma-separated dilation radii"),
    "tol": click.option("--tol", type=float, default=1e-9, help="comparison tolerance"),
    "delta": click.option("--delta", type=float, default=None,
                          help="neighbor distance for grid checks (default: step)"),
    "out": click.option("--out", default=None, help="write the report to this path"),
    "fmt": click.option("--format", "fmt", type=click.Choice(("text", "records")),
                        default=None, help="report format (default text)"),
}


def _options(*names: str):
    """Attach the shared options a command reads, named as in ``_OPTIONS``;
    every command reads ``out`` and ``fmt``."""
    def attach(f):
        for name in reversed(names + ("out", "fmt")):
            f = _OPTIONS[name](f)
        return f
    return attach


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main() -> None:
    """Check set-valued maps, search for fixed points and equilibria, and
    rerun the bundled golden suite."""


@main.command("check-map")
@click.argument("document")
@click.option("--property", "prop", default="usc",
              type=click.Choice(("usc", "w-usc", "almost-w-usc", "dual", "e-uscs")),
              help="which semicontinuity property to check")
@_options("step", "eps_chain", "tol", "delta")
def cmd_check_map(document, prop, step, eps_chain, tol, delta, out, fmt):
    """Run a semicontinuity check on a map (or pair) document."""
    eps_user = _labelled(_check_ranges(step, tol, delta, eps_chain))
    doc = _read_document(document)
    step = step if step is not None else 1 / 64
    try:
        if prop == "dual":
            t1, t2, d = _io.pair_from_doc(doc)
            grid = _grid_for(t1.domain, step)
            eps = eps_user or (0.5, 2.5)
            rep = check_dual_w_usc(t1, t2, d, eps, grid, delta, tol)
        else:
            t = _io.map_from_doc(doc)
            d = _io.map_doc_target(doc)
            grid = _grid_for(t.domain, step)
            if prop == "usc":
                rep = check_usc(t, grid, delta, tol)
            elif prop in ("w-usc", "almost-w-usc"):
                if d is None:
                    raise InputError("document carries no target set 'd'")
                eps = eps_user or (0.1, 0.5, 1.0)
                if prop == "w-usc":
                    rep = check_w_usc(t, d, eps, grid, delta, tol)
                else:
                    kids = [check_usc(adherence(t_upper(t, e, d)), grid, delta, tol,
                                      property_name=f"almost-w-usc@eps={e:g}") for e in eps]
                    rep = combine_reports("almost-w-usc-family", kids,
                                          {"eps_list": list(eps)})
            else:
                eps = eps_user or (0.5,)
                kids = [check_e_uscs(t, t.domain, None, e, grid, delta, tol,
                                     property_name=f"e-uscs@eps={e:g}") for e in eps]
                rep = combine_reports("e-uscs-family", kids,
                                      {"eps_list": list(eps)})
    except (_io.DocumentError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _finish_report(rep, out, fmt)


@main.command("find-fixed-points")
@click.argument("document")
@_options("step", "eps_chain")
def cmd_find_fixed_points(document, step, eps_chain, out, fmt):
    """Intersect the chain of approximation fixed-point sets of a map
    (with target set) or product document."""
    eps_user = _check_ranges(step, eps_chain=eps_chain)
    doc = _read_document(document)
    step = step if step is not None else 1 / 8
    chain = eps_user or DEFAULT_EPS_CHAIN
    try:
        kind = _io.detect_kind(doc)
        if kind == "map":
            t = _io.map_from_doc(doc)
            d = _io.map_doc_target(doc)
            if d is None:
                raise InputError("document carries no target set 'd'")
            pm = ProductMap.single(t, d)
        elif kind == "product":
            pm = ProductMap.from_doc(doc)
        else:
            raise InputError(f"cannot search a {kind!r} document for fixed points")
        grid = _grid_for(pm.domain, step)
        res = intersect_qv_chain(pm, grid, chain)
    except (_io.DocumentError, ValueError) as exc:
        raise InputError(str(exc)) from exc

    rows = [{"record": "chain", **_json_safe(chain_result_to_doc(res))}]
    lines = [f"eps chain: {', '.join(f'{e:g}' for e in res.eps_chain)}"]
    for qv in res.qv_sets:
        lines.append(f"  eps={qv.eps:<8g} fixed points: {len(qv.points)}")
    lines.append(f"nested exactly: {res.nested}")
    lines.append(f"chain intersection: {len(res.intersection)} point(s), "
                 f"{len(res.certified)} certified")
    for p in res.intersection:
        mark = "certified" if p in res.certified else "uncertified"
        lines.append(f"  {tuple(p)}  [{mark}]")
    _emit(rows, lines, out, fmt)
    sys.exit(EXIT_PASS if res.intersection else EXIT_EMPTY)


@main.command("find-equilibria")
@click.argument("document")
@_options("step")
def cmd_find_equilibria(document, step, out, fmt):
    """Scan the target region of an economy document for equilibria."""
    _check_ranges(step)
    doc = _read_document(document)
    step = step if step is not None else 1 / 8
    try:
        e = economy_from_doc(doc)
        lo, hi = [], []
        for ag in e.agents:
            bb = ag.d_set.bounding_box()
            for iv in bb:
                lo.append(iv.lo)
                hi.append(iv.hi)
        grid = _sized(Grid(e.dim, tuple(lo), tuple(hi), step))
        found = search_equilibria(e, grid)
    except (_io.DocumentError, ValueError) as exc:
        raise InputError(str(exc)) from exc

    rows = [{"record": "equilibria", "count": len(found), "step": step}]
    rows += [_json_safe(c.to_doc()) for c in found]
    lines = [f"equilibria found at step {step:g}: {len(found)}"]
    lines += [f"  {tuple(c.point)}" for c in found]
    _emit(rows, lines, out, fmt)
    sys.exit(EXIT_PASS if found else EXIT_EMPTY)


@main.command("check-hypotheses")
@click.argument("document")
@click.option("--which", default="4.1", type=click.Choice(("4.1", "4.2", "4.3")),
              help="which theorem's hypotheses to check")
@_options("step", "eps_chain", "tol", "delta")
def cmd_check_hypotheses(document, which, step, eps_chain, tol, delta, out, fmt):
    """Check the hypotheses of one of the equilibrium existence theorems
    on an economy document.

    The 4.3 variant proposes constant selections heuristically; a refusal
    (unverified) exits nonzero. The curated selection-backed run is part
    of reproduce-paper.
    """
    eps_user = _labelled(_check_ranges(step, tol, delta, eps_chain))
    doc = _read_document(document)
    step = step if step is not None else 1 / 8
    eps = eps_user or (0.5, 2.0, 4.0)
    try:
        e = economy_from_doc(doc)
        grid = _grid_for(e.domain, step)
        if which == "4.1":
            rep = check_theorem_4_1_hypotheses(e, eps, grid, delta, tol)
        elif which == "4.2":
            rep = check_theorem_4_2_hypotheses(e, eps, grid, delta, tol)
        else:
            rep = check_theorem_4_3_hypotheses(e, eps, [None] * len(e.agents),
                                               grid, delta, tol)
    except (_io.DocumentError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _finish_report(rep, out, fmt)


@main.command("build-radner")
@click.argument("document")
@_options("step", "tol")
def cmd_build_radner(document, step, tol, out, fmt):
    """Convert an information-economy document to its associated abstract
    economy, sample the constraint inclusion, and clear every certificate
    a coarse search finds. --step sets the sampling step (default 1/8)."""
    _check_ranges(step, tol)
    doc = _read_document(document)
    step = step if step is not None else 0.125
    if not math.isfinite(1 / step):
        raise InputError(f"step {step} is too small: 1/step is not finite")
    try:
        info = info_economy_from_doc(doc)
        resolution = max(1, round(1 / step))
        simplex = PriceSimplex(info.bundle_dim, resolution)
        n = simplex.point_count()
        if n > MAX_GRID_POINTS:
            raise InputError(f"step {step} gives {n} price grid points, more than "
                             f"the limit of {MAX_GRID_POINTS}")
        assoc = to_abstract_economy(info, simplex)
        check_allocation_axis(assoc.truncation, step)
        # raises DomainError, before any draw, on a truncation outside a preference domain
        incl = remark_4_3_inclusion(assoc, step)
        axis = tuple(assoc.truncation * k / 4 for k in range(5))
        certs = assoc.search(axis)
        bad = sum(1 for c in certs if max(assoc.excess(c.allocation)) > tol)
        clearing = CheckReport(
            "certificates-clear", PASS if bad == 0 else FAIL, (),
            {"certificates": len(certs), "failing": bad, "axis": list(axis)})
        rep = combine_reports("info-economy-build", [incl, clearing], {
            "agents": info.n_agents, "goods": info.n_goods,
            "states": info.n_states, "bundle_dim": info.bundle_dim,
            "truncation": assoc.truncation, "simplex_resolution": resolution,
        })
    except (_io.DocumentError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _finish_report(rep, out, fmt)


@main.command("reproduce-paper")
@_options("step", "eps_chain", "tol")
def cmd_reproduce_paper(step, eps_chain, tol, out, fmt):
    """Recompute every documented example, scheme, and property suite and
    compare against the stated results. --step overrides the example
    grids and must divide 1/2."""
    eps = _check_ranges(step, tol, eps_chain=eps_chain)
    try:
        if step is not None:
            _sized(suites.largest_grid(step))
        rep = suites.reproduce_paper(step=step, eps_chain=eps, tol=tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _finish_report(rep, out, fmt)


if __name__ == "__main__":
    main()
