"""JSON documents for maps, sets, and problem instances.

Every geometry object round-trips through plain JSON types. Floats are
written with ``repr``-exact shortest form by the stdlib encoder, so a
save/load cycle reproduces endpoints bit for bit; a ``Fraction`` is written
as the float it equals, and raises ``ValueError`` if none. Parsing goes through
the normal constructors, which re-run all structural validation; a
reparsed map is therefore an independently checked copy, not a trusted
memory image.

Compact encodings (no per-object "kind" tag below top level):

* interval        ``[lo, hi, lo_closed, hi_closed]``
* box             ``[interval, ...]``
* affine form     ``[const, [coeff, ...]]``
* affine interval ``[form_lo, form_hi, lo_closed, hi_closed]``
* affine box      ``[affine_interval, ...]``
* piece value     ``[affine_box, ...]`` (empty list = empty value)

Top-level documents carry a ``kind`` field: ``boxset``, ``grid``,
``map``, ``pair``, ``product``.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .affine import AffForm, AffineBox, AffineInterval, PieceValue
from .intervals import Box, BoxSet, FlaggedInterval, Grid
from .maps import Piece, PiecewiseMap


class DocumentError(ValueError):
    """Raised when a JSON document does not describe a valid object."""


def _as_number(x: Any, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DocumentError(f"{where}: expected a number, got {x!r}")
    if not abs(x) <= sys.float_info.max:
        raise DocumentError(f"{where}: expected a finite number, got {x!r}")
    return x


def _as_bool(x: Any, where: str) -> bool:
    if not isinstance(x, bool):
        raise DocumentError(f"{where}: expected a boolean, got {x!r}")
    return x


def _as_list(x: Any, where: str) -> list:
    if not isinstance(x, list):
        raise DocumentError(f"{where}: expected a list, got {type(x).__name__}")
    return x


# -- intervals and boxes -----------------------------------------------

def interval_to_list(iv: FlaggedInterval) -> list:
    return [iv.lo, iv.hi, iv.lo_closed, iv.hi_closed]


def interval_from_list(doc: Any, where: str = "interval") -> FlaggedInterval:
    items = _as_list(doc, where)
    if len(items) != 4:
        raise DocumentError(f"{where}: expected 4 entries, got {len(items)}")
    lo, hi = (_as_number(v, where) for v in items[:2])
    lo_closed, hi_closed = (_as_bool(v, where) for v in items[2:])
    try:
        return FlaggedInterval(lo, hi, lo_closed, hi_closed)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def box_to_list(box: Box) -> list:
    return [interval_to_list(iv) for iv in box]


def box_from_list(doc: Any, where: str = "box") -> Box:
    items = _as_list(doc, where)
    if not items:
        raise DocumentError(f"{where}: a box needs at least one dimension")
    return tuple(interval_from_list(item, f"{where}[{k}]") for k, item in enumerate(items))


def boxset_to_doc(s: BoxSet) -> dict:
    return {"kind": "boxset", "dim": s.dim, "boxes": [box_to_list(b) for b in s.boxes]}


def boxset_from_doc(doc: Any, where: str = "") -> BoxSet:
    body = _expect_kind(doc, "boxset", where)
    at = where or "boxset"
    dim = body.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError(f"{at}: 'dim' must be a positive integer")
    boxes = [box_from_list(b, f"{at}.boxes[{k}]")
             for k, b in enumerate(_as_list(body.get("boxes"), f"{at}.boxes"))]
    for k, b in enumerate(boxes):
        if len(b) != dim:
            raise DocumentError(f"{at}.boxes[{k}]: dimension {len(b)} != {dim}")
    return BoxSet.of(dim, boxes)


def grid_to_doc(g: Grid) -> dict:
    return {"kind": "grid", "lo": list(g.lo), "hi": list(g.hi), "step": g.step}


def grid_from_doc(doc: Any) -> Grid:
    body = _expect_kind(doc, "grid")
    lo = [_as_number(x, "grid.lo") for x in _as_list(body.get("lo"), "grid.lo")]
    hi = [_as_number(x, "grid.hi") for x in _as_list(body.get("hi"), "grid.hi")]
    step = _as_number(body.get("step"), "grid.step")
    if len(lo) != len(hi) or not lo:
        raise DocumentError("grid: 'lo' and 'hi' must be nonempty and equally long")
    try:
        return Grid(len(lo), tuple(lo), tuple(hi), step)
    except ValueError as exc:
        raise DocumentError(f"grid: {exc}") from exc


# -- affine values ------------------------------------------------------

def _form_to_list(f: AffForm) -> list:
    return [f.const, list(f.coeffs)]


def _form_from_list(doc: Any, dim: int, where: str) -> AffForm:
    items = _as_list(doc, where)
    if len(items) != 2:
        raise DocumentError(f"{where}: expected [const, coeffs]")
    const = _as_number(items[0], where)
    coeffs = tuple(_as_number(c, where) for c in _as_list(items[1], where))
    if len(coeffs) != dim:
        raise DocumentError(f"{where}: {len(coeffs)} coefficients for a {dim}-dim domain")
    return AffForm(const, coeffs)


def _affiv_to_list(iv: AffineInterval) -> list:
    return [_form_to_list(iv.lo), _form_to_list(iv.hi), iv.lo_closed, iv.hi_closed]


def _affiv_from_list(doc: Any, dim: int, where: str) -> AffineInterval:
    items = _as_list(doc, where)
    if len(items) != 4:
        raise DocumentError(f"{where}: expected 4 entries")
    return AffineInterval(
        _form_from_list(items[0], dim, f"{where}.lo"),
        _form_from_list(items[1], dim, f"{where}.hi"),
        _as_bool(items[2], where),
        _as_bool(items[3], where),
    )


def _affbox_to_list(box: AffineBox) -> list:
    return [_affiv_to_list(iv) for iv in box]


def _affbox_from_list(doc: Any, dim: int, where: str) -> AffineBox:
    items = _as_list(doc, where)
    if not items:
        raise DocumentError(f"{where}: an affine box needs at least one dimension")
    return tuple(_affiv_from_list(item, dim, f"{where}[{k}]") for k, item in enumerate(items))


def _value_to_list(value: PieceValue) -> list:
    return [_affbox_to_list(b) for b in value]


def _value_from_list(doc: Any, dim: int, where: str) -> PieceValue:
    items = _as_list(doc, where)
    return tuple(_affbox_from_list(item, dim, f"{where}[{k}]") for k, item in enumerate(items))


# -- maps ----------------------------------------------------------------

def map_to_doc(t: PiecewiseMap, d: BoxSet | None = None) -> dict:
    doc = {
        "kind": "map",
        "domain": box_to_list(t.domain),
        "codomain_dim": t.codomain_dim,
        "pieces": [
            {"region": box_to_list(p.region), "value": _value_to_list(p.value)}
            for p in t.pieces
        ],
    }
    if d is not None:
        doc["d"] = boxset_to_doc(d)
    return doc


def map_doc_target(doc: Any) -> BoxSet | None:
    """The optional compact target set stored alongside a map document."""
    body = _expect_kind(doc, "map")
    raw = body.get("d")
    return None if raw is None else boxset_from_doc(raw, "map.d")


def map_from_doc(doc: Any, where: str = "") -> PiecewiseMap:
    body = _expect_kind(doc, "map", where)
    at = where or "map"
    domain = box_from_list(body.get("domain"), f"{at}.domain")
    cod = body.get("codomain_dim")
    if isinstance(cod, bool) or not isinstance(cod, int) or cod < 1:
        raise DocumentError(f"{at}: 'codomain_dim' must be a positive integer")
    raw_pieces = _as_list(body.get("pieces"), f"{at}.pieces")
    pieces = []
    dim = len(domain)
    for k, raw in enumerate(raw_pieces):
        if not isinstance(raw, dict):
            raise DocumentError(f"{at}.pieces[{k}]: expected an object")
        region = box_from_list(raw.get("region"), f"{at}.pieces[{k}].region")
        value = _value_from_list(raw.get("value"), dim, f"{at}.pieces[{k}].value")
        pieces.append(Piece(region, value))
    try:
        return PiecewiseMap(domain, cod, tuple(pieces))
    except ValueError as exc:
        raise DocumentError(f"{at}: {exc}") from exc


def pair_to_doc(t1: PiecewiseMap, t2: PiecewiseMap, d: BoxSet) -> dict:
    return {"kind": "pair", "t1": map_to_doc(t1), "t2": map_to_doc(t2),
            "d": boxset_to_doc(d)}


def pair_from_doc(doc: Any) -> tuple[PiecewiseMap, PiecewiseMap, BoxSet]:
    body = _expect_kind(doc, "pair")
    return (map_from_doc(body.get("t1"), "pair.t1"), map_from_doc(body.get("t2"), "pair.t2"),
            boxset_from_doc(body.get("d"), "pair.d"))


def product_to_doc(factors: tuple[PiecewiseMap, ...], d_sets: tuple[BoxSet, ...],
                   blocks: tuple[tuple[int, ...], ...]) -> dict:
    return {
        "kind": "product",
        "factors": [map_to_doc(t) for t in factors],
        "d_sets": [boxset_to_doc(s) for s in d_sets],
        "blocks": [list(b) for b in blocks],
    }


def product_from_doc(doc: Any) -> tuple[tuple[PiecewiseMap, ...], tuple[BoxSet, ...],
                                        tuple[tuple[int, ...], ...]]:
    body = _expect_kind(doc, "product")
    factors = tuple(map_from_doc(d, f"product.factors[{k}]")
                    for k, d in enumerate(_as_list(body.get("factors"), "product.factors")))
    d_sets = tuple(boxset_from_doc(d, f"product.d_sets[{k}]")
                   for k, d in enumerate(_as_list(body.get("d_sets"), "product.d_sets")))
    blocks = []
    for k, raw in enumerate(_as_list(body.get("blocks"), "product.blocks")):
        idxs = _as_list(raw, f"product.blocks[{k}]")
        for j in idxs:
            if isinstance(j, bool) or not isinstance(j, int) or j < 0:
                raise DocumentError(f"product.blocks[{k}]: bad coordinate index {j!r}")
        blocks.append(tuple(idxs))
    return factors, d_sets, tuple(blocks)


# -- top level -----------------------------------------------------------

def _expect_kind(doc: Any, kind: str, where: str = "") -> dict:
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise DocumentError(f"{at}expected a JSON object, got {type(doc).__name__}")
    got = doc.get("kind")
    if got != kind:
        raise DocumentError(f"{at}expected kind={kind!r}, got {got!r}")
    return doc


def detect_kind(doc: Any) -> str:
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise DocumentError("document has no 'kind' field")
    return doc["kind"]


def _exact_float(value: Any) -> float:
    from fractions import Fraction  # only a document holding a non-JSON object needs it
    if not isinstance(value, Fraction):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if abs(value) > sys.float_info.max or float(value) != value:
        raise ValueError(f"Fraction {value} is not a float, so no JSON number holds it")
    return float(value)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False, default=_exact_float) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level document must be a JSON object")
    return doc


def save(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def roundtrip_map(t: PiecewiseMap) -> PiecewiseMap:
    """Serialize and reparse a map, returning an independently validated copy."""
    return map_from_doc(loads(dumps(map_to_doc(t))))
