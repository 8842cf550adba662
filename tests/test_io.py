"""Document serialization: exact roundtrips and strict validation."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from boxcorr import BoxSet, DocumentError, FlaggedInterval, Grid
from boxcorr import io
from boxcorr.economy import economy_from_doc, economy_to_doc
from boxcorr.fixedpoint import ProductMap
from boxcorr.gallery import ex2_1, ex2_2, ex4_1, theorem_4_1_construction
from boxcorr.radner import info_economy_from_doc, info_economy_to_doc, radner_toy

I = FlaggedInterval
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_map_roundtrip_bit_exact():
    t1, d = ex2_1()
    doc = io.map_to_doc(t1, d)
    text = io.dumps(doc)
    back = io.map_from_doc(io.loads(text))
    assert back == t1
    assert io.map_doc_target(io.loads(text)) == d
    assert io.dumps(io.map_to_doc(back, d)) == text


def test_pair_roundtrip():
    a, b, d = ex2_2()
    a2, b2, d2 = io.pair_from_doc(io.loads(io.dumps(io.pair_to_doc(a, b, d))))
    assert (a2, b2, d2) == (a, b, d)


def test_product_roundtrip():
    pm = theorem_4_1_construction(ex4_1(2))
    back = ProductMap.from_doc(io.loads(io.dumps(pm.to_doc())))
    assert back == pm


def test_economy_roundtrip():
    e = ex4_1(2)
    back = economy_from_doc(io.loads(io.dumps(economy_to_doc(e))))
    assert back == e


def test_info_economy_roundtrip():
    e = radner_toy()
    back = info_economy_from_doc(io.loads(io.dumps(info_economy_to_doc(e))))
    assert back == e


def test_boxset_roundtrip_preserves_flags():
    s = BoxSet.of(2, [
        (I(0, 1, False, True), I.point(0.5)),
        (I.open(1.5, 2), I.closed(0, 1)),
    ])
    assert io.boxset_from_doc(io.boxset_to_doc(s)) == s


def test_grid_roundtrip():
    g = Grid(2, (0.0, 0.5), (2.0, 1.5), 0.25)
    assert io.grid_from_doc(io.grid_to_doc(g)) == g


def test_detect_kind():
    t1, d = ex2_1()
    a, b, d22 = ex2_2()
    assert io.detect_kind(io.map_to_doc(t1, d)) == "map"
    assert io.detect_kind(io.pair_to_doc(a, b, d22)) == "pair"
    assert io.detect_kind(economy_to_doc(ex4_1(2))) == "economy"
    assert io.detect_kind(info_economy_to_doc(radner_toy())) == "info-economy"


def test_loads_rejects_non_object():
    with pytest.raises(DocumentError):
        io.loads("[1, 2]")
    with pytest.raises(DocumentError):
        io.loads("not json")


def test_doc_validation_catches_missing_fields():
    t1, d = ex2_1()
    doc = io.map_to_doc(t1, d)
    broken = dict(doc)
    del broken["pieces"]
    with pytest.raises(DocumentError):
        io.map_from_doc(broken)
    wrong = dict(doc, kind="pair")
    with pytest.raises(DocumentError):
        io.map_from_doc(wrong)


def test_doc_validation_rejects_bad_interval():
    with pytest.raises(DocumentError):
        io.boxset_from_doc({"kind": "boxset", "dim": 1,
                            "boxes": [[[2.0, 1.0, True, True]]]})


@pytest.mark.parametrize("region, problem", [
    ([[0, 1, "yes", True]], "expected a boolean, got 'yes'"),
    ([[0, 1, True, 1]], "expected a boolean, got 1"),
    ([[1, 0, True, True]], "interval endpoints out of order"),
])
def test_interval_errors_name_their_field_once(region, problem):
    doc = {"kind": "map", "domain": [[0, 1, True, True]], "codomain_dim": 1,
           "pieces": [{"region": region, "value": []}]}
    with pytest.raises(DocumentError) as exc:
        io.map_from_doc(doc)
    assert str(exc.value).startswith("map.pieces[0].region[0]: " + problem)
    assert str(exc.value).count("region[0]") == 1


# JSON true and false load as ints (bool subclasses int), so each integer
# field must refuse them explicitly.

def test_boxset_dim_rejects_booleans():
    doc = io.boxset_to_doc(BoxSet.of(1, [(I.point(1),)]))
    assert doc["dim"] == 1
    with pytest.raises(DocumentError, match="'dim' must be a positive integer"):
        io.boxset_from_doc(dict(doc, dim=True))


def test_map_codomain_dim_rejects_booleans():
    doc = io.map_to_doc(ex2_1()[0])
    assert doc["codomain_dim"] == 1
    with pytest.raises(DocumentError, match="'codomain_dim' must be a positive integer"):
        io.map_from_doc(dict(doc, codomain_dim=True))


def test_product_block_indices_reject_booleans():
    doc = ProductMap.single(*ex2_1()).to_doc()
    assert doc["blocks"] == [[0]]
    with pytest.raises(DocumentError, match="bad coordinate index False"):
        io.product_from_doc(dict(doc, blocks=[[False]]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_documents_reject_nonfinite_numbers(bad):
    t1, d = ex2_1()
    domain_end = io.map_to_doc(t1, d)
    domain_end["domain"][0][1] = bad
    coeff = io.map_to_doc(t1, d)
    coeff["pieces"][0]["value"][0][0][0][1][0] = bad
    for doc in (domain_end, coeff):
        with pytest.raises(DocumentError, match="expected a finite number"):
            io.map_from_doc(doc)
    with pytest.raises(DocumentError, match="expected a finite number"):
        io.grid_from_doc(dict(io.grid_to_doc(Grid(1, (0.0,), (1.0,), 0.25)), step=bad))


def test_dumps_rejects_nonfinite():
    with pytest.raises(ValueError):
        io.dumps({"kind": "x", "v": float("inf")})


def test_dumps_writes_a_fraction_only_as_the_float_it_equals():
    doc = {"numbers": [Fraction(-1, 4), Fraction(3), Fraction(0)]}
    assert json.loads(io.dumps(doc)) == {"numbers": [-0.25, 3.0, 0.0]}
    for bad in (Fraction(1, 3), Fraction(10 ** 400)):
        with pytest.raises(ValueError, match=str(bad)):
            io.dumps({"x": bad})
    with pytest.raises(TypeError):
        io.dumps({"x": object()})


def test_roundtrip_map_helper_identity():
    t1, _ = ex2_1()
    assert io.roundtrip_map(t1) == t1


@pytest.mark.parametrize("name,builder", [
    ("ex2_1.map", lambda: io.map_to_doc(*ex2_1())),
    ("ex2_2.pair", lambda: io.pair_to_doc(*ex2_2())),
    ("ex4_1_n2.econ", lambda: economy_to_doc(ex4_1(2))),
    ("radner_toy.econ", lambda: info_economy_to_doc(radner_toy())),
])
def test_shipped_documents_match_builders(name, builder):
    """The bundled documents must stay regenerable from the gallery."""
    shipped = json.loads((EXAMPLES / name).read_text())
    assert shipped == builder()
    from importlib import resources
    packaged = resources.files("boxcorr").joinpath("data", name).read_text()
    assert json.loads(packaged) == builder()


def test_save_and_load(tmp_path):
    t1, d = ex2_1()
    doc = io.map_to_doc(t1, d)
    path = tmp_path / "t.map"
    io.save(doc, str(path))
    assert io.load(str(path)) == doc
