"""Command-line behavior: exit codes, document resolution, output formats."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import subprocess
import sys
import weakref
from io import StringIO
from pathlib import Path

import pytest
from click.testing import CliRunner

import boxcorr
from boxcorr import BoxSet, FlaggedInterval, InfoEconomy, Piece, PiecewiseMap, constant_map
from boxcorr import io
from boxcorr.cli import main
from boxcorr.fixedpoint import ProductMap
from boxcorr.gallery import ex2_1, ex4_1
from boxcorr.radner import info_economy_to_doc

I = FlaggedInterval
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def test_check_map_w_usc_passes(runner):
    r = invoke(runner, "check-map", "--property", "w-usc", EXAMPLES / "ex2_1.map")
    assert r.exit_code == 0, r.output
    assert "PASS" in r.output


def test_check_map_usc_fails_near_one(runner):
    r = invoke(runner, "check-map", "--property", "usc", EXAMPLES / "ex2_1.map")
    assert r.exit_code == 1
    assert "witness" in r.output
    assert "(1.0,)" in r.output


def test_check_map_almost_w_usc(runner):
    r = invoke(runner, "check-map", "--property", "almost-w-usc",
               EXAMPLES / "ex2_1.map")
    assert r.exit_code == 0
    assert "almost-w-usc@eps=0.1" in r.output


def test_check_map_dual_property(runner):
    r = invoke(runner, "check-map", "--property", "dual", EXAMPLES / "ex2_2.pair")
    assert r.exit_code == 0


def test_bare_names_resolve_to_bundled_documents(runner):
    r = invoke(runner, "check-map", "--property", "w-usc", "ex2_1.map")
    assert r.exit_code == 0


def test_missing_document_is_input_error(runner):
    r = invoke(runner, "check-map", "no_such_file.map")
    assert r.exit_code == 2
    assert "no such document" in r.output


def test_missing_path_does_not_fall_back_to_bundled_document(runner, tmp_path):
    missing = tmp_path / "missing" / "ex2_1.map"
    r = invoke(runner, "check-map", "--property", "w-usc", missing)
    assert r.exit_code == 2
    assert "no such document" in r.output


def test_4_2_on_an_open_edged_conflict_region_gives_a_verdict(runner, tmp_path):
    from test_economy import open_edge_economy

    doc = tmp_path / "open_edge.econ"
    io.save(open_edge_economy().to_doc(), str(doc))
    r = invoke(runner, "check-hypotheses", doc, "--which", "4.2", "--step", "0.125")
    assert r.exit_code in (0, 1), r.output
    assert "escapes the domain" not in r.output


def test_malformed_document_is_input_error(runner, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text('{"kind": "map"}')
    r = invoke(runner, "check-map", bad)
    assert r.exit_code == 2

    worse = tmp_path / "worse.map"
    worse.write_text("{not json")
    assert invoke(runner, "check-map", worse).exit_code == 2


@pytest.mark.parametrize("command", ["check-map", "find-fixed-points"])
def test_nonfinite_document_number_is_input_error(runner, tmp_path, command):
    d = BoxSet.of(1, [(I.closed(0, 1),)])
    doc = io.map_to_doc(constant_map((I(0, float("inf"), True, False),), d), d)
    path = tmp_path / "unbounded.map"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    r = invoke(runner, command, path)
    assert r.exit_code == 2, r.output
    assert "expected a finite number" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("command", ["check-map", "find-fixed-points"])
def test_domain_too_wide_for_a_grid_is_input_error(runner, tmp_path, command):
    d = BoxSet.of(1, [(I.closed(0, 1),)])
    doc = io.map_to_doc(constant_map((I(-1e308, 1e308, True, False),), d), d)
    path = tmp_path / "wide.map"
    path.write_text(json.dumps(doc))
    r = invoke(runner, command, path)
    assert r.exit_code == 2, r.output
    assert "not finite" in r.output
    assert "Traceback" not in r.output


def test_grid_too_large_is_input_error(runner, tmp_path):
    """A grid of more than 10^8 points exits 2 before it is built: a wide
    finite domain at the default step, or a bundled document at a tiny
    step. For build-radner the grid is the price simplex or the inclusion
    check's allocation axis of truncation/step + 1 points (a wide
    truncation, or a one-good one-state economy whose 50,000,001-point
    simplex passes at step 2e-8); for reproduce-paper it is Example 4.1's
    hypothesis grid, its largest."""
    d = BoxSet.of(1, [(I.closed(0, 1),)])
    doc = io.map_to_doc(constant_map((I(0, 1e12, True, False),), d), d)
    path = tmp_path / "huge.map"
    path.write_text(json.dumps(doc))
    wide = json.loads((EXAMPLES / "radner_toy.econ").read_text())
    wide["truncation"] = 1e12
    wide_path = tmp_path / "wide_truncation.econ"
    wide_path.write_text(json.dumps(wide))
    dom = (I.closed(0, 2),) * 2
    small = InfoEconomy(1, 1, 1, ((1.0, 1.0),), ("pooled",),
                        (PiecewiseMap(dom, 2, (Piece(dom, ()),)),), truncation=2.0)
    small_path = tmp_path / "one_good.econ"
    small_path.write_text(json.dumps(info_economy_to_doc(small)))
    for args in (("check-map", path), ("find-fixed-points", path),
                 ("check-map", "--step", "1e-9", EXAMPLES / "ex2_1.map"),
                 ("find-equilibria", "--step", "1e-5", EXAMPLES / "ex4_1_n2.econ"),
                 ("build-radner", "--step", "1e-9", EXAMPLES / "radner_toy.econ"),
                 ("build-radner", wide_path),
                 ("build-radner", "--step", "2e-8", small_path),
                 # 2^-12 divides 1/2, so only the size rule refuses it
                 ("reproduce-paper", "--step", 2.0 ** -12)):
        r = invoke(runner, *args)
        assert r.exit_code == 2, r.output
        assert "grid points, more than the limit of 100000000" in r.output
        assert "Traceback" not in r.output


def test_build_radner_step_without_a_finite_inverse_is_input_error(runner):
    r = invoke(runner, "build-radner", "--step", "5e-324", EXAMPLES / "radner_toy.econ")
    assert r.exit_code == 2, r.output
    assert "1/step is not finite" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("field", ["dim", "codomain_dim", "blocks"])
def test_boolean_integer_fields_are_input_errors(runner, tmp_path, field):
    doc = ProductMap.single(*ex2_1()).to_doc()
    if field == "dim":
        doc["d_sets"][0]["dim"] = True
    elif field == "codomain_dim":
        doc["factors"][0]["codomain_dim"] = True
    else:
        doc["blocks"] = [[False]]
    path = tmp_path / "bool.product"
    path.write_text(json.dumps(doc))
    r = invoke(runner, "find-fixed-points", path)
    assert r.exit_code == 2, r.output
    assert "Traceback" not in r.output


def test_boolean_target_dim_is_input_error(runner, tmp_path):
    doc = io.map_to_doc(*ex2_1())
    doc["d"]["dim"] = True
    path = tmp_path / "bool_dim.map"
    path.write_text(json.dumps(doc))
    r = invoke(runner, "check-map", "--property", "w-usc", path)
    assert r.exit_code == 2, r.output
    assert "'dim' must be a positive integer" in r.output


def _nested_error(runner, tmp_path, command, source, edit, path, extra=()):
    """Run ``command`` on ``source`` after ``edit``; it must exit 2 with a
    message naming ``path`` and no traceback."""
    doc = json.loads(source.read_text()) if isinstance(source, Path) else source
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = invoke(runner, command, *extra, bad)
    assert r.exit_code == 2, r.output
    assert f"{path}: " in r.output, r.output
    assert "Traceback" not in r.output


def _drop(*keys):
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        del doc[keys[-1]]
    return edit


def _set(value, *keys):
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


def _widen_first_region(doc):
    region = doc["pieces"][0]["region"]
    region.append(region[0])


@pytest.mark.parametrize("edit,path", [
    (_drop("agents", 0, "d"), "agents[0].d"),
    (_drop("agents", 0, "a"), "agents[0].a"),
    (_drop("agents", 1, "p"), "agents[1].p"),
    (_drop("agents", 1, "b"), "agents[1].b"),
    (_set(True, "agents", 0, "d", "dim"), "agents[0].d"),
    (lambda doc: _widen_first_region(doc["agents"][0]["a"]), "agents[0].a"),
], ids=["no-d", "no-a", "no-p", "no-b", "bad-d-dim", "a-region-dim"])
def test_economy_document_errors_name_the_field(runner, tmp_path, edit, path):
    _nested_error(runner, tmp_path, "find-equilibria", EXAMPLES / "ex4_1_n2.econ", edit, path)


def test_module_entry_point_runs_the_command(tmp_path):
    """``python -m boxcorr.cli`` reaches ``main``: an economy without agent
    0's ``d`` exits 2 with the field in the message."""
    doc = json.loads((EXAMPLES / "ex4_1_n2.econ").read_text())
    _drop("agents", 0, "d")(doc)
    bad = tmp_path / "no_agent_d.econ"
    bad.write_text(json.dumps(doc))
    src = str(Path(boxcorr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-m", "boxcorr.cli", "find-equilibria", str(bad)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "agents[0].d: " in r.stderr, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("edit,path", [
    (_drop("t1"), "pair.t1"),
    (_drop("t2"), "pair.t2"),
    (_drop("d"), "pair.d"),
    (lambda doc: _widen_first_region(doc["t2"]), "pair.t2"),
], ids=["no-t1", "no-t2", "no-d", "t2-region-dim"])
def test_pair_document_errors_name_the_field(runner, tmp_path, edit, path):
    _nested_error(runner, tmp_path, "check-map", EXAMPLES / "ex2_2.pair", edit, path,
                  ("--property", "dual"))


@pytest.mark.parametrize("edit,path", [
    (lambda doc: doc["factors"].append(3), "product.factors[1]"),
    (_set(None, "d_sets", 0), "product.d_sets[0]"),
    (_set(True, "factors", 0, "codomain_dim"), "product.factors[0]"),
], ids=["int-factor", "null-d-set", "bool-codomain"])
def test_product_document_errors_name_the_field(runner, tmp_path, edit, path):
    _nested_error(runner, tmp_path, "find-fixed-points", ProductMap.single(*ex2_1()).to_doc(),
                  edit, path)


@pytest.mark.parametrize("edit,path", [
    (_set(3, "d"), "map.d"),
    (_set([], "d", "boxes", 0), "map.d.boxes[0]"),
], ids=["int-d", "empty-d-box"])
def test_map_document_errors_name_the_field(runner, tmp_path, edit, path):
    _nested_error(runner, tmp_path, "find-fixed-points", EXAMPLES / "ex2_1.map", edit, path)


@pytest.mark.parametrize("edit,path", [
    (_set(None, "preferences", 1), "preferences[1]"),
    (lambda doc: _widen_first_region(doc["preferences"][0]), "preferences[0]"),
], ids=["null-preference", "preference-region-dim"])
def test_info_economy_document_errors_name_the_field(runner, tmp_path, edit, path):
    _nested_error(runner, tmp_path, "build-radner", EXAMPLES / "radner_toy.econ", edit, path)


@pytest.mark.parametrize("args", [
    ("find-fixed-points", "ex2_1.map", "--tol", "0.5"),
    ("find-fixed-points", "ex2_1.map", "--delta", "0.5"),
    ("find-equilibria", "ex4_1_n2.econ", "--delta", "0.5"),
    ("find-equilibria", "ex4_1_n2.econ", "--eps-chain", "0.5"),
    ("find-equilibria", "ex4_1_n2.econ", "--tol", "0.5"),
    ("build-radner", "radner_toy.econ", "--eps-chain", "0.5"),
    ("build-radner", "radner_toy.econ", "--delta", "0.5"),
    ("reproduce-paper", "--delta", "0.5"),
])
def test_options_a_command_does_not_read_are_usage_errors(runner, args):
    r = invoke(runner, *args)
    assert r.exit_code == 2, r.output
    assert "No such option" in r.output and args[-2] in r.output


def test_wrong_kind_for_property_is_input_error(runner):
    r = invoke(runner, "check-map", "--property", "dual", EXAMPLES / "ex2_1.map")
    assert r.exit_code == 2
    r = invoke(runner, "check-map", "--property", "usc", EXAMPLES / "ex2_2.pair")
    assert r.exit_code == 2


def test_bad_option_ranges_are_input_errors(runner):
    assert invoke(runner, "check-map", "--step", "-1",
                  EXAMPLES / "ex2_1.map").exit_code == 2
    assert invoke(runner, "check-map", "--tol", "-1",
                  EXAMPLES / "ex2_1.map").exit_code == 2
    assert invoke(runner, "check-map", "--eps-chain", "0.5,bogus",
                  EXAMPLES / "ex2_1.map").exit_code == 2


@pytest.fixture()
def b_map_doc(tmp_path):
    """The B map of ``ex4_1(1)``: its USC check fails with excess 3 at step 1/8."""
    path = tmp_path / "b.map"
    io.save(io.map_to_doc(ex4_1(1).agents[0].b_map), str(path))
    return path


def test_tol_must_be_finite(runner, b_map_doc):
    assert invoke(runner, "check-map", "--step", "0.125", b_map_doc).exit_code == 1
    for value in ("nan", "inf"):
        r = invoke(runner, "check-map", "--step", "0.125", "--tol", value, b_map_doc)
        assert r.exit_code == 2
        assert "--tol must be finite" in r.output


@pytest.mark.parametrize("option", ["--step", "--delta"])
def test_step_and_delta_must_be_finite(runner, b_map_doc, option):
    for value in ("nan", "inf"):
        r = invoke(runner, "check-map", option, value, b_map_doc)
        assert r.exit_code == 2
        assert f"{option} must be finite" in r.output
        assert "Traceback" not in r.output


def test_eps_chain_must_be_finite(runner):
    for chain in ("nan", "0.5,inf"):
        r = invoke(runner, "check-map", "--property", "w-usc", "--eps-chain", chain,
                   EXAMPLES / "ex2_1.map")
        assert r.exit_code == 2
        assert "--eps-chain entries must be finite" in r.output


def test_eps_chain_needs_an_entry(runner):
    for chain in ("", ","):
        r = invoke(runner, "check-map", "--property", "w-usc", "--eps-chain", chain,
                   EXAMPLES / "ex2_1.map")
        assert r.exit_code == 2
        assert "--eps-chain needs at least one radius" in r.output
        assert "Traceback" not in r.output
    r = invoke(runner, "check-map", "--property", "w-usc", "--eps-chain", "0.5,-1",
               EXAMPLES / "ex2_1.map")
    assert r.exit_code == 2
    assert "--eps-chain entries must be positive" in r.output


@pytest.mark.parametrize("args", [
    ("check-hypotheses", EXAMPLES / "ex4_1_n2.econ", "--format", "records"),
    ("check-map", EXAMPLES / "ex2_1.map", "--property", "w-usc"),
])
@pytest.mark.parametrize("chain", ["0.5,0.5", "0.1,0.5,0.10000001"])
def test_eps_chain_entries_with_one_label_are_input_errors(runner, args, chain):
    """Report paths carry each radius as ``{eps:g}``, so two radii with one
    label would give two rows one path."""
    r = invoke(runner, *args, "--eps-chain", chain)
    assert r.exit_code == 2, r.output
    assert "--eps-chain entries give the same report label twice" in r.output
    assert "Traceback" not in r.output


def test_find_fixed_points_merges_a_repeated_eps(runner):
    r = invoke(runner, "find-fixed-points", EXAMPLES / "ex2_1.map", "--eps-chain", "0.5,0.5")
    assert r.exit_code == 0, r.output
    assert r.output.startswith("eps chain: 0.5\n")


def test_reproduce_paper_rejects_nan_tol(runner):
    r = invoke(runner, "reproduce-paper", "--tol", "nan")
    assert r.exit_code == 2
    assert "--tol must be finite" in r.output


def test_find_fixed_points_certifies_target(runner):
    r = invoke(runner, "find-fixed-points", EXAMPLES / "ex2_1.map")
    assert r.exit_code == 0
    assert "(1.0,)  [certified]" in r.output


def test_find_fixed_points_empty_is_exit_3(runner, tmp_path):
    dom = (I.closed(0, 2),)
    t = constant_map(dom, BoxSet.of(1, [(I.closed(0, 0.25),)]))
    d = BoxSet.of(1, [(I.point(1),)])
    doc = tmp_path / "no_overlap.map"
    io.save(io.map_to_doc(t, d), str(doc))
    r = invoke(runner, "find-fixed-points", doc)
    assert r.exit_code == 3
    assert "0 point(s)" in r.output


def test_find_fixed_points_without_target_is_input_error(runner, tmp_path):
    t, _ = ex2_1()
    doc = tmp_path / "bare.map"
    io.save(io.map_to_doc(t), str(doc))
    assert invoke(runner, "find-fixed-points", doc).exit_code == 2


def test_find_equilibria_contains_known_point(runner):
    r = invoke(runner, "find-equilibria", EXAMPLES / "ex4_1_n2.econ",
               "--step", "0.125")
    assert r.exit_code == 0
    assert "(1.5, 1.5)" in r.output


def test_check_hypotheses_variants(runner):
    econ = EXAMPLES / "ex4_1_n2.econ"
    assert invoke(runner, "check-hypotheses", "--which", "4.1", econ).exit_code == 0
    assert invoke(runner, "check-hypotheses", "--which", "4.2", econ).exit_code == 1
    assert invoke(runner, "check-hypotheses", "--which", "4.3", econ).exit_code == 1


def test_build_radner_toy(runner):
    r = invoke(runner, "build-radner", EXAMPLES / "radner_toy.econ")
    assert r.exit_code == 0, r.output
    assert "constraint-inclusion" in r.output
    assert "certificates-clear" in r.output


@pytest.mark.parametrize("truncation", ["NaN", '"2"', "true",
                                        pytest.param(str(10 ** 400), id="10**400"),
                                        pytest.param(str(-10 ** 400), id="-10**400")])
def test_build_radner_rejects_a_bad_truncation(runner, tmp_path, truncation):
    text = (EXAMPLES / "radner_toy.econ").read_text()
    assert '"truncation": 2.0' in text
    doc = tmp_path / "bad_truncation.econ"
    doc.write_text(text.replace('"truncation": 2.0', f'"truncation": {truncation}'))
    r = invoke(runner, "build-radner", doc)
    assert r.exit_code == 2, r.output
    assert "truncation must be a finite number" in r.output
    assert "Traceback" not in r.output


def test_build_radner_rejects_a_truncation_outside_the_preference_domain(runner, tmp_path):
    """The inclusion check samples bundles and allocations over
    [0, truncation], so the preference maps must be defined there: the
    message names the agent, the truncation and the domain, not a drawn
    point."""
    doc = json.loads((EXAMPLES / "radner_toy.econ").read_text())
    doc["truncation"] = 3.0
    path = tmp_path / "wide_truncation.econ"
    path.write_text(json.dumps(doc))
    r = invoke(runner, "build-radner", path)
    assert r.exit_code == 2, r.output
    assert ("truncation 3.0 leaves the domain of agent 0's preference map: "
            "coordinate 0 ranges over [0, 2.0]") in r.output
    assert "outside map domain" not in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("field,value", [("n_goods", True), ("n_agents", 2.0),
                                         ("n_states", "2"), ("n_agents", None)])
def test_build_radner_rejects_counts_that_are_not_integers(runner, tmp_path, field, value):
    doc = json.loads((EXAMPLES / "radner_toy.econ").read_text())
    doc[field] = value
    path = tmp_path / "bad_count.econ"
    path.write_text(json.dumps(doc))
    r = invoke(runner, "build-radner", path)
    assert r.exit_code == 2, r.output
    assert f"{field} must be an integer" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("field,value,message", [
    ("endowments", [[float("nan"), 0.5, 0.5], [0.5, 0.5, 0.5]], "expected a finite number"),
    ("signals", [3, "pooled"], "must be a string"),
    ("signals", ["threshold:9:0.5", "pooled"], "outside the bundle"),
    ("signals", ["threshold:0:nan", "pooled"], "cut must be a finite number"),
    ("signals", ["threshold:1", "pooled"], "expected threshold:<coordinate>:<cut>"),
    ("signals", ["threshold:1:2:3", "pooled"], "expected threshold:<coordinate>:<cut>"),
    ("signals", ["threshold:a:0", "pooled"], "expected threshold:<coordinate>:<cut>"),
    ("signals", ["threshold:1e400:0", "pooled"], "expected threshold:<coordinate>:<cut>"),
    ("endowments", [[10 ** 400, 0.5, 0.5], [0.5, 0.5, 0.5]], "expected a finite number"),
    ("endowments", [[-10 ** 400, 0.5, 0.5], [0.5, 0.5, 0.5]], "expected a finite number"),
])
def test_build_radner_rejects_malformed_endowments_and_signals(runner, tmp_path, field,
                                                               value, message):
    doc = json.loads((EXAMPLES / "radner_toy.econ").read_text())
    doc[field] = value
    path = tmp_path / "bad.econ"
    path.write_text(json.dumps(doc))
    r = invoke(runner, "build-radner", path)
    assert r.exit_code == 2, r.output
    assert message in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("field", ["n_agents", "n_goods", "n_states", "endowments", "signals",
                                   "preferences"])
def test_build_radner_names_a_missing_field(runner, tmp_path, field):
    doc = json.loads((EXAMPLES / "radner_toy.econ").read_text())
    del doc[field]
    path = tmp_path / "missing.econ"
    path.write_text(json.dumps(doc))
    r = invoke(runner, "build-radner", path)
    assert r.exit_code == 2, r.output
    assert f"missing field '{field}'" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("field,value,message", [
    ("signals", "po", "signals: expected a list, got str"),
    ("signals", None, "signals: expected a list, got NoneType"),
    ("preferences", {}, "preferences: expected a list, got dict"),
])
def test_build_radner_rejects_signals_and_preferences_that_are_not_lists(runner, tmp_path, field,
                                                                         value, message):
    doc = json.loads((EXAMPLES / "radner_toy.econ").read_text())
    doc[field] = value
    path = tmp_path / "not_a_list.econ"
    path.write_text(json.dumps(doc))
    r = invoke(runner, "build-radner", path)
    assert r.exit_code == 2, r.output
    assert message in r.output
    assert "Traceback" not in r.output


def test_records_format_is_line_delimited_json(runner):
    r = invoke(runner, "check-map", "--property", "usc", "--format", "records",
               EXAMPLES / "ex2_1.map")
    assert r.exit_code == 1
    rows = [json.loads(line) for line in r.output.strip().splitlines()]
    assert rows[0]["path"] == "usc"
    assert rows[0]["verdict"] == "fail"
    assert rows[0]["witnesses"][0]["point"] == [1.0]


def test_out_writes_file(runner, tmp_path):
    out = tmp_path / "report.jsonl"
    r = invoke(runner, "check-map", "--property", "w-usc", "--format", "records",
               "--out", out, EXAMPLES / "ex2_1.map")
    assert r.exit_code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(row["verdict"] == "pass" for row in rows)


@pytest.mark.parametrize("prop,verdict", [("w-usc", 0), ("usc", 1)])
@pytest.mark.parametrize("where,reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
def test_out_to_an_unwritable_path_is_input_error(runner, tmp_path, prop, verdict, where,
                                                  reason):
    """A report that cannot be written exits 2 with the path and the reason,
    whether the property passes or fails; exit 1 means the property fails."""
    assert invoke(runner, "check-map", "--property", prop, "ex2_1.map").exit_code == verdict
    out = tmp_path / "missing" / "r.txt" if where == "missing" else tmp_path
    r = invoke(runner, "check-map", "--property", prop, "--out", out, "ex2_1.map")
    assert r.exit_code == 2
    assert f"cannot write report to {out}: {reason}" in r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output


def test_out_records_alias_selects_format(runner):
    r = invoke(runner, "check-map", "--property", "w-usc", "--out", "records",
               EXAMPLES / "ex2_1.map")
    assert r.exit_code == 0
    json.loads(r.output.strip().splitlines()[0])


def test_reproduce_paper_coarse_and_guarded(runner):
    assert invoke(runner, "reproduce-paper", "--step", "0.5").exit_code == 0
    bad = invoke(runner, "reproduce-paper", "--step", "0.3")
    assert bad.exit_code == 2
    assert "divide" in bad.output


def test_equilibria_records_include_certificates(runner):
    r = invoke(runner, "find-equilibria", "--format", "records",
               EXAMPLES / "ex4_1_n2.econ")
    assert r.exit_code == 0
    rows = [json.loads(line) for line in r.output.strip().splitlines()]
    assert rows[0]["record"] == "equilibria"
    assert rows[0]["count"] == len(rows) - 1
    assert any(row.get("point") == [1.5, 1.5] for row in rows[1:])


def test_in_process_run_frees_its_redirected_output():
    """A caller that runs the CLI in process under ``redirect_stdout`` gets
    its output, and the buffer is freed once the caller drops it: click's
    default stream lookup would cache every ``sys.stdout`` it sees."""
    buf = StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        main(["find-equilibria", "--format", "records", str(EXAMPLES / "ex4_1_n2.econ")])
    assert exc.value.code == 0
    assert json.loads(buf.getvalue().splitlines()[0])["record"] == "equilibria"
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None
