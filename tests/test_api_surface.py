"""The public names and the entry points the benchmark tracer wraps.

A deletion that drops a name from ``boxcorr.__all__`` or an entry point
``perfbench/tracer.py`` wraps would otherwise surface only as an import
error in a traced benchmark run.
"""

from __future__ import annotations

import pathlib
import sys

import boxcorr

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _boxcorr_bindings() -> dict:
    """Every module attribute of the loaded boxcorr package, by identity."""
    return {(name, key): id(value) for name, module in list(sys.modules.items())
            if name == "boxcorr" or name.startswith("boxcorr.")
            for key, value in vars(module).items()}


def test_every_public_name_resolves():
    missing = [name for name in boxcorr.__all__ if not hasattr(boxcorr, name)]
    assert missing == []
    namespace: dict = {}
    exec("from boxcorr import *", namespace)
    assert set(boxcorr.__all__) <= set(namespace)


def test_tracer_installs_and_restores_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    targets = [(owner, attr) for spans in (tracer.SPANS, tracer.COUNTS)
               for entries in spans.values() for owner, attr in entries]
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []
    originals = {(id(owner), attr): vars(owner)[attr] for owner, attr in targets}
    before = _boxcorr_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for owner, attr in targets:
            assert vars(owner)[attr] is not originals[(id(owner), attr)]
    finally:
        t.uninstall()
    for owner, attr in targets:
        assert vars(owner)[attr] is originals[(id(owner), attr)]
    assert _boxcorr_bindings() == before
