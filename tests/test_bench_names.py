"""The traced bench looks up kidecomp functions by name; a rename must fail here."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"kidecomp.{layer}"), name, None))
    ]
    assert not missing, f"bench/tracing.py traces names that kidecomp no longer has: {missing}"
