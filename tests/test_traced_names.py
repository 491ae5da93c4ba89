"""The benchmark's traced run rebinds functions by name; keep those names."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_is_defined_on_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only load
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, class_name, fn_name in spans.TRACED:
        owner = importlib.import_module(f"magvlaq.{module_name}")
        if class_name is not None:
            owner = owner.__dict__.get(class_name)
        if owner is None or not callable(vars(owner).get(fn_name)):
            missing.append(f"{module_name}.{class_name or ''}.{fn_name}")
    assert not missing, f"traced functions not found: {missing}"
