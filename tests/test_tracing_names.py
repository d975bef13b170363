"""The benchmark tracer wraps package functions it names by string; a rename
or removal in the package must not leave one of those names dangling."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_spanned_and_counted_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(layer, name) for layer, name, _ in tracing.SPANNED] + list(tracing.COUNTED)
    missing = [f"{layer}.{name}" for layer, name in names
               if not callable(getattr(importlib.import_module(f"sentinel.{layer}"), name, None))]
    assert missing == []
