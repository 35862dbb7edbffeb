"""The benchmark traces the package's layers by patching module-level names
from outside (``perfbench/spans.py``).  A name it patches that the package no
longer has drops that layer's metrics without an error, so each must exist.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_exist_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, attr) for module, attr, _ in spans.SPANS] + [spans.NFEV_COUNTER]
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"retreatwave.{module}"), attr, None))
    ]
    assert spans.SPANS and not missing, missing
