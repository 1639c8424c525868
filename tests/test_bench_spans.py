"""The benchmark's span tracer wraps library functions by name.

`Tracer.install` (bench/spans.py) looks every `(owner, attr)` of `TRACED` up
in the owner's `__dict__`, so removing or renaming one of those functions
breaks `bench/run.py --trace 1`. This test fails first.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.TRACED if attr not in owner.__dict__]
    assert missing == []
