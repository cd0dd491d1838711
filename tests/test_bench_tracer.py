"""The benchmark's tracer wraps mdssd functions by module and name; a rename
in the program must fail here rather than break a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"mdssd.{home}.{attr}"
        for home, attr, *_ in (*tracer.TRACED, *tracer.GENERATORS, ("field", "make_field"))
        if not hasattr(importlib.import_module(f"mdssd.{home}"), attr)
    ]
    assert not missing
    assert {home for home, *_ in tracer.TRACED} <= set(tracer.MODULES)
