"""The benchmark's tracer wraps mdssd functions by module and name; a rename
in the program must fail here rather than break a traced benchmark run.  The
same holds for the names that `mdssd.__all__` exports."""

from __future__ import annotations

import importlib
import importlib.util
from math import comb
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists():
    tracer = _load_tracer()
    missing = [
        f"mdssd.{home}.{attr}"
        for home, attr, *_ in (*tracer.TRACED, *tracer.GENERATORS, ("field", "make_field"))
        if not hasattr(importlib.import_module(f"mdssd.{home}"), attr)
    ]
    assert not missing
    assert {home for home, *_ in tracer.TRACED} <= set(tracer.MODULES)


def test_every_public_name_exists_once():
    import mdssd

    assert [name for name in mdssd.__all__ if not hasattr(mdssd, name)] == []
    assert len(set(mdssd.__all__)) == len(mdssd.__all__)


def test_traced_verify_records_the_minors_layer():
    """The exhaustive minors of an n <= 16 artifact run behind the name the
    tracer wraps, inside the verify_artifact span."""
    import mdssd.verify as verify
    from mdssd.constructions import build

    art, _ = build("T1ii", 3, 2, m=2, t=2)  # an extended [6, 3] code over F_9
    tr = _load_tracer().Tracer()
    with tr.instrument():
        report = verify.verify_artifact(art)
    assert report.mds_checked == "exhaustive_minors" and report.mds_ok
    names = [name for name, *_ in tr.spans]
    minors = [span for span in tr.spans if span[0] == "verify.minors"]
    assert len(minors) == 1
    assert names[minors[0][3]] == "verify.verify_artifact"
    assert tr.counts["verify.minor_subsets"] == comb(art.n, art.k)
