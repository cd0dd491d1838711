"""The benchmark's tracer wraps mdssd functions by module and name; a rename
in the program must fail here rather than break a traced benchmark run.  The
same holds for the names that `mdssd.__all__` exports.  A traced function
that the program stops calling must fail here too, rather than leave its
layer reading 0 on every workload, and so must a public function that
nothing in the program reads and nothing lists with its reason."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from math import comb
from pathlib import Path

from test_no_dead_code import SRC, references

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Public functions that nothing in src/mdssd reads, each with its reason;
# every one of them is traced.
UNREAD_IN_SRC = {
    "constructions.construct_from_params":
        "public entry for validated parameters; `build` and the census construct without it",
    "constructions.iter_valid_params":
        "public enumeration; the census reads `valid_param_arrays` directly",
    "grs.all_locators":
        "the brute-force locators, the tests' oracle; every family's locators are closed form",
    "grs.artifact_to_dict":
        "public list form of an artifact; the CLI writes `artifact_record` with G as an array",
    "verify.gram_is_zero":
        "public Gram check; `verify_artifact` tests the GRS structure and calls `_gram_witness`",
    "census.prior_lengths": "public shorthand for a `census_report`; only tests call it",
    "census.new_lengths": "public shorthand for a `census_report`; only tests call it",
}


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


def unread_functions(trees: dict[str, ast.Module], names) -> list[str]:
    """The "module.function" names among `names` whose function nothing in
    `trees` reads outside its own definition, by name as in
    `test_no_dead_code`: a load of the name or an attribute of that name."""
    unread = []
    for name in names:
        home, attr = name.split(".")
        definition = next(node for node in trees[home].body
                          if isinstance(node, ast.FunctionDef) and node.name == attr)
        own = {id(inner) for inner in ast.walk(definition)}
        if not any(ref == attr and id(node) not in own
                   for tree in trees.values() for ref, node in references(tree)):
            unread.append(name)
    return unread


def _src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_traced_function_is_read_in_src_or_listed_as_unread():
    tracer = _load_tracer()
    trees = _src_trees()
    traced = [f"{home}.{attr}" for home, attr, *_ in (*tracer.TRACED, *tracer.GENERATORS)]
    unread = set(unread_functions(trees, traced))
    assert sorted(unread - set(UNREAD_IN_SRC)) == []  # newly unread: call it, or list why not
    assert sorted(set(UNREAD_IN_SRC) - unread) == []  # read again: drop it from the list


def test_every_public_function_is_read_in_src_or_listed_as_unread():
    trees = _src_trees()
    public = [f"{home}.{node.name}" for home, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    # unread and unlisted: delete it, or list why it stays
    assert sorted(set(unread_functions(trees, public)) - set(UNREAD_IN_SRC)) == []


def test_the_unread_guard_finds_an_uncalled_function():
    module = ("def f():\n    return f()\n\n\ndef g():\n    return 0\n\n\n"
              "def h():\n    return 0\n")
    other = "import m\n\nx = m.g()\n"
    trees = {"m": ast.parse(module), "n": ast.parse(other)}
    assert unread_functions(trees, ["m.f", "m.g", "m.h"]) == ["m.f", "m.h"]
