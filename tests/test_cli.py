"""Command-line interface: exit codes, JSON output, round trips."""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mdssd.cli import main
from mdssd.constructions import THEOREMS
from mdssd.grs import to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


# every package error and the exit code the CLI ends in when it escapes
EXIT_CODES = {
    "MdssdError": 2, "NonPrime": 2, "EvenCharacteristic": 2, "DegreeZero": 2,
    "MalformedArtifact": 2, "HypothesisViolated": 2, "UnsupportedTheorem": 2,
    "EvenQ": 2,
    "CannotCarryOut": 3, "FieldTooLarge": 3, "TooLargeToMaterialize": 3,
    "TooLargeToValidate": 3, "TooLarge": 3, "BudgetExceeded": 3,
    "NotEnoughCosets": 3, "ParityInfeasible": 3, "SquareConditionViolated": 3,
    "DuplicatePoint": 3, "OddLength": 3, "NotDividing": 3, "NotASubfield": 3,
    "ZeroToNegativePower": 3, "DimensionMismatch": 3,
    "SpotCheckFailed": 4,
}


def test_every_error_class_carries_its_exit_code():
    import inspect

    import mdssd.errors as errors

    classes = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, errors.MdssdError)}
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES


def test_field_info_f9(capsys):
    code, doc, _ = run(capsys, "field-info", "--p", "3", "--deg", "2")
    assert code == 0
    assert doc["modulus_str"] == "x^2+1" and doc["generator_str"] == "1+x"
    assert doc["q"] == 9


def test_field_info_rejects_even_and_composite(capsys):
    code, doc, _ = run(capsys, "field-info", "--p", "2", "--deg", "3")
    assert code == 2 and "characteristic 2" in doc["error"]
    code, doc, _ = run(capsys, "field-info", "--p", "9", "--deg", "1")
    assert code == 2 and doc["error"] == "9 is not prime"


def test_field_info_accepts_composite_q(capsys):
    code, doc, _ = run(capsys, "field-info", "--q", "25")
    assert code == 0 and doc["p"] == 5 and doc["d"] == 2


def test_construct_t1i_f9(capsys):
    code, doc, _ = run(capsys, "construct", "--q", "9",
                       "--theorem", "T1i", "--m", "4", "--t", "1")
    assert code == 0
    assert doc["n"] == 4 and doc["verification"]["self_dual"] is True
    assert doc["a"] == [1, 6, 2, 3]


def test_construct_invalid_params_exit_2(capsys):
    code, doc, err = run(capsys, "construct", "--q", "25",
                         "--theorem", "T1ii", "--m", "2", "--t", "2")
    assert code == 2
    assert "t is even, m is even and r" in doc["error"]
    assert "t is even" in err


def test_construct_over_budget_exit_3(capsys):
    code, doc, _ = run(capsys, "construct", "--p", "5", "--deg", "27",
                       "--theorem", "T5", "--k", "3", "--t", "31", "--e", "7")
    assert code == 3
    assert "budget" in doc["error"]


@pytest.mark.parametrize("argv", [
    ("--p", "3", "--deg", "14", "--theorem", "T4", "--e", "1"),
    ("--p", "3", "--deg", "40", "--theorem", "T5", "--k", "1", "--t", "1", "--e", "0"),
])
def test_construct_field_too_large_exit_3(argv, capsys):
    # valid parameters whose field exceeds the table budget
    code, doc, err = run(capsys, "construct", *argv)
    assert code == 3
    assert "exceeds the field materialization budget" in doc["error"]
    assert "Traceback" not in err


def test_construct_validates_once(monkeypatch, capsys):
    import mdssd.constructions as constructions

    calls = []
    validate = constructions.validate

    def counting(*args, **kw):
        calls.append(args)
        return validate(*args, **kw)

    monkeypatch.setattr(constructions, "validate", counting)
    code, _, _ = run(capsys, "construct", "--q", "49", "--theorem", "T3ii",
                     "--m", "4", "--t", "2", "--s", "4")
    assert code == 0 and len(calls) == 1


def test_construct_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "art.json"
    code, _, _ = run(capsys, "construct", "--q", "9", "--theorem", "T4",
                     "--e", "1", "--out", str(out))
    assert code == 0
    code, doc, _ = run(capsys, "verify", "--in", str(out))
    assert code == 0 and doc["self_dual"] is True


# one job per theorem over F_49, with the MDS oracles wherever their budgets
# allow, and a mid-size code over F_151^2
NO_LIST_JOBS = (
    ("49", "T1i", "--m", "3", "--t", "4"),
    ("49", "T1ii", "--m", "2", "--t", "3"),
    ("49", "T2", "--m", "3", "--t", "3"),
    ("49", "T3i", "--m", "4", "--t", "3", "--s", "2"),
    ("49", "T3ii", "--m", "2", "--t", "4", "--s", "2"),
    ("49", "T4", "--e", "1"),
    ("49", "T5", "--t", "1", "--e", "1", "--k", "1"),
    ("22801", "T1i", "--m", "6", "--t", "71"),
)


def test_construct_and_verify_build_no_table_lists(tmp_path, capsys):
    # scalar arithmetic reads the field's arrays, so no job builds a
    # q-entry Python list
    from mdssd.field import make_field

    make_field.cache_clear()
    out = tmp_path / "art.json"
    for q, theorem, *params in NO_LIST_JOBS:
        code, _, _ = run(capsys, "construct", "--q", q, "--theorem", theorem, *params,
                         "--out", str(out))
        assert code == 0, (theorem, params)
        code, doc, _ = run(capsys, "verify", "--in", str(out))
        assert code == 0 and doc["self_dual"] is True, (theorem, params)
    for p, d in ((7, 2), (151, 2)):
        assert not [key for key, value in vars(make_field(p, d)).items()
                    if isinstance(value, list)]


@pytest.mark.parametrize("q,theorem,params,p,d,mds", [
    ("22801", "T1i", ["--m", "6", "--t", "71"], 151, 2, "--no-mds"),
    ("81", "T4", ["--e", "1"], 3, 4, "--mds"),
])
def test_verify_builds_no_table_lists(q, theorem, params, p, d, mds, tmp_path, capsys):
    # verify alone, on a fresh field cache, the MDS oracles included
    from mdssd.field import make_field

    out = tmp_path / "art.json"
    run(capsys, "construct", "--q", q, "--theorem", theorem, *params, "--no-mds",
        "--out", str(out))
    make_field.cache_clear()
    code, doc, _ = run(capsys, "verify", "--in", str(out), mds)
    assert code == 0 and doc["self_dual"] is True
    assert not [key for key, value in vars(make_field(p, d)).items()
                if isinstance(value, list)]


def test_verify_corrupted_artifact_exit_4(tmp_path, capsys):
    out = tmp_path / "art.json"
    run(capsys, "construct", "--q", "9", "--theorem", "T1ii",
        "--m", "2", "--t", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["G"][1][1] = (doc["G"][1][1] + 3) % 9
    out.write_text(json.dumps(doc))
    code, rep, err = run(capsys, "verify", "--in", str(out))
    assert code == 4 and rep["self_dual"] is False
    assert "failed" in err


def test_verify_truncated_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"q": 9, "p": 3,')
    code, doc, _ = run(capsys, "verify", "--in", str(bad))
    assert code == 2 and "cannot load artifact" in doc["error"]


def test_census_f9_lists_q_plus_one(capsys):
    code, doc, _ = run(capsys, "census", "--q", "9", "--rows", "all", "--list")
    assert code == 0
    assert 10 in doc["lengths"]
    assert doc["count"] == doc["union_count"]


def test_census_rows_selection(capsys):
    _, prior, _ = run(capsys, "census", "--q", "49", "--rows", "prior")
    _, new, _ = run(capsys, "census", "--q", "49", "--rows", "new")
    _, both, _ = run(capsys, "census", "--q", "49", "--rows", "all")
    assert prior["count"] == prior["prior_count"]
    assert new["count"] == new["new_count"]
    assert both["count"] == both["union_count"] >= max(prior["count"], new["count"])


def test_census_spot_checks(capsys):
    code, doc, _ = run(capsys, "census", "--q", "25", "--spot-check-bound", "12")
    assert code == 0
    assert all(v.startswith("ok:") for v in doc["spot_checks"].values())


@pytest.mark.parametrize("extra", [(), ("--spot-check-bound", "12")])
def test_census_enumerates_once(extra, monkeypatch, capsys):
    import mdssd.census as census

    calls = []
    enumerate_params = census.valid_param_arrays

    def counting(*args):
        calls.append(args)
        return enumerate_params(*args)

    monkeypatch.setattr(census, "valid_param_arrays", counting)
    code, doc, _ = run(capsys, "census", "--q", "25", *extra)
    assert code == 0 and calls == [(5, 2, 26)]
    assert ("spot_checks" in doc) == bool(extra)


def test_census_invalid_q_exit_2(capsys):
    assert run(capsys, "census", "--q", "16")[0] == 2


def test_census_decides_prime_power_before_budget(capsys):
    # 100001 = 11 * 9091 is no prime power, whatever the budget
    code, doc, _ = run(capsys, "census", "--q", "100001")
    assert code == 2 and "odd prime power" in doc["error"]
    # 3^11 is valid, and beyond the census budget
    code, doc, _ = run(capsys, "census", "--q", "177147")
    assert code == 3 and "census budget" in doc["error"]


def test_artifact_output_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        run(capsys, "construct", "--q", "49", "--theorem", "T3ii",
            "--m", "4", "--t", "2", "--s", "4", "--out", str(out))
    assert out1.read_bytes() == out2.read_bytes()


def test_cached_parser_runs_jobs_like_a_fresh_one(tmp_path, monkeypatch, capsys):
    """One process runs construct, a bad argv, verify and census through the
    parser built once; each ends as it does with a freshly built parser."""
    import mdssd.cli as cli

    art = tmp_path / "f9.json"
    jobs = (
        ["construct", "--q", "9", "--theorem", "T1ii", "--m", "2", "--t", "2",
         "--out", str(art)],
        ["construct", "--q", "9", "--theorem", "T9"],  # argparse exits 2
        ["verify", "--in", str(art)],
        ["census", "--q", "9", "--list", "--spot-check-bound", "6"],
    )

    def outcomes():
        got = []
        for argv in jobs:
            try:
                code = cli.main(list(argv))
            except SystemExit as ex:
                code = ex.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err, art.read_bytes()))
        return got

    cached = outcomes()
    assert cli.make_parser() is cli.make_parser()
    assert [code for code, *_ in cached] == [0, 2, 0, 0]
    assert "invalid choice: 'T9'" in cached[1][2]
    monkeypatch.setattr(cli, "make_parser", cli.make_parser.__wrapped__)
    assert outcomes() == cached


def _set(path, value):
    def mutate(doc):
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value
    return mutate


def _drop(key, index=-1):
    return lambda doc: doc[key].pop(index)


# T1ii over F_9 with m=2, t=2: an extended [6, 3] code, 5 finite points
MALFORMED = {
    "G-str": _set(("G", 1, 2), "6"),
    "G-float": _set(("G", 1, 2), 6.0),
    "G-bool": _set(("G", 0, 0), True),
    "a-float": _set(("a", 1), 1.0),
    "v-bool": _set(("v", 0), True),
    "G-minus-q": _set(("G", 1, 2), lambda x: x - 9),
    "G-plus-q": _set(("G", 1, 2), lambda x: x + 9),
    "G-beyond-int64": _set(("G", 1, 2), 2**70),
    "G-row-not-list": _set(("G", 1), 5),
    "a-out-of-range": _set(("a", 0), 9),
    "a-repeated-point": lambda doc: doc["a"].__setitem__(1, doc["a"][0]),
    "v-negative": _set(("v", 1), -1),
    "G-missing-row": _drop("G"),
    "G-extra-row": lambda doc: doc["G"].append(doc["G"][0][:]),
    "G-short-row": lambda doc: doc["G"][2].pop(),
    "n-mismatch": _set(("n",), 8),
    "extended-flag": _set(("construction", "extended"), False),
    "v-short": _drop("v"),
    "k-str": _set(("k",), "3"),
    "k-zero": _set(("k",), 0),
    "d-bool": _set(("d",), True),
    "p-float": _set(("p",), 3.0),
    "n-negative": _set(("n",), -6),
    "extended-int": _set(("construction", "extended"), 1),
    "construction-list": _set(("construction",), []),
    "q-wrong": _set(("q",), 25),
    "q-str": _set(("q",), "nine"),
    "q-missing": lambda doc: doc.pop("q"),
    "a-missing": lambda doc: doc.pop("a"),
    "G-missing": lambda doc: doc.pop("G"),
    "v-zero": _set(("v", 1), 0),
    "modulus-float": _set(("modulus",), lambda m: [float(c) for c in m]),
    "modulus-bool": _set(("modulus", 1), False),
}


@pytest.fixture(scope="module")
def artifact_doc():
    from mdssd.constructions import build
    from mdssd.grs import artifact_to_dict

    art, _ = build("T1ii", 3, 2, m=2, t=2)
    return artifact_to_dict(art)


# the spaced, unsorted text of json.dumps reaches only the strict path;
# to_json's canonical text reaches the canonical reader first
SERIALIZATIONS = (json.dumps, to_json)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_malformed_artifact_exit_2(name, artifact_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(artifact_doc))
    MALFORMED[name](doc)
    path = tmp_path / "bad.json"
    outcomes = []
    for dump in SERIALIZATIONS:
        path.write_text(dump(doc))
        code, rep, err = run(capsys, "verify", "--in", str(path))
        assert code == 2 and "cannot load artifact: malformed artifact" in rep["error"]
        assert "Traceback" not in err
        outcomes.append((code, rep, err))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("text", ["[1,2]", "5", "null", '"abc"'])
def test_verify_non_object_document_exit_2(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert code == 2 and rep["error"].startswith(
        "cannot load artifact: malformed artifact: an artifact must be a JSON object, got ")
    assert "Traceback" not in err


def _canonical(doc, row=None, col=None, text=None):
    """to_json(doc), with G[row][col] written as `text` when given."""
    if text is None:
        return to_json(doc)
    doc = json.loads(json.dumps(doc))
    doc["G"][row][col] = 777777
    return to_json(doc).replace("777777", text, 1)


def _second_g(doc):
    G = json.loads(json.dumps(doc["G"]))
    G[1][2] = 9
    return to_json(doc)[:-1] + ',"G":' + to_json({"G": G})[5:-1] + "}"


def _ragged(doc):
    doc = json.loads(json.dumps(doc))
    doc["G"][1].append(doc["G"][0].pop())
    return to_json(doc)


# Texts that look canonical, with the exit code and the start of the error
# that the strict path gives them (None: the report of the valid artifact).
# G[0][5] is 0, in the extended column.
CANONICAL_LOOKING = {
    "leading-zero": (lambda doc: _canonical(doc, 1, 2, "07"), 2, "Expecting ',' delimiter"),
    "minus-zero": (lambda doc: _canonical(doc, 0, 5, "-0"), 0, None),
    "empty-row": (lambda doc: to_json({**doc, "G": [doc["G"][0], [], doc["G"][2]]}), 2,
                  "malformed artifact: G row 1 must be a list of 6 entries"),
    "double-comma": (lambda doc: _canonical(doc, 1, 2, ""), 2, "Expecting value"),
    "stray-bracket": (lambda doc: _canonical(doc, 1, 2, "[3"), 2, "Expecting"),
    "beyond-int64": (lambda doc: _canonical(doc, 1, 2, str(2**70)), 2,
                     "malformed artifact: G row 1 has an entry outside [0, 9)"),
    "ragged-rows": (_ragged, 2, "malformed artifact: G row 0 must be a list of 6 entries"),
    "extra-row": (lambda doc: to_json({**doc, "G": [*doc["G"], doc["G"][0]]}), 2,
                  "malformed artifact: G must be a list of k = 3 rows"),
    "second-G": (_second_g, 2, "malformed artifact: G row 1 has an entry outside [0, 9)"),
    "trailing-bytes": (lambda doc: to_json(doc) + "}", 2, "Extra data"),
    "space-in-G": (lambda doc: to_json(doc).replace("],[", "], [", 1), 0, None),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_LOOKING))
def test_verify_canonical_looking_text_ends_as_on_the_strict_path(name, artifact_doc, tmp_path,
                                                                   capsys, monkeypatch):
    import mdssd.grs as grs

    make, want_code, want_error = CANONICAL_LOOKING[name]
    path = tmp_path / "art.json"
    path.write_text(make(artifact_doc))
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert code == want_code and "Traceback" not in err
    if want_error is None:
        path.write_text(to_json(artifact_doc))
        assert (code, rep) == run(capsys, "verify", "--in", str(path))[:2]
    else:
        assert rep["error"].startswith(f"cannot load artifact: {want_error}")
    path.write_text(make(artifact_doc))
    monkeypatch.setattr(grs, "_canonical_parts", lambda text: None)
    assert run(capsys, "verify", "--in", str(path)) == (code, rep, err)


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"G":' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["top-level", "under-G"])
def test_verify_deeply_nested_json_exit_2(text, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert code == 2 and rep["error"].startswith("cannot load artifact: maximum recursion depth")
    assert "Traceback" not in err


@pytest.mark.parametrize("dump", [
    functools.partial(json.dumps, indent=2),
    json.dumps,
    functools.partial(json.dumps, sort_keys=True),
    to_json,
], ids=["indented", "spaced", "sorted-spaced", "canonical"])
def test_verify_reads_any_valid_layout_the_same(dump, artifact_doc, tmp_path, capsys):
    path = tmp_path / "art.json"
    path.write_text(dump(artifact_doc))
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert (code, rep, err) == (0, {"mds_checked": "exhaustive_minors", "mds_ok": True,
                                    "min_distance": 4, "rank_ok": True, "self_dual": True}, "")


def _proportional_columns(G):
    """G with column 1 replaced by column 0, so every minor on columns
    0 and 1 is singular."""
    return [[row[0], row[0], *row[2:]] for row in G]


def _assert_names_minor(err, columns):
    named = f"singular minor at columns {columns}"
    assert named in err
    assert err.index(named) < err.index("verification failed")


def test_verify_names_singular_minor(artifact_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(artifact_doc))
    doc["G"] = _proportional_columns(doc["G"])
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert code == 4 and rep["mds_ok"] is False
    assert "singular" not in json.dumps(rep)  # the report's bytes keep their form
    _assert_names_minor(err, "(0, 1, 2)")
    code, _, err = run(capsys, "verify", "--in", str(path), "--no-mds")
    assert code == 4 and "singular minor" not in err


def test_verify_names_the_first_nonzero_gram_entry(artifact_doc, tmp_path, capsys):
    # G[2][0] of the [6, 3] F_9 code is 0; a 1 there changes only Gram
    # entries (2, l) and (l, 2) with G[l][0] != 0, the first being (0, 2)
    doc = json.loads(json.dumps(artifact_doc))
    assert doc["G"][2][0] == 0 and doc["G"][0][0] != 0
    doc["G"][2][0] = 1
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--no-mds",)):
        code, rep, err = run(capsys, "verify", "--in", str(path), *extra)
        assert code == 4 and rep["self_dual"] is False and rep["rank_ok"] is True
        assert "Gram" not in json.dumps(rep)  # the report's bytes keep their form
        named = "nonzero Gram entry at (0, 2)"
        assert named in err and err.index(named) < err.index("verification failed")


@pytest.mark.parametrize("key,change,named", [
    ("v", lambda v: [1] * len(v), "stored v disagrees with G at column 1"),
    ("a", lambda a: [a[0], a[2], a[1], *a[3:]], "stored a disagrees with G at column 1"),
], ids=["v", "a"])
def test_verify_refuses_stored_a_or_v_that_disagree_with_G(key, change, named, artifact_doc,
                                                           tmp_path, capsys):
    # G alone is still a self-dual MDS code; the stored a or v no longer
    # describe it
    doc = json.loads(json.dumps(artifact_doc))
    doc[key] = change(doc[key])
    path = tmp_path / "stored.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--no-mds",)):
        code, rep, err = run(capsys, "verify", "--in", str(path), *extra)
        assert code == 4 and rep["self_dual"] is True
        assert named in err and err.index(named) < err.index("verification failed")


def test_construct_names_singular_minor(monkeypatch, capsys):
    import dataclasses

    import mdssd.cli as cli

    build = cli.build

    def tampered(*args, **kw):
        art, trace = build(*args, **kw)
        G = np.array(_proportional_columns(art.G.tolist()))
        return dataclasses.replace(art, G=G), trace

    monkeypatch.setattr(cli, "build", tampered)
    code, doc, err = run(capsys, "construct", "--q", "9", "--theorem", "T1ii",
                         "--m", "2", "--t", "2")
    assert code == 4 and doc["verification"]["mds_ok"] is False
    assert "singular" not in json.dumps(doc)
    _assert_names_minor(err, "(0, 1, 2)")


def test_census_negative_spot_check_bound_exit_2(capsys):
    code, doc, _ = run(capsys, "census", "--q", "9", "--spot-check-bound", "-5")
    assert code == 2 and "spot-check bound" in doc["error"]
    assert run(capsys, "census", "--q", "9", "--spot-check-bound", "0")[0] == 0


def test_census_q_minus_one_exit_2(capsys):
    # -1 factors as (-1)^1 and was taken for a prime power
    for extra in ((), ("--spot-check-bound", "1")):
        code, doc, _ = run(capsys, "census", "--q", "-1", *extra)
        assert code == 2 and "odd prime power" in doc["error"]


def test_census_spot_check_beyond_build_budget_exit_3(monkeypatch, capsys):
    # a length that cannot be built is not a length that failed to verify
    import mdssd.constructions as constructions

    monkeypatch.setattr(constructions, "MATERIALIZE_BUDGET", 64)
    code, doc, _ = run(capsys, "census", "--q", "81", "--spot-check-bound", "100")
    assert code == 3 and "exceeds the build budget 64" in doc["error"]


@pytest.mark.parametrize("argv", [
    # q = 3^10000 has over 4300 digits, too many for an error message
    ("construct", "--p", "3", "--deg", "10000", "--theorem", "T4", "--e", "1"),
    # n = 3^10000 + 1 is named by its bit length
    ("construct", "--p", "3", "--deg", "10000", "--theorem", "T4", "--e", "5000"),
    # q = 3^(10^9) is never computed
    ("construct", "--p", "3", "--deg", str(10**9), "--theorem", "T4", "--e", "1"),
    # a valid field beyond the table budget exits 3 in every command
    ("field-info", "--p", "3", "--deg", str(10**9)),
    ("field-info", "--p", "3", "--deg", "14"),
])
def test_huge_fields_exit_without_traceback(argv, capsys):
    code, doc, _ = run(capsys, *argv)
    assert code == 3
    assert "budget" in doc["error"] and len(doc["error"]) < 200


def test_verify_field_too_large_exit_3(artifact_doc, tmp_path, capsys):
    # a document that meets every rule of the format, over q = 3^14
    from mdssd.field import _find_modulus

    doc = dict(artifact_doc, p=3, d=14, q=3**14, modulus=list(_find_modulus(3, 14)))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert code == 3 and "cannot load artifact" in rep["error"] and "budget" in rep["error"]
    assert "Traceback" not in err


def test_verify_checks_q_after_the_field_budget(artifact_doc, tmp_path, capsys):
    # over q = 3^(10^9), q and the modulus are never compared, and p^d never
    # computed, because the field budget refuses d first
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(artifact_doc, p=3, d=10**9, q=1, modulus=[1])))
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert code == 3 and "cannot load artifact" in rep["error"] and "budget" in rep["error"]
    assert len(rep["error"]) < 200 and "Traceback" not in err


def test_composite_q_is_not_factored(capsys):
    # a product of two 30-digit primes
    q = (10**29 + 129) * (10**29 + 151)
    code, doc, _ = run(capsys, "construct", "--q", str(q), "--theorem", "T4", "--e", "1")
    assert code == 2 and "power of an odd prime" in doc["error"]


# --- every argument combination ends in a documented exit code ---

_SMALL = st.integers(-2, 12)
_INTS = st.one_of(
    _SMALL, _SMALL, _SMALL,
    st.sampled_from([0, -1, -(10**6), 2**31 - 1, 10**18, 2**64 + 1, 10**40]),
)
_OPTIONAL = st.one_of(st.none(), _INTS)
# odd prime powers, so that many drawn tuples are valid
_Q = st.one_of(st.sampled_from([3, 5, 7, 9, 13, 25, 27, 49, 81, 121, 125, 169, 243, 729]), _INTS)


@functools.cache
def _valid_tuples():
    from mdssd.constructions import iter_valid_params

    return [pr for p, d in ((3, 2), (5, 2), (7, 2), (3, 4), (13, 1))
            for pr in iter_valid_params(p, d, 64)]


def _flags(pr):
    args = {"--p": pr.p, "--deg": pr.d}
    for key, value in pr.to_dict().items():
        if key != "theorem":
            args["--k" if key == "k_sub" else f"--{key}"] = value
    return args


@st.composite
def _arguments(draw):
    kind = draw(st.sampled_from(["census", "construct", "perturbed"]))
    if kind == "census":
        argv = ["census", "--q", str(draw(_Q))]
        bound = draw(_OPTIONAL)
        if bound is not None:
            argv += ["--spot-check-bound", str(bound)]
        return argv
    if kind == "perturbed":
        # a valid tuple with at most one argument replaced
        pr = draw(st.sampled_from(_valid_tuples()))
        args = _flags(pr)
        if draw(st.booleans()):
            args[draw(st.sampled_from(sorted(args)))] = draw(_INTS)
        argv = ["construct", "--theorem", pr.theorem, "--no-mds"]
        for flag, value in args.items():
            argv += [flag, str(value)]
        return argv
    argv = ["construct", "--theorem", draw(st.sampled_from(THEOREMS)), "--no-mds"]
    if draw(st.booleans()):
        argv += ["--q", str(draw(_Q))]
    else:
        for flag, values in (("--p", st.sampled_from([3, 5, 7, 13])), ("--deg", st.integers(1, 6))):
            value = draw(st.one_of(st.none(), values, _INTS))
            if value is not None:
                argv += [flag, str(value)]
    for flag in ("--m", "--t", "--s", "--e", "--k"):
        value = draw(_OPTIONAL)
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_arguments())
def test_arguments_end_in_documented_exit_code(argv, capsys):
    """Valid, invalid, zero, negative and huge arguments all end in exit 0,
    2, 3 or 4, never in an exception.  Small budgets keep every field,
    length and census small."""
    _assert_documented_exit(argv, capsys)


def _assert_documented_exit(argv, capsys):
    """Run argv under small budgets, so that every field, length and census
    stays small, and check its exit code and error JSON."""
    import mdssd.census as census
    import mdssd.constructions as constructions
    import mdssd.field as field

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "TABLE_BUDGET", 1 << 10)
        mp.setattr(constructions, "MATERIALIZE_BUDGET", 64)
        mp.setattr(census, "CENSUS_BUDGET", 200)
        code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert json.loads(captured.out)["error"]
    return code, captured.out, captured.err


@functools.cache
def _small_artifact_json():
    from mdssd.constructions import build
    from mdssd.grs import artifact_to_dict

    return json.dumps(artifact_to_dict(build("T1ii", 3, 2, m=2, t=2)[0]))


_VALUES = st.sampled_from([None, True, False, 1.5, -1, 7, 10**40, [], [1], {}, {"k": 1}])


@st.composite
def _artifacts(draw):
    """The [6, 3] artifact over F_9 with one change: one or two top-level
    keys replaced or removed, one entry of G replaced, or the extended flag
    replaced."""
    doc = json.loads(_small_artifact_json())
    kind = draw(st.sampled_from(["keys", "G", "extended"]))
    if kind == "keys":
        for key in draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=2,
                                 unique=True)):
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(_VALUES)
    elif kind == "G":
        row = draw(st.integers(0, len(doc["G"]) - 1))
        col = draw(st.integers(0, len(doc["G"][0]) - 1))
        doc["G"][row][col] = draw(st.one_of(st.integers(0, 8), _INTS, _VALUES))
    else:
        doc["construction"]["extended"] = draw(_VALUES)
    return doc


@st.composite
def _field_info_arguments(draw):
    argv = ["field-info"]
    if draw(st.booleans()):
        return argv + ["--q", str(draw(_Q))]
    for flag, values in (("--p", st.sampled_from([2, 3, 5, 7, 9, 13])), ("--deg", st.integers(1, 6))):
        value = draw(st.one_of(st.none(), values, _INTS))
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.one_of(_field_info_arguments(), _artifacts()))
def test_field_info_and_verify_end_in_documented_exit_code(draw, tmp_path, capsys):
    """field-info arguments and changed artifacts end in exit 0, 2, 3 or 4
    too, never in an exception, and an artifact ends the same whichever way
    it is serialized."""
    if not isinstance(draw, dict):
        _assert_documented_exit(draw, capsys)
        return
    path = tmp_path / "art.json"
    outcomes = []
    for dump in SERIALIZATIONS:
        path.write_text(dump(draw))
        outcomes.append(_assert_documented_exit(["verify", "--in", str(path)], capsys))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("argv", [
    ("construct", "--q", "9", "--theorem", "T1i", "--m", "4", "--t", "1"),
    ("field-info", "--q", "9"),
    ("verify", "--in", "missing.json"),
    ("census", "--q", "9"),
], ids=lambda argv: argv[0])
def test_unwritable_out_exit_2(argv, tmp_path, capsys):
    # the directory of --out does not exist; verify's --in does not either,
    # so its error report is the write that fails
    argv = [tmp_path / arg if arg.endswith(".json") else arg for arg in argv]
    out = tmp_path / "missing" / "out.json"
    code, doc, err = run(capsys, *map(str, argv), "--out", str(out))
    assert code == 2 and doc is None
    assert "cannot write the output" in err and "Traceback" not in err
    assert not out.parent.exists()
