"""Command-line interface: exit codes, JSON output, round trips."""

from __future__ import annotations

import json

import pytest

from mdssd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_field_info_f9(capsys):
    code, doc, _ = run(capsys, "field-info", "--p", "3", "--deg", "2")
    assert code == 0
    assert doc["modulus_str"] == "x^2+1" and doc["generator_str"] == "1+x"
    assert doc["q"] == 9


def test_field_info_rejects_even_and_composite(capsys):
    assert run(capsys, "field-info", "--p", "2", "--deg", "3")[0] == 2
    assert run(capsys, "field-info", "--p", "9", "--deg", "1")[0] == 2


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
    enumerate_params = census.iter_valid_params

    def counting(*args):
        calls.append(args)
        return enumerate_params(*args)

    monkeypatch.setattr(census, "iter_valid_params", counting)
    code, doc, _ = run(capsys, "census", "--q", "25", *extra)
    assert code == 0 and calls == [(5, 2, 26)]
    assert ("spot_checks" in doc) == bool(extra)


def test_census_invalid_q_exit_2(capsys):
    assert run(capsys, "census", "--q", "16")[0] == 2


def test_artifact_output_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        run(capsys, "construct", "--q", "49", "--theorem", "T3ii",
            "--m", "4", "--t", "2", "--s", "4", "--out", str(out))
    assert out1.read_bytes() == out2.read_bytes()


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
    "a-out-of-range": _set(("a", 0), 9),
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
}


@pytest.fixture(scope="module")
def artifact_doc():
    from mdssd.constructions import build
    from mdssd.grs import artifact_to_dict

    art, _ = build("T1ii", 3, 2, m=2, t=2)
    return artifact_to_dict(art)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_malformed_artifact_exit_2(name, artifact_doc, tmp_path, capsys):
    doc = json.loads(json.dumps(artifact_doc))
    MALFORMED[name](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, rep, err = run(capsys, "verify", "--in", str(path))
    assert code == 2 and "cannot load artifact: malformed artifact" in rep["error"]
    assert "Traceback" not in err
