"""GRS layer: generator matrices, locators, self-dual assembly, artifacts."""

from __future__ import annotations

import functools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_oracles as oracles
from grs_oracles import IndexOutOfRange, cyclotomic_locator, locator
import mdssd.grs as grs
from mdssd.constructions import build
from mdssd.errors import (
    DimensionMismatch,
    DuplicatePoint,
    MalformedArtifact,
    MdssdError,
    OddLength,
    SquareConditionViolated,
)
from mdssd.field import make_field
from mdssd.grs import (
    CodeArtifact,
    EvalVector,
    ScalingVector,
    all_locators,
    artifact_from_dict,
    artifact_from_json,
    artifact_record,
    artifact_to_dict,
    assemble_self_dual_grs,
    assemble_self_dual_xgrs,
    grs_generator_matrix,
    to_json,
    xgrs_generator_matrix,
)
from mdssd.verify import check_self_dual


def test_eval_vector_basics():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (1, 2, 3))
    assert a.n == 3 and a.is_distinct()
    assert EvalVector(ctx, (1, 2, 3), extended=True).n == 4
    dup = EvalVector(ctx, (1, 1))
    assert not dup.is_distinct()
    with pytest.raises(DuplicatePoint):
        dup.require_distinct()


def test_scaling_vector_rejects_zero_weight():
    ctx = make_field(3, 2)
    with pytest.raises(ValueError):
        ScalingVector(ctx, (1, 0))


def test_generator_matrix_rows_are_point_powers():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (1, 2, 3, 4))
    v = ScalingVector(ctx, (1, 1, 1, 1))
    G = grs_generator_matrix(a, v, 3)
    assert G.shape == (3, 4) and not G.flags.writeable
    assert G[0].tolist() == [1, 1, 1, 1]
    assert G[1].tolist() == [1, 2, 3, 4]
    assert G[2].tolist() == [ctx.mul_v(x, x) for x in (1, 2, 3, 4)]


def test_extended_matrix_final_column():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (0, 1, 2), extended=True)
    v = ScalingVector(ctx, (1, 1, 1))
    G = xgrs_generator_matrix(a, v, 2)
    assert [row[-1] for row in G] == [0, 1]
    with pytest.raises(DimensionMismatch):
        grs_generator_matrix(a, v, 2)


def test_locator_brute_force_small():
    ctx = make_field(7, 1)
    a = EvalVector(ctx, (1, 2, 4))
    # L(1) = (1-2)(1-4) = (-1)(-3) = 3
    assert locator(a, 0) == 3
    assert all_locators(a) == [locator(a, i) for i in range(3)]
    with pytest.raises(IndexOutOfRange):
        locator(a, 3)


@pytest.mark.parametrize("q", [9, 25, 49])
def test_cyclotomic_locator_matches_brute_force(q):
    from sympy import factorint

    (p, d), = factorint(q).items()
    ctx = make_field(p, d)
    for m in range(1, q):
        if (q - 1) % m:
            continue
        alpha = ctx.root_of_unity_v(m)
        pts = tuple(ctx.pow_v(alpha, i) for i in range(m))
        a = EvalVector(ctx, pts)
        for i in range(m):
            assert cyclotomic_locator(m, i, ctx) == locator(a, i)


def test_assemble_grs_produces_self_dual_code():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (1, 6, 2, 3))  # 4th roots of unity
    art, locs = assemble_self_dual_grs(a, 1)
    assert art.k == 2 and art.n == 4
    assert locs == all_locators(a)
    assert check_self_dual(art)


def test_assemble_grs_guards():
    ctx = make_field(3, 2)
    with pytest.raises(OddLength):
        assemble_self_dual_grs(EvalVector(ctx, (0, 1, 2)), 1)
    with pytest.raises(ValueError):
        assemble_self_dual_grs(EvalVector(ctx, (0, 1)), 0)
    with pytest.raises(DimensionMismatch):
        assemble_self_dual_grs(EvalVector(ctx, (0, 1), extended=True), 1)


def test_assemble_grs_square_condition_failure_names_index():
    ctx = make_field(7, 1)
    a = EvalVector(ctx, (0, 1))  # L(0) = -1, a non-square mod 7
    with pytest.raises(SquareConditionViolated) as err:
        assemble_self_dual_grs(a, 1)
    assert err.value.index == 0


def test_assemble_xgrs_produces_self_dual_code():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (0, 1, 2, 3, 6), extended=True)
    art, locs = assemble_self_dual_xgrs(a)
    assert art.n == 6 and art.k == 3
    assert locs == all_locators(a)
    assert check_self_dual(art)


def test_lambda_square_class_invariance():
    # only the square class of lambda matters: lambda * c^2 works iff lambda does
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (1, 6, 2, 3))
    art1, _ = assemble_self_dual_grs(a, 1)
    art2, _ = assemble_self_dual_grs(a, ctx.mul_v(ctx.g_val, ctx.g_val))
    assert check_self_dual(art1) and check_self_dual(art2)


def test_artifact_json_roundtrip_and_determinism():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (1, 6, 2, 3))
    art, _ = assemble_self_dual_grs(a, 1, "demo", {"m": 4})
    doc = artifact_to_dict(art)
    text = to_json(doc)
    assert text == to_json(artifact_to_dict(art))  # byte-identical
    back = artifact_from_dict(doc)
    assert back.G.tolist() == art.G.tolist() and back.a.points == art.a.points
    assert not back.G.flags.writeable
    assert back.v.weights == art.v.weights and back.label == "demo"
    assert back == art and hash(back) == hash(art)
    tampered = dict(doc, G=[[(x + 1) % ctx.q for x in row] for row in doc["G"]])
    assert artifact_from_dict(tampered) != art


def test_artifact_from_dict_rejects_foreign_modulus():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (1, 6, 2, 3))
    art, _ = assemble_self_dual_grs(a, 1)
    doc = artifact_to_dict(art)
    doc["modulus"] = [2, 0, 1]
    with pytest.raises(ValueError):
        artifact_from_dict(doc)


@pytest.mark.parametrize("bad,error", [
    ("6", "that is not an integer"), (6.0, "that is not an integer"),
    (True, "that is not an integer"), (None, "that is not an integer"),
    (-1, "outside [0, 9)"), (9, "outside [0, 9)"),
    (2**70, "outside [0, 9)"), (-2**70, "outside [0, 9)"),
])
def test_artifact_from_dict_names_first_offending_row(bad, error):
    art, _ = build("T1ii", 3, 2, m=2, t=2)  # an extended [6, 3] code
    doc = artifact_to_dict(art)
    G = doc["G"]
    G[1][2] = G[2][0] = bad
    with pytest.raises(ValueError, match=rf"G row 1 has an entry {re.escape(error)}"):
        artifact_from_dict(doc)
    G[1] = G[1][:-1]
    with pytest.raises(ValueError, match="G row 1 must be a list of 6 entries"):
        artifact_from_dict(doc)


@pytest.mark.parametrize("key,value,shown", [
    ("n", -10**5000, "n must be a positive integer, got a negative integer of 16610 bits"),
    ("q", 10**5000, "q must be p^d = 9, got an integer of 16610 bits"),
    ("extended", 10**5000, "extended must be a boolean, got an integer of 16610 bits"),
], ids=["n", "q", "extended"])
def test_artifact_from_dict_words_huge_ints_by_bit_length(key, value, shown):
    # repr of an int beyond the interpreter's decimal limit raises
    # ValueError itself; the loader must still raise MalformedArtifact
    art, _ = build("T1ii", 3, 2, m=2, t=2)
    doc = artifact_to_dict(art)
    if key == "extended":
        doc["construction"] = dict(doc["construction"], extended=value)
    else:
        doc[key] = value
    with pytest.raises(MalformedArtifact) as raised:
        artifact_from_dict(doc)
    assert str(raised.value) == f"malformed artifact: {shown}"


def test_artifact_from_dict_g_is_a_read_only_k_by_n_array():
    art, _ = build("T1ii", 3, 2, m=2, t=2)
    back = artifact_from_dict(artifact_to_dict(art))
    assert back.G.shape == (3, 6) and back.G.dtype == np.int64
    assert not back.G.flags.writeable and back.G.tolist() == art.G.tolist()


def _with_g(ctx, G):
    """An artifact over ctx whose G is the given array; the writer reads
    nothing else of it."""
    G = np.asarray(G, dtype=np.int64)
    k, n = G.shape
    points = tuple(range(1, n + 1))
    return CodeArtifact(ctx, EvalVector(ctx, points), ScalingVector(ctx, (1,) * n), k, G, "g")


def _writer_cases():
    F3, F5, F3_12 = make_field(3, 1), make_field(5, 1), make_field(3, 12)
    rng = np.random.default_rng(7)
    boundaries = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 531440]
    return [
        pytest.param(assemble_self_dual_xgrs(EvalVector(F3, (0, 1, 2), True))[0],
                     id="zero-point-and-extended-column"),
        pytest.param(assemble_self_dual_grs(EvalVector(F5, (1, 4)), 2)[0], id="k=1"),
        pytest.param(_with_g(F3, rng.integers(0, 3, (2, 4))), id="q=3"),
        pytest.param(_with_g(F3_12, [boundaries, rng.integers(0, 3**12, 12).tolist()]),
                     id="q=3^12"),
        pytest.param(_with_g(F3_12, [boundaries[::-1]]), id="q=3^12,k=1"),
    ]


@pytest.mark.parametrize("art", _writer_cases())
def test_to_json_writes_g_arrays_as_their_lists(art):
    trace, report = {"t": [1, 2]}, {"self_dual": True}
    text = to_json(artifact_record(art, trace, report))
    assert text == to_json(artifact_to_dict(art, trace, report))
    assert text.startswith('{"G":[[')


def test_canonical_text_is_read_without_the_list_path(monkeypatch):
    art, _ = build("T1ii", 3, 2, m=2, t=2)
    doc = artifact_to_dict(art)
    monkeypatch.setattr(grs, "_matrix", None)
    back = artifact_from_json(to_json(doc))
    assert back == art and back.G.dtype == np.int64 and not back.G.flags.writeable
    doc["G"][1][2] += 9
    with pytest.raises(MalformedArtifact, match=re.escape("G row 1 has an entry outside [0, 9)")):
        artifact_from_json(to_json(doc))


@functools.cache
def _canonical_texts():
    return [to_json(artifact_to_dict(build(th, p, d, **kw)[0])) for th, p, d, kw in (
        ("T1ii", 3, 2, {"m": 2, "t": 2}), ("T1i", 17, 2, {"m": 6, "t": 1}))]


def _outcome(load, text):
    try:
        return load(text)
    except (MdssdError, ValueError, KeyError, TypeError, RecursionError) as ex:
        return type(ex), str(ex)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_reader_agrees_with_the_strict_path(data):
    """One to three characters replaced, inserted or deleted in a canonical
    artifact: artifact_from_json gives what json.loads and
    artifact_from_dict give, the same artifact or the same error."""
    text = data.draw(st.sampled_from(_canonical_texts()))
    end = text.index("]],") + 3
    chars = st.sampled_from('0123456789,[]- "G:{}e.\n')
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, end if data.draw(st.booleans()) else len(text)))
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        c = "" if op == "delete" else data.draw(chars)
        text = text[:i] + c + text[i + (op != "insert"):]
    strict = _outcome(lambda t: artifact_from_dict(json.loads(t)), text)
    assert _outcome(artifact_from_json, text) == strict


# --- log kernels against the scalar oracles ---

KERNEL_FIELDS = [(3, 1), (5, 1), (3, 2), (7, 3), (151, 2), (3, 10)]


def _point_sets(ctx, rng):
    """Random distinct point sets of a few lengths, n = 1 and 2 among them,
    each with and without the point 0, then the prime subfield in random
    order.  Every locator of the prime subfield is -1, so its extended code
    meets the square condition."""
    for n in (1, 2, 3, 5, 8, 13):
        n = min(n, ctx.q - 1)
        points = rng.sample(range(1, ctx.q), n)
        yield points
        yield points[:-1] + [0] if n > 1 else [0]
        if n > 2:
            yield points[:n // 2] + [0] + points[n // 2:-1]
    yield rng.sample(range(ctx.p), ctx.p)


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_log_locators_match_brute_force(p, d, monkeypatch):
    # blocks of a few entries split each point set into many row blocks
    monkeypatch.setattr(grs, "_BLOCK_ENTRIES", 5)
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for points in _point_sets(ctx, rng):
        a = EvalVector(ctx, tuple(points))
        assert all_locators(a) == [locator(a, i) for i in range(len(points))]


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_assembly_matches_scalar_square_roots_and_failing_index(p, d, monkeypatch):
    """The weights equal the oracle sqrt of 1/target on every point, and a
    set that violates the square condition names the first point where
    chi(target) is not 1, for the plain and the extended engine."""
    monkeypatch.setattr(grs, "_BLOCK_ENTRIES", 5)
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    seen = {"ok": 0, "violated": 0}
    for points in _point_sets(ctx, rng):
        for extended in (False, True):
            a = EvalVector(ctx, tuple(points), extended)
            if a.n % 2:
                continue
            lam = rng.randrange(1, ctx.q)
            targets = [ctx.sub_v(0, locator(a, i)) if extended
                       else ctx.mul_v(lam, locator(a, i)) for i in range(len(points))]
            bad = next((i for i, t in enumerate(targets) if oracles.chi(ctx, t) != 1), None)
            if bad is not None:
                seen["violated"] += 1
                with pytest.raises(SquareConditionViolated) as err:
                    assemble_self_dual_xgrs(a) if extended else assemble_self_dual_grs(a, lam)
                assert err.value.index == bad
                continue
            seen["ok"] += 1
            art, _ = assemble_self_dual_xgrs(a) if extended else assemble_self_dual_grs(a, lam)
            assert art.v.weights == tuple(oracles.sqrt(ctx, ctx.pow_v(t, -1)) for t in targets)
            assert check_self_dual(art)
    assert seen["ok"] and seen["violated"]


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_square_root_weights_match_scalar_sqrt(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    q1 = ctx.q - 1
    logs = list(range(0, q1, 2)) if q1 <= 1000 else [2 * rng.randrange(q1 // 2) for _ in range(500)]
    # logs of the target may exceed q-1, as log lambda + log L does
    logs += [log + q1 for log in logs[:50]]
    weights = grs._square_root_weights(ctx, np.array(logs, dtype=np.int64))
    exp = ctx.np_tables[0].tolist()
    assert list(weights) == [oracles.sqrt(ctx, ctx.pow_v(exp[log % q1], -1)) for log in logs]


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_generator_matrices_match_scalar_products(p, d, monkeypatch):
    monkeypatch.setattr(grs, "_BLOCK_ENTRIES", 5)
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for points in _point_sets(ctx, rng):
        n = len(points)
        weights = tuple(rng.randrange(1, ctx.q) for _ in points)
        v = ScalingVector(ctx, weights)
        for k in sorted({1, (n + 1) // 2, n}):
            rows = [[ctx.mul_v(w, ctx.pow_v(x, i)) for w, x in zip(weights, points)]
                    for i in range(k)]
            G = grs_generator_matrix(EvalVector(ctx, tuple(points)), v, k)
            assert G.tolist() == rows
            X = xgrs_generator_matrix(EvalVector(ctx, tuple(points), True), v, k)
            assert X.tolist() == [row + [int(i == k - 1)] for i, row in enumerate(rows)]
