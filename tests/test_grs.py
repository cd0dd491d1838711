"""GRS layer: generator matrices, locators, self-dual assembly, artifacts."""

from __future__ import annotations

import pytest

from mdssd.errors import (
    DimensionMismatch,
    DuplicatePoint,
    IndexOutOfRange,
    OddLength,
    SquareConditionViolated,
)
from mdssd.field import make_field
from mdssd.grs import (
    EvalVector,
    ScalingVector,
    all_locators,
    artifact_from_dict,
    artifact_to_dict,
    assemble_self_dual_grs,
    assemble_self_dual_xgrs,
    cyclotomic_locator,
    grs_generator_matrix,
    locator,
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
    assert G[0] == (1, 1, 1, 1)
    assert G[1] == (1, 2, 3, 4)
    assert G[2] == tuple(ctx.mul_v(x, x) for x in (1, 2, 3, 4))


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
    assert back.G == art.G and back.a.points == art.a.points
    assert back.v.weights == art.v.weights and back.label == "demo"


def test_artifact_from_dict_rejects_foreign_modulus():
    ctx = make_field(3, 2)
    a = EvalVector(ctx, (1, 6, 2, 3))
    art, _ = assemble_self_dual_grs(a, 1)
    doc = artifact_to_dict(art)
    doc["modulus"] = [2, 0, 1]
    with pytest.raises(ValueError):
        artifact_from_dict(doc)
