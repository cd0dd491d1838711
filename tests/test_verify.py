"""Verification layer: Gram/rank self-duality, minors, minimum distance."""

from __future__ import annotations

import pytest

from mdssd.constructions import build
from mdssd.errors import DimensionMismatch, TooLarge
from mdssd.field import make_field
from mdssd.grs import CodeArtifact, EvalVector, ScalingVector, grs_generator_matrix
from mdssd.verify import (
    VerificationReport,
    check_mds_minors,
    check_self_dual,
    field_rank,
    gram_is_zero,
    min_distance,
    verify_artifact,
)


def _plain_artifact(ctx, points, weights, k):
    a = EvalVector(ctx, points)
    v = ScalingVector(ctx, weights)
    return CodeArtifact(ctx, a, v, k, grs_generator_matrix(a, v, k), "test")


def test_field_rank_full_and_deficient():
    ctx = make_field(7, 1)
    assert field_rank(ctx, [[1, 2], [3, 4]]) == 2
    assert field_rank(ctx, [[1, 2], [2, 4]]) == 1
    assert field_rank(ctx, [[0, 0], [0, 0]]) == 0


def test_gram_is_zero_detects_nonzero():
    ctx = make_field(7, 1)
    assert not gram_is_zero(ctx, [[1, 0], [0, 1]])
    # rows (1, i) with 1 + i^2: i such that i^2 = -1 mod 7 does not exist,
    # so build an isotropic row over F_9 instead: (1, x) with 1 + x^2 = 0
    ctx9 = make_field(3, 2)
    assert gram_is_zero(ctx9, [[1, 3]])


def test_check_self_dual_accepts_reference_code():
    art, _ = build("T1i", 3, 2, m=4, t=1)
    assert check_self_dual(art)


def test_check_self_dual_rejects_wrong_shape():
    ctx = make_field(7, 1)
    art = _plain_artifact(ctx, (1, 2, 3), (1, 1, 1), 2)
    with pytest.raises(DimensionMismatch):
        check_self_dual(art)


def test_check_self_dual_rejects_non_self_dual():
    ctx = make_field(7, 1)
    art = _plain_artifact(ctx, (1, 2, 3, 4), (1, 1, 1, 1), 2)
    assert not check_self_dual(art)


def test_mds_minors_on_grs_code():
    ctx = make_field(7, 1)
    art = _plain_artifact(ctx, (1, 2, 3, 4), (1, 1, 1, 1), 2)
    assert check_mds_minors(art)  # GRS codes are always MDS


def test_mds_minors_detects_singular_columns():
    ctx = make_field(7, 1)
    a = EvalVector(ctx, (1, 2, 3, 4))
    v = ScalingVector(ctx, (1, 1, 1, 1))
    G = [[1, 1, 1, 1], [2, 2, 3, 4]]  # first two columns proportional
    art = CodeArtifact(ctx, a, v, 2, tuple(map(tuple, G)), "broken")
    assert not check_mds_minors(art)


def test_mds_minors_budget():
    ctx = make_field(3, 4)
    pts = tuple(range(1, 21))
    art = _plain_artifact(ctx, pts, (1,) * 20, 10)
    with pytest.raises(TooLarge):
        check_mds_minors(art)


def test_min_distance_matches_singleton_bound():
    art, _ = build("T1i", 3, 2, m=4, t=1)
    assert min_distance(art) == art.n - art.k + 1


def test_min_distance_budget():
    ctx = make_field(3, 10)
    pts = tuple(range(1, 9))
    art = _plain_artifact(ctx, pts, (1,) * 8, 4)  # 59049^4 codewords
    with pytest.raises(TooLarge):
        min_distance(art)


def test_verify_artifact_report_shape():
    art, _ = build("T1ii", 3, 2, m=2, t=2)
    rep = verify_artifact(art)
    assert isinstance(rep, VerificationReport)
    assert rep.self_dual and rep.rank_ok and rep.mds_ok
    assert rep.mds_checked == "exhaustive_minors"
    assert rep.min_distance == art.n // 2 + 1
    doc = rep.to_dict()
    assert "elapsed" not in doc  # reports serialize bit-exactly
    assert doc["self_dual"] is True


def test_verify_artifact_skips_mds_when_asked():
    art, _ = build("T1i", 3, 2, m=4, t=1)
    rep = verify_artifact(art, mds=False)
    assert rep.mds_checked == "skipped_too_large" and rep.mds_ok is None


def test_verify_artifact_flags_corruption():
    art, _ = build("T1i", 3, 2, m=4, t=1)
    G = [list(row) for row in art.G]
    G[1][1] = art.ctx.add_v(G[1][1], 1)
    bad = CodeArtifact(art.ctx, art.a, art.v, art.k, tuple(map(tuple, G)), "bad")
    rep = verify_artifact(bad)
    assert not rep.self_dual


def test_large_code_gram_check_is_fast():
    # n = 84 over F_169: vectorized Gram + rank in well under a second
    art, _ = build("T1i", 13, 2, m=12, t=7)
    assert art.n == 84
    assert check_self_dual(art)


def _count_rank_calls(monkeypatch):
    import mdssd.verify as verify

    calls = []
    real = verify.field_rank

    def counted(ctx, G):
        calls.append(len(G))
        return real(ctx, G)

    monkeypatch.setattr(verify, "field_rank", counted)
    return calls


def _with_G(art, G):
    return CodeArtifact(art.ctx, art.a, art.v, art.k, tuple(map(tuple, G)), art.label)


def test_verify_artifact_computes_rank_once(monkeypatch):
    good, _ = build("T1ii", 3, 2, m=2, t=2)
    G = [list(row) for row in good.G]
    corrupted = [row[:] for row in G]
    corrupted[1][1] = good.ctx.add_v(corrupted[1][1], 3)
    zero = [[0] * good.n for _ in range(good.k)]
    repeated = [[1] + [0] * (good.n - 1)] * good.k
    # (G, Gram = 0, expected report, field_rank calls)
    cases = [
        (G, True, {"self_dual": True, "rank_ok": True}, 1),
        (corrupted, False, {"self_dual": False, "rank_ok": True}, 1),
        (repeated, False, {"self_dual": False, "rank_ok": False}, 1),
        (zero, True, {"self_dual": False, "rank_ok": False}, 2),
    ]
    calls = _count_rank_calls(monkeypatch)
    for matrix, gram_zero, report, n_calls in cases:
        assert gram_is_zero(good.ctx, matrix) == gram_zero
        calls.clear()
        rep = verify_artifact(_with_G(good, matrix), mds=False)
        assert rep.to_dict() == {**report, "mds_checked": "skipped_too_large"}
        assert len(calls) == n_calls
