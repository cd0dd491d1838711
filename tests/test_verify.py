"""Verification layer: Gram/rank self-duality, minors, minimum distance."""

from __future__ import annotations

import json
import random
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import field_oracles as oracles
from mdssd.constructions import build
from mdssd.errors import DimensionMismatch, TooLarge
from mdssd.field import make_field
from mdssd.grs import CodeArtifact, EvalVector, ScalingVector, grs_generator_matrix
from mdssd.verify import (
    MINORS_BUDGET_N,
    VerificationReport,
    _grs_columns,
    _rank_is_k,
    _self_dual_checks,
    _stored_disagreement,
    check_mds_minors,
    check_self_dual,
    field_matmul_t,
    field_rank,
    first_singular_minor,
    gram_is_zero,
    min_distance,
    power_sum_verdict,
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
    # n = 2k, but G is not (k, n)
    art = _plain_artifact(ctx, (1, 2, 3, 4), (1, 1, 1, 1), 2)
    for G in (np.asarray(art.G)[:, :3], np.asarray(art.G)[:1]):
        with pytest.raises(DimensionMismatch, match=r"does not match \(k, n\)"):
            check_self_dual(_with_G(art, G))


def test_power_sum_verdict_refuses_odd_n_and_a_weight_count_off_len_a():
    ctx = make_field(7, 1)
    for points, weights in (((1, 2, 3), (1, 1, 1)), ((1, 2, 3, 4), (1, 1, 1))):
        with pytest.raises(DimensionMismatch, match="self-dual codes need n = 2k"):
            power_sum_verdict(EvalVector(ctx, points), weights)


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


def test_gram_is_zero_without_rows_or_entries():
    # a 0 x 0 Gram matrix is zero, and so is that of rows without entries
    ctx = make_field(3, 2)
    for G in ([], [[]], [[], []]):
        assert gram_is_zero(ctx, G)


def _count_calls(monkeypatch, name):
    import mdssd.verify as verify

    calls = []
    real = getattr(verify, name)

    def counted(ctx, G, *rest):
        calls.append(np.shape(G))
        return real(ctx, G, *rest)

    monkeypatch.setattr(verify, name, counted)
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
    # (G, Gram = 0, expected report, field_rank calls, shapes passed to the
    # row-block Gram check); the valid G has the GRS structure, which
    # certifies both verdicts without elimination or a row-block Gram; in
    # the corrupted G, column 1 becomes 3 (1, 2, 4), still structured but
    # at the node of column 2, so its 5 distinct nodes certify rank 3 and
    # the Hankel rows decide; the other two have fewer than 3 structured
    # columns
    cases = [
        (G, True, {"self_dual": True, "rank_ok": True}, 0, []),
        (corrupted, False, {"self_dual": False, "rank_ok": True}, 0, []),
        (repeated, False, {"self_dual": False, "rank_ok": False}, 2, []),
        (zero, True, {"self_dual": False, "rank_ok": False}, 2, []),
    ]
    for matrix, gram_zero, _, _, _ in cases:
        assert gram_is_zero(good.ctx, matrix) == gram_zero
    calls = _count_calls(monkeypatch, "field_rank")
    gram_calls = _count_calls(monkeypatch, "gram_is_zero")
    block_calls = _count_calls(monkeypatch, "_gram_witness")
    for matrix, _, report, n_calls, blocks in cases:
        calls.clear()
        gram_calls.clear()
        block_calls.clear()
        rep = verify_artifact(_with_G(good, matrix), mds=False)
        assert rep.to_dict() == {**report, "mds_checked": "skipped_too_large"}
        # at most one k x k and one full-width elimination, in that order
        assert calls == [(good.k, good.k), (good.k, good.n)][:n_calls]
        assert gram_calls == [] and block_calls == blocks


# --- vectorized kernels against scalar oracles ---

# Oracles use only the scalar add_v/sub_v/mul_v/pow_v, never numpy or BLAS;
# tests/test_field.py checks add_v/sub_v against digit-wise addition.

def _oracle_rank(ctx, G):
    M = [list(row) for row in G]
    rank = 0
    for col in range(len(M[0])):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = ctx.pow_v(M[rank][col], -1)
        for r in range(rank + 1, len(M)):
            if M[r][col]:
                f = ctx.mul_v(M[r][col], inv)
                M[r] = [ctx.sub_v(x, ctx.mul_v(f, y)) for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def _oracle_gram_is_zero(ctx, G):
    for u in G:
        for v in G:
            acc = 0
            for x, y in zip(u, v):
                acc = ctx.add_v(acc, ctx.mul_v(x, y))
            if acc:
                return False
    return True


def _oracle_min_distance(ctx, G):
    k, n = len(G), len(G[0])
    best = n + 1
    for idx in range(1, ctx.q**k):
        word = [0] * n
        for row in G:
            idx, c = divmod(idx, ctx.q)
            word = [ctx.add_v(w, ctx.mul_v(c, g)) for w, g in zip(word, row)]
        best = min(best, sum(1 for w in word if w))
    return best


KERNEL_FIELDS = [(3, 1), (5, 1), (1009, 1), (3, 2), (3, 4), (7, 3), (151, 2), (3, 10)]


def _decode(ctx, L):
    """Encodings of a reduced log array, with log_zero standing for zero."""
    nonzero = L != ctx.log_zero
    assert ((L[nonzero] >= 0) & (L[nonzero] < ctx.q - 1)).all()
    out = np.zeros(L.shape, dtype=np.int64)
    out[nonzero] = ctx.np_tables[0][L[nonzero]]
    return out


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_log_muladd_exhaustive(p, d):
    """a + f r for every (a, f, r) in F_q^3, zeros included, against the
    scalar add_v/mul_v; f goes in as every representative the kernel
    accepts: log f and log f + q - 1, and 4(q-1), 5(q-1), 6(q-1) - 1 for
    zero.  Once per a, and once with a leading batch axis over a."""
    ctx = make_field(p, d)
    q, q1 = ctx.q, ctx.q - 1
    log = [ctx.log_zero] + ctx.np_tables[1][1:].tolist()
    f_values, f_logs = [], []
    for f in range(q):
        reps = [4 * q1, 5 * q1, 6 * q1 - 1] if f == 0 else [log[f], log[f] + q1]
        f_values += [f] * len(reps)
        f_logs += reps
    F = np.array(f_logs, dtype=np.int32)
    R = np.array(log, dtype=np.int32)
    expected = [[[ctx.add_v(a, ctx.mul_v(f, r)) for r in range(q)] for f in f_values]
                for a in range(q)]
    for a in range(q):
        A = np.full((F.size, q), log[a], dtype=np.int32)
        assert _decode(ctx, ctx.log_muladd(A, F, R)).tolist() == expected[a]
    A = np.repeat(np.array(log, dtype=np.int32), F.size * q).reshape(q, F.size, q)
    batched = ctx.log_muladd(A, np.tile(F, (q, 1)), np.tile(R, (q, 1)))
    assert batched.shape == (q, F.size, q)
    assert _decode(ctx, batched).tolist() == expected


def _zero_heavy_matrix(ctx, rng, k, n):
    """20-50 % zero entries, plus a zero row, a zero column or both."""
    share = rng.uniform(0.2, 0.5)
    G = [[0 if rng.random() < share else rng.randrange(1, ctx.q) for _ in range(n)]
         for _ in range(k)]
    kind = rng.choice(["row", "column", "both"])
    if kind != "column":
        G[rng.randrange(k)] = [0] * n
    if kind != "row":
        c = rng.randrange(n)
        for row in G:
            row[c] = 0
    return G


def _random_matrix(ctx, rng, k, n):
    """About half zero entries, with repeated rows, zero rows, zero columns
    and rows that are combinations of others, each at random."""
    G = [[rng.randrange(1, ctx.q) if rng.random() < 0.5 else 0 for _ in range(n)]
         for _ in range(k)]
    if k > 1 and rng.random() < 0.3:
        G[rng.randrange(1, k)] = G[0][:]
    if rng.random() < 0.3:
        G[rng.randrange(k)] = [0] * n
    if rng.random() < 0.3:
        c = rng.randrange(n)
        for row in G:
            row[c] = 0
    if k > 2 and rng.random() < 0.3:
        a, b = rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)
        G[-1] = [ctx.add_v(ctx.mul_v(a, x), ctx.mul_v(b, y)) for x, y in zip(G[0], G[1])]
    return G


def _self_dual_matrix(ctx, rng, k):
    """k x 2k generator [I | A] (k even) with A A^T = -I, mixed by random
    invertible row operations row_i <- c row_i + row_j and a random signed
    column permutation, which keep G G^T = 0 and rank k.
    A = sqrt(-1) I if -1 is a square, else blocks [[a, b], [-b, a]] with
    a^2 + b^2 = -1."""
    minus_one = ctx.sub_v(0, 1)
    A = [[0] * k for _ in range(k)]
    if oracles.chi(ctx, minus_one) == 1:
        for i in range(k):
            A[i][i] = oracles.sqrt(ctx, minus_one)
    else:
        b = next(b for b in range(1, ctx.q)
                 if oracles.chi(ctx, ctx.sub_v(minus_one, ctx.mul_v(b, b))) == 1)
        a = oracles.sqrt(ctx, ctx.sub_v(minus_one, ctx.mul_v(b, b)))
        for i in range(0, k, 2):
            A[i][i] = A[i + 1][i + 1] = a
            A[i][i + 1], A[i + 1][i] = b, ctx.sub_v(0, b)
    G = [[int(i == j) for j in range(k)] + A[i] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        c = rng.randrange(1, ctx.q)
        G[i] = [ctx.add_v(ctx.mul_v(c, x), y) for x, y in zip(G[i], G[j])]
    perm = rng.sample(range(2 * k), 2 * k)
    signs = [rng.random() < 0.5 for _ in range(2 * k)]
    return [[ctx.sub_v(0, row[c]) if s else row[c] for c, s in zip(perm, signs)] for row in G]


def _corrupt(ctx, rng, G):
    G = [list(row) for row in G]
    r, c = rng.randrange(len(G)), rng.randrange(len(G[0]))
    G[r][c] = ctx.add_v(G[r][c], rng.randrange(1, ctx.q))
    return G


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_kernels_match_scalar_oracle_on_random_matrices(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(40):
        G = _random_matrix(ctx, rng, rng.randint(1, 7), rng.randint(1, 12))
        assert field_rank(ctx, G) == _oracle_rank(ctx, G)
        assert gram_is_zero(ctx, G) == _oracle_gram_is_zero(ctx, G)


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_rank_matches_scalar_oracle_on_zero_heavy_matrices(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d + 1)
    for _ in range(30):
        k = rng.randint(1, 8)
        G = _zero_heavy_matrix(ctx, rng, k, rng.randint(1, 14))
        assert field_rank(ctx, G) == _oracle_rank(ctx, G)
        # the leading block of a k x 2k matrix, as _rank_is_k takes it
        G = _zero_heavy_matrix(ctx, rng, k, 2 * k)
        assert _rank_is_k(_matrix_artifact(ctx, G)) == (_oracle_rank(ctx, G) == k)


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_kernels_match_scalar_oracle_on_self_dual_matrices(p, d):
    from mdssd.constructions import construct_from_params, iter_valid_params

    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    matrices = [_self_dual_matrix(ctx, rng, k) for k in (2, 4, 6)]
    params = list(iter_valid_params(p, d, 30))
    matrices += [construct_from_params(ctx, pr)[0].G for pr in params[-3:]]
    for G in matrices:
        assert _oracle_gram_is_zero(ctx, G)
        assert gram_is_zero(ctx, G)
        assert field_rank(ctx, G) == _oracle_rank(ctx, G) == len(G)
        for _ in range(5):
            bad = _corrupt(ctx, rng, G)
            assert gram_is_zero(ctx, bad) == _oracle_gram_is_zero(ctx, bad)
            assert field_rank(ctx, bad) == _oracle_rank(ctx, bad)


def _rank_cases(ctx, rng, k):
    """k x 2k matrices: a random one (rank-deficient at random), one with a
    nonsingular leading k x k block mixed by row operations, two whose
    leading block is singular through a zero or a repeated column while
    later columns give rank k, and one with rank k - 1."""
    yield _random_matrix(ctx, rng, k, 2 * k)
    G = [[int(i == j) for j in range(k)] + [rng.randrange(ctx.q) for _ in range(k)]
         for i in range(k)]
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        G[i] = [ctx.add_v(x, ctx.mul_v(rng.randrange(ctx.q), y)) for x, y in zip(G[i], G[j])]
    yield G
    for kind in ("zero", "repeated"):
        G = [[rng.randrange(ctx.q) for _ in range(2 * k)] for _ in range(k)]
        for i, row in enumerate(G):
            row[0] = 0 if kind == "zero" or k == 1 else row[k - 1]
            row[k:] = [int(i == j) for j in range(k)]
        yield G
    G = [[rng.randrange(1, ctx.q) for _ in range(2 * k)] for _ in range(k)]
    if k > 1:
        c = rng.randrange(1, ctx.q)
        G[-1] = [ctx.mul_v(c, x) for x in G[0]]
    else:
        G[0] = [0] * 2 * k
    yield G


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (3, 2), (7, 3), (151, 2), (3, 10)])
def test_rank_is_k_matches_scalar_oracle(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    outcomes = set()
    for k in (1, 1, 2, 3, 5, 8):
        for G in _rank_cases(ctx, rng, k):
            expected = _oracle_rank(ctx, G) == k
            outcomes.add((_oracle_rank(ctx, [row[:k] for row in G]) == k, expected))
            assert _rank_is_k(_matrix_artifact(ctx, G)) == expected
    # the leading block decides, falls back to rank k, and to rank < k
    assert {(True, True), (False, True), (False, False)} <= outcomes


@pytest.mark.parametrize("p,d", KERNEL_FIELDS)
def test_gram_in_small_blocks_matches_scalar_oracle(p, d, monkeypatch):
    # blocks of a few entries split every Gram check into many row blocks
    # and column chunks
    import mdssd.grs as grs

    monkeypatch.setattr(grs, "_BLOCK_ENTRIES", 40)
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for k in (2, 4, 6):
        G = _self_dual_matrix(ctx, rng, k)
        assert gram_is_zero(ctx, G)
        for _ in range(5):
            bad = _corrupt(ctx, rng, G)
            assert gram_is_zero(ctx, bad) == _oracle_gram_is_zero(ctx, bad)
    for _ in range(10):
        G = _random_matrix(ctx, rng, rng.randint(1, 7), rng.randint(1, 12))
        assert gram_is_zero(ctx, G) == _oracle_gram_is_zero(ctx, G)


def test_gram_multi_chunk_is_exact():
    # (p-1)^2 is about 2^40 here, so at most 8192 columns go into one
    # float64 product; rows of 24577 entries near p take four chunks, and
    # their integer Gram entries exceed 2^53, where one float64 sum would
    # round.
    ctx = make_field(1048573, 1)
    p = ctx.p
    rng = random.Random(7)
    i = oracles.sqrt(ctx, p - 1)
    large = [a for a in range(p - p // 10, p) if (a * i) % p >= p - p // 10]
    rows = []
    for _ in range(2):
        row = []
        for a in rng.choices(large, k=12288):
            row += [a, (a * i) % p]
        rows.append(row + [0])
    assert min(sum(x * x for x in row) for row in rows) > 1 << 53
    assert _oracle_gram_is_zero(ctx, rows) and gram_is_zero(ctx, rows)
    bad = [row[:] for row in rows]
    bad[1][-1] = p - 1
    assert not _oracle_gram_is_zero(ctx, bad) and not gram_is_zero(ctx, bad)
    bad = [row[:] for row in rows]
    bad[0][100] = p - 1 - bad[0][100]
    assert gram_is_zero(ctx, bad) == _oracle_gram_is_zero(ctx, bad)


def _oracle_matmul_t(ctx, A, B):
    out = []
    for u in A:
        out.append([])
        for w in B:
            acc = 0
            for x, y in zip(u, w):
                acc = ctx.add_v(acc, ctx.mul_v(x, y))
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("p,d", KERNEL_FIELDS + [(1021, 2), (3, 12)])
@pytest.mark.parametrize("block_entries", [None, 8])
def test_field_matmul_t_matches_scalar_oracle(p, d, block_entries, monkeypatch):
    # 8-entry blocks put the columns of every product into several chunks;
    # 1021^2 and 3^12, near the table budget, and entries at and near q - 1
    # test the digit split at the top of its range
    import mdssd.grs as grs

    if block_entries:
        monkeypatch.setattr(grs, "_BLOCK_ENTRIES", block_entries)
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d + 2)
    for _ in range(10):
        k, n = rng.randint(1, 7), rng.randint(1, 14)
        A, B = _random_matrix(ctx, rng, 2, n), _random_matrix(ctx, rng, k, n)
        assert field_matmul_t(ctx, A, B).tolist() == _oracle_matmul_t(ctx, A, B)
    top = [[ctx.q - 1 - rng.randrange(min(ctx.q, 4)) for _ in range(9)] for _ in range(3)]
    top[0] = [ctx.q - 1] * 9
    assert field_matmul_t(ctx, top, top).tolist() == _oracle_matmul_t(ctx, top, top)


def test_field_matmul_t_multi_chunk_is_exact():
    # as in test_gram_multi_chunk_is_exact: 24577 columns near p take four
    # chunks of at most 8192, and every integer sum exceeds 2^53
    ctx = make_field(1048573, 1)
    p = ctx.p
    rng = random.Random(11)
    A, B = ([[rng.randrange(p - p // 10, p) for _ in range(24577)] for _ in range(rows)]
            for rows in (2, 3))
    assert min(sum(x * y for x, y in zip(u, w)) for u in A for w in B) > 1 << 53
    assert field_matmul_t(ctx, A, B).tolist() == _oracle_matmul_t(ctx, A, B)


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (3, 2), (7, 1), (3, 3)])
def test_min_distance_matches_scalar_oracle(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(6):
        k = rng.randint(1, 3 if ctx.q < 10 else 2)
        n = rng.randint(k, 8)
        G = _random_matrix(ctx, rng, k, n)
        # a generator matrix alone: n may exceed q, so no evaluation vector
        art = SimpleNamespace(ctx=ctx, k=k, n=n, G=tuple(map(tuple, G)))
        assert min_distance(art) == _oracle_min_distance(ctx, G)


def _det_nonzero(ctx, rows):
    """Nonsingularity of a small square matrix by exact scalar elimination."""
    k = len(rows)
    M = [row[:] for row in rows]
    for col in range(k):
        piv = next((r for r in range(col, k) if M[r][col] != 0), None)
        if piv is None:
            return False
        M[col], M[piv] = M[piv], M[col]
        inv = ctx.pow_v(M[col][col], -1)
        for r in range(col + 1, k):
            if M[r][col]:
                scale = ctx.mul_v(M[r][col], inv)
                M[r] = [ctx.sub_v(x, ctx.mul_v(scale, y)) for x, y in zip(M[r], M[col])]
    return True


def _oracle_first_singular_minor(ctx, G):
    k, n = len(G), len(G[0])
    for subset in combinations(range(n), k):
        if not _det_nonzero(ctx, [[row[c] for c in subset] for row in G]):
            return subset
    return None


MINOR_FIELDS = [(3, 1), (5, 1), (3, 2), (7, 1), (3, 3), (151, 2)]


def _matrix_artifact(ctx, G):
    # a generator matrix alone: n may exceed q, so no evaluation vector
    return SimpleNamespace(ctx=ctx, k=len(G), n=len(G[0]), G=tuple(map(tuple, G)))


def _random_minor_matrix(ctx, rng, k, n):
    """Random k x n matrix with about half zero entries or none, then at
    random: a column made proportional to another (a duplicate when the
    factor is 1), a zero column, a repeated row."""
    density = rng.choice([0.5, 1.0])
    G = [[rng.randrange(1, ctx.q) if rng.random() < density else 0 for _ in range(n)]
         for _ in range(k)]
    if n > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        c = rng.choice([1, rng.randrange(1, ctx.q)])
        for row in G:
            row[b] = ctx.mul_v(c, row[a])
    if rng.random() < 0.2:
        c = rng.randrange(n)
        for row in G:
            row[c] = 0
    if k > 1 and rng.random() < 0.2:
        G[rng.randrange(1, k)] = G[0][:]
    return G


def _grs_matrices(ctx, rng, k, n):
    """A GRS generator matrix (every minor nonzero) and one-column
    corruptions: a random column, a multiple of another column, and a
    combination with nonzero coefficients of k-1 other columns, which is
    singular only through cancellation."""
    points = rng.sample(range(ctx.q), n)
    weights = [rng.randrange(1, ctx.q) for _ in range(n)]
    G = [list(row) for row in _plain_artifact(ctx, points, weights, k).G]
    out = [G]
    for kind in ("random", "multiple", "combination"):
        bad = [row[:] for row in G]
        c = rng.randrange(n)
        others = rng.sample([i for i in range(n) if i != c], k - 1)
        coef = [rng.randrange(1, ctx.q) for _ in others]
        for row in bad:
            if kind == "random":
                row[c] = rng.randrange(ctx.q)
            elif kind == "multiple":
                row[c] = ctx.mul_v(coef[0], row[others[0]]) if others else 0
            else:
                acc = 0
                for i, x in zip(others, coef):
                    acc = ctx.add_v(acc, ctx.mul_v(x, row[i]))
                row[c] = acc
        out.append(bad)
    return out


def _assert_minors_match_oracle(ctx, G):
    art = _matrix_artifact(ctx, G)
    expected = _oracle_first_singular_minor(ctx, G)
    assert first_singular_minor(art) == expected
    assert check_mds_minors(art) == (expected is None)


@pytest.mark.parametrize("p,d", MINOR_FIELDS)
def test_minors_match_scalar_oracle_on_random_matrices(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(40):
        k = rng.randint(1, 5)
        _assert_minors_match_oracle(ctx, _random_minor_matrix(ctx, rng, k, rng.randint(k, 10)))


@pytest.mark.parametrize("p,d", MINOR_FIELDS)
def test_minors_match_scalar_oracle_on_zero_heavy_matrices(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d + 1)
    for _ in range(30):
        k = rng.randint(1, 5)
        _assert_minors_match_oracle(ctx, _zero_heavy_matrix(ctx, rng, k, rng.randint(k, 10)))


@pytest.mark.parametrize("p,d", MINOR_FIELDS)
def test_minors_match_scalar_oracle_on_grs_matrices(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(6):
        n = rng.randint(2, min(ctx.q, 10))
        for G in _grs_matrices(ctx, rng, rng.randint(1, n), n):
            _assert_minors_match_oracle(ctx, G)


@pytest.mark.parametrize("p,d", MINOR_FIELDS)
def test_minors_edge_shapes_match_scalar_oracle(p, d):
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(10):
        n = rng.randint(1, 10)
        _assert_minors_match_oracle(ctx, _random_minor_matrix(ctx, rng, 1, n))
        k = rng.randint(1, 6)
        _assert_minors_match_oracle(ctx, _random_minor_matrix(ctx, rng, k, k))
    m = min(ctx.q, 6)
    for k in (1, m):
        for G in _grs_matrices(ctx, rng, k, m):
            _assert_minors_match_oracle(ctx, G)


@pytest.mark.parametrize("p,d", MINOR_FIELDS)
def test_minors_in_small_blocks_match_scalar_oracle(p, d, monkeypatch):
    # the minors tree is not split into blocks: tiny blocks elsewhere must
    # not change a witness
    import mdssd.grs as grs

    monkeypatch.setattr(grs, "_BLOCK_ENTRIES", 20)
    ctx = make_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(10):
        k = rng.randint(1, 4)
        _assert_minors_match_oracle(ctx, _random_minor_matrix(ctx, rng, k, rng.randint(k, 8)))
    # GRS in k + 1 points with its last column a combination of the k - 1
    # before it: only the last subset, in the last block, is singular
    for k in range(2, min(ctx.q, 5)):
        G = [list(row) for row in _plain_artifact(ctx, range(k + 1), [1] * (k + 1), k).G]
        for row in G:
            acc = 0
            for x in row[1:k]:
                acc = ctx.add_v(acc, ctx.mul_v(ctx.g_val, x))
            row[k] = acc
        assert _oracle_first_singular_minor(ctx, G) == tuple(range(1, k + 1))
        _assert_minors_match_oracle(ctx, G)


@pytest.mark.parametrize("n", [14, 16])
def test_minors_at_the_budget_match_scalar_oracle(n):
    ctx = make_field(3, 3)
    for G in _grs_matrices(ctx, random.Random(n), n // 2, n):
        _assert_minors_match_oracle(ctx, G)


def _systematic_cases(ctx, k, n):
    """(name, G, the oracle's witness) for [I | P] with P the Cauchy matrix
    1/(x_i - y_j), every square submatrix of which is nonsingular, and for
    three changes of it: P = 0, a leading block made singular with G still
    of rank k, and one singular 2 x 2 submatrix of P."""
    G = [[int(i == r) for i in range(k)] + [ctx.pow_v(ctx.sub_v(r, y), -1) for y in range(k, n)]
         for r in range(k)]
    zero_p = [row[:k] + [0] * (n - k) for row in G]
    singular_a = [[row[1], *row[1:]] for row in G]
    # rows (1, 3) and columns (1, 3) of P: P[3][3] = P[1][3] P[3][1] / P[1][1]
    one_2x2 = [row[:] for row in G]
    P = [row[k:] for row in G]
    one_2x2[3][k + 3] = ctx.mul_v(ctx.mul_v(P[1][3], P[3][1]), ctx.pow_v(P[1][1], -1))
    return [
        ("cauchy", G, None),
        ("zero P", zero_p, (*range(k - 1), k)),
        ("singular A", singular_a, tuple(range(k))),
        ("one singular 2x2", one_2x2,
         (*(i for i in range(k) if i not in (1, 3)), k + 1, k + 3)),
    ]


@pytest.mark.parametrize("p,d", [(3, 3), (151, 2)])
def test_minors_of_systematic_forms_match_scalar_oracle(p, d):
    ctx = make_field(p, d)
    k, n = 5, 10
    for name, G, witness in _systematic_cases(ctx, k, n):
        assert _oracle_first_singular_minor(ctx, G) == witness, name
        _assert_minors_match_oracle(ctx, G)
        if name == "singular A":
            assert _oracle_rank(ctx, G) == k
        if name == "one singular 2x2":
            P = [row[k:] for row in G]
            singular = [(R, C) for j in (1, 2)
                        for R in combinations(range(k), j) for C in combinations(range(n - k), j)
                        if not _det_nonzero(ctx, [[P[r][c] for c in C] for r in R])]
            assert singular == [((1, 3), (1, 3))]


def _assert_minor_tree(k, n):
    """The keys of all levels name each k-subset but (0, ..., k-1) once, each
    node's parent is the kept node of R and C less their maxima, and no
    level array exceeds grs._BLOCK_ENTRIES entries."""
    import mdssd.grs as grs
    import mdssd.verify as verify

    m = n - k
    keys, kept = [], np.array([[(1 << n) - (1 << m)]])
    for j, (rp, r, cp, c, key) in enumerate(verify._minor_tree(k, m), 1):
        assert (kept[rp[:, None], cp] == (key | (1 << (m + r))[:, None]) ^ (1 << c)).all()
        rows, cols = np.count_nonzero(r < k - 1), np.count_nonzero(c < m - 1)
        assert key.size <= grs._BLOCK_ENTRIES
        assert rows * cols * (k - j) * (m - j) <= grs._BLOCK_ENTRIES
        kept = key[:rows, :cols]
        keys += key.ravel().tolist()
    subsets = [sum(1 << (n - 1 - s) for s in S) for S in combinations(range(n), k)]
    assert sorted(keys) == sorted(subsets[1:])


@pytest.mark.parametrize("p,d", [(3, 3), (151, 2)])
def test_minor_tree_names_every_subset_once_and_matches_scalar_oracle(p, d):
    for n in range(1, MINORS_BUDGET_N + 1):
        for k in range(1, n + 1):
            _assert_minor_tree(k, n)
    ctx = make_field(p, d)
    k, n = 5, 10
    for _, G, _ in _systematic_cases(ctx, k, n):
        _assert_minors_match_oracle(ctx, G)
    for G in _grs_matrices(ctx, random.Random(p), k, n):
        _assert_minors_match_oracle(ctx, G)


def test_first_singular_minor_names_the_witness():
    ctx = make_field(7, 1)
    vandermonde = [[1, 1, 1, 1], [1, 2, 3, 6]]  # distinct points: no singular minor
    assert first_singular_minor(_matrix_artifact(ctx, vandermonde)) is None
    proportional = [[1, 1, 1, 3], [1, 2, 3, 6]]  # column 3 = 3 * column 1
    assert first_singular_minor(_matrix_artifact(ctx, proportional)) == (1, 3)
    good, _ = build("T1ii", 3, 2, m=2, t=2)
    assert first_singular_minor(good) is None


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_min_distance_projective_enumeration_at_q3(k):
    ctx = make_field(3, 1)
    rng = random.Random(k)
    for _ in range(6):
        G = _random_matrix(ctx, rng, k, rng.randint(k, 8))
        assert min_distance(_matrix_artifact(ctx, G)) == _oracle_min_distance(ctx, G)
    # rank-deficient: a zero row, a repeated row, a row that is a multiple
    # of another, and a row that is the sum of two others
    n = 6
    for _ in range(4):
        G = [[rng.randrange(3) for _ in range(n)] for _ in range(k)]
        i = rng.randrange(k)
        if k == 1:
            G[i] = [0] * n
        else:
            j = rng.choice([r for r in range(k) if r != i])
            c = rng.randrange(1, 3)
            G[i] = [ctx.mul_v(c, x) for x in G[j]]
        assert _oracle_min_distance(ctx, G) == 0
        assert min_distance(_matrix_artifact(ctx, G)) == 0
    if k >= 3:
        G = [[rng.randrange(3) for _ in range(n)] for _ in range(k)]
        G[2] = [ctx.add_v(x, y) for x, y in zip(G[0], G[1])]
        assert min_distance(_matrix_artifact(ctx, G)) == 0


# --- mutated artifacts through `mdssd verify` ---

_MUTATIONS = st.one_of(
    st.tuples(st.just("in-range"), st.integers(0, 8)),
    st.tuples(st.sampled_from(["minus-q", "plus-q"]), st.none()),
    st.tuples(st.just("non-int"),
              st.sampled_from([6.0, "6", None, True, False, [6], {"v": 6}])),
)


def _oracle_grs_points(ctx, G, extended):
    """The points a_j when every finite column j of G is v_j a_j^i down its
    rows i, with v_j = G[0][j] nonzero and the a_j distinct, and the last
    column is e_{k-1} when extended; None otherwise.  Scalar field
    operations only."""
    k = len(G)
    if extended and [row[-1] for row in G] != [0] * (k - 1) + [1]:
        return None
    points = []
    for j in range(len(G[0]) - extended):
        if G[0][j] == 0:
            return None
        a = ctx.mul_v(G[1][j], ctx.pow_v(G[0][j], -1))
        if any(G[i + 1][j] != ctx.mul_v(a, G[i][j]) for i in range(k - 1)):
            return None
        points.append(a)
    return points if len(set(points)) == len(points) else None


@pytest.fixture(scope="module")
def f9_doc():
    from mdssd.grs import artifact_to_dict

    art, _ = build("T1ii", 3, 2, m=2, t=2)  # an extended [6, 3] code over F_9
    return artifact_to_dict(art)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row=st.integers(0, 2), col=st.integers(0, 5), mutation=_MUTATIONS)
def test_verify_cli_on_mutated_entry(f9_doc, tmp_path, capsys, row, col, mutation):
    """Out-of-range and non-int entries exit 2.  An in-range change exits 0
    exactly when the scalar oracles find G G^T = 0 and rank k, and the
    stored a and v still describe G wherever G keeps the GRS structure;
    else 4.  A changed G may still be self-dual, e.g. an entry negated in a
    column with a_c = 0, but its row 0 then disagrees with the stored v.
    No input ends in a traceback."""
    from mdssd.cli import main

    ctx = make_field(3, 2)
    assert _oracle_grs_points(ctx, f9_doc["G"], extended=True) == f9_doc["a"]
    kind, value = mutation
    doc = json.loads(json.dumps(f9_doc))
    x = doc["G"][row][col]
    doc["G"][row][col] = {"in-range": value, "minus-q": x - 9,
                          "plus-q": x + 9, "non-int": value}[kind]
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    expected = 2
    if kind == "in-range":
        ok = _oracle_gram_is_zero(ctx, doc["G"]) and _oracle_rank(ctx, doc["G"]) == 3
        described = (doc["G"] == f9_doc["G"]
                     or _oracle_grs_points(ctx, doc["G"], extended=True) is None)
        expected = 0 if ok and described else 4
    for flags, allowed in ((["--no-mds"], {expected}), ([], {expected, 4})):
        code = main(["verify", "--in", str(path), *flags])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code in allowed  # the MDS checks may only add a failure
        if code == 2:
            assert "malformed artifact" in json.loads(captured.out)["error"]


# --- the GRS structure test against elimination and the full Gram matrix ---

def _direct_checks(art):
    rank_ok = _rank_is_k(art)
    return rank_ok, rank_ok and gram_is_zero(art.ctx, art.G)


def _rebuilt_column(ctx, G, j, b):
    """G with column j rebuilt as v_j b^i down its rows, v_j = G[0][j]."""
    G = [row[:] for row in G]
    x = G[0][j]
    for row in G:
        row[j] = x
        x = ctx.mul_v(x, b)
    return G


def _structure_cases(art):
    """(name, G, whether G keeps the GRS structure) for copies of the G of
    a self-dual artifact: one changed entry in row k-1, a finite column
    scaled by a generator g (g^2 != 1) and by -1, rebuilt for a new point,
    for the point 0 and for a duplicate point, zeroed, with a zero in row 0,
    or with a_j = 0 and a nonzero entry below row 0, and a broken extended
    column."""
    ctx, k = art.ctx, art.k
    G = np.asarray(art.G).tolist()
    points = art.a.points
    j = len(points) - 1
    cases = [("as built", G, True)]
    changed = [row[:] for row in G]
    changed[k - 1][j] = ctx.add_v(changed[k - 1][j], 1)
    # at k = 2 the change moves only the point a_j, which may stay distinct
    moved = ctx.mul_v(changed[k - 1][j], ctx.pow_v(G[0][j], -1))
    cases.append(("changed entry", changed, k == 2 and moved not in points))
    for name, c in (("scaled by g", ctx.g_val), ("scaled by -1", ctx.sub_v(0, 1))):
        cases.append((name, [row[:j] + [ctx.mul_v(c, row[j])] + row[j + 1:] for row in G], True))
    new = next((b for b in range(1, ctx.q) if b not in points), None)
    if new is not None:
        cases.append(("another point", _rebuilt_column(ctx, G, j, new), True))
    if 0 not in points:
        cases.append(("point 0", _rebuilt_column(ctx, G, j, 0), True))
    cases.append(("duplicate point", _rebuilt_column(ctx, G, j, points[0]), False))
    cases.append(("zero column", [row[:j] + [0] + row[j + 1:] for row in G], False))
    zero_v = [row[:] for row in G]
    zero_v[0][j] = 0
    cases.append(("zero in row 0", zero_v, False))
    if k >= 3:
        below = _rebuilt_column(ctx, G, j, 0)
        below[k - 1][j] = 1
        cases.append(("a_j = 0 below row 0", below, False))
    if art.a.extended:
        broken = [row[:] for row in G]
        broken[0][-1] = 1
        cases.append(("broken extended column", broken, False))
    return cases


def _assert_structure_matches_direct(art):
    """The helper agrees with direct elimination and the full Gram matrix on
    every copy; the returned outcomes are (name, structure, self-dual).  At
    k = 1 the structure test always falls back.  Every copy changes only the
    last finite column j (or the extended column), so where the structure
    holds, the stored a and v disagree with it exactly there, v first,
    unless G is as built."""
    j = len(art.a.points) - 1
    outcomes = []
    for name, G, structure in _structure_cases(art):
        copy = _with_G(art, G)
        structure = structure and art.k >= 2
        checks = _self_dual_checks(copy)
        ratios = checks[2]
        assert (ratios is not None) == structure, name
        assert checks[:2] == _direct_checks(copy), name
        if structure:
            assert ratios.tolist() == _grs_columns(copy)[1].tolist(), name
            expected = None if name == "as built" else (
                "v" if G[0][j] != art.G[0][j] else "a", j)
            assert _stored_disagreement(copy, ratios) == expected, name
        outcomes.append((name, structure, checks[1]))
    return outcomes


def _assert_self_dual_outcomes(outcomes):
    sd = {name: sd for name, _, sd in outcomes}
    assert sd["as built"] and sd["scaled by -1"] and not sd["scaled by g"]


def _sweep_artifacts(p, d, n_max):
    from mdssd.constructions import construct_from_params, iter_valid_params

    ctx = make_field(p, d)
    return [construct_from_params(ctx, pr)[0] for pr in iter_valid_params(p, d, n_max)]


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 2), (3, 4), (11, 2), (13, 2), (17, 2)])
def test_self_dual_checks_match_direct_on_the_sweep(p, d):
    arts = _sweep_artifacts(p, d, 16)
    assert arts
    for art in arts:
        _assert_self_dual_outcomes(_assert_structure_matches_direct(art))


@pytest.mark.parametrize("theorem,p,d,params", [
    ("T1i", 151, 2, {"m": 6, "t": 71}),
    ("T2", 151, 2, {"m": 15, "t": 25}),
    ("T4", 3, 10, {"e": 2}),
    ("T1i", 3, 10, {"m": 44, "t": 4}),
])
def test_self_dual_checks_match_direct_on_large_codes(theorem, p, d, params):
    art, _ = build(theorem, p, d, **params)
    _assert_self_dual_outcomes(_assert_structure_matches_direct(art))


@pytest.mark.parametrize("p,d", [(3, 2), (13, 2)])
def test_structure_in_small_row_blocks_matches_direct(p, d, monkeypatch):
    # 16-entry blocks test the recurrence a row or two at a time
    import mdssd.grs as grs

    arts = _sweep_artifacts(p, d, 16)
    assert max(art.k for art in arts) >= 4
    expected = [_assert_structure_matches_direct(art) for art in arts]
    monkeypatch.setattr(grs, "_BLOCK_ENTRIES", 16)
    assert [_assert_structure_matches_direct(art) for art in arts] == expected


def test_self_dual_checks_fall_back_at_k_1(monkeypatch):
    # no column is structured at k = 1: elimination decides the rank, and
    # the row-block check sees all of G, as gram_is_zero does
    ctx = make_field(5, 1)
    calls = _count_calls(monkeypatch, "field_rank")
    gram_calls = _count_calls(monkeypatch, "_gram_witness")
    # 1 + 2^2 = 0 in F_5, and 1 + 1 != 0
    for weights, self_dual in (((1, 2), True), ((1, 1), False)):
        art = _plain_artifact(ctx, (1, 2), weights, 1)
        calls.clear()
        gram_calls.clear()
        witness = None if self_dual else (0, 0)
        assert _self_dual_checks(art) == (True, self_dual, None, witness)
        assert calls == [(1, 1)] and gram_calls == [(1, 2)]
        assert _direct_checks(art) == (True, self_dual)


@pytest.mark.parametrize("k", [2, 3])
def test_self_dual_checks_read_the_last_hankel_row(k):
    # a GRS code whose Gram row 0, the sums H_0 .. H_{k-1}, is zero while a
    # higher sum is not: only row k-1 shows that it is not self-dual
    ctx = make_field(13, 1)
    rng = random.Random(k)
    for _ in range(100_000):
        art = _plain_artifact(ctx, rng.sample(range(13), 2 * k),
                              [rng.randrange(1, 13) for _ in range(2 * k)], k)
        G = np.asarray(art.G).tolist()
        if not any(_oracle_matmul_t(ctx, G[:1], G)[0]) and not _oracle_gram_is_zero(ctx, G):
            break
    else:
        pytest.fail("no such code found")
    assert _self_dual_checks(art)[2].tolist() == list(art.a.points)
    assert _self_dual_checks(art)[:2] == (True, False) == _direct_checks(art)


# --- the column certificate: structured columns plus a correction ---

def _oracle_gram_witness(ctx, G):
    """The first nonzero entry of G G^T in row-major order, by scalar
    products, or None."""
    for i, u in enumerate(G):
        for l, w in enumerate(G):
            acc = 0
            for x, y in zip(u, w):
                acc = ctx.add_v(acc, ctx.mul_v(x, y))
            if acc:
                return i, l
    return None


def _gram_witness_by_product(ctx, G):
    """The same, from the full product G G^T of `field_matmul_t`."""
    nonzero = np.argwhere(field_matmul_t(ctx, G, G))
    return tuple(map(int, nonzero[0])) if len(nonzero) else None


def _corrupted_copies(art, rng):
    """(name, G) for copies of the G of `art`: 1-3 random columns each with
    one entry changed, scaled by a random nonzero c, replaced by random
    values, or zeroed; a column moved onto the node of another; every
    finite column moved onto max(1, k-1) nodes, and onto max(1, k-2) nodes
    with two random columns, so that fewer than k distinct nodes remain;
    and, when extended, the column at infinity broken or rescaled."""
    ctx, k, n = art.ctx, art.k, art.n
    G = np.asarray(art.G).tolist()
    points = art.a.points
    finite = len(points)
    copies = []
    for count in range(1, min(3, n) + 1):
        cols = rng.sample(range(n), count)
        for kind in ("entry changed", "scaled", "random", "zero"):
            M = [row[:] for row in G]
            c = rng.randrange(1, ctx.q)
            for j in cols:
                if kind == "entry changed":
                    i = rng.randrange(k)
                    M[i][j] = ctx.add_v(M[i][j], rng.randrange(1, ctx.q))
                    continue
                for row in M:
                    row[j] = (ctx.mul_v(c, row[j]) if kind == "scaled"
                              else rng.randrange(ctx.q) if kind == "random" else 0)
            copies.append((f"{count} {kind}", M))
    if finite >= 2:
        j1, j2 = rng.sample(range(finite), 2)
        copies.append(("same node", _rebuilt_column(ctx, G, j2, points[j1])))
    for name, nodes, spoiled in (("few nodes", max(1, k - 1), 0),
                                 ("few nodes and random columns", max(1, k - 2), 2)):
        M = G
        for j in range(finite):
            M = _rebuilt_column(ctx, M, j, points[j % nodes])
        for j in rng.sample(range(n), min(spoiled, n)):
            for row in M:
                row[j] = rng.randrange(ctx.q)
        copies.append((name, M))
    if art.a.extended:
        broken = [row[:] for row in G]
        broken[0][-1] = 1
        rescaled = [row[:] for row in G]
        rescaled[-1][-1] = ctx.g_val
        copies += [("broken extended column", broken), ("rescaled extended column", rescaled)]
    return copies


def _assert_column_certificate(art, rng, monkeypatch, witness_oracle=_oracle_gram_witness):
    """On every corrupted copy, `_self_dual_checks` gives the rank and
    self-duality verdicts of direct elimination and the full Gram matrix,
    and at rank k without self-duality, the oracle's first nonzero Gram
    entry; the same in row blocks of 16 entries.  The ratios come exactly
    when the scalar oracle finds all of G GRS, with distinct nodes and
    e_{k-1}, and are its points."""
    import mdssd.grs as grs

    for name, G in _corrupted_copies(art, rng):
        copy = _with_G(art, G)
        rank_ok, self_dual = _direct_checks(copy)
        witness = witness_oracle(art.ctx, G) if rank_ok else None
        assert self_dual == (rank_ok and witness is None), name
        points = _oracle_grs_points(art.ctx, G, art.a.extended) if art.k >= 2 else None
        for block_entries in (None, 16):
            with monkeypatch.context() as patch:
                if block_entries:
                    patch.setattr(grs, "_BLOCK_ENTRIES", block_entries)
                checks = _self_dual_checks(copy)
            assert checks[:2] == (rank_ok, self_dual), (name, block_entries)
            assert checks[3] == witness, (name, block_entries)
            ratios = None if checks[2] is None else checks[2].tolist()
            assert ratios == points, (name, block_entries)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 2), (3, 4), (11, 2), (13, 2), (17, 2)])
def test_column_certificate_matches_direct_on_corrupted_sweep(p, d, monkeypatch):
    arts = _sweep_artifacts(p, d, 16)
    assert {1, 2} <= {art.k for art in arts}
    rng = random.Random(p * 100 + d)
    for art in arts:
        _assert_column_certificate(art, rng, monkeypatch)


@pytest.mark.parametrize("theorem,p,d,params", [
    ("T1i", 151, 2, {"m": 6, "t": 71}),
    ("T2", 151, 2, {"m": 15, "t": 25}),
    ("T4", 3, 10, {"e": 2}),
    ("T1i", 3, 10, {"m": 44, "t": 4}),
])
def test_column_certificate_matches_direct_on_large_codes(theorem, p, d, params, monkeypatch):
    art, _ = build(theorem, p, d, **params)
    _assert_column_certificate(art, random.Random(art.n), monkeypatch, _gram_witness_by_product)


def test_column_certificate_at_k_1_and_2(monkeypatch):
    # k = 1 has no structured column; at k = 2 a column is structured
    # whenever its row-0 entry is nonzero
    ctx = make_field(13, 1)
    rng = random.Random(5)
    for k in (1, 2):
        for _ in range(20):
            art = _plain_artifact(ctx, rng.sample(range(13), 2 * k),
                                  [rng.randrange(1, 13) for _ in range(2 * k)], k)
            _assert_column_certificate(art, rng, monkeypatch)
            assert _grs_columns(art)[0].all() == (k == 2)


def test_gram_witness_is_the_first_nonzero_entry_on_one_entry_changes():
    # every one-entry change of every sweep artifact over F_25: the named
    # entry is nonzero, and every earlier one, in row-major order, is zero
    for art in _sweep_artifacts(5, 2, 16):
        ctx, G = art.ctx, np.asarray(art.G).tolist()
        for i in range(art.k):
            for j in range(art.n):
                changed = [row[:] for row in G]
                changed[i][j] = ctx.add_v(changed[i][j], 1)
                rank_ok, self_dual, _, witness = _self_dual_checks(_with_G(art, changed))
                if not rank_ok or self_dual:
                    assert witness is None
                    continue
                assert witness == _oracle_gram_witness(ctx, changed), (art.n, i, j)


@pytest.mark.parametrize("block_entries", [None, 16])
def test_gram_witness_grows_its_row_blocks(block_entries, monkeypatch):
    """`_gram_witness` takes 1, 2, 4, ... rows at a time, up to its block,
    and names the entry that the full product names: for seeded one-entry
    changes of the n = 426 code in row 0, a middle row and the last row,
    whose witnesses lie in row 0 and cost one 1-row product, and for an
    extended code (n = 46) with its column at infinity zeroed, whose only
    nonzero Gram entry is the last.  The same through `_self_dual_checks`."""
    import mdssd.grs as grs
    import mdssd.verify as verify

    art, _ = build("T1i", 151, 2, m=6, t=71)
    ctx, k = art.ctx, art.k
    rng = random.Random(art.n)
    cases = []
    for row in (0, k // 2, k - 1):
        for _ in range(2):
            G = np.array(art.G)
            col = rng.randrange(art.n)
            G[row, col] = ctx.add_v(int(G[row, col]), rng.randrange(1, ctx.q))
            cases.append((art, G, _gram_witness_by_product(ctx, G)))
    extended, _ = build("T2", 151, 2, m=15, t=3)
    deep = np.array(extended.G)
    deep[-1, -1] = 0
    cases.append((extended, deep, (extended.k - 1, extended.k - 1)))
    assert _gram_witness_by_product(ctx, deep) == cases[-1][2]
    if block_entries:
        monkeypatch.setattr(grs, "_BLOCK_ENTRIES", block_entries)
    products = []
    real = verify.field_matmul_t
    monkeypatch.setattr(verify, "field_matmul_t",
                        lambda ctx, A, B: products.append(len(A)) or real(ctx, A, B))
    for code, G, expected in cases:
        assert expected[0] == 0 or code is extended
        products.clear()
        assert verify._gram_witness(ctx, G, np.zeros(2 * code.k - 1, dtype=np.int64)) == expected
        assert products == ([1] if code is art else _growing_blocks(code.k, 3 * code.k))
        assert _self_dual_checks(_with_G(code, G))[3] == expected


def _growing_blocks(k, entries_per_row):
    """The row counts of `_gram_witness` over all k rows: 1, 2, 4, ... up
    to the block, the last one cut at k."""
    import mdssd.grs as grs

    cap = max(1, grs._BLOCK_ENTRIES // entries_per_row)
    rows, top, size = [], 0, 1
    while top < k:
        rows.append(min(size, k - top))
        top += size
        size = min(2 * size, cap)
    return rows


def test_one_entry_change_at_n_426_skips_elimination_and_full_gram(monkeypatch, tmp_path,
                                                                   capsys):
    from mdssd.cli import main
    from mdssd.grs import artifact_to_dict

    art, _ = build("T1i", 151, 2, m=6, t=71)
    doc = artifact_to_dict(art)
    doc["G"][100][200] = art.ctx.add_v(doc["G"][100][200], 1)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(doc))
    calls = _count_calls(monkeypatch, "field_rank")
    gram_calls = _count_calls(monkeypatch, "gram_is_zero")
    block_calls = _count_calls(monkeypatch, "_gram_witness")
    assert main(["verify", "--in", str(path), "--no-mds"]) == 4
    out, err = capsys.readouterr()
    assert json.loads(out) == {"self_dual": False, "rank_ok": True,
                               "mds_checked": "skipped_too_large"}
    assert calls == [] and gram_calls == []
    # only the broken column 200 goes through the row-block check
    assert block_calls == [(art.k, 1)]
    assert err.splitlines()[0].startswith("nonzero Gram entry at (")


# --- self-duality from (a, v) alone: the power sums ---

def _grs_matrix_by_definition(ctx, points, weights, k, extended):
    """Row i of G is v_j a_j^i by scalar products, whatever the points and
    weights; the extended column is e_{k-1}."""
    G = [[ctx.mul_v(w, ctx.pow_v(x, i)) for x, w in zip(points, weights)] for i in range(k)]
    if extended:
        for i, row in enumerate(G):
            row.append(int(i == k - 1))
    return G


def _verdict_on_G(art, G, witness_oracle):
    """(rank k, the least s with P_s nonzero, None when self-dual) on G, by
    elimination and the full Gram matrix (`_direct_checks`), which share no
    code with the power sums, and the oracle's first nonzero Gram entry
    (i, l): for a GRS matrix it is on the antidiagonal s = i + l."""
    rank_ok, self_dual = _direct_checks(_with_G(art, G))
    witness = None if self_dual or not rank_ok else witness_oracle(art.ctx, G)
    assert self_dual == (rank_ok and witness is None)
    return rank_ok, None if witness is None else sum(witness)


def _assert_power_sums_match_G(art, points, weights, monkeypatch, G=None,
                               witness_oracle=_oracle_gram_witness):
    """power_sum_verdict on (points, weights), in the default row blocks
    and in blocks of 16 entries, against elimination, the full Gram matrix
    and the witness oracle on the G of these points and weights (by
    definition unless given).  A repeated point or a zero weight is never
    certified."""
    import mdssd.grs as grs

    a = EvalVector(art.ctx, tuple(points), art.a.extended)
    if len(set(points)) < len(points) or 0 in weights:
        expected = (False, None)
    else:
        if G is None:
            G = _grs_matrix_by_definition(art.ctx, points, weights, art.k, art.a.extended)
        expected = _verdict_on_G(art, G, witness_oracle)
        assert expected[0]
    for block_entries in (None, 16):
        with monkeypatch.context() as patch:
            if block_entries:
                patch.setattr(grs, "_BLOCK_ENTRIES", block_entries)
            assert power_sum_verdict(a, weights) == expected, (points, weights, block_entries)
    return expected


def _one_entry_corruptions(art, rng):
    """(points, weights) with one entry of a or of v changed: a point moved
    to a value outside a, onto another point, and to 0; a weight multiplied
    by g, negated, and zeroed."""
    ctx = art.ctx
    points, weights = list(art.a.points), list(art.v.weights)
    j = rng.randrange(len(points))
    fresh = [x for x in range(ctx.q) if x not in points]
    out = []
    for value in (rng.choice(fresh) if fresh else None, points[j - 1], 0):
        if value is not None and value != points[j]:
            out.append((points[:j] + [value] + points[j + 1:], weights))
    for value in (ctx.mul_v(weights[j], ctx.g_val), ctx.sub_v(0, weights[j]), 0):
        out.append((points, weights[:j] + [value] + weights[j + 1:]))
    return out


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 2), (3, 4), (11, 2), (13, 2), (17, 2)])
def test_power_sums_match_G_on_the_sweep_and_its_corruptions(p, d, monkeypatch):
    arts = _sweep_artifacts(p, d, 16)
    assert {1, 2} <= {art.k for art in arts}
    assert {False, True} == {art.a.extended for art in arts}
    rng = random.Random(p * 100 + d)
    verdicts = set()
    for art in arts:
        built = _assert_power_sums_match_G(art, art.a.points, art.v.weights, monkeypatch,
                                           np.asarray(art.G).tolist())
        assert built == (True, None)
        for points, weights in _one_entry_corruptions(art, rng):
            verdicts.add(_assert_power_sums_match_G(art, points, weights, monkeypatch))
    # self-dual, not certified, and both P_0 and P_1 first nonzero occur
    assert {(True, None), (False, None), (True, 0), (True, 1)} <= verdicts


def test_power_sums_at_k_1_and_with_a_zero_point(monkeypatch):
    # k = 1: G = (v_0 v_1) does not show a, so only the rank test refuses a
    # repeated point; a zero point adds v_j^2 to P_0 alone
    ctx = make_field(5, 1)
    art = _plain_artifact(ctx, (1, 2), (1, 2), 1)
    assert _assert_power_sums_match_G(art, (1, 2), (1, 2), monkeypatch) == (True, None)
    assert _assert_power_sums_match_G(art, (0, 2), (1, 2), monkeypatch) == (True, None)
    assert _assert_power_sums_match_G(art, (1, 2), (1, 1), monkeypatch) == (True, 0)
    assert check_self_dual(_with_G(art, [[1, 2]]))  # G alone is self-dual here
    assert _assert_power_sums_match_G(art, (2, 2), (1, 2), monkeypatch) == (False, None)
    assert _assert_power_sums_match_G(art, (1, 2), (1, 0), monkeypatch) == (False, None)


def test_power_sums_name_the_last_sum_of_an_extended_code(monkeypatch):
    # every finite weight times c, c^2 != 1: the sums below n-2 stay zero,
    # and P_{n-2} becomes -c^2 instead of -1
    art, _ = build("T2", 7, 2, m=3, t=3)
    assert art.a.extended
    c = art.ctx.g_val
    weights = [art.ctx.mul_v(c, w) for w in art.v.weights]
    assert _assert_power_sums_match_G(art, art.a.points, weights, monkeypatch) \
        == (True, art.n - 2)


@pytest.mark.parametrize("theorem,p,d,params", [
    ("T1i", 151, 2, {"m": 6, "t": 71}),
    ("T2", 151, 2, {"m": 15, "t": 25}),
    ("T4", 3, 10, {"e": 2}),
    ("T1i", 3, 10, {"m": 44, "t": 4}),
])
def test_power_sums_match_G_on_large_codes(theorem, p, d, params, monkeypatch):
    art, _ = build(theorem, p, d, **params)
    G = np.asarray(art.G)
    assert _assert_power_sums_match_G(art, art.a.points, art.v.weights, monkeypatch, G,
                                      _gram_witness_by_product) == (True, None)


@pytest.mark.parametrize("q", [83**2, 151**2])
def test_power_sums_match_G_on_the_census_spot_check_codes(q, monkeypatch):
    from mdssd.census import census_report
    from mdssd.field import odd_prime_power

    p, d = odd_prime_power(q)
    spot_checks = census_report(q, 128).spot_checks
    assert len(spot_checks) == 64
    for n, verdict in spot_checks.items():
        theorem, _, args = verdict.removeprefix("ok:").rstrip(")").partition("(")
        params = {("k_sub" if key == "k" else key): int(val)
                  for key, val in (item.split("=") for item in args.split(","))}
        art, _ = build(theorem, p, d, **params)
        assert art.n == n
        assert _assert_power_sums_match_G(art, art.a.points, art.v.weights, monkeypatch,
                                          np.asarray(art.G), _gram_witness_by_product) \
            == (True, None)


def _assert_about_sqrt_k_rows_in_bounded_blocks(monkeypatch, certifies):
    """T2 n = 1006, k = 503: one product of 32 baby rows against 32 giant
    rows of the 1005 finite points, where G has 503 rows, at the default
    block size and at 4096 entries alike: the power sums read no block
    size.  `certifies(art)` runs the check and says whether it certified
    the code."""
    import mdssd.grs as grs
    import mdssd.verify as verify

    art, _ = build("T2", 151, 2, m=15, t=67)
    shapes = []
    real = verify.field_matmul_t

    def recorded(ctx, A, B):
        shapes.append((A.shape, B.shape))
        return real(ctx, A, B)

    monkeypatch.setattr(verify, "field_matmul_t", recorded)
    for block_entries in (None, 4096):
        if block_entries:
            monkeypatch.setattr(grs, "_BLOCK_ENTRIES", block_entries)
        shapes.clear()
        assert certifies(art), block_entries
        assert shapes == [((32, 1005), (32, 1005))], block_entries


def test_power_sums_make_about_sqrt_k_rows_in_bounded_blocks(monkeypatch):
    _assert_about_sqrt_k_rows_in_bounded_blocks(
        monkeypatch, lambda art: power_sum_verdict(art.a, art.v.weights) == (True, None))


def test_self_dual_checks_make_about_sqrt_k_rows_in_bounded_blocks(monkeypatch):
    # G's structured columns hand their nodes and weights to the same power
    # sums, so no product reads G's 503 rows
    _assert_about_sqrt_k_rows_in_bounded_blocks(
        monkeypatch, lambda art: _self_dual_checks(art)[:2] == (True, True))
