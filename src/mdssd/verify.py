"""Independent certification of code artifacts: self-duality (Gram matrix and
rank), MDS-ness by exhaustive minors, and minimum distance by full codeword
enumeration.  Nothing here reuses construction-side shortcuts; everything is
recomputed from the generator matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .field import FieldCtx
from .grs import CodeArtifact

MINORS_BUDGET_N = 16
DISTANCE_BUDGET = 1 << 22


# --- vectorized field kernels on encoding arrays ---

def _np_mul(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    exp, log = ctx.np_tables
    mask = (A != 0) & (B != 0)
    la = log[np.where(A != 0, A, 1)]
    lb = log[np.where(B != 0, B, 1)]
    return np.where(mask, exp[(la + lb) % (ctx.q - 1)], 0)


def _np_sub(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    p = ctx.p
    if ctx.d == 1:
        return (A - B) % p
    out = np.zeros(np.broadcast(A, B).shape, dtype=np.int64)
    a, b, mult = A.copy(), B.copy(), 1
    for _ in range(ctx.d):
        out += ((a - b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _np_add(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    p = ctx.p
    if ctx.d == 1:
        return (A + B) % p
    out = np.zeros(np.broadcast(A, B).shape, dtype=np.int64)
    a, b, mult = A.copy(), B.copy(), 1
    for _ in range(ctx.d):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _np_field_sum(ctx: FieldCtx, A: np.ndarray, axis: int) -> np.ndarray:
    p = ctx.p
    if ctx.d == 1:
        return A.sum(axis=axis) % p
    out = np.zeros(A.sum(axis=axis).shape, dtype=np.int64)
    rem, mult = A.copy(), 1
    for _ in range(ctx.d):
        out += (rem % p).sum(axis=axis) % p * mult
        rem //= p
        mult *= p
    return out


def field_rank(ctx: FieldCtx, G) -> int:
    """Rank by Gaussian elimination; pivot = first nonzero (deterministic)."""
    M = np.array(G, dtype=np.int64)
    rows, cols = M.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivots = np.nonzero(M[rank:, col])[0]
        if pivots.size == 0:
            continue
        pr = rank + int(pivots[0])
        if pr != rank:
            M[[rank, pr]] = M[[pr, rank]]
        inv = ctx.inv_v(int(M[rank, col]))
        M[rank] = _np_mul(ctx, M[rank], np.int64(inv))
        below = M[rank + 1:]
        if below.size:
            factors = below[:, col:col + 1]
            M[rank + 1:] = _np_sub(ctx, below, _np_mul(ctx, factors, M[rank][None, :]))
        rank += 1
    return rank


def gram_is_zero(ctx: FieldCtx, G) -> bool:
    """True iff G * G^T is the zero matrix (exact, row by row)."""
    Gn = np.array(G, dtype=np.int64)
    k = Gn.shape[0]
    exp, log = ctx.np_tables
    mask = Gn != 0
    Glog = log[np.where(mask, Gn, 1)]
    q1 = ctx.q - 1
    for i in range(k):
        pm = mask[i][None, :] & mask
        prods = np.where(pm, exp[(Glog[i][None, :] + Glog) % q1], 0)
        if np.any(_np_field_sum(ctx, prods, axis=1) != 0):
            return False
    return True


# --- report ---

@dataclass
class VerificationReport:
    self_dual: bool
    rank_ok: bool
    mds_checked: str  # exhaustive_minors | min_weight | skipped_too_large
    min_distance: int | None
    elapsed: float
    mds_ok: bool | None = None

    def to_dict(self) -> dict:
        # elapsed is intentionally excluded: artifact JSON must be bit-exact
        out = {
            "self_dual": self.self_dual,
            "rank_ok": self.rank_ok,
            "mds_checked": self.mds_checked,
        }
        if self.mds_ok is not None:
            out["mds_ok"] = self.mds_ok
        if self.min_distance is not None:
            out["min_distance"] = self.min_distance
        return out


def check_self_dual(art: CodeArtifact) -> bool:
    if art.n != 2 * art.k:
        raise DimensionMismatch(f"self-dual codes need n = 2k, got n={art.n}, k={art.k}")
    if len(art.G) != art.k or any(len(row) != art.n for row in art.G):
        raise DimensionMismatch("generator matrix shape does not match (k, n)")
    return gram_is_zero(art.ctx, art.G) and field_rank(art.ctx, art.G) == art.k


def _det_nonzero(ctx: FieldCtx, rows: list[list[int]]) -> bool:
    """Nonsingularity of a small square matrix by exact elimination."""
    k = len(rows)
    M = [row[:] for row in rows]
    for col in range(k):
        piv = None
        for r in range(col, k):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            return False
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
        inv = ctx.inv_v(M[col][col])
        for r in range(col + 1, k):
            f = M[r][col]
            if f == 0:
                continue
            scale = ctx.mul_v(f, inv)
            Mr, Mc = M[r], M[col]
            for c in range(col, k):
                Mr[c] = ctx.sub_v(Mr[c], ctx.mul_v(scale, Mc[c]))
    return True


def check_mds_minors(art: CodeArtifact) -> bool:
    """Every k columns of G independent <=> the code is MDS.  Column subsets
    are scanned lexicographically with early exit, so the first singular
    witness is deterministic."""
    n, k = art.n, art.k
    if n > MINORS_BUDGET_N:
        raise TooLarge(f"n = {n} > {MINORS_BUDGET_N} for exhaustive minors")
    ctx = art.ctx
    cols = [[art.G[r][c] for r in range(k)] for c in range(n)]
    for subset in combinations(range(n), k):
        minor = [[cols[c][r] for c in subset] for r in range(k)]
        if not _det_nonzero(ctx, minor):
            return False
    return True


def min_distance(art: CodeArtifact) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration."""
    ctx, k, n = art.ctx, art.k, art.n
    q = ctx.q
    total = q**k
    if total > DISTANCE_BUDGET:
        raise TooLarge(f"q^k = {total} > {DISTANCE_BUDGET} for codeword enumeration")
    G = np.array(art.G, dtype=np.int64)
    best = n + 1
    chunk = 1 << 16
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = np.zeros((idx.size, n), dtype=np.int64)
        rem = idx
        for row in range(k):
            coeff = rem % q
            rem = rem // q
            words = _np_add(ctx, words, _np_mul(ctx, coeff[:, None], G[row][None, :]))
        weights = (words != 0).sum(axis=1)
        best = min(best, int(weights.min()))
    return best


def verify_artifact(art: CodeArtifact, mds: bool = True) -> VerificationReport:
    start = time.monotonic()
    sd = check_self_dual(art)
    # self-duality already implies rank k, so only a failed check needs the rank
    rank_ok = sd or field_rank(art.ctx, art.G) == art.k
    mds_checked = "skipped_too_large"
    mds_ok: bool | None = None
    dist: int | None = None
    if mds:
        if art.n <= MINORS_BUDGET_N:
            mds_checked = "exhaustive_minors"
            mds_ok = check_mds_minors(art)
        if art.ctx.q**art.k <= DISTANCE_BUDGET:
            dist = min_distance(art)
            if mds_checked == "skipped_too_large":
                mds_checked = "min_weight"
                mds_ok = dist == art.n - art.k + 1
    return VerificationReport(sd, rank_ok, mds_checked, dist, time.monotonic() - start, mds_ok)
