"""Independent certification of code artifacts: self-duality (Gram matrix and
rank), MDS-ness by exhaustive minors, and minimum distance by full codeword
enumeration.  Nothing here reuses construction-side shortcuts; everything is
recomputed from the generator matrix.

The vectorized kernels are exact.  The Gram matrix G G^T is computed over
the integers from the base-p digit planes of G by float64 BLAS products,
with the columns taken in chunks small enough that every float64 sum stays
below 2^53 (see `gram_is_zero`), then reduced mod p and mod the field
modulus.  Rank and codeword enumeration work on int32 logarithms to the
base g, with q-1 standing for zero: multiplication adds logs, and addition
is one lookup in the field's Zech table, log(1 + g^i).
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


# --- vectorized field kernels ---

# Every integer of magnitude at most 2^53 is exact in float64.
_EXACT_FLOAT = 1 << 53

# Entries per digit-plane block and per Gram row block (4 MB as 8-byte
# values), so that Gram memory does not grow with d * k * n.
_BLOCK_ENTRIES = 1 << 19


def _logs(ctx: FieldCtx, M: np.ndarray) -> np.ndarray:
    """int32 logs of an encoding array, with q-1 standing for zero."""
    return np.where(M != 0, ctx.np_tables[1][M], ctx.q - 1).astype(np.int32)


def _log_outer(q1: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logs of the products a_i * b_j, for int32 log vectors with q-1
    standing for zero."""
    T = a[:, None] + b
    np.subtract(T, q1, out=T, where=T >= q1)
    T[a == q1] = q1
    T[:, b == q1] = q1
    return T


def _zech_index(ctx: FieldCtx) -> np.ndarray:
    """zech[i mod (q-1)] for 0 <= i <= 2(q-1): a difference of two logs (or
    q-1 for zero) plus q-1 indexes it without a mod."""
    zech = ctx.np_zech
    return np.concatenate((zech, zech, zech[:1]))


def _log_add(q1: int, zech2: np.ndarray, A: np.ndarray, T: np.ndarray) -> None:
    """A <- A + T in place, for int32 log arrays with q-1 standing for zero
    and `zech2 = _zech_index(ctx)`: a + t = a (1 + t/a), so
    log(a + t) = log a + zech[log t - log a], and t = -a gives zero."""
    a_zero = A == q1
    z = T - A
    z += q1
    z = zech2[z]
    z[T == q1] = 0
    cancel = z < 0
    A += z
    np.subtract(A, q1, out=A, where=A >= q1)
    A[cancel] = q1
    np.copyto(A, T, where=a_zero)


def field_rank(ctx: FieldCtx, G) -> int:
    """Rank by Gaussian elimination on logs; pivot = first nonzero
    (deterministic).  Each step adds -(f/piv) * pivot row, whose logs are
    f - piv + log(-1) + row, to the rows below with a nonzero factor f,
    right of the pivot column."""
    L = _logs(ctx, np.array(G, dtype=np.int64))
    zech2 = _zech_index(ctx)
    q1 = ctx.q - 1
    rows, cols = L.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(L[rank:, col] != q1)
        if nz.size == 0:
            continue
        if nz[0]:
            L[[rank, rank + nz[0]]] = L[[rank + nz[0], rank]]
        below = rank + nz[1:]
        f = L[below, col] - L[rank, col] + q1 // 2
        f %= q1
        A = L[below, col + 1:]
        _log_add(q1, zech2, A, _log_outer(q1, f, L[rank, col + 1:]))
        L[below, col + 1:] = A
        rank += 1
    return rank


def gram_is_zero(ctx: FieldCtx, G) -> bool:
    """True iff G * G^T is the zero matrix, computed exactly.

    G splits into d base-p digit planes D_i, so G G^T is the polynomial
    sum_s C_s x^s with C_s = sum_{i+j=s} D_i D_j^T, reduced mod the monic
    field modulus.  Each D_i D_j^T is one float64 BLAS product, added into
    C_{i+j} in int64.  Over m columns its entries are sums of nonnegative
    integers of at most m (p-1)^2, so the columns go in chunks of
    m <= (2^53 - 1) / (p-1)^2: every float64 partial sum is then an exact
    integer.  C is reduced mod p after each chunk, so it stays below
    p + d * 2^53 < 2^63.  Rows of the Gram matrix are computed in blocks, and
    columns chunked further, so that no array holds more than about
    _BLOCK_ENTRIES entries.  G G^T is symmetric, so each row block is
    computed from its diagonal rightwards, and the first nonzero block ends
    the check."""
    p, d = ctx.p, ctx.d
    Gn = np.array(G, dtype=np.int64)
    k, n = Gn.shape
    chunk = min((_EXACT_FLOAT - 1) // (p - 1) ** 2, max(1, _BLOCK_ENTRIES // (d * k)))
    rows = max(1, _BLOCK_ENTRIES // ((2 * d - 1) * k))
    # x^d = -(f_0 + ... + f_{d-1} x^{d-1}) for the monic modulus f
    f = np.array(ctx.modulus[:d], dtype=np.int64)[:, None, None]
    for top in range(0, k, rows):
        C = np.zeros((2 * d - 1, min(rows, k - top), k - top), dtype=np.int64)
        for lo in range(0, n, chunk):
            block = Gn[:, lo:lo + chunk]
            planes = np.empty((d,) + block.shape)
            for i in range(d):
                planes[i] = block // p**i % p
            for i in range(d):
                for j in range(d):
                    C[i + j] += (planes[i, top:top + rows] @ planes[j, top:].T).astype(np.int64)
            C %= p
        for s in range(2 * d - 2, d - 1, -1):
            C[s - d:s] -= f * C[s]
            C[s - d:s] %= p
        if C[:d].any():
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
    q1 = q - 1
    LG = _logs(ctx, np.array(art.G, dtype=np.int64))
    zech2 = _zech_index(ctx)
    best = n + 1
    chunk = 1 << 16
    for start in range(1, total, chunk):
        rem = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = np.full((rem.size, n), q1, dtype=np.int32)
        for row in range(k):
            _log_add(q1, zech2, words, _log_outer(q1, _logs(ctx, rem % q), LG[row]))
            rem //= q
        weights = (words != q1).sum(axis=1)
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
