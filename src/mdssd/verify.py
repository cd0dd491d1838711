"""Independent certification of code artifacts: self-duality (Gram matrix and
rank), MDS-ness by exhaustive minors, and minimum distance by full codeword
enumeration.  Nothing here reuses construction-side shortcuts; everything is
recomputed from the generator matrix, which the kernels take as any
array-like of encodings (an artifact holds it as one int64 array).

Self-duality and rank k are decided from the structure of G, column by
column (`_grs_columns`).  A finite column j is structured when G[0][j] is
nonzero and G[i+1][j] = a_j G[i][j] down the column, with
a_j = G[1][j] / G[0][j] its node; the last column of an artifact marked
extended is structured when it is c e_{k-1}, c != 0, the node infinity.
Structured columns with k pairwise distinct nodes form a scaled
(projective) Vandermonde matrix, so they certify rank k; only with fewer
does elimination decide the rank.  For self-duality the columns split
into the structured S and the rest B, and G G^T = G_S G_S^T + G_B G_B^T.
G_S G_S^T is the Hankel matrix of the sums P_s = sum_{j in S} v_j^2 a_j^s
(plus c^2 at s = 2k-2), and its rows 0 and k-1 hold every P_s.  With B
empty the code is self-dual exactly when they are zero; otherwise
G_B G_B^T is compared with -P_{i+l}, row block by row block, in
O(kn + k^2 |B|).  With S empty (k = 1, or no column of GRS form) that is
the full Gram matrix.  When the rank is k and the code is not self-dual,
the first nonzero entry of G G^T in row-major order is named.  When every
finite column is structured with distinct nodes and the extended column is
e_{k-1}, G generates GRS_k(a, v) with v = row 0, or its extension, and
`verify_artifact` checks the stored v against row 0 and the stored a
against the ratios, in O(n); otherwise the stored a and v are not read.

The vectorized kernels are exact.  Products A B^T over F_q
(`field_matmul_t`, behind both the Hankel rows and the row-block Gram
check) are computed over the integers from the base-p digit planes by
float64 BLAS products, with the columns taken in chunks small enough that
every float64 sum stays below 2^53, then reduced mod p and mod the field
modulus.  Rank, minors and codeword enumeration work on int32 logarithms to
the base g, with the sentinel Z = 5(q-1), well away from [0, q-1), standing
for zero.  Every update they make is one call of the fused kernel
`FieldCtx.log_muladd`, A <- A + F (x) R, which allows leading batch axes.
T = min(F + R, 4(q-1)) sends every zero product to one value, and the index
T - A + Z then falls into one of four disjoint ranges: both nonzero, zero
product, A zero, and both zero.  One gather from the table ext (the Zech
value log(1 + g^i) in the first range, or a code for cancellation) and one
from the table norm (reduction mod q-1, with cancelled sums and Z mapped to
Z) finish the update.  Both integer tables are built once per field, on
first use.  A rank step updates the whole trailing block: a row whose
factor is zero gets a factor log of at least Z, which leaves it unchanged.
When elimination decides, rank k of a k x n matrix is certified by the
leading k x k block when that block is nonsingular, and by the full matrix
only otherwise.

The exhaustive minors are decided from the systematic form.  Gauss-Jordan
on the leading k x k block A turns G into [D | P] with D diagonal; if A is
singular, the columns 0..k-1 are the first singular subset.  Otherwise a
code with generator [I | P] is MDS exactly when every square submatrix of P
is nonsingular (MacWilliams & Sloane, The Theory of Error-Correcting Codes,
ch. 11, Thm 8): the k-subset S = ([k] \\ R) + (k + C) has
det G_S = +-det(A) det P[R, C] / (product of D over R), and
S <-> (R, C) with |R| = |C| = j is a bijection, since
sum_j C(k, j) C(n-k, j) = C(n, k).  So the check stays exhaustive over every
k-subset.  The j x j minors of P are eliminated in lockstep, one (B, j, j)
log array per chunk, with the pairs in the lexicographic order of S; the
witness is the least first singular S over the sizes j.  Enumeration visits
only the (q^k - 1)/(q - 1) coefficient vectors whose last nonzero entry is
1; this is exhaustive because every nonzero codeword is a nonzero multiple
of exactly one of them, with the same weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .field import FieldCtx
from .grs import _BLOCK_ENTRIES, CodeArtifact

MINORS_BUDGET_N = 16
DISTANCE_BUDGET = 1 << 22


# --- vectorized field kernels ---

# Every integer of magnitude at most 2^53 is exact in float64.
_EXACT_FLOAT = 1 << 53


def _logs(ctx: FieldCtx, M: np.ndarray) -> np.ndarray:
    """int32 logs of an encoding array, with `ctx.log_zero` standing for
    zero."""
    return np.where(M != 0, ctx.np_tables[1][M], ctx.log_zero).astype(np.int32)


def field_rank(ctx: FieldCtx, G) -> int:
    """Rank by Gaussian elimination on logs; pivot = first nonzero
    (deterministic).  Each step adds -(f/piv) * pivot row to the rows below,
    right of the pivot column, as one `log_muladd` on the trailing block:
    the factor's log is f + (log(-1) - piv mod q-1), and a zero f stays at
    least log_zero, which leaves its row unchanged."""
    L = _logs(ctx, np.asarray(G, dtype=np.int64))
    zero, q1 = ctx.log_zero, ctx.q - 1
    rows, cols = L.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(L[rank:, col] != zero)
        if nz.size == 0:
            continue
        if nz[0]:
            L[[rank, rank + nz[0]]] = L[[rank + nz[0], rank]]
        f = L[rank + 1:, col] + (q1 // 2 - int(L[rank, col])) % q1
        L[rank + 1:, col + 1:] = ctx.log_muladd(L[rank + 1:, col + 1:], f, L[rank, col + 1:])
        rank += 1
    return rank


def _digit_planes(M: np.ndarray, p: int, d: int) -> np.ndarray:
    """The d base-p digit planes of an array of encodings in [0, q), as
    float64.  The array is cast once, and each digit is peeled off as
    x - p floor(x / p): the floor is exact for integers below 2^52, by the
    argument of `field._reduce`, and q <= 2^20 here."""
    planes = np.empty((d,) + M.shape)
    x = M.astype(np.float64)
    for i in range(d - 1):
        high = np.floor(x / p)
        np.subtract(x, high * p, out=planes[i])
        x = high
    planes[d - 1] = x
    return planes


def field_matmul_t(ctx: FieldCtx, A, B) -> np.ndarray:
    """A B^T over F_q, computed exactly, as an int64 array of encodings.

    A and B split into d base-p digit planes A_i and B_j, so A B^T is the
    polynomial sum_s C_s x^s with C_s = sum_{i+j=s} A_i B_j^T, reduced mod
    the monic field modulus.  Each A_i B_j^T is one float64 BLAS product,
    added into C_{i+j} in int64.  Over m columns its entries are sums of
    nonnegative integers of at most m (p-1)^2, so the columns go in chunks
    of m <= (2^53 - 1) / (p-1)^2: every float64 partial sum is then an exact
    integer.  C is reduced mod p after each chunk, so it stays below
    p + d * 2^53 < 2^63.  The chunks are also narrow enough that the planes
    of B hold about _BLOCK_ENTRIES entries."""
    p, d = ctx.p, ctx.d
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    n = A.shape[1]
    chunk = min((_EXACT_FLOAT - 1) // (p - 1) ** 2,
                max(1, _BLOCK_ENTRIES // (d * max(len(A), len(B)))))
    C = np.zeros((2 * d - 1, len(A), len(B)), dtype=np.int64)
    for lo in range(0, n, chunk):
        planes_a, planes_b = (_digit_planes(M[:, lo:lo + chunk], p, d) for M in (A, B))
        for i in range(d):
            for j in range(d):
                C[i + j] += (planes_a[i] @ planes_b[j].T).astype(np.int64)
        C %= p
    # x^d = -(f_0 + ... + f_{d-1} x^{d-1}) for the monic modulus f
    f = np.array(ctx.modulus[:d], dtype=np.int64)[:, None, None]
    for s in range(2 * d - 2, d - 1, -1):
        C[s - d:s] -= f * C[s]
        C[s - d:s] %= p
    return np.tensordot(p ** np.arange(d, dtype=np.int64), C[:d], axes=1)


def _gram_witness(ctx: FieldCtx, G, P: np.ndarray | None = None) -> tuple[int, int] | None:
    """The first (i, l), in row-major order, where G G^T + H is nonzero, H
    the Hankel matrix H[i][l] = P[i + l] of the 2k - 1 encodings P (zero
    when P is None); None when G G^T = -H.

    Rows are computed in blocks, so that the (2d - 1)-plane accumulator of
    `field_matmul_t` holds about _BLOCK_ENTRIES entries, each from its
    diagonal rightwards.  G G^T + H is symmetric: when the blocks above
    are zero right of their diagonals, their rows are zero, so is every
    entry left of the next block's diagonal, and that block's first nonzero
    entry is the first in row-major order.  The first differing block ends
    the check."""
    G = np.asarray(G, dtype=np.int64)
    k = len(G)
    target = np.zeros(2 * k - 1, dtype=np.int64)
    if P is not None:
        exp, log = ctx.np_tables
        q1 = ctx.q - 1
        target = np.where(P != 0, exp[(log[P] + q1 // 2) % q1], 0)  # -P
    rows = max(1, _BLOCK_ENTRIES // ((2 * ctx.d - 1) * k))
    for top in range(0, k, rows):
        block = field_matmul_t(ctx, G[top:top + rows], G[top:])
        i, l = np.ogrid[:len(block), :k - top]
        differs = block != target[2 * top + i + l]
        if differs.any():
            r, c = divmod(int(differs.argmax()), k - top)
            return top + r, top + c
    return None


def gram_is_zero(ctx: FieldCtx, G) -> bool:
    """True iff G * G^T is the zero matrix, computed exactly by
    `field_matmul_t`, one row block at a time (`_gram_witness`)."""
    return _gram_witness(ctx, G) is None


def _grs_columns(art: CodeArtifact) -> tuple[np.ndarray, np.ndarray]:
    """(structured, ratios): a mask of the columns of G that have the GRS
    form, and the ratios a_j = G[1][j] / G[0][j] of the finite columns, as
    encodings (0 for a zero point; they name a node only where the column
    is structured).  A finite column j is structured when v_j = G[0][j] is
    nonzero and G[i+1][j] = a_j G[i][j] down its rows, so that it is
    v_j (1, a_j, ..., a_j^(k-1)); the last column of an artifact marked
    extended is structured when it is c e_{k-1} with c nonzero, the node
    infinity.  No column is structured when k < 2, which has no row 1 to
    read the a_j from.

    The recurrence is tested on int32 logs in row blocks of about
    _BLOCK_ENTRIES entries: log G[i+1][j] must be log G[i][j] + log a_j
    mod q-1, which by induction from a nonzero G[0][j] keeps every entry of
    the column nonzero, and a column with a_j = 0 must be zero below
    row 0.  A mismatch anywhere in a column marks that column alone."""
    ctx, k = art.ctx, art.k
    G = np.asarray(art.G, dtype=np.int64)
    finite = G.shape[1] - art.a.extended
    structured = np.zeros(G.shape[1], dtype=bool)
    if k < 2:
        return structured, np.zeros(finite, dtype=np.int64)
    if art.a.extended:
        structured[-1] = G[-1, -1] != 0 and not G[:-1, -1].any()
    zero, q1 = ctx.log_zero, ctx.q - 1
    L = _logs(ctx, G[:2, :finite])
    broken = L[0] == zero
    nonzero = L[1] != zero
    log_a = (L[1] - L[0]) % q1
    ratios = np.where(nonzero, ctx.np_tables[0][log_a], 0)
    rows = max(1, _BLOCK_ENTRIES // finite)
    for lo in range(0, k - 1, rows):
        L = _logs(ctx, G[lo:min(lo + rows, k - 1) + 1, :finite])
        broken |= (np.where(nonzero, (L[:-1] + log_a) % q1, zero) != L[1:]).any(axis=0)
    structured[:finite] = ~broken
    return structured, ratios


def _stored_disagreement(art: CodeArtifact, ratios: np.ndarray) -> tuple[str, int] | None:
    """For G with the GRS structure: the first finite column j whose stored
    v_j is not G[0][j] or whose stored a_j is not the ratio
    G[1][j] / G[0][j], named "v" when v_j disagrees there and "a" otherwise;
    None when the stored a and v describe G."""
    v = np.asarray(art.G, dtype=np.int64)[0, :ratios.size]
    bad_v = np.array(art.v.weights, dtype=np.int64) != v
    bad = bad_v | (np.array(art.a.points, dtype=np.int64) != ratios)
    if not bad.any():
        return None
    j = int(bad.argmax())
    return ("v" if bad_v[j] else "a"), j


# --- report ---

@dataclass
class VerificationReport:
    self_dual: bool
    rank_ok: bool
    mds_checked: str  # exhaustive_minors | skipped_too_large
    min_distance: int | None
    mds_ok: bool | None = None
    # the lexicographically first singular column subset, when the
    # exhaustive minors found one
    singular_minor: tuple[int, ...] | None = None
    # ("a" or "v", column): the first finite column where the stored a or v
    # disagrees with a G of GRS structure
    stored_mismatch: tuple[str, int] | None = None
    # (i, j): the first nonzero entry of G G^T in row-major order, when the
    # rank is k and the code is not self-dual
    nonzero_gram: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        # singular_minor, stored_mismatch and nonzero_gram are intentionally
        # excluded: artifact JSON must be bit-exact
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


def _require_self_dual_shape(art: CodeArtifact) -> None:
    if art.n != 2 * art.k:
        raise DimensionMismatch(f"self-dual codes need n = 2k, got n={art.n}, k={art.k}")
    if np.shape(art.G) != (art.k, art.n):
        raise DimensionMismatch("generator matrix shape does not match (k, n)")


def _rank_is_k(art: CodeArtifact) -> bool:
    """rank G = k for the k x n matrix G.  A leading k x k block of rank k
    proves it after k columns; otherwise the full matrix decides."""
    G, k = np.asarray(art.G), art.k
    return field_rank(art.ctx, G[:, :k]) == k or field_rank(art.ctx, G) == k


def _self_dual_checks(art: CodeArtifact) -> tuple[bool, bool, np.ndarray | None,
                                                  tuple[int, int] | None]:
    """(rank G = k, the code is self-dual, the ratios a_j when all of G has
    the GRS structure, the first nonzero entry of G G^T in row-major order
    when the rank is k and the code is not self-dual), for G of shape
    (k, 2k).  The ratios are given only when every finite column is
    structured (`_grs_columns`) with pairwise distinct nodes and, when
    extended, the last column is e_{k-1}: then G generates GRS_k(a, v) with
    v = row 0, or its extension.

    Rank: any k structured columns with pairwise distinct nodes form a
    scaled Vandermonde matrix, with the column at infinity as its
    projective row, so k distinct nodes certify rank k.  Only with fewer
    does elimination decide it.

    Self-duality, at rank k: split the columns into the structured S and
    the rest B, so G G^T = G_S G_S^T + G_B G_B^T.  G_S G_S^T is Hankel,
    with antidiagonal sums P_s = sum_{j in S} v_j^2 a_j^s, plus c^2 at
    s = 2k-2 from the column at infinity, and its rows 0 and k-1 hold every
    P_s; distinct nodes are not needed for this.  With B empty the code is
    self-dual exactly when every P_s is zero, and the first nonzero Gram
    entry is (0, s) for the least nonzero P_s with s <= k-1, else
    (s-k+1, k-1).  Otherwise G_B G_B^T is compared with -P_{i+l}, one row
    block at a time, in O(k^2 |B|) (`_gram_witness`); with S empty, that is
    the full Gram matrix."""
    ctx, k = art.ctx, art.k
    G = np.asarray(art.G, dtype=np.int64)
    structured, ratios = _grs_columns(art)
    finite = ratios.size
    seen = np.zeros(ctx.q, dtype=bool)
    seen[ratios[structured[:finite]]] = True
    nodes = np.count_nonzero(seen)
    whole = structured.all()
    if nodes + structured[finite:].sum() < k and not _rank_is_k(art):
        return False, False, None, None
    S = G if whole else G[:, structured]
    H = field_matmul_t(ctx, S[[0, k - 1]], S)
    P = np.concatenate((H[0], H[1, 1:]))
    if not whole:
        witness = _gram_witness(ctx, G[:, ~structured], P)
    elif not P.any():
        witness = None
    else:
        s = int(np.flatnonzero(P)[0])
        witness = (0, s) if s < k else (s - k + 1, k - 1)
    known = whole and nodes == finite and (not art.a.extended or G[-1, -1] == 1)
    return True, witness is None, ratios if known else None, witness


def check_self_dual(art: CodeArtifact) -> bool:
    _require_self_dual_shape(art)
    return _self_dual_checks(art)[1]


def _singular_minors(ctx: FieldCtx, M: np.ndarray) -> np.ndarray:
    """Singularity of each k x k log matrix of the batch M (B, k, k), by
    eliminating all of them in lockstep.  The rule is that of `field_rank`:
    the pivot is the first nonzero entry of the column, and -(f/piv) * pivot
    row is added into each other row by one batched `log_muladd`.  Only the
    trailing block is kept after each step, so M shrinks to (B, k-1, k-1)
    and so on.  A minor with no pivot in some column is singular; its later
    steps run on meaningless but in-range logs and cannot clear that
    verdict."""
    zero, q1 = ctx.log_zero, ctx.q - 1
    batch = np.arange(M.shape[0])
    singular = np.zeros(M.shape[0], dtype=bool)
    while M.shape[1]:
        nz = M[:, :, 0] != zero
        singular |= ~nz.any(axis=1)
        piv = nz.argmax(axis=1)
        top = M[batch, piv]
        # row 0 moves into the pivot row's place, and the pivot row into top
        M[batch, piv] = M[:, 0]
        f = M[:, 1:, 0] + (q1 // 2 - top[:, :1]) % q1
        M = ctx.log_muladd(M[:, 1:, 1:], f, top[:, 1:])
    return singular


def first_singular_minor(art: CodeArtifact) -> tuple[int, ...] | None:
    """The lexicographically first k-subset S of columns of G whose minor
    det(G_S) is zero, or None when every k x k minor is nonzero.

    Gauss-Jordan on the leading k x k block A (pivot = first nonzero entry,
    on logs, one `log_muladd` per pivot) turns G into [D | P] with D
    diagonal and nonsingular, by row operations that scale every minor by
    the same nonzero factor.  A column with no pivot means det A = 0, and
    S = (0, ..., k-1) is the first subset of all.  Otherwise S meets the
    columns of D in [k] \\ R and the columns of P in k + C, with
    |R| = |C| = j, and expanding det [D | P]_S along its columns of D
    leaves +-(product of D over [k] \\ R) * det P[R, C].  This is a
    bijection between the k-subsets and the pairs (R, C) of equal size,
    sum_j C(k, j) C(n-k, j) = C(n, k), so S is singular exactly when
    P[R, C] is.  For each size j = 1 .. min(k, n-k) the j x j minors of P
    are stacked, in chunks of at most _BLOCK_ENTRIES log entries, with the
    pairs in the lexicographic order of S; the first singular one is the
    first S of that size, and the witness is the least over the sizes."""
    n, k = art.n, art.k
    if n > MINORS_BUDGET_N:
        raise TooLarge(f"n = {n} > {MINORS_BUDGET_N} for exhaustive minors")
    ctx = art.ctx
    zero, q1 = ctx.log_zero, ctx.q - 1
    L = _logs(ctx, np.asarray(art.G, dtype=np.int64))
    for i in range(k):
        nz = np.flatnonzero(L[i:, i] != zero)
        if nz.size == 0:
            return tuple(range(k))
        if nz[0]:
            L[[i, i + nz[0]]] = L[[i + nz[0], i]]
        # -(f/piv) * pivot row into every other row; the pivot row's own
        # factor is zero
        f = L[:, i] + (q1 // 2 - int(L[i, i])) % q1
        f[i] = zero
        L[:, i + 1:] = ctx.log_muladd(L[:, i + 1:], f, L[i, i + 1:])
    P = L[:, k:]
    best = None
    for j in range(1, min(k, n - k) + 1):
        # A precedes B in lexicographic order exactly when the least element
        # of their symmetric difference lies in A, so complementing reverses
        # the order: R in reverse order puts [k] \ R in lexicographic order
        rows = np.array(list(combinations(range(k), j))[::-1], dtype=np.intp)
        cols = np.array(list(combinations(range(n - k), j)), dtype=np.intp)
        pairs = len(rows) * len(cols)
        block = max(1, _BLOCK_ENTRIES // (j * j))
        for lo in range(0, pairs, block):
            r, c = np.divmod(np.arange(lo, min(lo + block, pairs)), len(cols))
            singular = _singular_minors(ctx, P[rows[r][:, :, None], cols[c][:, None, :]])
            if singular.any():
                at = int(singular.argmax())
                R = set(rows[r[at]].tolist())
                S = (*(i for i in range(k) if i not in R), *(k + int(x) for x in cols[c[at]]))
                best = S if best is None else min(best, S)
                break
    return best


def check_mds_minors(art: CodeArtifact) -> bool:
    """Every k columns of G independent <=> the code is MDS."""
    return first_singular_minor(art) is None


def min_distance(art: CodeArtifact) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration.
    A word and its nonzero multiples have the same weight, so only the
    coefficient vectors whose last nonzero entry is 1 are visited: for each
    lead row, G[lead] + sum_{r < lead} c_r G[r] over all c in F_q^lead,
    (q^k - 1)/(q - 1) words in all."""
    ctx, k, n = art.ctx, art.k, art.n
    q = ctx.q
    total = q**k
    if total > DISTANCE_BUDGET:
        raise TooLarge(f"q^k = {total} > {DISTANCE_BUDGET} for codeword enumeration")
    LG = _logs(ctx, np.asarray(art.G, dtype=np.int64))
    best = n + 1
    chunk = 1 << 16
    for lead in range(k):
        count = q**lead
        for start in range(0, count, chunk):
            rem = np.arange(start, min(start + chunk, count), dtype=np.int64)
            words = np.repeat(LG[lead][None], rem.size, axis=0)
            for row in range(lead):
                words = ctx.log_muladd(words, _logs(ctx, rem % q), LG[row])
                rem //= q
            weights = (words != ctx.log_zero).sum(axis=1)
            best = min(best, int(weights.min()))
    return best


def verify_artifact(art: CodeArtifact, mds: bool = True) -> VerificationReport:
    _require_self_dual_shape(art)
    rank_ok, sd, ratios, gram = _self_dual_checks(art)
    stored = None if ratios is None else _stored_disagreement(art, ratios)
    mds_checked = "skipped_too_large"
    mds_ok: bool | None = None
    dist: int | None = None
    singular: tuple[int, ...] | None = None
    if mds:
        if art.n <= MINORS_BUDGET_N:
            mds_checked = "exhaustive_minors"
            mds_ok = check_mds_minors(art)
            if not mds_ok:
                singular = first_singular_minor(art)
        if art.ctx.q**art.k <= DISTANCE_BUDGET:
            dist = min_distance(art)
    return VerificationReport(sd, rank_ok, mds_checked, dist, mds_ok, singular, stored, gram)
