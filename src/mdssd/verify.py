"""Independent certification of code artifacts: self-duality (Gram matrix and
rank), MDS-ness by exhaustive minors, and minimum distance by full codeword
enumeration.  Nothing here reuses construction-side shortcuts; everything is
recomputed from the generator matrix, which the kernels take as any
array-like of encodings (an artifact holds it as one int64 array), or, for
census spot checks, from a code's (a, v) alone (`power_sum_verdict`).

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
(plus c^2 at s = 2k-2).  One engine, `_power_sums`, computes them from
nodes and weights alone, as P_{i+l} = R_i . R_l of two slabs of about
sqrt(2k) GRS rows R_i = (v_j a_j^i)_j, baby and giant, made anew by
`grs.grs_rows`: one product, no block size.  Here each structured column
hands it its node and v_j = G[0][j]; the structure test reads G on its
own logs, never through `grs_rows`, which built G.  For census spot
checks, `power_sum_verdict` hands it the code's (a, v), after checking
rank from pairwise distinct points and nonzero weights, and never builds
G.  With B empty the code is self-dual exactly when every P_s is zero;
otherwise G_B G_B^T is compared with -P_{i+l}, row block by row block, in
O(kn + k^2 |B|).  With S empty (k = 1, or no column of GRS form) that is
the full Gram matrix.  When the rank is k and the code is not self-dual,
the first nonzero entry of G G^T in row-major order is named.  When every
finite column is structured with distinct nodes and the extended column is
e_{k-1}, G generates GRS_k(a, v) with v = row 0, or its extension, and
`verify_artifact` checks the stored v against row 0 and the stored a
against the ratios, in O(n); otherwise the stored a and v are not read.

The vectorized kernels are exact.  Products A B^T over F_q
(`field_matmul_t`, behind both the power sums and the row-block Gram
check) are computed over the integers from the base-p digit planes by
float64 BLAS products, with the columns taken in chunks small enough that
every float64 sum stays below 2^53, then reduced mod p and mod the field
modulus.  Every block here is sized by `grs._BLOCK_ENTRIES`, read at call
time.  Rank, minors and codeword enumeration work on int32 logarithms to
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
k-subset.  The minors P[R, C] form one tree of Schur complements, node
(R, C) one pivot below (R - max R, C - max C), so one batched rank-1
update per size j decides them all; the witness is the least singular S.
Enumeration visits only the (q^k - 1)/(q - 1) coefficient vectors whose
last nonzero entry is 1; this is exhaustive because every nonzero codeword
is a nonzero multiple of exactly one of them, with the same weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .field import FieldCtx
from . import grs
from .grs import CodeArtifact, EvalVector

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
    the monic field modulus.  The products A_i B_j^T of one i and every j
    are one float64 BLAS product, against the planes of B stacked, each
    added into C_{i+j} in int64.  Over m columns its entries are sums of
    nonnegative integers of at most m (p-1)^2, so the columns go in chunks
    of m <= (2^53 - 1) / (p-1)^2: every float64 partial sum is then an exact
    integer.  C is reduced mod p after each chunk, so it stays below
    p + d * 2^53 < 2^63.  The chunks are also narrow enough that the planes
    of B hold about grs._BLOCK_ENTRIES entries."""
    p, d = ctx.p, ctx.d
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    n = A.shape[1]
    chunk = min((_EXACT_FLOAT - 1) // (p - 1) ** 2,
                max(1, grs._BLOCK_ENTRIES // (d * max(len(A), len(B)))))
    C = np.zeros((2 * d - 1, len(A), len(B)), dtype=np.int64)
    for lo in range(0, n, chunk):
        planes_a, planes_b = (_digit_planes(M[:, lo:lo + chunk], p, d) for M in (A, B))
        stacked_b = planes_b.reshape(d * len(B), -1).T
        for i in range(d):
            # A_i B_j^T for every j at once, added into C_{i+j}
            AB = (planes_a[i] @ stacked_b).astype(np.int64).reshape(len(A), d, len(B))
            C[i:i + d] += AB.transpose(1, 0, 2)
        C %= p
    # x^d = -(f_0 + ... + f_{d-1} x^{d-1}) for the monic modulus f
    f = np.array(ctx.modulus[:d], dtype=np.int64)[:, None, None]
    for s in range(2 * d - 2, d - 1, -1):
        C[s - d:s] -= f * C[s]
        C[s - d:s] %= p
    out = C[d - 1]
    for s in range(d - 2, -1, -1):
        out = out * p + C[s]
    return out


def _gram_witness(ctx: FieldCtx, G, P: np.ndarray) -> tuple[int, int] | None:
    """The first (i, l), in row-major order, where G G^T + H is nonzero, H
    the Hankel matrix H[i][l] = P[i + l] of the 2k - 1 encodings P; None
    when G G^T = -H.

    Rows are computed in blocks, each from its diagonal rightwards: one
    row first, then twice as many each time, up to the rows whose
    (2d - 1)-plane accumulator in `field_matmul_t` holds about
    grs._BLOCK_ENTRIES entries, so that a witness in the first rows costs
    little.  G G^T + H is symmetric: when the blocks above are zero right
    of their diagonals, their rows are zero, so is every entry left of the
    next block's diagonal, and that block's first nonzero entry is the
    first in row-major order, whatever the blocks' sizes.  The first
    differing block ends the check."""
    G = np.asarray(G, dtype=np.int64)
    k = len(G)
    exp, log = ctx.np_tables
    q1 = ctx.q - 1
    target = np.where(P != 0, exp[(log[P] + q1 // 2) % q1], 0)  # -P
    cap = max(1, grs._BLOCK_ENTRIES // ((2 * ctx.d - 1) * k))
    top, rows = 0, 1
    while top < k:
        block = field_matmul_t(ctx, G[top:top + rows], G[top:])
        i, l = np.ogrid[:len(block), :k - top]
        differs = block != target[2 * top + i + l]
        if differs.any():
            r, c = divmod(int(differs.argmax()), k - top)
            return top + r, top + c
        top += rows
        rows = min(2 * rows, cap)
    return None


def _power_sums(ctx: FieldCtx, k: int, points: np.ndarray, weights: np.ndarray,
                c: int) -> np.ndarray:
    """P_0 .. P_{2k-2}, as encodings, the antidiagonal sums of G G^T for
    the generator matrix G (not made) of GRS_k(a, v) on finite points a
    with weights v, int64 arrays of encodings, and a column c e_{k-1} at
    infinity when c != 0: P_s = sum_j v_j^2 a_j^s, plus c^2 at s = 2k-2.

    With GRS rows R_i = (v_j a_j^i)_j (`grs.grs_rows`), P_{i+l} = R_i . R_l
    depends on i + l alone, so the sums need only the t = isqrt(2k-2) + 1
    baby rows i < t and the giant rows l = 0, t, 2t, ... below 2k - 1, at
    most t of them as t^2 >= 2k - 1: one `field_matmul_t` of two t-row
    slabs, 2 t n entries instead of G's k n, and no block size."""
    count = 2 * k - 1
    t = isqrt(count - 1) + 1
    rows = grs.grs_rows(ctx, points, weights)
    # entry (i, l) of the product is P_{lt + i}, so its transpose, read row
    # by row, is the run of sums from P_0 on
    P = field_matmul_t(ctx, rows(np.arange(t)), rows(np.arange(0, count, t))).T.ravel()[:count]
    if c:
        P[-1] = ctx.add_v(int(P[-1]), ctx.mul_v(c, c))
    return P


def power_sum_verdict(a: EvalVector, weights) -> tuple[bool, int | None]:
    """(rank k, s) for GRS_k(a, v) with k = n/2, or its extension when a is
    marked extended, from a and the weights v alone: s is the least s with
    P_s = sum_j v_j^2 a_j^s nonzero (for the extension, P_{n-2} != -1, the
    column at infinity being e_{k-1}), None when the code is self-dual.
    The rank is checked first: with pairwise distinct points, infinity at
    most once, and nonzero weights, every k columns form a scaled
    (projective) Vandermonde matrix, so the rank is k (and the code MDS);
    otherwise nothing is certified, (False, None).  Locators, lambda and
    the families' closed forms are not read, and G is never built
    (`_power_sums`)."""
    k, finite = a.n // 2, len(a.points)
    if a.n != 2 * k or len(weights) != finite:
        raise DimensionMismatch(f"self-dual codes need n = 2k and len(v) = {finite}, "
                                f"got n={a.n}, len(v)={len(weights)}")
    if k < 1 or not a.is_distinct() or 0 in weights:
        return False, None
    P = _power_sums(a.ctx, k, np.array(a.points, dtype=np.int64),
                    np.array(weights, dtype=np.int64), int(a.extended))
    nonzero = np.flatnonzero(P)
    return True, int(nonzero[0]) if nonzero.size else None


def gram_is_zero(ctx: FieldCtx, G) -> bool:
    """True iff G * G^T is the zero matrix, computed exactly by
    `field_matmul_t`, one row block at a time (`_gram_witness`).  With no
    rows, G G^T is 0 x 0, and zero."""
    return not len(G) or _gram_witness(ctx, G, np.zeros(2 * len(G) - 1, dtype=np.int64)) is None


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
    grs._BLOCK_ENTRIES entries: log G[i+1][j] must be log G[i][j] + log a_j
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
    rows = max(1, grs._BLOCK_ENTRIES // finite)
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
    s = 2k-2 from the column at infinity c e_{k-1}.  Each column proved
    structured hands its node (the ratio) and v_j = G[0][j] to
    `_power_sums`, so G_S is not read again; distinct nodes are not needed
    for this.  With B empty the code is self-dual exactly when every P_s is
    zero, and the first nonzero Gram entry is (0, s) for the least nonzero
    P_s with s <= k-1, else (s-k+1, k-1).  Otherwise G_B G_B^T is compared
    with -P_{i+l}, one row block at a time, in O(k^2 |B|) (`_gram_witness`);
    with S empty, that is the full Gram matrix."""
    ctx, k = art.ctx, art.k
    G = np.asarray(art.G, dtype=np.int64)
    structured, ratios = _grs_columns(art)
    finite = ratios.size
    S, infinity = structured[:finite], art.a.extended and bool(structured[-1])
    seen = np.zeros(ctx.q, dtype=bool)
    seen[ratios[S]] = True
    nodes = np.count_nonzero(seen)
    whole = structured.all()
    if nodes + infinity < k and not _rank_is_k(art):
        return False, False, None, None
    P = _power_sums(ctx, k, ratios[S], G[0, :finite][S], int(G[-1, -1]) if infinity else 0)
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


def _subsets(size: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The j-subsets T of range(size) in colexicographic order, as (parent,
    top, bits): the index of T - max T among the (j-1)-subsets, max T, and
    the bitmask of T.  In this order the subsets with one maximum form a
    run, and T - max T has the rank of T within its run."""
    sets = np.array(list(combinations(range(size - 1, -1, -1), j)), dtype=np.intp)[::-1, ::-1]
    top = sets[:, -1]
    return np.arange(len(sets)) - np.searchsorted(top, top), top, (1 << sets).sum(axis=1)


def _minor_tree(k: int, m: int):
    """The nodes (R, C) of the minors tree of a k x m matrix, one level
    j = 1 .. min(k, m) at a time, as (rp, r, cp, c, key): the rows R are the
    j-subsets of range(k), and rp and r give, per R, the index of its parent
    R - max R and max R (`_subsets`); cp and c do the same for the columns
    C.  The sets with children, whose maximum is below k-1 (or m-1), come
    first.  key is the grid of (the complement of R in k bits) * 2^m + C, as
    bitmasks.  Nothing is kept between calls."""
    for j in range(1, min(k, m) + 1):
        rows = _subsets(k, j)
        (rp, r, rbits), (cp, c, cbits) = rows, rows if m == k else _subsets(m, j)
        yield rp, r, cp, c, ((((1 << k) - 1) ^ rbits) << m)[:, None] | cbits


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
    P[R, C] is.

    The pairs form a tree of Schur complements (`_minor_tree`) over P', P
    with its rows and columns reversed, so that a node's key is the bitmask
    of its S with bit n-1-s for s in S: the larger key, the smaller S.
    Node (R, C) comes from (R - max R, C - max C) by pivoting on entry
    (max R, max C) of the parent's Schur complement, so det P'[R, C] =
    det P'[parent] * pivot: below a nonsingular parent, a node is singular
    exactly when its pivot is zero.  A node keeps its Schur complement on
    the rows and columns from j on, where its descendants pivot, so a level
    is one gather of the pivots and one batched rank-1 `log_muladd` on a
    (rows, columns, k-j, m-j) block, over the nodes with children.  A child
    trades a column of D for one of P, so its S follows its parent's: the
    least singular S has no singular ancestor and is flagged, and the logs
    below a zero pivot, meaningless but in range, flag only later S.  The
    witness is the flagged node with the largest key."""
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
    m = n - k
    block = np.flip(L[:, k:])[None, None]  # P', the root's Schur complement
    best = 0
    for j, (rp, r, cp, c, key) in enumerate(_minor_tree(k, m), 1):
        # the parents' blocks start at row and column j-1
        rp, r, c = rp[:, None], r[:, None] - (j - 1), c - (j - 1)
        pivot = block[rp, cp, r, c]
        singular = pivot == zero
        if singular.any():
            best = max(best, int(key[singular].max()))
        if j < min(k, m):
            rows, cols = comb(k - 1, j), comb(m - 1, j)
            rp, r, cp, c = rp[:rows], r[:rows], cp[:cols], c[:cols]
            f = block[rp, cp, 1:, c] + ((q1 // 2 - pivot[:rows, :cols]) % q1)[..., None]
            block = ctx.log_muladd(block[rp, cp, 1:, 1:], f, block[rp, cp, r, 1:])
    return tuple(i for i in range(n) if best >> (n - 1 - i) & 1) or None


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
    chunk = max(1, grs._BLOCK_ENTRIES // n)
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
