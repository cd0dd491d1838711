"""GRS and extended GRS generator matrices, locator products, and the
self-dual assembly engines.

A GRS codeword is (v_1 f(a_1), ..., v_n f(a_n)) for deg f < k; the extended
variant appends the coefficient of x^{k-1} as an extra coordinate.  The
assembly engines turn an evaluation vector into a self-dual [n, n/2] code by
solving v_i^2 = 1/(lambda L(a_i)) (plain) or v_i^2 = -1/L(a_i) (extended),
where L(a_i) is the product of differences with the other points.

Assembly runs in numpy on logarithms to the base g.  For nonzero points,
log(a_i - a_j) = log a_i + zech[log a_j - log a_i + (q-1)/2], so every
locator is one row sum of Zech lookups mod q-1.  A target g^l is a square
exactly when l is even, and the roots of 1/g^l are g^h and g^(h + (q-1)/2)
with h = (-l mod (q-1))/2; the weight is the smaller encoding of the two.
This log form is the one definition of the canonical root.  Row i of G has
logs log v_j + i log a_j, and G is one read-only int64 array of shape
(k, n), converted to lists only for JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    MalformedArtifact,
    OddLength,
    SquareConditionViolated,
)
from .field import FieldCtx, make_field


@dataclass(frozen=True)
class EvalVector:
    """Distinct evaluation points; `extended` adds the infinity coordinate."""

    ctx: FieldCtx
    points: tuple[int, ...]
    extended: bool = False

    @property
    def n(self) -> int:
        return len(self.points) + (1 if self.extended else 0)

    def is_distinct(self) -> bool:
        return len(set(self.points)) == len(self.points)

    def require_distinct(self) -> None:
        if not self.is_distinct():
            raise DuplicatePoint()


@dataclass(frozen=True)
class ScalingVector:
    """Nonzero column weights; extended codes carry an implicit final 1."""

    ctx: FieldCtx
    weights: tuple[int, ...]

    def __post_init__(self):
        if any(w == 0 for w in self.weights):
            raise ValueError("scaling weights must be nonzero")


@dataclass(frozen=True)
class CodeArtifact:
    ctx: FieldCtx
    a: EvalVector
    v: ScalingVector
    k: int
    G: np.ndarray = dc_field(compare=False)  # (k, n) encodings
    label: str
    params: dict = dc_field(default_factory=dict, compare=False)

    def __eq__(self, other):
        # Written out because == on arrays is elementwise; the generated
        # hash leaves G out, which stays consistent with this.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ctx, self.a, self.v, self.k, self.label)
                == (other.ctx, other.a, other.v, other.k, other.label)
                and np.array_equal(self.G, other.G))

    @property
    def n(self) -> int:
        return self.a.n


# Entries per row block (4 MB as 8-byte values) of the locator kernel and
# of G here, and of the Gram, digit-plane, structure-test and minors blocks
# in `verify`, so that their memory does not grow with n^2, d * k * n or
# C(n, k).
_BLOCK_ENTRIES = 1 << 19


def locator_logs(ctx: FieldCtx, logs: np.ndarray) -> np.ndarray:
    """Logs of L(a_i) = prod_{j != i} (a_i - a_j) for distinct nonzero points
    a_i = g^logs[i], from an int64 array of logs: (n-1) log a_i plus the sum
    of zech[log a_j - log a_i + (q-1)/2] over j != i, mod q-1.  The term
    j = i is zech[(q-1)/2] = -1, so each full row sum is corrected by +1."""
    q1 = ctx.q - 1
    n = logs.size
    out = (n - 1) * logs + 1
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, n, rows):
        idx = logs[None, :] - logs[lo:lo + rows, None]
        idx += q1 // 2
        idx %= q1
        out[lo:lo + rows] += ctx.np_zech[idx].sum(axis=1, dtype=np.int64)
    out %= q1
    return out


def _log_locators(a: EvalVector) -> np.ndarray:
    """Logs of every L(a_i).  A zero point adds a factor a_i to every other
    locator, and its own locator is prod_j (-a_j)."""
    ctx = a.ctx
    q1 = ctx.q - 1
    points = np.array(a.points, dtype=np.int64)
    nonzero = points != 0
    logs = ctx.np_tables[1][points[nonzero]]
    out = np.zeros(points.size, dtype=np.int64)
    out[nonzero] = locator_logs(ctx, logs)
    if not nonzero.all():
        out[nonzero] += logs
        out[~nonzero] = logs.sum() + logs.size * (q1 // 2)
        out %= q1
    return out


def all_locators(a: EvalVector) -> list[int]:
    """Every L(a_i), for distinct points."""
    return a.ctx.np_tables[0][_log_locators(a)].tolist()


def _generator_rows(a: EvalVector, v: ScalingVector, k: int, n: int) -> np.ndarray:
    """(k, n) array whose row i is v_j a_j^i on the finite points, from logs:
    row i has logs log v_j + i log a_j, in row blocks of about _BLOCK_ENTRIES
    entries.  Columns with a_j = 0 hold v_j in row 0 and zero below; columns
    past the finite points are zero."""
    ctx = a.ctx
    exp, log = ctx.np_tables
    points = np.array(a.points, dtype=np.int64)
    log_a, log_v = log[points], log[np.array(v.weights, dtype=np.int64)]
    G = np.zeros((k, n), dtype=np.int64)
    rows = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, k, rows):
        L = np.arange(lo, min(lo + rows, k), dtype=np.int64)[:, None] * log_a
        L += log_v
        L %= ctx.q - 1
        G[lo:lo + rows, :points.size] = exp[L]
    G[1:, np.flatnonzero(points == 0)] = 0
    return G


def grs_generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> np.ndarray:
    """Row i holds v_j * a_j^i, 0 <= i < k, as a read-only (k, n) array."""
    if a.extended:
        raise DimensionMismatch("use xgrs_generator_matrix for extended codes")
    n = len(a.points)
    if len(v.weights) != n or not 1 <= k <= n:
        raise DimensionMismatch(f"need len(v) = n and 1 <= k <= n, got n={n}, k={k}")
    G = _generator_rows(a, v, k, n)
    G.flags.writeable = False
    return G


def xgrs_generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> np.ndarray:
    """As grs_generator_matrix on the finite points, with a final column that
    is zero except for a 1 in row k-1 (the x^{k-1} coefficient)."""
    if not a.extended:
        raise DimensionMismatch("evaluation vector is not marked extended")
    n = a.n
    if len(v.weights) != n - 1 or not 1 <= k <= n:
        raise DimensionMismatch(f"need len(v) = n-1 and 1 <= k <= n, got n={n}, k={k}")
    G = _generator_rows(a, v, k, n)
    G[k - 1, -1] = 1
    G.flags.writeable = False
    return G


def _square_root_weights(ctx: FieldCtx, target_logs: np.ndarray) -> tuple[int, ...]:
    """v_i = sqrt(1 / g^l_i) for target logs l_i, the smaller encoding of
    g^h and g^(h + (q-1)/2) with h = (-l_i mod (q-1)) / 2.  Raises
    SquareConditionViolated at the first odd l_i, a non-square target."""
    odd = np.flatnonzero(target_logs % 2)
    if odd.size:
        raise SquareConditionViolated(int(odd[0]))
    q1 = ctx.q - 1
    exp = ctx.np_tables[0]
    h = (-target_logs % q1) // 2
    return tuple(np.minimum(exp[h], exp[h + q1 // 2]).tolist())


def assemble_self_dual_grs(
    a: EvalVector, lam: int, label: str = "grs", params: dict | None = None
) -> tuple[CodeArtifact, list[int]]:
    """Lemma-style assembly: requires lambda * L(a_i) to be a nonzero square
    at every point, then sets v_i = sqrt(1 / (lambda L(a_i))).

    Returns the artifact together with the computed locators (callers cache
    them in the construction trace)."""
    if a.extended:
        raise DimensionMismatch("plain assembly got an extended evaluation vector")
    return _assemble(a, lam, label, params)


def assemble_self_dual_xgrs(
    a: EvalVector, label: str = "xgrs", params: dict | None = None
) -> tuple[CodeArtifact, list[int]]:
    """Extended assembly: requires -L(a_i) to be a nonzero square at every
    finite point, then sets v_i = sqrt(-1 / L(a_i)); the infinity coordinate
    keeps weight 1."""
    if not a.extended:
        raise DimensionMismatch("extended assembly needs the extended flag set")
    return _assemble(a, None, label, params)


def _assemble(a: EvalVector, lam: int | None, label: str, params: dict | None
              ) -> tuple[CodeArtifact, list[int]]:
    """The body of both assemblies; lam is None for the extended code, whose
    targets are -L(a_i) = g^(log L(a_i) + (q-1)/2)."""
    ctx = a.ctx
    n = a.n
    if n % 2 != 0:
        raise OddLength(n)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    a.require_distinct()
    locs = all_locators(a)
    log = ctx.np_tables[1]
    shift = (ctx.q - 1) // 2 if a.extended else log[lam]
    v = ScalingVector(ctx, _square_root_weights(ctx, log[locs] + shift))
    k = n // 2
    G = (xgrs_generator_matrix if a.extended else grs_generator_matrix)(a, v, k)
    return CodeArtifact(ctx, a, v, k, G, label, params or {}), locs


# --- JSON artifact form (bit-exact across platforms) ---

def artifact_to_dict(art: CodeArtifact, trace_dict: dict | None = None,
                     verification: dict | None = None) -> dict:
    out = {
        "q": art.ctx.q,
        "p": art.ctx.p,
        "d": art.ctx.d,
        "modulus": list(art.ctx.modulus),
        "n": art.n,
        "k": art.k,
        "construction": {"label": art.label, "extended": art.a.extended, **art.params},
        "a": list(art.a.points),
        "v": list(art.v.weights),
        "G": _json_rows(art.ctx, art.G),
    }
    if trace_dict is not None:
        out["trace"] = trace_dict
    if verification is not None:
        out["verification"] = verification
    return out


def _json_rows(ctx: FieldCtx, G: np.ndarray) -> list[list[int]]:
    """G.tolist().  When G has at least q entries, they share the q int
    objects 0..q-1, so that the k*n entries cost a list pointer each and not
    a new int object each (32 bytes more per entry at the peak of a large
    artifact's serialization)."""
    if G.size < ctx.q:
        return G.tolist()
    return np.arange(ctx.q).astype(object)[G].tolist()


def to_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _int_field(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:
        raise MalformedArtifact(f"{key} must be a positive integer, got {value!r}")
    return value


def _encodings(values, q: int, length: int, what: str) -> tuple[int, ...]:
    """A list of exactly `length` ints (bools excluded) in [0, q)."""
    if not isinstance(values, list) or len(values) != length:
        raise MalformedArtifact(f"{what} must be a list of {length} entries")
    if not set(map(type, values)) <= {int}:
        raise MalformedArtifact(f"{what} has an entry that is not an integer")
    if values and (min(values) < 0 or max(values) >= q):
        raise MalformedArtifact(f"{what} has an entry outside [0, {q})")
    return tuple(values)


def _matrix(rows, q: int, k: int, n: int) -> np.ndarray:
    """G as a read-only (k, n) int64 array, from a list of k lists of n ints
    (bools excluded) in [0, q).  The entries are checked by one type pass
    over all of them and one range check on the array; an error names the
    first offending row."""
    if not isinstance(rows, list) or len(rows) != k:
        raise MalformedArtifact(f"G must be a list of k = {k} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MalformedArtifact(f"G row {i} must be a list of {n} entries")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        i = next(i for i, row in enumerate(rows) if not set(map(type, row)) <= {int})
        raise MalformedArtifact(f"G row {i} has an entry that is not an integer")
    try:
        G = np.array(rows, dtype=np.int64).reshape(k, n)
    except OverflowError:  # clamped, an entry beyond int64 stays out of range
        G = np.array([[min(max(x, -1), q) for x in row] for row in rows],
                     dtype=np.int64).reshape(k, n)
    if G.size and (G.min() < 0 or G.max() >= q):
        i = int(((G < 0) | (G >= q)).any(axis=1).argmax())
        raise MalformedArtifact(f"G row {i} has an entry outside [0, {q})")
    G.flags.writeable = False
    return G


def artifact_from_dict(doc: dict) -> CodeArtifact:
    """Strict inverse of artifact_to_dict: every field element must be an
    encoding in [0, q), the points must be distinct, and the shapes must
    agree with n, k and the extended flag."""
    p, d, n, k = (_int_field(doc, key) for key in ("p", "d", "n", "k"))
    ctx = make_field(p, d)
    if list(ctx.modulus) != doc["modulus"]:
        raise MalformedArtifact("stored modulus does not match the deterministic modulus")
    cons = doc.get("construction", {})
    if not isinstance(cons, dict):
        raise MalformedArtifact("construction must be an object")
    extended = cons.get("extended", False)
    if not isinstance(extended, bool):
        raise MalformedArtifact(f"extended must be a boolean, got {extended!r}")
    q = ctx.q
    points = _encodings(doc["a"], q, n - extended, f"a (n = {n}, extended = {extended})")
    a = EvalVector(ctx, points, extended)
    if not a.is_distinct():
        raise MalformedArtifact("a has a repeated point")
    v = ScalingVector(ctx, _encodings(doc["v"], q, len(points), "v (len(a) entries)"))
    G = _matrix(doc["G"], q, k, n)
    params = {key: val for key, val in cons.items() if key not in ("label", "extended")}
    return CodeArtifact(ctx, a, v, k, G, cons.get("label", "unknown"), params)
