"""GRS and extended GRS generator matrices, locator products, and the
self-dual assembly engines.

A GRS codeword is (v_1 f(a_1), ..., v_n f(a_n)) for deg f < k; the extended
variant appends the coefficient of x^{k-1} as an extra coordinate.  The
assembly engines turn an evaluation vector into a self-dual [n, n/2] code by
solving v_i^2 = 1/(lambda L(a_i)) (plain) or v_i^2 = -1/L(a_i) (extended),
where L(a_i) is the product of differences with the other points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    IndexOutOfRange,
    MalformedArtifact,
    NotASquare,
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
    G: tuple[tuple[int, ...], ...]
    label: str
    params: dict = dc_field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return self.a.n


def locator(a: EvalVector, i: int) -> int:
    """Brute-force L(a_i) = prod_{j != i} (a_i - a_j).  This is the oracle
    every closed form is tested against."""
    if not 0 <= i < len(a.points):
        raise IndexOutOfRange(f"point index {i} out of range [0, {len(a.points)})")
    ctx = a.ctx
    ai = a.points[i]
    out = 1
    for j, aj in enumerate(a.points):
        if j != i:
            out = ctx.mul_v(out, ctx.sub_v(ai, aj))
    return out


def all_locators(a: EvalVector) -> list[int]:
    return [locator(a, i) for i in range(len(a.points))]


def cyclotomic_locator(m: int, i: int, ctx: FieldCtx) -> int:
    """Closed form for the locator on the m-th roots of unity: m * alpha^{-i}."""
    alpha = ctx.root_of_unity_v(m)
    return ctx.mul_v(ctx.int_v(m), ctx.pow_v(alpha, -i))


def grs_generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds v_j * a_j^i, 0 <= i < k."""
    if a.extended:
        raise DimensionMismatch("use xgrs_generator_matrix for extended codes")
    n = len(a.points)
    if len(v.weights) != n or not 1 <= k <= n:
        raise DimensionMismatch(f"need len(v) = n and 1 <= k <= n, got n={n}, k={k}")
    ctx = a.ctx
    rows = []
    current = list(v.weights)
    for _ in range(k):
        rows.append(tuple(current))
        current = [ctx.mul_v(c, p) for c, p in zip(current, a.points)]
    return tuple(rows)


def xgrs_generator_matrix(a: EvalVector, v: ScalingVector, k: int) -> tuple[tuple[int, ...], ...]:
    """As grs_generator_matrix on the finite points, with a final column that
    is zero except for a 1 in row k-1 (the x^{k-1} coefficient)."""
    if not a.extended:
        raise DimensionMismatch("evaluation vector is not marked extended")
    n = a.n
    if len(v.weights) != n - 1 or not 1 <= k <= n:
        raise DimensionMismatch(f"need len(v) = n-1 and 1 <= k <= n, got n={n}, k={k}")
    ctx = a.ctx
    rows = []
    current = list(v.weights)
    for i in range(k):
        last = 1 if i == k - 1 else 0
        rows.append(tuple(current) + (last,))
        current = [ctx.mul_v(c, p) for c, p in zip(current, a.points)]
    return tuple(rows)


def assemble_self_dual_grs(
    a: EvalVector, lam: int, label: str = "grs", params: dict | None = None
) -> tuple[CodeArtifact, list[int]]:
    """Lemma-style assembly: requires lambda * L(a_i) to be a nonzero square
    at every point, then sets v_i = sqrt(1 / (lambda L(a_i))).

    Returns the artifact together with the computed locators (callers cache
    them in the construction trace)."""
    ctx = a.ctx
    n = a.n
    if a.extended:
        raise DimensionMismatch("plain assembly got an extended evaluation vector")
    if n % 2 != 0:
        raise OddLength(n)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    a.require_distinct()
    locs = all_locators(a)
    weights = []
    for i, L in enumerate(locs):
        target = ctx.mul_v(lam, L)
        if ctx.chi_v(target) != 1:
            raise SquareConditionViolated(i)
        try:
            weights.append(ctx.sqrt_v(ctx.inv_v(target)))
        except NotASquare:  # cannot happen after the character check
            raise SquareConditionViolated(i)
    v = ScalingVector(ctx, tuple(weights))
    k = n // 2
    G = grs_generator_matrix(a, v, k)
    return CodeArtifact(ctx, a, v, k, G, label, params or {}), locs


def assemble_self_dual_xgrs(
    a: EvalVector, label: str = "xgrs", params: dict | None = None
) -> tuple[CodeArtifact, list[int]]:
    """Extended assembly: requires -L(a_i) to be a nonzero square at every
    finite point, then sets v_i = sqrt(-1 / L(a_i)); the infinity coordinate
    keeps weight 1."""
    ctx = a.ctx
    if not a.extended:
        raise DimensionMismatch("extended assembly needs the extended flag set")
    n = a.n
    if n % 2 != 0:
        raise OddLength(n)
    a.require_distinct()
    locs = all_locators(a)
    weights = []
    for i, L in enumerate(locs):
        target = ctx.neg_v(L)
        if ctx.chi_v(target) != 1:
            raise SquareConditionViolated(i)
        weights.append(ctx.sqrt_v(ctx.inv_v(target)))
    v = ScalingVector(ctx, tuple(weights))
    k = n // 2
    G = xgrs_generator_matrix(a, v, k)
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
        "G": [list(row) for row in art.G],
    }
    if trace_dict is not None:
        out["trace"] = trace_dict
    if verification is not None:
        out["verification"] = verification
    return out


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


def artifact_from_dict(doc: dict) -> CodeArtifact:
    """Strict inverse of artifact_to_dict: every field element must be an
    encoding in [0, q), and the shapes must agree with n, k and the
    extended flag."""
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
    v = ScalingVector(ctx, _encodings(doc["v"], q, len(points), "v (len(a) entries)"))
    rows = doc["G"]
    if not isinstance(rows, list) or len(rows) != k:
        raise MalformedArtifact(f"G must be a list of k = {k} rows")
    G = tuple(_encodings(row, q, n, f"G row {i}") for i, row in enumerate(rows))
    params = {key: val for key, val in cons.items() if key not in ("label", "extended")}
    return CodeArtifact(ctx, a, v, k, G, cons.get("label", "unknown"), params)
