"""The five families of self-dual GRS / extended-GRS constructions.

Families 1-3 (T1i, T1ii, T2, T3i, T3ii) are one coset constructor: the points
are t cosets of the order-m subgroup of F_q*, with representatives g^{stride*z}
for a stride of r-1, or (r+1)/s in family 3.  The variants differ only in a
parity rule for the indices z, in whether 0 and infinity are added, and in
lambda.  `select_coset_reps` gives the indices in closed form, 0, s, 2s,
... and one last index, from the period o of the coset keys and the bound S
of the indices; that index is passed apart only where a parity rule moves it
off (t-1)s.  Family 4 evaluates on the group S beta + S, one F_p-span of
gamma^i and beta gamma^i, family 5 on omega^j + V, with omega a primitive
2t-th root of unity and V an F_(p^k)-span; `_span` makes both spans.  All
of them delegate to the assembly engines in `grs`.

The families stop at (a, lambda): each gives its evaluation vector, its
lambda (none for the extended code), the logs of its locators and its
trace fields, the last computed only on demand.  Each family writes its
locators in the closed form that the lemmas behind it give, in O(n + t)
(see `_coset_union`, `_subspace_grid` and `_root_translates`); the O(n^2)
brute force of `grs` is never called here, and the tests keep it as the
oracle of every closed form.  `build` and `construct_from_params`
assemble the artifact, with G, and the trace, whose locators and u are
read from the same logs.  `_points_and_weights`, the census's entry, stops
once the weights v are computed: it builds no G, no trace and no locator
list.

Each hypothesis is written once, in one clause table: per theorem, rows of
(clause text, failing condition) in checking order, and the length n.  The
conditions use only %, //, comparisons, & and | and a gcd, so two
evaluators run the same text.  `validate` walks the table on Python ints and
raises the first clause that fails; that is pure integer arithmetic, so
astronomically large-but-valid parameter sets are checked without
materializing a field.  `valid_param_arrays` judges every candidate tuple of
all seven theorems at once on int64 arrays, after the clauses that decide
the whole call (p an odd prime, d >= 1, q = r^2) are checked once, and
`iter_valid_params` and the census read its accepted columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import gcd
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import sympy

from .errors import (
    HypothesisViolated,
    InvalidCosetCount,
    NotEnoughCosets,
    ParityInfeasible,
    TooLargeToMaterialize,
    TooLargeToValidate,
    UnsupportedTheorem,
)
from .field import FieldCtx, make_field
from .grs import (
    CodeArtifact,
    EvalVector,
    assemble_self_dual_grs,
    assemble_self_dual_xgrs,
    self_dual_weights,
)

ODD_Q_CLAUSE = "q is a power of an odd prime"

# Construction is refused (validation still succeeds) beyond this length.
MATERIALIZE_BUDGET = 1 << 16

# Validation is refused when q = p^d may have more bits than this, so that
# the integer arithmetic on q stays fast.
VALIDATION_BITS = 1 << 16


@dataclass(frozen=True)
class ConstructionParams:
    theorem: str
    p: int
    d: int
    n: int
    m: int | None = None
    t: int | None = None
    s: int | None = None
    e: int | None = None
    k_sub: int | None = None

    @property
    def q(self) -> int:
        return self.p**self.d

    @property
    def r(self) -> int:
        return self.p ** (self.d // 2)

    def label(self) -> str:
        parts = (f"{'k' if key == 'k_sub' else key}={val}"
                 for key, val in self.to_dict().items() if key != "theorem")
        return f"{self.theorem}({','.join(parts)})"

    def to_dict(self) -> dict:
        given = {key: getattr(self, key) for key in ("m", "t", "s", "e", "k_sub")}
        return {"theorem": self.theorem, **{k: v for k, v in given.items() if v is not None}}


@dataclass
class ConstructionTrace:
    """Diagnostic record of construction intermediates."""

    ctx: FieldCtx
    params: ConstructionParams
    I: tuple[int, ...] | None = None
    A: int | None = None
    lam: int | None = None
    locators: list[int] | None = None
    u: dict[int, int] | None = None  # per coset representative z
    c: int | None = None
    xi_s: int | None = None
    beta: int | None = None
    omega: int | None = None
    V_basis: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        """The intermediates that are set; ctx and params stay out."""
        out: dict = {}
        for key in ("I", "A", "lam", "locators", "u", "c", "xi_s", "beta", "omega", "V_basis"):
            val = getattr(self, key)
            if isinstance(val, dict):
                val = {str(z): uz for z, uz in sorted(val.items())}
            elif isinstance(val, (tuple, list)):
                val = list(val)
            if val is not None:
                out["lambda" if key == "lam" else key] = val
        return out


Built = tuple[CodeArtifact, ConstructionTrace]


class _Evaluation(NamedTuple):
    """What a family gives the assembly: the evaluation vector, lambda (None
    for the extended code), the logs of its locators, and the family's own
    trace fields, computed only when called."""

    a: EvalVector
    lam: int | None
    log_locators: np.ndarray  # of L(a_i) at the finite points, in closed form
    trace_fields: Callable[[], dict]


# --- hypotheses: one clause table, two evaluators ---

# The array path computes in int64, and refuses q of more bits than this (see
# valid_param_arrays).
_ARRAY_BITS = 62


def _t_max(x, order):
    """Distinct cosets of the order-m subgroup that a stride of this
    multiplicative order reaches: order / gcd(order, m)."""
    return order // x.gcd(order, x.m)


class _Theorem(NamedTuple):
    keys: tuple[str, ...]  # its parameters, as ConstructionParams fields
    required: str  # the clause when one of them is missing
    clauses: tuple  # rows (clause, failing condition, ...), in checking order
    length: Callable  # n, once every clause holds


# A condition reads x: p, d, q, r, gcd and the parameters, either as Python
# ints with math.gcd, or as int64 arrays of candidates with np.gcd.  It uses
# only %, //, comparisons, & and | and the gcd, so both evaluators run the
# same text.  Where a row has several conditions, each guards the ones after
# it: the scalar walk stops at the first that is true, and the array path,
# whose candidates never meet a guard, ORs them.
_MT = (("m", "t"), "m and t are required")
_MTS = (("m", "t", "s"), "m, t and s are required")
_M_DIVIDES = ("m | (q-1)", lambda x: x.m < 1, lambda x: (x.q - 1) % x.m != 0)
_TM_EVEN = ("tm is even", lambda x: x.t * x.m % 2 != 0)
_T_RANGE = ("1 <= t <= (r+1)/gcd(r+1,m)", lambda x: (x.t < 1) | (x.t > _t_max(x, x.r + 1)))
_Q1_M_EVEN = ("(q-1)/m is even", lambda x: (x.q - 1) // x.m % 2 != 0)
_S_CLAUSES = (
    ("s is even", lambda x: (x.s % 2 != 0) | (x.s < 2)),
    ("s | m", lambda x: x.m % x.s != 0),
    ("s | (r+1)", lambda x: (x.r + 1) % x.s != 0),
    ("1 <= t <= s(r-1)/gcd(s(r-1),m)",
     lambda x: (x.t < 1) | (x.t > _t_max(x, x.s * (x.r - 1)))),
)


def _tm(x):
    return x.t * x.m


_HYPOTHESES = {
    "T1i": _Theorem(*_MT, (_M_DIVIDES, _TM_EVEN, _T_RANGE, _Q1_M_EVEN), _tm),
    "T1ii": _Theorem(*_MT, (
        _M_DIVIDES, _TM_EVEN, _T_RANGE,
        ("t is even, m is even and r ≡ 1 (mod 4)",
         lambda x: (x.t % 2 == 0) & (x.m % 2 == 0) & (x.r % 4 == 1)),
    ), lambda x: _tm(x) + 2),
    "T2": _Theorem(*_MT, (
        _M_DIVIDES,
        ("tm is odd", lambda x: x.t * x.m % 2 == 0),
        ("2 <= t <= (r+1)/(2 gcd(r+1,m))",
         lambda x: (x.t < 2) | (x.t > _t_max(x, x.r + 1) // 2)),
    ), lambda x: _tm(x) + 1),
    "T3i": _Theorem(*_MTS, (
        _M_DIVIDES, *_S_CLAUSES, _Q1_M_EVEN,
        ("(r+1)/s is even", lambda x: (x.r + 1) // x.s % 2 != 0),
    ), _tm),
    "T3ii": _Theorem(*_MTS, (_M_DIVIDES, *_S_CLAUSES), lambda x: _tm(x) + 2),
    "T4": _Theorem(("e",), "e is required", (
        ("1 <= e <= s", lambda x: (x.e < 1) | (x.e > x.d // 2)),
    ), lambda x: x.p ** (2 * x.e) + 1),
    "T5": _Theorem(("t", "e", "k_sub"), "k, t and e are required", (
        ("k | (km) with q = p^{km}", lambda x: x.k_sub < 1, lambda x: x.d % x.k_sub != 0),
        ("t >= 1", lambda x: x.t < 1),
        ("2t | (p^k - 1)", lambda x: (x.p ** x.k_sub - 1) % (2 * x.t) != 0),
        ("e <= m-1", lambda x: (x.e < 0) | (x.e > x.d // x.k_sub - 1)),
        ("(q-1)/(2t) is even", lambda x: (x.q - 1) % (4 * x.t) != 0),
    ), lambda x: 2 * x.t * x.p ** (x.k_sub * x.e)),
}
THEOREMS = tuple(_HYPOTHESES)


def _call_clause(theorem: str, p: int, d: int) -> str | None:
    """The first failing clause among those that decide the whole call,
    before the parameters are read: p is an odd prime, d >= 1, and q = r^2
    for every family but T5.  Raises TooLargeToValidate when q may have more
    than VALIDATION_BITS bits."""
    if p == 2:
        return ODD_Q_CLAUSE
    if not sympy.isprime(p):
        return "p is prime"
    if d < 1:
        return "d >= 1"
    if d * p.bit_length() > VALIDATION_BITS:
        raise TooLargeToValidate(p, d, VALIDATION_BITS)
    if theorem != "T5" and d % 2:
        return "q = r^2 with r an odd prime power"
    return None


def _scalar_walk(rule: _Theorem, p: int, d: int, given: dict) -> int | str:
    """n if the parameters are present and every clause of the table holds
    on these Python ints, else the first clause that fails."""
    if None in map(given.get, rule.keys):
        return rule.required
    x = SimpleNamespace(p=p, d=d, q=p**d, r=p ** (d // 2), gcd=gcd, **given)
    for row in rule.clauses:
        for fail in row[1:]:
            if fail(x):
                return row[0]
    return rule.length(x)


def validate(theorem: str, p: int, d: int, *, m: int | None = None, t: int | None = None,
             s: int | None = None, e: int | None = None, k_sub: int | None = None) -> ConstructionParams:
    """Check a theorem's hypotheses and return the normalized parameter set.

    Raises HypothesisViolated naming the first failed clause, and
    TooLargeToValidate when q may have more than VALIDATION_BITS bits."""
    if theorem not in THEOREMS:
        raise UnsupportedTheorem(theorem)
    rule = _HYPOTHESES[theorem]
    given = {"m": m, "t": t, "s": s, "e": e, "k_sub": k_sub}
    n = _call_clause(theorem, p, d) or _scalar_walk(rule, p, d, given)
    if isinstance(n, str):
        raise HypothesisViolated(n)
    return ConstructionParams(theorem, p, d, n, **{k: given[k] for k in rule.keys})


# --- coset-representative selection ---

def select_coset_reps(ctx: FieldCtx, stride: int, m: int, t: int,
                      parity: str = "any") -> tuple[tuple[int, ...], int]:
    """Indices I, with their sum A, of t representatives g^{stride*i} of
    pairwise distinct cosets of the order-m subgroup: those that an
    ascending scan over i < S = (q-1)/gcd(q-1, stride) takes first, in
    closed form.  `parity` constrains either A (A_even / A_odd: the last
    index gives A that parity) or every index (all_even: even i only).

    Index i lands in the coset of key stride*i*m mod (q-1), and the keys
    repeat with period o = (q-1)/gcd(q-1, stride*m), a divisor of S.  So I
    is 0, s, ..., (t-2)s and a last index x, with s = 2 and x = 2(t-1) for
    all_even (o/2 cosets if o is even, else min(o, ceil(S/2))), and s = 1
    otherwise (o cosets).  x is t-1 for any; for A_even / A_odd, the first
    of t-1, t and t-1+o below S whose key is fresh (x mod o >= t-1) and
    which gives A its parity.  `_coset_union` reads this progression.
    Raises InvalidCosetCount for t < 1."""
    if t < 1:
        raise InvalidCosetCount(t)
    if parity not in ("any", "all_even", "A_even", "A_odd"):
        raise ValueError(f"unknown parity mode {parity!r}")
    q1 = ctx.q - 1
    S = q1 // gcd(q1, stride)
    o = q1 // gcd(q1, stride * m)
    if parity == "all_even":
        count = min(o, (S + 1) // 2) if o % 2 else o // 2
        if t > count:
            raise ParityInfeasible(f"only {count} even-index cosets available, needed {t}")
        return tuple(range(0, 2 * t, 2)), t * (t - 1)
    want = {"A_even": 0, "A_odd": 1}.get(parity)
    if t > o + (want is not None):
        raise NotEnoughCosets(t, o)
    x, A = t - 1, t * (t - 1) // 2
    if want is not None and A % 2 != want:
        x = t if t < o else t - 1 + o  # the next index with a fresh key
        A += x - (t - 1)
    if t > o or x >= S or want is not None and A % 2 != want:
        raise ParityInfeasible(f"no final index gives A ≡ {want} (mod 2)")
    return (*range(t - 1), x), A


# --- families 1-3: unions of t cosets of the order-m subgroup ---

def _stride(params: ConstructionParams) -> int:
    """Exponent step between coset representatives: r-1, or (r+1)/s."""
    return params.r - 1 if params.s is None else (params.r + 1) // params.s


def _key_locator_logs(ctx: FieldCtx, step: int, s: int, M: int,
                      x: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Logs of the keys kappa_z = g^{step*z} and of u_z = prod_{l != z}
    (kappa_z - kappa_l), z over 0, s, 2s, ..., (M-1)s and then x if given,
    for distinct keys.

    The first M keys are powers c^j of c = g^{step*s}.  Taking c^min(j, l)
    out of each factor, log u_j = j(2M-3-j)/2 log c + S_j + S_{M-1-j}
    + j (q-1)/2, where S_j = sum_{1 <= i <= j} log(1 - c^i) and
    log(1 - c^i) = zech[i log c + (q-1)/2]: one cumulative sum.  The key of
    x adds one factor to each u_j and is a product of M factors itself, so
    the whole is O(M)."""
    q1 = ctx.q - 1
    half = q1 // 2
    zech = ctx.np_zech
    log_c = step * s % q1
    j = np.arange(M, dtype=np.int64)
    keys = j * log_c % q1
    S = np.zeros(M, dtype=np.int64)
    S[1:] = zech[(keys[1:] + half) % q1].cumsum()
    out = j * (2 * M - 3 - j) // 2 % q1 * log_c
    out += S
    out += S[::-1]
    out += j * half
    if x is not None:
        # log(kappa_j - kappa_x) = log kappa_j + log(1 - kappa_x / kappa_j)
        log_x = step * x % q1
        to_x = keys + zech[(log_x - keys + half) % q1]
        out = np.append(out + to_x, (to_x + half).sum())
        keys = np.append(keys, log_x)
    return keys, out % q1


def _check_budget(params: ConstructionParams) -> None:
    if params.n > MATERIALIZE_BUDGET:
        raise TooLargeToMaterialize(params.n, MATERIALIZE_BUDGET)


def _coset_union(ctx: FieldCtx, params: ConstructionParams) -> _Evaluation:
    """T1i, T1ii, T2, T3i and T3ii.  The "ii" variants put 0 first; T1ii, T2
    and T3ii give the extended code.

    The nonzero points are the roots of prod_z (x^m - kappa_z), kappa_z =
    g^{stride*m*z}, so at a point a of coset z, L(a) = m a^{m-1} u_z, with
    u_z over the keys (`_key_locator_logs`).  With 0 added, the polynomial
    gains a factor x: L(a) = m kappa_z u_z, and L(0) = prod_z (-kappa_z)."""
    th, m, t, r = params.theorem, params.m, params.t, params.r
    stride = _stride(params)
    parity = "any"
    if th == "T2":
        parity = "all_even"
    elif th == "T1ii" and t % 2 == 0 and m % 2 == 1:
        # the square condition needs (r+1)/2*(t-1) - (A + (t-2)z)m even for
        # all z; with t odd or m even it holds for any A (t and m both even
        # with r = 1 (mod 4) is excluded by the hypotheses)
        parity = "A_even" if r % 4 == 3 else "A_odd"
    I, A = select_coset_reps(ctx, stride, m, t, parity)
    q1 = ctx.q - 1
    exp, log = ctx.np_tables
    s = 2 if parity == "all_even" else 1
    x = I[-1] if I[-1] != (t - 1) * s else None  # the index off the progression
    keys, log_u = _key_locator_logs(ctx, stride * m, s, t - (x is not None), x)
    log_mu = log[m % ctx.p] + log_u  # of m u_z
    # the points g^{k(q-1)/m + stride*z}, z over I (rows), 0 <= k < m (columns)
    logs = (np.arange(m, dtype=np.int64) * (q1 // m)
            + stride * np.array(I, dtype=np.int64)[:, None]) % q1
    points = exp[logs].ravel().tolist()
    if th.endswith("ii"):
        zero = (keys.sum() + t * (q1 // 2)) % q1
        log_locs = np.concatenate(([zero], np.repeat((log_mu + keys) % q1, m)))
        points = [0] + points
    else:
        log_locs = ((m - 1) * logs + log_mu[:, None]).ravel() % q1
    a = EvalVector(ctx, tuple(points), extended=th in ("T1ii", "T2", "T3ii"))
    lam = None
    if not a.extended:
        lam = 1 if th == "T3i" else ctx.pow_v(ctx.g_val, (r + 1) * (t - 1) // 2 - m * A)
    return _Evaluation(a, lam, log_locs, lambda: {
        "I": I, "A": A, "u": dict(zip(I, exp[log_u].tolist())),
        "xi_s": None if params.s is None else ctx.root_of_unity_v(params.s)})


# --- families 4-5: spans over a subfield ---

def _span(ctx: FieldCtx, basis, coeffs) -> list[int]:
    """Every sum c_i b_i with each c_i from `coeffs`; the coefficient of
    basis[0] changes fastest."""
    span = [0]
    for b in basis:
        span = [ctx.add_v(x, ctx.mul_v(c, b)) for c in coeffs for x in span]
    return span


# --- family 4: subspace grid alpha_k * beta + alpha_j ---

def _subspace_grid(ctx: FieldCtx, params: ConstructionParams) -> _Evaluation:
    r = params.r
    gamma = ctx.root_of_unity_v(r - 1)  # generates F_r*
    basis = tuple(ctx.pow_v(gamma, i) for i in range(params.e))
    beta = ctx.pow_v(ctx.g_val, r - 1)
    # alpha_j + alpha_k beta over the 2e vectors gamma^i, beta gamma^i, with
    # coefficients in F_p, encoded 0..p-1: alpha_j fastest
    points = _span(ctx, basis + tuple(ctx.mul_v(beta, b) for b in basis), range(ctx.p))
    a = EvalVector(ctx, tuple(points), extended=True)
    # the points are the additive group W = S beta + S, so every L(a_i) is
    # prod_{w in W, w != 0} w
    W = np.array(points, dtype=np.int64)
    log_w = ctx.np_tables[1][W[W != 0]].sum() % (ctx.q - 1)
    return _Evaluation(a, None, np.full(len(points), log_w),
                       lambda: {"beta": beta, "V_basis": basis})


# --- family 5: subfield-subspace translates of 2t-th roots of unity ---

def _root_translates(ctx: FieldCtx, params: ConstructionParams) -> _Evaluation:
    t = params.t
    sub_q = ctx.p**params.k_sub
    omega = ctx.root_of_unity_v(2 * t)  # in the subfield, as 2t | sub_q - 1
    basis = tuple(ctx.pow_v(ctx.g_val, i) for i in range(1, params.e + 1))
    # V = subfield-span of {g, ..., g^e}; coordinates are unique, so
    # V meets the subfield only in 0
    V = _span(ctx, basis, ctx.subfield_elements_v(sub_q))
    roots = [ctx.pow_v(omega, j) for j in range(2 * t)]
    points = [ctx.add_v(w, u) for w in roots for u in V]
    # c = prod_{u in V, u != 0} u * prod_{u in V, 0 < h < 2t} (1 + u - omega^h)
    c = reduce(ctx.mul_v, chain((u for u in V if u),
                                (ctx.sub_v(ctx.add_v(1, u), w) for u in V for w in roots[1:])), 1)
    a = EvalVector(ctx, tuple(points), extended=False)
    # at omega^j + u, L = c omega^{-j |V|}
    log = ctx.np_tables[1]
    j = np.repeat(np.arange(2 * t, dtype=np.int64), len(V))
    log_locs = (log[c] - j * len(V) * log[omega]) % (ctx.q - 1)
    return _Evaluation(a, c, log_locs, lambda: {"c": c, "omega": omega, "V_basis": basis})


_FAMILIES = {"T4": _subspace_grid, "T5": _root_translates}


def _evaluation(ctx: FieldCtx, params: ConstructionParams) -> _Evaluation:
    return _FAMILIES.get(params.theorem, _coset_union)(ctx, params)


def _construct(ctx: FieldCtx, params: ConstructionParams) -> Built:
    a, lam, log_locs, trace_fields = _evaluation(ctx, params)
    if a.extended:
        art, locs = assemble_self_dual_xgrs(a, params.label(), params.to_dict(), log_locs)
    else:
        art, locs = assemble_self_dual_grs(a, lam, params.label(), params.to_dict(), log_locs)
    return art, ConstructionTrace(ctx, params, lam=lam, locators=locs, **trace_fields())


def _points_and_weights(ctx: FieldCtx, params: ConstructionParams
                        ) -> tuple[EvalVector, tuple[int, ...]]:
    """(a, v) of the code that `construct_from_params` builds, and nothing
    more: no G, no locator list and no trace.  Census spot checks judge the
    code from these alone."""
    _check_budget(params)
    a, lam, log_locs, _ = _evaluation(ctx, params)
    return a, self_dual_weights(a, lam, log_locs)


def build(theorem: str, p: int, d: int, **kw) -> Built:
    """Validate (integer-only), enforce the build budget, then construct."""
    params = validate(theorem, p, d, **kw)
    _check_budget(params)
    return _construct(make_field(p, d), params)


def construct_from_params(ctx: FieldCtx, params: ConstructionParams) -> Built:
    """Construct from parameters that `validate` or `iter_valid_params` made."""
    _check_budget(params)
    return _construct(ctx, params)


# --- exhaustive parameter enumeration (census, spot checks, test sweeps) ---

def _candidates(theorem: str, p: int, d: int, n_max: int) -> SimpleNamespace:
    """A theorem's candidate tuples as int64 arrays of its parameters, plus
    p, d, q, r and np.gcd.  T4's e runs from 1 to d/2.  T5's k runs over the
    divisors of d, t over those of (p^k - 1)/2 and e from 0 to d/k - 1,
    ordered by k, then t, then e.  In the coset families, m runs over the
    divisors of q-1 up to n_max (so that n >= m), s over the divisors of
    gcd(m, r+1) for T3i and T3ii, and t from 1 to the number of cosets the
    stride reaches, at most n_max // m, ordered by m, then s, then t."""
    q, r = p**d, p ** (d // 2)
    x = SimpleNamespace(p=p, d=d, q=q, r=r, gcd=np.gcd, s=None)
    if theorem == "T4":
        x.e = np.arange(1, d // 2 + 1, dtype=np.int64)
        return x
    if theorem == "T5":
        rows = [(t, e, k) for k in sympy.divisors(d)
                for t in sympy.divisors((p**k - 1) // 2) for e in range(d // k)]
        x.t, x.e, x.k_sub = np.array(rows, dtype=np.int64).T
        return x
    ms = [m for m in sympy.divisors(q - 1) if m <= n_max]
    if "s" in _HYPOTHESES[theorem].keys:
        pairs = [(m, s) for m in ms for s in sympy.divisors(gcd(m, r + 1))]
        x.m, x.s = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        order = x.s * (r - 1)
    else:
        x.m = np.array(ms, dtype=np.int64)
        order = r + 1
    counts = np.minimum(_t_max(x, order), n_max // x.m)
    rows = np.repeat(np.arange(counts.size), counts)
    x.t = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows] + 1
    x.m = x.m[rows]
    if x.s is not None:
        x.s = x.s[rows]
    return x


def _array_verdicts(rule: _Theorem, x: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """(every clause holds, n) for each candidate row of x, with every
    condition of the table evaluated on whole arrays."""
    n = rule.length(x)
    ok = np.ones(n.shape, dtype=bool)
    for row in rule.clauses:
        for fail in row[1:]:
            ok &= np.logical_not(fail(x))
    return ok, n


def _accepted(theorem: str, p: int, d: int, n_max: int) -> dict[str, np.ndarray]:
    """One theorem's entry of `valid_param_arrays`."""
    rule = _HYPOTHESES[theorem]
    if _call_clause(theorem, p, d) is not None:
        columns = (*rule.keys, "n")
        return dict(zip(columns, np.zeros((len(columns), 0), dtype=np.int64)))
    q = p**d
    if q.bit_length() > _ARRAY_BITS:
        raise TooLargeToValidate(p, d, _ARRAY_BITS)
    n_max = min(n_max, q + 1)
    x = _candidates(theorem, p, d, n_max)
    ok, n = _array_verdicts(rule, x)
    ok &= n <= n_max
    return {**{key: getattr(x, key)[ok] for key in rule.keys}, "n": n[ok]}


def valid_param_arrays(p: int, d: int, n_max: int) -> dict[str, dict[str, np.ndarray]]:
    """Per theorem, in THEOREMS order, every accepted tuple with n <= n_max,
    as int64 columns: the theorem's parameter keys, then "n".  Rows are in
    candidate order, the order of `iter_valid_params`.

    The clauses that decide the whole call are checked once per theorem;
    one that fails leaves the theorem without rows.  Every theorem's
    candidates are then judged all at once on int64 arrays, against the
    same clause table as `validate`.  The array path refuses q of more than
    _ARRAY_BITS = 62 bits with TooLargeToValidate.  Below that, every
    intermediate stays under 2^63: q - 1 and the quotients and remainders
    of it; r + 1 and s(r - 1) < q (s divides r + 1); every gcd and coset
    count, which are at most these; t m <= n_max <= q + 1, since
    t <= n_max // m; and n <= t m + 2.  In T4 and T5, p^k <= q and
    4t <= 2(p^k - 1), T5's n = 2t p^(ke) < 2q and T4's
    n = p^(2e) + 1 <= q + 1."""
    return {th: _accepted(th, p, d, n_max) for th in THEOREMS}


def _params_at(theorem: str, p: int, d: int, columns: dict, row: int) -> ConstructionParams:
    """The tuple in row `row` of a theorem's accepted columns, as arrays or lists."""
    return ConstructionParams(theorem, p, d, **{key: int(col[row]) for key, col in columns.items()})


def iter_valid_params(p: int, d: int, n_max: int):
    """Yield every ConstructionParams with n <= n_max, deterministically
    ordered by (theorem, parameters), one per row of the columns of
    `valid_param_arrays`."""
    for th, arrays in valid_param_arrays(p, d, n_max).items():
        columns = {key: col.tolist() for key, col in arrays.items()}  # Python ints, read fast
        for row in range(len(columns["n"])):
            yield _params_at(th, p, d, columns, row)
