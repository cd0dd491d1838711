"""The five families of self-dual GRS / extended-GRS constructions.

Families 1-3 (T1i, T1ii, T2, T3i, T3ii) are one coset constructor: the points
are t cosets of the order-m subgroup of F_q*, with representatives g^{stride*z}
for a stride of r-1, or (r+1)/s in family 3.  The variants differ only in a
parity rule for the indices z, in whether 0 and infinity are added, and in
lambda.  Family 4 is a translated subspace grid, family 5 subfield-subspace
translates of roots of unity; both take their subspace from one span,
`_span`, and every running product over F_q, in family 5's lambda and in the
closed-form locators, is one `_product`.  All of them delegate to the
assembly engines in `grs`.

Each hypothesis is written once, in one clause function: `validate` raises
the first clause that fails, and `iter_valid_params` keeps the tuples it
accepts.  The clauses are pure integer arithmetic, so astronomically
large-but-valid parameter sets are checked without materializing a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from math import gcd

import numpy as np
import sympy

from .errors import (
    HypothesisViolated,
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
    locator_logs,
)

# each theorem's parameters, as ConstructionParams fields
_PARAM_KEYS = {
    "T1i": ("m", "t"), "T1ii": ("m", "t"), "T2": ("m", "t"),
    "T3i": ("m", "t", "s"), "T3ii": ("m", "t", "s"),
    "T4": ("e",), "T5": ("t", "e", "k_sub"),
}
THEOREMS = tuple(_PARAM_KEYS)
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
    S: tuple[int, ...] | None = None  # grid coordinates (family 4)
    V: tuple[int, ...] | None = None  # the subspace (family 5)

    def to_dict(self) -> dict:
        """The intermediates that are set; ctx, params, S and V stay out."""
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


# --- hypotheses (integer-only; works for arbitrarily large q) ---

_is_prime = lru_cache(maxsize=256)(sympy.isprime)


def _t_max(r: int, m: int, s: int | None = None) -> int:
    """Distinct cosets of the order-m subgroup the stride reaches:
    (r+1)/gcd(r+1,m), or s(r-1)/gcd(s(r-1),m) with s."""
    order = r + 1 if s is None else s * (r - 1)
    return order // gcd(order, m)


def _hypotheses(theorem: str, p: int, d: int, m: int | None = None, t: int | None = None,
                s: int | None = None, e: int | None = None,
                k_sub: int | None = None) -> int | str:
    """The length n if the theorem's hypotheses hold, else the first clause
    that fails.  Each clause is checked only after the ones before it hold."""
    if p == 2:
        return ODD_Q_CLAUSE
    if not _is_prime(p):
        return "p is prime"
    if d < 1:
        return "d >= 1"
    if d * p.bit_length() > VALIDATION_BITS:
        raise TooLargeToValidate(p, d, VALIDATION_BITS)
    q = p**d
    if theorem == "T5":
        if k_sub is None or t is None or e is None:
            return "k, t and e are required"
        if not (k_sub >= 1 and d % k_sub == 0):
            return "k | (km) with q = p^{km}"
        if t < 1:
            return "t >= 1"
        if (p**k_sub - 1) % (2 * t):
            return "2t | (p^k - 1)"
        if not 0 <= e <= d // k_sub - 1:
            return "e <= m-1"
        if (q - 1) % (4 * t):
            return "(q-1)/(2t) is even"
        return 2 * t * p ** (k_sub * e)
    if d % 2:
        return "q = r^2 with r an odd prime power"
    r = p ** (d // 2)
    if theorem == "T4":
        if e is None:
            return "e is required"
        if not 1 <= e <= d // 2:
            return "1 <= e <= s"
        return p ** (2 * e) + 1
    strided = theorem in ("T3i", "T3ii")
    if m is None or t is None or (strided and s is None):
        return "m, t and s are required" if strided else "m and t are required"
    if not (m >= 1 and (q - 1) % m == 0):
        return "m | (q-1)"
    if strided:
        if not (s % 2 == 0 and s >= 2):
            return "s is even"
        if m % s:
            return "s | m"
        if (r + 1) % s:
            return "s | (r+1)"
        if not 1 <= t <= _t_max(r, m, s):
            return "1 <= t <= s(r-1)/gcd(s(r-1),m)"
    elif theorem == "T2":
        if t * m % 2 == 0:
            return "tm is odd"
        if not 2 <= t <= _t_max(r, m) // 2:
            return "2 <= t <= (r+1)/(2 gcd(r+1,m))"
        return t * m + 1
    else:
        if t * m % 2:
            return "tm is even"
        if not 1 <= t <= _t_max(r, m):
            return "1 <= t <= (r+1)/gcd(r+1,m)"
        if theorem == "T1ii" and t % 2 == 0 and m % 2 == 0 and r % 4 == 1:
            return "t is even, m is even and r ≡ 1 (mod 4)"
    if theorem.endswith("ii"):
        return t * m + 2
    if (q - 1) // m % 2:
        return "(q-1)/m is even"
    if strided and (r + 1) // s % 2:
        return "(r+1)/s is even"
    return t * m


def validate(theorem: str, p: int, d: int, *, m: int | None = None, t: int | None = None,
             s: int | None = None, e: int | None = None, k_sub: int | None = None) -> ConstructionParams:
    """Check a theorem's hypotheses and return the normalized parameter set.

    Raises HypothesisViolated naming the first failed clause, and
    TooLargeToValidate when q may have more than VALIDATION_BITS bits."""
    if theorem not in THEOREMS:
        raise UnsupportedTheorem(theorem)
    n = _hypotheses(theorem, p, d, m, t, s, e, k_sub)
    if isinstance(n, str):
        raise HypothesisViolated(n)
    given = {"m": m, "t": t, "s": s, "e": e, "k_sub": k_sub}
    return ConstructionParams(theorem, p, d, n, **{k: given[k] for k in _PARAM_KEYS[theorem]})


# --- coset-representative selection ---

def select_coset_reps(ctx: FieldCtx, stride: int, m: int, t: int,
                      parity: str = "any") -> tuple[tuple[int, ...], int]:
    """Greedy ascending scan for indices i with g^{stride*i} in pairwise
    distinct cosets of the order-m subgroup.  `parity` constrains either the
    sum A of the chosen indices (A_even / A_odd: the t-th index must give A
    that parity) or every index (all_even: the scan steps by 2).

    Fresh-coset test: stride*i*m mod (q-1) not among the chosen keys."""
    if parity not in ("any", "all_even", "A_even", "A_odd"):
        raise ValueError(f"unknown parity mode {parity!r}")
    want = {"A_even": 0, "A_odd": 1}.get(parity)
    q1 = ctx.q - 1
    subgroup_size = q1 // gcd(q1, stride)  # indices repeat beyond this
    chosen: list[int] = []
    keys: set[int] = set()
    total = 0
    for i in range(0, subgroup_size, 2 if parity == "all_even" else 1):
        key = stride * i * m % q1
        if key in keys or (want is not None and len(chosen) == t - 1
                           and (total + i) % 2 != want):
            continue
        chosen.append(i)
        keys.add(key)
        total += i
        if len(chosen) == t:
            return tuple(chosen), total
    if parity == "all_even":
        raise ParityInfeasible(f"only {len(chosen)} even-index cosets available, needed {t}")
    if want is not None and len(chosen) == t - 1:
        raise ParityInfeasible(f"no final index gives A ≡ {want} (mod 2)")
    raise NotEnoughCosets(t, len(chosen))


# --- families 1-3: unions of t cosets of the order-m subgroup ---

def _stride(params: ConstructionParams) -> int:
    """Exponent step between coset representatives: r-1, or (r+1)/s."""
    return params.r - 1 if params.s is None else (params.r + 1) // params.s


def _coset_points(ctx: FieldCtx, stride: int, m: int, I: tuple[int, ...]) -> list[int]:
    """Points g^{k(q-1)/m + stride*z}, z over I (outer), 0 <= k < m (inner)."""
    q1 = ctx.q - 1
    z = np.array(I, dtype=np.int64)[:, None]
    logs = np.arange(m, dtype=np.int64) * (q1 // m) + stride * z
    return ctx.np_tables[0][logs % q1].ravel().tolist()


def _u_products(ctx: FieldCtx, stride: int, m: int, I: tuple[int, ...]) -> dict[int, int]:
    """u_z = prod_{l in I, l != z} (g^{stride*z*m} - g^{stride*l*m}), the
    locators of these points, which lie in distinct cosets and so are
    distinct and nonzero."""
    logs = np.array([stride * z * m % (ctx.q - 1) for z in I], dtype=np.int64)
    return dict(zip(I, ctx.np_tables[0][locator_logs(ctx, logs)].tolist()))


def _check_budget(params: ConstructionParams) -> None:
    if params.n > MATERIALIZE_BUDGET:
        raise TooLargeToMaterialize(params.n, MATERIALIZE_BUDGET)


def _coset_union(ctx: FieldCtx, params: ConstructionParams) -> Built:
    """T1i, T1ii, T2, T3i and T3ii.  The "ii" variants put 0 first; T1ii, T2
    and T3ii assemble the extended code."""
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
    points = _coset_points(ctx, stride, m, I)
    if th.endswith("ii"):
        points = [0] + points
    a = EvalVector(ctx, tuple(points), extended=th in ("T1ii", "T2", "T3ii"))
    lam = None
    if a.extended:
        art, locs = assemble_self_dual_xgrs(a, params.label(), params.to_dict())
    else:
        lam = 1 if th == "T3i" else ctx.pow_v(ctx.g_val, (r + 1) * (t - 1) // 2 - m * A)
        art, locs = assemble_self_dual_grs(a, lam, params.label(), params.to_dict())
    trace = ConstructionTrace(ctx, params, I=I, A=A, lam=lam, locators=locs,
                              u=_u_products(ctx, stride, m, I),
                              xi_s=None if params.s is None else ctx.root_of_unity_v(params.s))
    return art, trace


# --- families 4-5: spans over a subfield ---

def _span(ctx: FieldCtx, basis, coeffs) -> list[int]:
    """Every sum c_i b_i with each c_i from `coeffs`; the coefficient of
    basis[0] changes fastest."""
    span = [0]
    for b in basis:
        span = [ctx.add_v(x, ctx.mul_v(c, b)) for c in coeffs for x in span]
    return span


def _product(ctx: FieldCtx, values) -> int:
    return reduce(ctx.mul_v, values, 1)


# --- family 4: subspace grid alpha_k * beta + alpha_j ---

def _subspace_grid(ctx: FieldCtx, params: ConstructionParams) -> Built:
    r = params.r
    gamma = ctx.subfield_generator_v(r)
    basis = tuple(ctx.pow_v(gamma, i) for i in range(params.e))
    alphas = _span(ctx, basis, ctx.subfield_elements_v(ctx.p))
    beta = ctx.pow_v(ctx.g_val, r - 1)
    points = [
        ctx.add_v(ctx.mul_v(ak, beta), aj)
        for ak in alphas
        for aj in alphas
    ]
    a = EvalVector(ctx, tuple(points), extended=True)
    art, locs = assemble_self_dual_xgrs(a, params.label(), params.to_dict())
    trace = ConstructionTrace(ctx, params, locators=locs, beta=beta,
                              V_basis=basis, S=tuple(alphas))
    return art, trace


# --- family 5: subfield-subspace translates of 2t-th roots of unity ---

def _root_translates(ctx: FieldCtx, params: ConstructionParams) -> Built:
    t = params.t
    sub_q = ctx.p**params.k_sub
    omega = ctx.pow_v(ctx.subfield_generator_v(sub_q), (sub_q - 1) // (2 * t))
    basis = tuple(ctx.pow_v(ctx.g_val, i) for i in range(1, params.e + 1))
    # V = subfield-span of {g, ..., g^e}; coordinates are unique, so
    # V meets the subfield only in 0
    V = _span(ctx, basis, ctx.subfield_elements_v(sub_q))
    roots = [ctx.pow_v(omega, j) for j in range(2 * t)]
    points = [ctx.add_v(w, u) for w in roots for u in V]
    # c = prod_{u in V, u != 0} u * prod_{u in V, 0 < h < 2t} (1 + u - omega^h)
    c = _product(ctx, chain((u for u in V if u),
                            (ctx.sub_v(ctx.add_v(1, u), w) for u in V for w in roots[1:])))
    a = EvalVector(ctx, tuple(points), extended=False)
    art, locs = assemble_self_dual_grs(a, c, params.label(), params.to_dict())
    trace = ConstructionTrace(ctx, params, lam=c, locators=locs, c=c,
                              omega=omega, V_basis=basis, V=tuple(V))
    return art, trace


_FAMILIES = {"T4": _subspace_grid, "T5": _root_translates}


def _construct(ctx: FieldCtx, params: ConstructionParams) -> Built:
    return _FAMILIES.get(params.theorem, _coset_union)(ctx, params)


def build(theorem: str, p: int, d: int, **kw) -> Built:
    """Validate (integer-only), enforce the build budget, then construct."""
    params = validate(theorem, p, d, **kw)
    _check_budget(params)
    return _construct(make_field(p, d), params)


def construct_from_params(ctx: FieldCtx, params: ConstructionParams) -> Built:
    """Construct from parameters that `validate` or `iter_valid_params` made."""
    _check_budget(params)
    return _construct(ctx, params)


# --- closed-form locators (tested point-by-point against brute force) ---

def closed_form_locator(params: ConstructionParams, trace: ConstructionTrace, i: int) -> int:
    """Per-family closed form of L at the i-th finite evaluation point."""
    ctx = trace.ctx
    th = params.theorem
    q1 = ctx.q - 1
    if th not in _FAMILIES:
        m, stride = params.m, _stride(params)
    if th in ("T1i", "T2", "T3i"):
        zi, k = divmod(i, m)
        z = trace.I[zi]
        alpha = ctx.pow_v(ctx.g_val, k * (q1 // m) + stride * z)
        return ctx.mul_v(
            ctx.mul_v(ctx.int_v(m), ctx.pow_v(alpha, m - 1)), trace.u[z]
        )
    if th in ("T1ii", "T3ii"):
        if i == 0:  # +-g^(stride m sum(I))
            L0 = ctx.pow_v(ctx.g_val, stride * m * sum(trace.I))
            return ctx.neg_v(L0) if (m + 1) * params.t % 2 else L0
        zi, k = divmod(i - 1, m)
        z = trace.I[zi]
        return ctx.mul_v(
            ctx.mul_v(ctx.int_v(m), ctx.pow_v(ctx.g_val, stride * z * m)), trace.u[z]
        )
    if th == "T4":  # point S[k0] beta + S[j0]
        S, beta = trace.S, trace.beta
        dk, dj = ([ctx.sub_v(S[x0], s) for x, s in enumerate(S) if x != x0]
                  for x0 in divmod(i, len(S)))
        cross = (ctx.sub_v(ctx.mul_v(x, beta), y) for y in dj for x in dk)
        return _product(ctx, chain([ctx.pow_v(beta, len(S) - 1)], dj, dk, cross))
    if th == "T5":
        block = ctx.p ** (params.k_sub * params.e)
        j = i // block
        return ctx.mul_v(ctx.pow_v(trace.omega, -j * block), trace.c)
    raise UnsupportedTheorem(th)


# --- exhaustive parameter enumeration (census spot checks, test sweeps) ---

def iter_valid_params(p: int, d: int, n_max: int):
    """Yield every ConstructionParams with n <= n_max, deterministically
    ordered by (theorem, parameters).  The loops only bound the search;
    `_hypotheses` decides which tuples are valid."""
    q = p**d
    n_max = min(n_max, q + 1)
    r = p ** (d // 2)
    divisors = [m for m in sympy.divisors(q - 1) if m <= n_max]  # n >= m
    candidates = chain(
        ((th, m, t, None, None, None) for th in ("T1i", "T1ii", "T2") for m in divisors
         for t in range(1, min(_t_max(r, m), n_max // m) + 1)),
        ((th, m, t, s, None, None) for th in ("T3i", "T3ii") for m in divisors
         for s in sympy.divisors(gcd(m, r + 1))
         for t in range(1, min(_t_max(r, m, s), n_max // m) + 1)),
        (("T4", None, None, None, e, None) for e in range(1, d // 2 + 1)),
        (("T5", None, t, None, e, k) for k in sympy.divisors(d)
         for t in sympy.divisors((p**k - 1) // 2) for e in range(d // k)),
    )
    for th, m, t, s, e, k_sub in candidates:
        n = _hypotheses(th, p, d, m, t, s, e, k_sub)
        if isinstance(n, int) and n <= n_max:
            yield ConstructionParams(th, p, d, n, m, t, s, e, k_sub)
