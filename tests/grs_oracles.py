"""GRS oracles for the tests: the brute-force locator, written only on the
scalar `mul_v`/`sub_v` of a field, a brute force at chosen points for long
evaluation vectors, which subtracts digit by digit, the closed forms that
the paper's lemmas give for the locators of each family, which are tested
point by point against the first, and the greedy scan for coset
representatives that `select_coset_reps` writes in closed form."""

from __future__ import annotations

from functools import reduce
from itertools import chain, product
from math import gcd

import numpy as np

from mdssd.constructions import _stride
from mdssd.errors import NotEnoughCosets, ParityInfeasible, UnsupportedTheorem


def _product(ctx, values) -> int:
    """The product of the field elements in `values`."""
    return reduce(ctx.mul_v, values, 1)


class IndexOutOfRange(IndexError):
    """The oracle's refusal of a point index outside the evaluation vector."""


def locator(a, i: int) -> int:
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


def locator_logs_at(a, rows) -> list[int]:
    """Brute-force logs of L(a_i) for the point indices in `rows`: each the
    sum of the logs of the differences a_i - a_j, j != i, subtracted digit
    by digit in base p, so that no Zech table is read.  O(n d) numpy work a
    row, for lengths where `grs.all_locators` would take n^2."""
    ctx = a.ctx
    p, q1 = ctx.p, ctx.q - 1
    places = p ** np.arange(ctx.d, dtype=np.int64)
    digits = np.array(a.points, dtype=np.int64)[:, None] // places % p
    out = []
    for i in rows:
        diffs = np.delete((digits[i] - digits) % p @ places, i)
        assert diffs.all(), "repeated point"
        out.append(int(ctx.np_tables[1][diffs].sum() % q1))
    return out


def greedy_coset_reps(ctx, stride: int, m: int, t: int,
                      parity: str = "any") -> tuple[tuple[int, ...], int]:
    """Greedy ascending scan for indices i with g^{stride*i} in pairwise
    distinct cosets of the order-m subgroup.  `parity` constrains either the
    sum A of the chosen indices (A_even / A_odd: the t-th index must give A
    that parity) or every index (all_even: the scan steps by 2).

    Fresh-coset test: stride*i*m mod (q-1) not among the chosen keys.  This
    is the oracle of `select_coset_reps`, with the same refusals."""
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


def subfield_span(ctx, basis, sub_q: int) -> list[int]:
    """Every combination of `basis` with coefficients in the subfield of
    sub_q elements, the coefficient of basis[0] changing fastest: the order
    in which families 4 and 5 list their spans."""
    coeffs = ctx.subfield_elements_v(sub_q)
    return [reduce(ctx.add_v, map(ctx.mul_v, reversed(cs), basis), 0)
            for cs in product(coeffs, repeat=len(basis))]


def grid_coordinates(ctx, params) -> list[int]:
    """Family 4's S: the F_p-span of 1, gamma, ..., gamma^(e-1), where gamma
    generates the subfield of r elements, g^((q-1)/(r-1))."""
    gamma = ctx.pow_v(ctx.g_val, (ctx.q - 1) // (params.r - 1))
    return subfield_span(ctx, [ctx.pow_v(gamma, i) for i in range(params.e)], ctx.p)


def root_subspace(ctx, params) -> list[int]:
    """Family 5's V: the span of g, ..., g^e over the subfield of p^k
    elements."""
    basis = [ctx.pow_v(ctx.g_val, i) for i in range(1, params.e + 1)]
    return subfield_span(ctx, basis, ctx.p**params.k_sub)


def cyclotomic_locator(m: int, i: int, ctx) -> int:
    """Closed form for the locator on the m-th roots of unity: m * alpha^{-i}."""
    alpha = ctx.root_of_unity_v(m)
    return ctx.mul_v(m % ctx.p, ctx.pow_v(alpha, -i))


def closed_form_locator(params, trace, i: int) -> int:
    """Per-family closed form of L at the i-th finite evaluation point, from
    the construction's trace."""
    ctx = trace.ctx
    th = params.theorem
    q1 = ctx.q - 1
    if th not in ("T4", "T5"):
        m, stride = params.m, _stride(params)
    if th in ("T1i", "T2", "T3i"):
        zi, k = divmod(i, m)
        z = trace.I[zi]
        alpha = ctx.pow_v(ctx.g_val, k * (q1 // m) + stride * z)
        return ctx.mul_v(
            ctx.mul_v(m % ctx.p, ctx.pow_v(alpha, m - 1)), trace.u[z]
        )
    if th in ("T1ii", "T3ii"):
        if i == 0:  # +-g^(stride m sum(I))
            L0 = ctx.pow_v(ctx.g_val, stride * m * sum(trace.I))
            return ctx.sub_v(0, L0) if (m + 1) * params.t % 2 else L0
        zi, k = divmod(i - 1, m)
        z = trace.I[zi]
        return ctx.mul_v(
            ctx.mul_v(m % ctx.p, ctx.pow_v(ctx.g_val, stride * z * m)), trace.u[z]
        )
    if th == "T4":  # point S[k0] beta + S[j0]
        S, beta = grid_coordinates(ctx, params), trace.beta
        dk, dj = ([ctx.sub_v(S[x0], s) for x, s in enumerate(S) if x != x0]
                  for x0 in divmod(i, len(S)))
        cross = (ctx.sub_v(ctx.mul_v(x, beta), y) for y in dj for x in dk)
        return _product(ctx, chain([ctx.pow_v(beta, len(S) - 1)], dj, dk, cross))
    if th == "T5":
        block = ctx.p ** (params.k_sub * params.e)
        j = i // block
        return ctx.mul_v(ctx.pow_v(trace.omega, -j * block), trace.c)
    raise UnsupportedTheorem(th)
