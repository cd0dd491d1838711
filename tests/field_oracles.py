"""Scalar oracles for the tests: the quadratic character, Tonelli-Shanks
square roots, element orders and subfield membership, written only on the
scalar `mul_v`/`pow_v` of a field and independent of the log-form square
roots of `mdssd.grs`."""

from __future__ import annotations

import sympy


class NotASquare(ValueError):
    """The oracle's refusal to take the square root of a non-square."""


def chi(ctx, a: int) -> int:
    """Quadratic character a^((q-1)/2), as +1 / -1 / 0."""
    if a == 0:
        return 0
    return 1 if ctx.pow_v(a, (ctx.q - 1) // 2) == 1 else -1


def sqrt(ctx, a: int) -> int:
    """The value-smaller of the two square roots of a, by Tonelli-Shanks;
    raises NotASquare for a non-square."""
    if a == 0:
        return 0
    if chi(ctx, a) != 1:
        raise NotASquare(a)
    s, m = ctx.q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    # g is a non-residue by definition of a primitive element
    c = ctx.pow_v(ctx.g_val, s)
    t = ctx.pow_v(a, s)
    root = ctx.pow_v(a, (s + 1) // 2)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = ctx.mul_v(t2, t2)
            i += 1
        b = c
        for _ in range(m - i - 1):
            b = ctx.mul_v(b, b)
        m = i
        c = ctx.mul_v(b, b)
        t = ctx.mul_v(t, c)
        root = ctx.mul_v(root, b)
    return min(root, ctx.mul_v(root, ctx.p - 1))  # -root = (p-1) root


def order(ctx, a: int) -> int:
    """Multiplicative order of a; raises ValueError for zero, which has none."""
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    e = ctx.q - 1
    for ell in sympy.primefactors(e):
        while e % ell == 0 and ctx.pow_v(a, e // ell) == 1:
            e //= ell
    return e


def in_subfield(ctx, a: int, sub_q: int) -> bool:
    """Membership in the subfield with sub_q elements: a^sub_q = a."""
    e = 1
    while ctx.p**e < sub_q:
        e += 1
    assert ctx.p**e == sub_q and ctx.d % e == 0, "not a subfield"
    return ctx.pow_v(a, sub_q) == a
