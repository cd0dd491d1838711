"""Finite field layer: determinism, arithmetic laws, roots of unity, subfields
and the canonical square root."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
import sympy

import field_oracles as oracles
from mdssd.errors import (
    DegreeZero,
    EvenCharacteristic,
    FieldTooLarge,
    NonPrime,
    NotASubfield,
    NotDividing,
    ZeroToNegativePower,
)
from mdssd.field import (
    FieldCtx,
    _find_modulus,
    _is_irreducible,
    _pmod,
    _pmul,
    make_field,
    make_field as mk,
)
from mdssd.grs import _square_root_weights


def test_f9_deterministic_modulus_and_generator():
    ctx = make_field(3, 2)
    assert ctx.q == 9
    assert ctx.modulus == (1, 0, 1)  # x^2 + 1
    assert ctx.modulus_str() == "x^2+1"
    assert ctx.g_val == 4  # 1 + x
    assert ctx.format_v(4) == "1+x"


@pytest.mark.parametrize("p,d,modulus,value,text", [
    (7, 3, "x^3+2", 342, "6+6x+6x^2"),
    (3, 10, "x^10+2x^2+1", 34, "1+2x+x^3"),  # 34 is g
])
def test_polynomial_text(p, d, modulus, value, text):
    ctx = make_field(p, d)
    assert ctx.modulus_str() == modulus
    assert ctx.format_v(value) == text


def test_f9_known_products():
    ctx = make_field(3, 2)
    x = 3  # the element x
    assert ctx.mul_v(x, x) == 2  # x^2 = -1 = 2
    assert ctx.pow_v(ctx.g_val, 4) == 2  # g^4 = 2


def test_prime_field_has_trivial_modulus():
    ctx = make_field(7, 1)
    assert ctx.d == 1
    assert ctx.mul_v(3, 5) == 1
    assert ctx.pow_v(3, -1) == 5


def test_construction_guards():
    with pytest.raises(EvenCharacteristic):
        make_field(2, 3)
    with pytest.raises(NonPrime):
        make_field(9, 1)
    with pytest.raises(FieldTooLarge):
        make_field(3, 20)
    with pytest.raises(DegreeZero):
        make_field(3, 0)


def test_make_field_is_cached():
    assert mk(5, 2) is mk(5, 2)


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_field_axioms_exhaustive(p, d):
    ctx = make_field(p, d)
    q = ctx.q
    elems = range(q)
    for a in elems:
        assert ctx.add_v(a, 0) == a
        assert ctx.mul_v(a, 1) == a
        assert ctx.add_v(a, ctx.sub_v(0, a)) == 0
        if a != 0:
            assert ctx.mul_v(a, ctx.pow_v(a, -1)) == 1
    # distributivity on a deterministic sample
    sample = [1, 2, q - 1, ctx.g_val]
    for a in sample:
        for b in sample:
            for c in sample:
                lhs = ctx.mul_v(a, ctx.add_v(b, c))
                rhs = ctx.add_v(ctx.mul_v(a, b), ctx.mul_v(a, c))
                assert lhs == rhs


def test_generator_is_primitive():
    for p, d in [(3, 2), (5, 2), (7, 2), (3, 4)]:
        ctx = make_field(p, d)
        assert oracles.order(ctx, ctx.g_val) == ctx.q - 1


def test_division_by_zero_and_zero_inverse():
    with pytest.raises(ZeroToNegativePower):
        make_field(5, 1).pow_v(0, -1)


def test_quadratic_character_multiplicative():
    ctx = make_field(5, 2)
    q1 = ctx.q - 1
    chi = [oracles.chi(ctx, a) for a in range(ctx.q)]
    for a in range(1, ctx.q):
        for b in (1, 2, ctx.g_val, ctx.q - 1):
            assert chi[ctx.mul_v(a, b)] == chi[a] * chi[b]
    # half the nonzero elements are squares
    assert chi.count(1) == q1 // 2


SQRT_FIELDS = [(3, 2), (7, 1), (5, 2), (3, 3)]


def _brute_force_roots(ctx):
    """Every square of F_q mapped to its value-smaller root, by squaring all
    elements."""
    roots = {}
    for r in range(ctx.q):
        sq = ctx.mul_v(r, r)
        roots[sq] = min(roots.get(sq, r), r)
    return roots


def test_chi_of_f9_two_is_square():
    """The Tonelli-Shanks oracle of the tests gives the value-smaller root of
    every square and refuses every non-square; alone it checks roots where
    brute force is too slow."""
    ctx = make_field(3, 2)
    assert oracles.chi(ctx, 2) == 1
    assert oracles.sqrt(ctx, 2) == 3  # x, the value-smaller of the two roots
    for p, d in SQRT_FIELDS:
        ctx = make_field(p, d)
        roots = _brute_force_roots(ctx)
        for a in range(ctx.q):
            assert oracles.chi(ctx, a) == (0 if a == 0 else 1 if a in roots else -1)
            if a not in roots:
                with pytest.raises(oracles.NotASquare):
                    oracles.sqrt(ctx, a)
                continue
            assert oracles.sqrt(ctx, a) == roots[a]


def test_sqrt_roundtrip_all_squares():
    """The canonical root is the log form of `grs._square_root_weights`: on
    every even log l it gives the value-smaller brute-force root of 1/g^l."""
    for p, d in SQRT_FIELDS:
        ctx = make_field(p, d)
        roots = _brute_force_roots(ctx)
        logs = list(range(0, ctx.q - 1, 2))
        weights = _square_root_weights(ctx, np.array(logs, dtype=np.int64))
        assert list(weights) == [roots[ctx.pow_v(ctx.g_val, -log)] for log in logs]


def test_element_orders_divide_group_order():
    ctx = make_field(3, 3)
    for a in range(1, ctx.q):
        assert (ctx.q - 1) % oracles.order(ctx, a) == 0
    with pytest.raises(ValueError):
        oracles.order(ctx, 0)


def test_f9_order_of_two():
    ctx = make_field(3, 2)
    assert oracles.order(ctx, 2) == 2  # 2 = -1


def test_root_of_unity():
    ctx = make_field(3, 2)
    assert ctx.root_of_unity_v(4) == 6  # 2x
    for m in (1, 2, 4, 8):
        w = ctx.root_of_unity_v(m)
        assert oracles.order(ctx, w) == m
    with pytest.raises(NotDividing):
        ctx.root_of_unity_v(3)


def test_subfield_generator_and_membership():
    ctx = make_field(3, 2)
    gen = ctx.subfield_generator_v(3)
    assert gen == 2  # generates F_3^* = {1, 2}
    assert set(ctx.subfield_elements_v(3)) == {0, 1, 2}
    assert oracles.in_subfield(ctx, 2, 3) and not oracles.in_subfield(ctx, ctx.g_val, 3)
    with pytest.raises(NotASubfield):
        ctx.subfield_generator_v(5)


def test_frobenius_fixes_exactly_the_subfield():
    ctx = make_field(3, 4)
    sub = set(ctx.subfield_elements_v(9))
    fixed = {a for a in range(ctx.q) if ctx.pow_v(a, 9) == a or a == 0}
    assert fixed == sub


def test_large_field_tables():
    ctx = make_field(3, 10)
    assert ctx.q == 59049
    assert oracles.order(ctx, ctx.g_val) == ctx.q - 1
    a = ctx.g_val
    assert ctx.mul_v(a, ctx.pow_v(a, -1)) == 1


# (p, d) -> (modulus, g_val) of the deterministic field
REFERENCE_FIELDS = {
    (3, 1): ((0, 1), 2),
    (5, 1): ((0, 1), 2),
    (1009, 1): ((0, 1), 11),
    (3, 2): ((1, 0, 1), 4),
    (13, 2): ((2, 0, 1), 15),
    (7, 3): ((2, 0, 0, 1), 22),
    (5, 4): ((2, 0, 0, 0, 1), 6),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (151, 2): ((1, 0, 1), 160),
    (3, 10): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34),
}


def _raw_mul(ctx, a, b):
    """Oracle: a * b by the polynomial product of the digits mod the modulus."""
    p = ctx.p
    prod = _pmul(_coeffs(a, p, ctx.d), _coeffs(b, p, ctx.d), p)
    return sum(c * p**i for i, c in enumerate(_pmod(prod, list(ctx.modulus), p)))


def _coeffs(value, p, d):
    return [value // p**i % p for i in range(d)]


def _scalar_tables(ctx):
    """Oracle: exp by the scalar recurrence g^{i+1} = g^i * g, log by inversion."""
    exp = [0] * (ctx.q - 1)
    acc = 1
    for i in range(ctx.q - 1):
        exp[i] = acc
        acc = _raw_mul(ctx, acc, ctx.g_val)
    log = [0] * ctx.q
    for i, v in enumerate(exp):
        log[v] = i
    return exp, log


@pytest.mark.parametrize("p,d", sorted(REFERENCE_FIELDS))
def test_tables_match_scalar_recurrence(p, d):
    ctx = make_field(p, d)
    assert (ctx.modulus, ctx.g_val) == REFERENCE_FIELDS[(p, d)]
    exp, log = _scalar_tables(ctx)
    np_exp, np_log = ctx.np_tables
    assert np_exp.dtype == np_log.dtype == "int64"
    assert np_exp.tolist() == exp and np_log.tolist() == log


def _scalar_pow(ctx, a, e):
    """Oracle: a^e by square-and-multiply on the polynomial product."""
    result = 1
    while e:
        if e & 1:
            result = _raw_mul(ctx, result, a)
        a = _raw_mul(ctx, a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (1009, 1), (3, 2), (5, 2), (3, 4), (7, 3),
                                 (83, 2), (151, 2), (3, 10), (3, 12)])
def test_generator_search_matches_full_scan(p, d):
    # the search starts at p when d >= 2, past the constants 2..p-1, and
    # tests its candidates in batches
    ctx = make_field(p, d)
    q1 = ctx.q - 1
    factors = sympy.primefactors(q1)
    first = next(c for c in range(2, ctx.q)
                 if all(_scalar_pow(ctx, c, q1 // ell) != 1 for ell in factors))
    assert ctx.g_val == first


ZECH_FIELDS = [(3, 1), (5, 1), (1009, 1), (3, 2), (3, 4), (7, 3), (151, 2), (3, 10)]


def _digitwise(ctx, a, b, sign):
    """Oracle: a + sign * b on the base-p digits of the encodings."""
    p = ctx.p
    return sum(((a // p**i + sign * (b // p**i)) % p) * p**i for i in range(ctx.d))


@pytest.mark.parametrize("p,d", ZECH_FIELDS)
def test_zech_table_matches_digitwise_addition(p, d):
    ctx = make_field(p, d)
    zech = ctx.np_zech
    half = (ctx.q - 1) // 2
    assert zech.shape == (ctx.q - 1,)
    exp, log = (table.tolist() for table in ctx.np_tables)
    expected = [log[_digitwise(ctx, 1, exp[i], 1)] for i in range(ctx.q - 1)]
    expected[half] = -1  # 1 + g^((q-1)/2) = 1 - 1 = 0 has no log
    assert _digitwise(ctx, 1, exp[half], 1) == 0
    assert zech.tolist() == expected
    with pytest.raises(ValueError):
        zech[0] = 0


@pytest.mark.parametrize("p,d", ZECH_FIELDS)
def test_scalar_addition_matches_digitwise_oracle(p, d):
    ctx = make_field(p, d)
    q = ctx.q
    rng = random.Random(p * 100 + d)
    if q <= 81:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
        pairs += [(a, a) for a in rng.sample(range(q), 100)]
        pairs += [(0, b) for b in rng.sample(range(q), 100)]
        pairs += [(a, 0) for a in rng.sample(range(q), 100)]
        pairs += [(0, 0), (q - 1, q - 1), (1, ctx.sub_v(0, 1))]
    for a, b in pairs:
        assert ctx.add_v(a, b) == _digitwise(ctx, a, b, 1)
        assert ctx.sub_v(a, b) == _digitwise(ctx, a, b, -1)
    assert all(ctx.sub_v(a, a) == 0 for a, _ in pairs)
    assert all(ctx.sub_v(0, b) == _digitwise(ctx, 0, b, -1) for _, b in pairs)


def _divides(h, f, p):
    """Whether monic h divides f over F_p, by schoolbook long division."""
    rem = f[:]
    for top in range(len(f) - 1, len(h) - 2, -1):
        c = rem[top]
        for i, hi in enumerate(h):
            rem[top - len(h) + 1 + i] = (rem[top - len(h) + 1 + i] - c * hi) % p
    return not any(rem)


def _trial_irreducible(f, p):
    """Oracle: monic f of degree d is irreducible iff no monic polynomial of
    degree 1 <= e <= d/2 divides it."""
    d = len(f) - 1
    return not any(_divides(_coeffs(low, p, e) + [1], f, p)
                   for e in range(1, d // 2 + 1) for low in range(p**e))


def _first_irreducible(p, d):
    return next(tuple(f) for f in (_coeffs(low, p, d) + [1] for low in range(p**d))
                if _trial_irreducible(f, p))


# degree 2 to 12; for d <= 3 Ben-Or's one step, gcd(x^p - x, f) = 1, is the root test
MODULUS_FIELDS = [(3, 2), (5, 2), (151, 2), (1021, 2), (3, 3), (7, 3), (3, 4), (5, 4), (3, 5),
                  (3, 6), (5, 6), (3, 7), (3, 8), (5, 8), (3, 9), (3, 10), (3, 11), (3, 12)]


@pytest.mark.parametrize("p,d", MODULUS_FIELDS)
def test_modulus_is_first_candidate_passing_trial_division(p, d):
    assert _find_modulus(p, d) == _first_irreducible(p, d)


@pytest.mark.parametrize("p,d", [(3, 2), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (7, 4)])
def test_irreducibility_test_matches_trial_division(p, d):
    for low in range(p**d):
        f = _coeffs(low, p, d) + [1]
        assert _is_irreducible(f, p) == _trial_irreducible(f, p), f


@pytest.mark.parametrize("p,d", [(3, 1), (1009, 1), (3, 2), (7, 3), (151, 2), (3, 10)])
def test_lists_are_built_on_first_use_from_the_arrays(p, d):
    # the scalar methods once read exp/log lists built on first use from the
    # arrays; they now read read-only views of the arrays, and no list is built
    ctx = FieldCtx(p, d)
    for view, array in zip((ctx._exp, ctx._log, ctx._zech), (*ctx.np_tables, ctx.np_zech)):
        assert view.readonly and view.obj is array
        assert view.tolist() == array.tolist()
        assert type(view[-1]) is int
    rng = random.Random(p * 100 + d)
    for _ in range(200):
        a, b = rng.randrange(ctx.q), rng.randrange(1, ctx.q)
        assert ctx.sub_v(ctx.add_v(a, b), b) == a
        assert ctx.mul_v(ctx.mul_v(a, b), ctx.pow_v(b, -1)) == a
    assert not [key for key, value in vars(ctx).items() if isinstance(value, list)]


# tracemalloc peak in bytes of FieldCtx(p, d) plus exp and log Python lists,
# measured in a fresh process on the code before the tables were built on
# digit arrays; the arrays and the lists then made up the whole peak.
# FieldCtx alone must stay under it.
PEAK_BYTES = {(3, 10): 5_890_808, (151, 2): 2_265_720, (3, 12): 53_130_008}


@pytest.mark.parametrize("p,d", sorted(PEAK_BYTES))
def test_table_set_up_peak_memory(p, d):
    FieldCtx(3, 2)  # one-time allocations of numpy are not the field's
    tracemalloc.start()
    try:
        FieldCtx(p, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES[(p, d)]
