"""Construction families: hypothesis validation, coset selection, worked
small-field codes, closed-form locators, and the parameter enumeration."""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from math import gcd

import numpy as np
import pytest
import sympy

import field_oracles as oracles
from grs_oracles import (
    closed_form_locator,
    greedy_coset_reps,
    locator,
    locator_logs_at,
    root_subspace,
)
from mdssd import constructions
from mdssd.constructions import (
    _HYPOTHESES,
    MATERIALIZE_BUDGET,
    THEOREMS,
    _array_verdicts,
    _candidates,
    _evaluation,
    _key_locator_logs,
    build,
    construct_from_params,
    iter_valid_params,
    select_coset_reps,
    valid_param_arrays,
    validate,
)
from mdssd.errors import (
    HypothesisViolated,
    InvalidCosetCount,
    NotEnoughCosets,
    ParityInfeasible,
    TooLargeToMaterialize,
    TooLargeToValidate,
    UnsupportedTheorem,
)
from mdssd.field import make_field
from mdssd.grs import all_locators, artifact_to_dict, locator_logs, to_json
from mdssd.verify import verify_artifact


# --- validation ---

def test_validate_returns_normalized_params():
    pr = validate("T1i", 3, 2, m=4, t=1)
    assert (pr.n, pr.q, pr.r) == (4, 9, 3)
    assert pr.label() == "T1i(m=4,t=1)"


def test_validate_rejects_non_square_q():
    with pytest.raises(HypothesisViolated, match="r\\^2"):
        validate("T1i", 3, 3, m=2, t=1)


def test_validate_rejects_even_characteristic_and_nonprime():
    with pytest.raises(HypothesisViolated):
        validate("T1i", 2, 2, m=2, t=1)
    with pytest.raises(HypothesisViolated):
        validate("T1i", 15, 2, m=2, t=1)


def test_unsupported_theorem():
    with pytest.raises(UnsupportedTheorem, match="unknown construction 'T9'"):
        validate("T9", 3, 2, m=2, t=1)


def test_t1ii_exclusion_clause_text():
    with pytest.raises(HypothesisViolated) as err:
        validate("T1ii", 5, 2, m=2, t=2)
    assert err.value.clause == "t is even, m is even and r ≡ 1 (mod 4)"


def test_t1ii_exclusion_only_when_r_is_1_mod_4():
    # r = 7 = 3 (mod 4): the same (t, m) parity is allowed
    assert validate("T1ii", 7, 2, m=2, t=2).n == 6


def test_t2_bounds():
    # q = 49: m = 3, bound (r+1)/(2 gcd(8,3)) = 4, t odd in [2, 4] -> t = 3
    assert validate("T2", 7, 2, m=3, t=3).n == 10
    with pytest.raises(HypothesisViolated):
        validate("T2", 7, 2, m=3, t=1)  # t >= 2 required
    with pytest.raises(HypothesisViolated):
        validate("T2", 7, 2, m=3, t=5)  # above the bound
    with pytest.raises(HypothesisViolated):
        validate("T2", 7, 2, m=2, t=3)  # tm even


def test_t3_hypotheses():
    assert validate("T3i", 7, 2, m=4, t=2, s=4).n == 8
    with pytest.raises(HypothesisViolated):
        validate("T3i", 7, 2, m=4, t=2, s=3)  # s odd
    with pytest.raises(HypothesisViolated):
        validate("T3i", 7, 2, m=6, t=2, s=4)  # s does not divide m
    with pytest.raises(HypothesisViolated):
        validate("T3i", 5, 2, m=4, t=2, s=4)  # s does not divide r+1


def test_t4_range():
    assert validate("T4", 3, 2, e=1).n == 10
    with pytest.raises(HypothesisViolated):
        validate("T4", 3, 2, e=2)


def test_t5_divisibility():
    assert validate("T5", 3, 2, k_sub=1, t=1, e=1).n == 6
    with pytest.raises(HypothesisViolated):
        validate("T5", 3, 2, k_sub=1, t=2, e=0)  # 2t does not divide p^k - 1
    with pytest.raises(HypothesisViolated):
        validate("T5", 3, 2, k_sub=1, t=1, e=2)  # e > m - 1


def test_t5_large_parameters_validate_without_field():
    # q = 5^27 is far beyond any table budget; validation is integer-only
    pr = validate("T5", 5, 27, k_sub=3, t=31, e=7)
    assert pr.n == 2 * 31 * 5**21
    with pytest.raises(TooLargeToMaterialize):
        build("T5", 5, 27, k_sub=3, t=31, e=7)


# --- coset-representative selection ---

def test_select_coset_reps_distinct_cosets():
    ctx = make_field(7, 2)
    stride, m = 6, 4
    I, A = select_coset_reps(ctx, stride, m, 2)
    assert len(I) == 2 and A == sum(I)
    q1 = ctx.q - 1
    keys = {stride * i * m % q1 for i in I}
    assert len(keys) == 2


def test_select_coset_reps_parity_modes():
    ctx = make_field(11, 2)
    stride, m = 10, 4
    I, A = select_coset_reps(ctx, stride, m, 3, "all_even")
    assert all(i % 2 == 0 for i in I)
    I, A = select_coset_reps(ctx, stride, m, 2, "A_even")
    assert A % 2 == 0
    I, A = select_coset_reps(ctx, stride, m, 2, "A_odd")
    assert A % 2 == 1
    with pytest.raises(ValueError):
        select_coset_reps(ctx, stride, m, 2, "bogus")


def _outcome(select, *args):
    """What a coset selection gives: (I, A), or its refusal as (error class,
    message)."""
    try:
        return select(*args)
    except (NotEnoughCosets, ParityInfeasible) as exc:
        return type(exc), str(exc)


def _grid_calls():
    """(ctx, stride, m, t, parity) for every stride, m | q-1, t <= 11 and
    parity mode over four fields."""
    for p, d in ((3, 2), (5, 2), (7, 2), (3, 3)):
        ctx = make_field(p, d)
        q1 = ctx.q - 1
        for stride in range(1, q1):
            for m in sympy.divisors(q1):
                for t in range(1, 12):
                    for parity in ("any", "all_even", "A_even", "A_odd"):
                        yield ctx, stride, m, t, parity


def _accepted_coset_calls() -> list[tuple]:
    """The same for every accepted T1i, T1ii, T2, T3i and T3ii tuple at 83^2
    and 151^2, with the stride and parity mode that `_coset_union` passes,
    read by stopping it at its call of `select_coset_reps`."""
    class Called(Exception):
        pass

    def capture(*args):
        raise Called(args)

    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "select_coset_reps", capture)
        for p in (83, 151):
            ctx = make_field(p, 2)
            for pr in iter_valid_params(p, 2, p * p + 1):
                if pr.theorem not in ("T4", "T5"):
                    with pytest.raises(Called) as call:
                        _evaluation(ctx, pr)
                    calls.append(call.value.args[0])
    assert len(calls) == 14596
    return calls


def test_select_coset_reps_returns_an_arithmetic_progression():
    """The closed form gives what the greedy scan gives, (I, A) or the same
    refusal, on the grid of `_grid_calls` and on every accepted coset tuple
    at 83^2 and 151^2: I = 0, s, ..., (t-2)s and a last index x, the
    progression that `_coset_union` reads.  Every last index of A_even /
    A_odd (t-1, t and t-1+o, past one period of the keys) and every
    refusal occurs."""
    seen = Counter()
    for args in chain(_grid_calls(), _accepted_coset_calls()):
        got = _outcome(select_coset_reps, *args)
        assert got == _outcome(greedy_coset_reps, *args), args
        if isinstance(got[0], type):
            seen[got[0].__name__, got[1].split(": ")[-1][:4]] += 1
            continue
        (ctx, stride, m, t, parity), (I, A) = args, got
        o = (ctx.q - 1) // gcd(ctx.q - 1, stride * m)  # the period of the keys
        s = 2 if parity == "all_even" else 1
        assert I[:-1] == tuple(range(0, s * (t - 1), s)) and A == sum(I)
        if parity.startswith("A_"):  # t-1+o is t when o = 1; count it as t
            seen[{t - 1 + o: "t-1+o", t: "t", t - 1: "t-1"}[I[-1]]] += 1
    assert set(seen) == {"t-1", "t", "t-1+o", ("NotEnoughCosets", "need"),
                         ("ParityInfeasible", "only"), ("ParityInfeasible", "no f")}, seen


@pytest.mark.parametrize("parity", ["any", "all_even", "A_even", "A_odd"])
@pytest.mark.parametrize("t", [-1, 0])
def test_select_coset_reps_refuses_t_below_1(t, parity):
    with pytest.raises(InvalidCosetCount) as raised:
        select_coset_reps(make_field(3, 2), 1, 2, t, parity)
    assert str(raised.value) == f"t must be at least 1, got t = {t}"


def test_select_coset_reps_parity_infeasible():
    ctx = make_field(3, 2)
    # stride 2, m 2: the even-index scan revisits the same coset immediately
    with pytest.raises(ParityInfeasible):
        select_coset_reps(ctx, 2, 2, 2, "all_even")
    # two cosets in all, so a third index never comes, whatever its parity
    for parity, want in (("A_even", 0), ("A_odd", 1)):
        with pytest.raises(ParityInfeasible, match=rf"no final index gives A ≡ {want} \(mod 2\)"):
            select_coset_reps(ctx, 2, 2, 3, parity)


def test_select_coset_reps_exhaustion():
    ctx = make_field(3, 2)
    with pytest.raises(NotEnoughCosets):
        select_coset_reps(ctx, 2, 4, 3)  # only gcd-limited cosets exist


# --- worked small-field constructions ---

def test_t1i_f9_reference_code():
    art, trace = build("T1i", 3, 2, m=4, t=1)
    assert art.a.points == (1, 6, 2, 3)  # the 4th roots of unity
    assert trace.lam == 1
    assert verify_artifact(art, mds=False).self_dual


def test_t1ii_f9():
    art, trace = build("T1ii", 3, 2, m=2, t=2)
    assert art.n == 6 and art.a.extended and art.a.points[0] == 0
    assert verify_artifact(art, mds=False).self_dual


def test_t1ii_f49_even_m_even_t():
    # m and t both even with r = 3 (mod 4): the A-parity constraint vanishes
    art, _ = build("T1ii", 7, 2, m=4, t=2)
    assert art.n == 10
    assert verify_artifact(art, mds=False).self_dual


def test_t2_f49():
    art, trace = build("T2", 7, 2, m=3, t=3)
    assert art.n == 10 and art.a.extended
    assert all(z % 2 == 0 for z in trace.I)
    assert verify_artifact(art, mds=False).self_dual


def test_t3_f49():
    for theorem, n in (("T3i", 8), ("T3ii", 10)):
        art, trace = build(theorem, 7, 2, m=4, t=2, s=4)
        assert art.n == n
        assert verify_artifact(art, mds=False).self_dual
        assert trace.xi_s is not None


def test_t4_f9():
    art, trace = build("T4", 3, 2, e=1)
    assert art.n == 10 and art.a.extended
    assert len(set(art.a.points)) == 9  # the whole field
    assert verify_artifact(art, mds=False).self_dual
    ctx = art.ctx
    # beta = g^{r-1} has norm 1 but lies outside F_r
    assert ctx.pow_v(trace.beta, ctx.p + 1) == 1
    assert not oracles.in_subfield(ctx, trace.beta, ctx.p)


def test_t5_f9():
    art, trace = build("T5", 3, 2, k_sub=1, t=1, e=1)
    assert art.n == 6
    assert verify_artifact(art, mds=False).self_dual
    ctx = art.ctx
    assert oracles.order(ctx, trace.omega) == 2
    # the points are omega^j + u over the subspace V, which meets the
    # subfield only in 0
    V = root_subspace(ctx, trace.params)
    assert art.a.points == tuple(ctx.add_v(ctx.pow_v(trace.omega, j), u) for j in range(2) for u in V)
    assert [u for u in V if oracles.in_subfield(ctx, u, 3)] == [0]


def test_t5_e_zero_reduces_to_roots_of_unity():
    art, trace = build("T5", 7, 2, k_sub=2, t=4, e=0)
    assert art.n == 8 and root_subspace(art.ctx, trace.params) == [0]
    assert verify_artifact(art, mds=False).self_dual


# --- closed-form locators against the brute-force oracle ---

# 3^6 reaches the spans with two basis elements: T4 with e = 2 (n = 82) and
# T5 with k = 2, e = 2 (n = 162, F_9 coefficients)
@pytest.mark.parametrize("p,d,n_cap", [(3, 2, 10), (5, 2, 26), (7, 2, 50), (3, 6, 162)])
def test_closed_form_locator_matches_oracle(p, d, n_cap):
    for pr in iter_valid_params(p, d, n_cap):
        art, trace = construct_from_params(make_field(p, d), pr)
        brute = [locator(art.a, i) for i in range(len(art.a.points))]
        for i in range(len(art.a.points)):
            assert closed_form_locator(pr, trace, i) == brute[i], pr.label()


# --- the engines' closed-form locators against brute force ---

SWEEP_Q = (9, 25, 49, 81, 121, 169, 289)
# full brute force up to this length; beyond it, sampled rows
FULL_LOCATORS_N = 512


def _engine_locators(ctx, pr):
    """The evaluation vector of `pr` and its locators as the family gives
    them, in closed form."""
    ev = _evaluation(ctx, pr)
    return ev.a, ctx.np_tables[0][ev.log_locators].tolist()


def test_engine_locators_match_brute_force_on_the_small_sweep():
    theorems = set()
    for q in SWEEP_Q:
        (p, d), = sympy.factorint(q).items()
        ctx = make_field(p, d)
        for pr in iter_valid_params(p, d, 16):
            a, locs = _engine_locators(ctx, pr)
            assert locs == all_locators(a), (q, pr.label())
            theorems.add(pr.theorem)
    assert theorems == set(THEOREMS)


@pytest.mark.parametrize("p", [83, 151])
def test_engine_locators_match_brute_force_at_every_length(p):
    """The first two tuples of every length up to q + 1: all locators by
    brute force up to n = FULL_LOCATORS_N, and beyond it the zero point,
    the first point, the middle one and the last, by digit-wise
    differences."""
    ctx = make_field(p, 2)
    seen: dict[int, int] = {}
    for pr in iter_valid_params(p, 2, p * p + 1):
        seen[pr.n] = seen.get(pr.n, 0) + 1
        if seen[pr.n] > 2:
            continue
        ev = _evaluation(ctx, pr)
        if pr.n <= FULL_LOCATORS_N:
            assert ctx.np_tables[0][ev.log_locators].tolist() == all_locators(ev.a), pr.label()
        else:
            rows = sorted({0, 1, len(ev.a.points) // 2, len(ev.a.points) - 1})
            assert ev.log_locators[rows].tolist() == locator_logs_at(ev.a, rows), pr.label()
    assert len(seen) == {83: 597, 151: 1228}[p]


@pytest.mark.parametrize("theorem,p,d,params", [
    ("T1i", 151, 2, {"m": 6, "t": 71}),
    ("T2", 151, 2, {"m": 15, "t": 67}),
    ("T4", 3, 10, {"e": 3}),
    ("T1i", 151, 2, {"m": 150, "t": 26}),
])
def test_engine_locators_match_brute_force_on_reference_codes(theorem, p, d, params):
    # n = 426, 1006, 730 and 3900
    pr = validate(theorem, p, d, **params)
    a, locs = _engine_locators(make_field(p, d), pr)
    assert locs == all_locators(a)


@pytest.mark.parametrize("p,d", [(3, 2), (7, 2), (3, 5), (83, 2), (151, 2)])
def test_key_locator_logs_match_brute_force(p, d):
    """The keys g^{step*z} and u_z over them, z in I = 0, s, ..., (M-1)s and
    at most one more index x, against `locator_logs` on the key logs, for
    seeded steps that keep the keys distinct; t = 1 and 2, s = 1, 2 and 3,
    and x on the progression or past it included."""
    ctx = make_field(p, d)
    q1 = ctx.q - 1
    rng = random.Random(q1)
    cases = 0
    for M in (1, 2, 3, 5, 17):
        for s in (1, 2, 3):
            for x in (None, s * (M - 1) + 1, s * (M - 1) + 2, s * (M - 1) + 8):
                I = (*range(0, s * M, s), *([] if x is None else [x]))
                for step in rng.sample(range(1, q1), min(q1 - 1, 6)):
                    keys = np.array(I, dtype=np.int64) * step % q1
                    if len(set(keys.tolist())) < len(I):
                        continue
                    got_keys, got_u = _key_locator_logs(ctx, step, s, M, x)
                    assert got_keys.tolist() == keys.tolist(), (step, I)
                    assert got_u.tolist() == locator_logs(ctx, keys).tolist(), (step, I)
                    cases += 1
    assert cases >= {8: 20}.get(q1, 200)


def test_u_product_power_identity():
    # u_z^{r-1} = (-1)^{t-1} g^{-(A + (t-2) z)(r-1) m} for the first family
    for m, t in ((2, 2), (4, 2), (8, 3), (2, 4)):
        try:
            art, trace = build("T1i", 11, 2, m=m, t=t)
        except HypothesisViolated:
            continue
        ctx = art.ctx
        r, q1 = 11, ctx.q - 1
        sign = 1 if (t - 1) % 2 == 0 else ctx.sub_v(0, 1)
        for z, uz in trace.u.items():
            expect = ctx.mul_v(
                sign, int(ctx.np_tables[0][(-(trace.A + (t - 2) * z) * (r - 1) * m) % q1])
            )
            assert ctx.pow_v(uz, r - 1) == expect


# --- parameter enumeration ---

def test_iter_valid_params_is_deterministic_and_in_range():
    first = list(iter_valid_params(5, 2, 26))
    second = list(iter_valid_params(5, 2, 26))
    assert first == second
    assert all(pr.n <= 26 for pr in first)
    assert len(set(first)) == len(first)


def test_iter_valid_params_all_constructible():
    ctx = make_field(13, 2)
    for pr in iter_valid_params(13, 2, 40):
        art, _ = construct_from_params(ctx, pr)
        assert art.n == pr.n
        assert verify_artifact(art, mds=False).self_dual, pr.label()


def _given(pr):
    return {k: v for k, v in (("m", pr.m), ("t", pr.t), ("s", pr.s),
                              ("e", pr.e), ("k_sub", pr.k_sub)) if v is not None}


def test_every_enumerated_tuple_validates():
    for p, d in ((3, 2), (5, 2), (3, 4)):
        for pr in iter_valid_params(p, d, 64):
            assert validate(pr.theorem, p, d, **_given(pr)) == pr


def _odd_prime_powers(limit):
    factored = (sympy.factorint(q) for q in range(3, limit + 1, 2))
    return [next(iter(f.items())) for f in factored if len(f) == 1]


def test_array_verdicts_agree_with_the_scalar_walk():
    """Every candidate tuple of every theorem, for every odd q <= 3000, for
    83^2 and 151^2, and for 3^10, 3^12, 5^8 and 7^6, whose degrees have many
    divisors for T5, gets the same verdict and n from the int64 arrays as
    from `validate`, with every numpy error raised.  For odd d the clause
    q = r^2 rejects the whole call of every theorem but T5, and the arrays
    yield no row."""
    fields = _odd_prime_powers(3000) + [(83, 2), (151, 2), (3, 10), (3, 12), (5, 8), (7, 6)]
    checked = 0
    with np.errstate(all="raise"):
        for p, d in fields:
            q = p**d
            accepted = valid_param_arrays(p, d, q + 1)
            for th in THEOREMS:
                rejected_call = d % 2 and th != "T5"
                x = _candidates(th, p, d, q + 1)
                ok, n = _array_verdicts(_HYPOTHESES[th], x)
                keys = _HYPOTHESES[th].keys
                rows = zip(*(getattr(x, key).tolist() for key in keys))
                for row, row_ok, row_n in zip(rows, ok.tolist(), n.tolist()):
                    try:
                        want = validate(th, p, d, **dict(zip(keys, row))).n
                    except HypothesisViolated:
                        want = None
                    if rejected_call:
                        assert want is None
                    else:
                        assert (row_n if row_ok else None) == want, (q, th, row)
                    checked += 1
                if rejected_call:
                    assert accepted[th]["n"].size == 0
    assert checked > 90_000


def test_array_path_refuses_q_beyond_int64():
    # q = 3^40 has 64 bits; 3^38 has 61, within the int64 bound
    with pytest.raises(TooLargeToValidate):
        valid_param_arrays(3, 40, 10)
    enumerated = list(iter_valid_params(3, 38, 12))
    assert {pr.theorem for pr in enumerated} == set(THEOREMS)
    for pr in enumerated:
        assert validate(pr.theorem, 3, 38, **_given(pr)) == pr and pr.n <= 12


def test_build_is_deterministic():
    doc1 = to_json(artifact_to_dict(*map_art(build("T3ii", 5, 2, m=4, t=2, s=2))))
    doc2 = to_json(artifact_to_dict(*map_art(build("T3ii", 5, 2, m=4, t=2, s=2))))
    assert doc1 == doc2


def map_art(pair):
    art, trace = pair
    return art, trace.to_dict()


def test_budget_is_enforced_before_field_construction():
    assert MATERIALIZE_BUDGET == 1 << 16
    with pytest.raises(TooLargeToMaterialize):
        build("T5", 5, 27, k_sub=3, t=31, e=7)
