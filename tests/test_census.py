"""Length census: rule predicates, attribution, counts, spot checks."""

from __future__ import annotations

import pytest

import field_oracles as oracles
from mdssd.census import (
    CENSUS_BUDGET,
    CensusCtx,
    census_report,
    new_lengths,
    prior_lengths,
)
from mdssd.errors import BudgetExceeded, EvenQ


def test_census_rejects_bad_q():
    with pytest.raises(EvenQ):
        prior_lengths(16)
    with pytest.raises(EvenQ):
        prior_lengths(15)  # not a prime power
    with pytest.raises(BudgetExceeded):
        prior_lengths(3**11)  # odd prime power beyond the budget


def test_integer_eta_matches_field_character():
    from mdssd.field import make_field

    for q, p, d in ((9, 3, 2), (25, 5, 2), (27, 3, 3)):
        cx = CensusCtx(q, p, d)
        ctx = make_field(p, d)
        for c in range(0, p):
            assert cx.eta(c) == oracles.chi(ctx, c % p)


def test_f9_lengths():
    # F_9 is tiny: both tables boil down to n in {2, 4, 6, 10}
    assert prior_lengths(9) == (2, 4, 6, 10)
    assert new_lengths(9) == (2, 4, 6, 10)


def test_lengths_are_even_sorted_in_range():
    for q in (25, 49, 81, 169):
        for ns in (prior_lengths(q), new_lengths(q)):
            assert list(ns) == sorted(ns)
            assert all(n % 2 == 0 and 2 <= n <= q + 1 for n in ns)


def test_q_plus_one_always_prior():
    for q in (9, 25, 49, 121):
        assert q + 1 in prior_lengths(q)


def test_no_n_2_mod_4_when_q_3_mod_4():
    for q in (27, 343):
        for n in set(prior_lengths(q)) | set(new_lengths(q)):
            assert n % 4 != 2


def test_new_lengths_match_enumeration():
    from mdssd.constructions import iter_valid_params

    q = 49
    by_enum = {pr.n for pr in iter_valid_params(7, 2, q + 1) if pr.n % 2 == 0}
    assert set(new_lengths(q)) == by_enum


def test_report_attribution_covers_lengths():
    rep = census_report(49)
    prior_union = set()
    new_union = set()
    for rid, ns in rep.per_rule.items():
        (prior_union if rid.startswith("prior:") else new_union).update(ns)
    assert prior_union == set(rep.lengths_prior)
    assert new_union == set(rep.lengths_new)
    assert set(rep.lengths_union) == prior_union | new_union
    assert rep.counts == {
        "prior": len(rep.lengths_prior),
        "new": len(rep.lengths_new),
        "union": len(rep.lengths_union),
    }


def test_report_spot_checks_construct_witnesses():
    rep = census_report(25, spot_check_bound=16)
    expected = {n for n in rep.lengths_new if n <= 16}
    assert set(rep.spot_checks) == expected
    assert all(v.startswith("ok:") for v in rep.spot_checks.values())


def test_report_to_dict_is_json_ready():
    import json

    rep = census_report(9)
    doc = rep.to_dict()
    json.dumps(doc)  # raises if not serializable
    assert doc["prior_count"] == 4 and doc["q"] == 9


def test_census_83_squared_reference_counts():
    # literal transcription of the prior-constructions table; the union with
    # the new families reproduces the headline count of 702 for q = 83^2
    prior = set(prior_lengths(83**2))
    new = set(new_lengths(83**2))
    assert len(prior) == 506
    assert len(prior | new) == 702


def test_spot_check_lets_programming_errors_through(monkeypatch):
    import mdssd.census as census

    def broken(ctx, params):
        raise IndexError("bug in a constructor")

    monkeypatch.setattr(census, "_points_and_weights", broken)
    with pytest.raises(IndexError, match="bug in a constructor"):
        census_report(25, spot_check_bound=16)


def test_spot_check_skips_a_tuple_that_cannot_be_constructed(monkeypatch):
    import mdssd.census as census
    from mdssd.errors import ParityInfeasible, SpotCheckFailed

    real = census._points_and_weights
    refused = {"T1i(m=1,t=2)"}

    def refusing(ctx, params):
        if params.label() in refused:
            raise ParityInfeasible(f"refused {params.label()}")
        return real(ctx, params)

    monkeypatch.setattr(census, "_points_and_weights", refusing)
    # n = 2 tries T1i(m=1,t=2) first; the next tuple witnesses the length
    assert census_report(25, spot_check_bound=2).spot_checks == {2: "ok:T1i(m=2,t=1)"}
    refused |= {"T1i(m=2,t=1)", "T5(t=1,e=0,k=1)", "T5(t=1,e=0,k=2)"}
    with pytest.raises(SpotCheckFailed) as err:
        census_report(25, spot_check_bound=2)
    # every tuple raised: the failure named is the first tuple's error
    assert str(err.value) == (
        "claimed length n = 2 could not be realized: T1i(m=1,t=2): "
        "no representative set with the required parity: refused T1i(m=1,t=2)")


def _break_every_code(monkeypatch, change):
    """Make every spot check judge (a, v) after `change(ctx, points, weights)`."""
    import mdssd.census as census

    real = census._points_and_weights

    def broken(ctx, params):
        a, v = real(ctx, params)
        points, weights = change(ctx, list(a.points), list(v))
        return type(a)(ctx, tuple(points), a.extended), tuple(weights)

    monkeypatch.setattr(census, "_points_and_weights", broken)


def test_failed_spot_check_names_the_first_nonzero_power_sum(monkeypatch):
    from mdssd.errors import SpotCheckFailed

    # one weight times g: P_0 changes by (g^2 - 1) v_0^2
    _break_every_code(monkeypatch, lambda ctx, a, v: (a, [ctx.mul_v(v[0], ctx.g_val), *v[1:]]))
    with pytest.raises(SpotCheckFailed) as err:
        census_report(25, spot_check_bound=16)
    # the failure named is that of the first tuple tried for the length
    assert str(err.value) == ("claimed length n = 2 could not be realized: "
                              "T1i(m=1,t=2): constructed code is not self-dual (P_0 != 0)")


def test_failed_spot_check_names_p_1_for_a_moved_point(monkeypatch):
    from mdssd.errors import SpotCheckFailed

    # a point moved to a value outside a: P_0 stays zero and P_1 changes by
    # v_0^2 (a_0' - a_0); at n = 2 the code does not depend on a
    def move(ctx, a, v):
        return [min(set(range(ctx.q)) - set(a)), *a[1:]], v

    _break_every_code(monkeypatch, move)
    with pytest.raises(SpotCheckFailed) as err:
        census_report(25, spot_check_bound=16)
    assert str(err.value).startswith("claimed length n = 4 could not be realized: ")
    assert str(err.value).endswith(": constructed code is not self-dual (P_1 != 0)")


def test_failed_spot_check_of_an_extended_code_names_p_n_2(monkeypatch):
    import mdssd.census as census
    from mdssd.constructions import validate
    from mdssd.field import make_field

    # every weight times g: the lower sums stay zero, P_{n-2} becomes -g^2
    _break_every_code(monkeypatch, lambda ctx, a, v: (a, [ctx.mul_v(w, ctx.g_val) for w in v]))
    pr = validate("T2", 7, 2, m=3, t=3)
    assert census._spot_check(make_field(7, 2), pr) == (
        "T2(m=3,t=3): constructed code is not self-dual (P_8 != -1)")


def test_spot_check_builds_no_generator_matrix_and_no_trace(monkeypatch):
    import mdssd.constructions as constructions
    import mdssd.grs as grs

    def refuse(*args, **kw):
        raise AssertionError("a spot check reached the artifact path")

    # no G, no trace and no brute-force locators
    for module, name in ((constructions, "assemble_self_dual_grs"),
                         (constructions, "assemble_self_dual_xgrs"), (grs, "all_locators"),
                         (grs, "_log_locators"), (grs, "locator_logs"),
                         (grs, "_generator_matrix")):
        monkeypatch.setattr(module, name, refuse)
    rep = census_report(6889, spot_check_bound=128)
    assert len(rep.spot_checks) == 64
