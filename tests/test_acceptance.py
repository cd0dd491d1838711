"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criterion 7 (census reference counts) is asserted exactly as specified and is
expected to fail against the literal transcription of the prior-results
table; its failure output carries the per-rule attribution and the exact
reconciliations found (see the repository notes).  All other criteria pass.
"""

from __future__ import annotations

import sys

import pytest
import sympy

from mdssd.census import census_report, new_lengths, prior_lengths
from grs_oracles import closed_form_locator, cyclotomic_locator, locator
from mdssd.constructions import (
    build,
    construct_from_params,
    iter_valid_params,
    validate,
)
from mdssd.errors import HypothesisViolated, SpotCheckFailed, TooLargeToMaterialize
from mdssd.field import make_field
from mdssd.grs import EvalVector, artifact_to_dict, to_json
from mdssd.verify import DISTANCE_BUDGET, check_mds_minors, min_distance, verify_artifact

SMALL_Q = (9, 25, 49, 81, 121, 169, 289)
N_CAP = 128


def report(criterion: int, ok: bool, detail: str) -> None:
    # written past pytest's capture so every criterion prints exactly one line
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}",
          file=sys.__stdout__, flush=True)


def _pd(q: int) -> tuple[int, int]:
    (p, d), = sympy.factorint(q).items()
    return p, d


@pytest.fixture(scope="module")
def small_sweep():
    """Every valid parameter tuple with n <= 128 over the seven small fields,
    constructed once and shared by criteria 1-3 and 10."""
    artifacts = []
    for q in SMALL_Q:
        p, d = _pd(q)
        ctx = make_field(p, d)
        for pr in iter_valid_params(p, d, N_CAP):
            art, trace = construct_from_params(ctx, pr)
            artifacts.append((pr, art, trace))
    return artifacts


def test_criterion_1_constructive_sweep(small_sweep):
    failures = [pr.label() for pr, art, _ in small_sweep
                if not verify_artifact(art, mds=False).self_dual]
    ok = not failures and len(small_sweep) > 0
    report(1, ok, f"{len(small_sweep)} parameter tuples over q in {SMALL_Q} "
                  f"all construct and verify self-dual")
    assert ok, f"non-self-dual artifacts: {failures[:5]}"


def test_criterion_2_mds_oracle(small_sweep):
    checked = 0
    failures = []
    for pr, art, _ in small_sweep:
        if art.n > 16:
            continue
        if not check_mds_minors(art):
            failures.append((pr.label(), "minors"))
        if art.ctx.q**art.k <= DISTANCE_BUDGET:
            if min_distance(art) != art.n // 2 + 1:
                failures.append((pr.label(), "distance"))
        checked += 1
    ok = not failures and checked > 0
    report(2, ok, f"{checked} artifacts with n <= 16: exhaustive minors and "
                  f"minimum distance n/2+1")
    assert ok, failures[:5]


def test_criterion_3_closed_form_locators(small_sweep):
    mismatches = []
    for pr, art, trace in small_sweep:
        brute = [locator(art.a, i) for i in range(len(art.a.points))]
        for i in range(len(art.a.points)):
            if closed_form_locator(pr, trace, i) != brute[i]:
                mismatches.append((pr.label(), i))
                break
    ok = not mismatches
    report(3, ok, "closed-form locator equals brute force on every "
                  "constructed evaluation vector")
    assert ok, mismatches[:5]


def test_criterion_4_roots_of_unity_locator():
    checked = 0
    for q in range(3, 401, 2):
        factors = sympy.factorint(q)
        if len(factors) != 1 or q % 2 == 0:
            continue
        (p, d), = factors.items()
        if p == 2:
            continue
        ctx = make_field(p, d)
        for m in sympy.divisors(q - 1):
            alpha = ctx.root_of_unity_v(m)
            pts = EvalVector(ctx, tuple(ctx.pow_v(alpha, i) for i in range(m)))
            for i in range(m):
                assert cyclotomic_locator(m, i, ctx) == locator(pts, i), (q, m, i)
            checked += 1
    report(4, True, f"m * alpha^-i locator identity on {checked} (q, m) pairs, q <= 400")


@pytest.mark.slow
def test_criterion_5_large_reference_codes():
    """The published n=372 example violates its own theorem hypotheses:
    s=6 does not divide r+1=68, so no subgroup of order s(r-1)=396 exists in
    F_{67^2}^* (396 does not divide 4488).  That sub-case fails honestly; the
    other three reference codes construct and verify."""
    cases = [
        ("T1i", 151, 2, dict(m=6, t=71), 426),
        ("T2", 151, 2, dict(m=15, t=67), 1006),
        ("T3i", 67, 2, dict(m=12, t=31, s=6), 372),
        ("T4", 3, 10, dict(e=3), 730),
    ]
    outcomes = []
    for theorem, p, d, kw, n in cases:
        try:
            art, _ = build(theorem, p, d, **kw)
        except HypothesisViolated as ex:
            outcomes.append((theorem, n, f"rejected: {ex}"))
            continue
        assert art.n == n, (theorem, art.n)
        self_dual = verify_artifact(art, mds=False).self_dual
        outcomes.append((theorem, n, "ok" if self_dual else "not self-dual"))
    ok = all(status == "ok" for _, _, status in outcomes)
    report(5, ok, "reference codes (426, 1006, 372, 730): " +
           "; ".join(f"n={n} {status}" for _, n, status in outcomes))
    if not ok:
        pytest.fail(
            "n=372 reference parameters are inconsistent with their own "
            "theorem: s=6 does not divide r+1=68, and F_{67^2}^* has no "
            "subgroup of order s(r-1)=396 (396 does not divide 4488); no "
            "family reaches n=372 at q=67^2 under any valid parameters. "
            f"outcomes: {outcomes}"
        )


def test_criterion_6_large_parameter_validation():
    pr = validate("T5", 5, 27, k_sub=3, t=31, e=7)
    with pytest.raises(TooLargeToMaterialize):
        build("T5", 5, 27, k_sub=3, t=31, e=7)
    report(6, True, f"q=5^27 parameters validate (n={pr.n}) and refuse to materialize")


def test_criterion_7_census_reference_counts():
    """Expected counts 702 / 862 / 1228 for prior(83^2) / prior(151^2) /
    union(151^2).  The literal transcription of the published prior-results
    table yields 506 / 787 / 1407; on mismatch this test emits the per-rule
    attribution plus the exact reconciliations located during calibration."""
    p83 = set(prior_lengths(83**2))
    p151 = set(prior_lengths(151**2))
    n151 = set(new_lengths(151**2))
    got = (len(p83), len(p151), len(p151 | n151))
    want = (702, 862, 1228)
    ok = got == want
    report(7, ok, f"census counts prior(83^2)/prior(151^2)/union(151^2) = "
                  f"{got}, expected {want}")
    if not ok:
        n83 = set(new_lengths(83**2))
        lines = [
            "census count mismatch; diagnostic attribution follows",
            f"  expected (prior 83^2, prior 151^2, union 151^2) = {want}",
            f"  observed (prior 83^2, prior 151^2, union 151^2) = {got}",
            "  exact reconciliations found:",
            f"    len(prior | new) at q=83^2  = {len(p83 | n83)} (matches 702: the"
            " headline count evidently includes the new families)",
            f"    len(new) at q=151^2        = {len(n151)} (matches 1228: the"
            " final count is for the new families alone, not a union)",
            f"    len(prior | t(r+1)-family) at q=151^2 = "
            f"{len(p151 | {t * 152 for t in range(1, 151)})} (matches 862: the"
            " prior table omits at least one known length family)",
            "  no single counting protocol satisfies all three expected counts:"
            " union(151^2) = 1228 would force prior within new, but"
            f" {len(p151 - n151)} prior lengths lie outside the new families",
            "  per-rule attribution at q=83^2:",
        ]
        rep = census_report(83**2)
        for rid, ns in sorted(rep.per_rule.items()):
            lines.append(f"    {rid}: {len(ns)}")
        pytest.fail("\n".join(lines))


def test_criterion_8_census_spot_checks():
    checked = 0
    try:
        for q in (9, 25, 49, 81, 169):
            rep = census_report(q, spot_check_bound=N_CAP)
            checked += len(rep.spot_checks)
    except SpotCheckFailed as ex:
        report(8, False, f"spot check failed: {ex}")
        raise
    report(8, True, f"{checked} census lengths realized by verified constructions")


def test_criterion_9_exclusion_behaviour():
    rejected = 0
    for q in (25, 81, 169, 289):
        p, d = _pd(q)
        r = p ** (d // 2)
        assert r % 4 == 1 or q not in (25, 81, 169, 289)
        for m in sympy.divisors(q - 1):
            if m % 2:
                continue
            for t in range(2, (r + 1) // sympy.gcd(r + 1, m) + 1, 2):
                with pytest.raises(HypothesisViolated) as err:
                    validate("T1ii", p, d, m=m, t=t)
                assert err.value.clause == "t is even, m is even and r ≡ 1 (mod 4)"
                rejected += 1
    for q in (27, 343):
        for n in set(prior_lengths(q)) | set(new_lengths(q)):
            assert n % 4 != 2, (q, n)
    report(9, True, f"{rejected} excluded tuples rejected with the exact clause; "
                    f"no n = 2 (mod 4) lengths for q = 3 (mod 4)")


def test_criterion_10_determinism(small_sweep):
    mismatches = []
    for pr, art, trace in small_sweep:
        ctx = make_field(pr.p, pr.d)
        art2, trace2 = construct_from_params(ctx, pr)
        a = to_json(artifact_to_dict(art, trace.to_dict()))
        b = to_json(artifact_to_dict(art2, trace2.to_dict()))
        if a != b:
            mismatches.append(pr.label())
    rep_a = census_report(49).to_dict()
    rep_b = census_report(49).to_dict()
    ok = not mismatches and rep_a == rep_b
    report(10, ok, "rebuilt artifacts and census reports byte-identical")
    assert ok, mismatches[:5]
