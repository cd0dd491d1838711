"""Length census: for a fixed odd prime power q, evaluate every known
length condition (prior constructions and this package's five families) as a
predicate on even n, and report attributed length sets and counts.

The prior constructions are one table, `_prior_rules`, with one row per
published rule.  A rule id "prior:<source>:<rule>" names the source: GG is
Grassl & Gulliver (ISIT 2008), GUE Guenda (2012), JX Jin & Xing (IEEE TIT
63(3), 2017), Yan (Cryptogr. Commun. 11, 2019), LLL Lebed, Liu & Luo (2019)
and FF Fang & Fu (IEEE TIT, 2019).  Each row transcribes its rule's length
condition by hand, so each can be compared on its own with an independent
oracle.

New-family lengths come from the same parameter enumeration the construction
layer uses, so every claimed length is constructible by definition; the
report optionally verifies small lengths end to end ("spot checks").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import sympy

from .constructions import ConstructionParams, construct_from_params, params_of, valid_param_arrays
from .errors import BudgetExceeded, EvenQ, MdssdError, SpotCheckFailed, TooLargeToMaterialize
from .field import make_field, odd_prime_power
from .verify import check_self_dual

CENSUS_BUDGET = 10**5


@dataclass(frozen=True)
class CensusCtx:
    q: int
    p: int
    d: int

    def eta(self, c: int) -> int:
        """Quadratic character of the integer c viewed in F_q."""
        c %= self.p
        if c == 0:
            return 0
        return 1 if pow(c, (self.q - 1) // 2, self.p) == 1 else -1


def _field_ctx(q: int) -> CensusCtx:
    pd = odd_prime_power(q)
    if pd is None:
        raise EvenQ(q)
    if q > CENSUS_BUDGET:
        raise BudgetExceeded(q, CENSUS_BUDGET)
    return CensusCtx(q, *pd)


# --- prior constructions: one row per published rule ---

def _prior_rules(cx: CensusCtx) -> dict[str, set[int]]:
    """The lengths of the prior constructions, per rule id.

    Each row of the table gives its rule's candidate lengths, or None where
    the rule's condition on q (d even, q = 1 (mod 4), eta(-1) = 1, ...)
    excludes it; such a rule is absent from the result.  Every row goes
    through one filter, n even and 2 <= n <= q + 1, which also stands in
    for the parity conditions of the published rules.  The rows draw on the
    iteration spaces built once above them.  r is the square root of q in
    the rules that need d even; the lr and FF rows bind their own r."""
    q, p, d, eta = cx.q, cx.p, cx.d, cx.eta
    even_d = d % 2 == 0
    r = p ** (d // 2)
    minus_one_square = eta(-1) == 1
    divisors = sympy.divisors(q - 1)
    # (dv, base) for each divisor dv = base^m of q - 1 with base odd and m odd
    odd_bases = [(dv, pd[0]) for dv in divisors
                 if (pd := odd_prime_power(dv)) is not None and pd[1] % 2 == 1]
    # (l, root) with 1 <= l <= root, for each q = root^s with s >= 2; every lr
    # rule needs l or l - 1 to divide root - 1
    roots = [p ** (d // s) for s in sympy.divisors(d)[1:]]
    lr = [(l, root) for root in roots for l in range(1, root + 1)]
    # for each m | q - 1, the t m with 1 <= t <= (r - 1) / gcd(r - 1, m), up to q + 1
    tm = {m: range(m, m * min((r - 1) // gcd(r - 1, m), (q + 1) // m) + 1, m) for m in divisors}
    # t with 2t | p - 1 and 4t | q - 1
    ts = [t for t in divisors if (p - 1) % (2 * t) == 0 and (q - 1) % (4 * t) == 0]
    # (p^s, p^(s l)) for s | d/2 and 0 <= l <= d/s
    powers = [(p**s, p ** (s * l)) for s in sympy.divisors(d // 2) for l in range(d // s + 1)]

    rows = {
        # Grassl & Gulliver (ISIT 2008)
        "prior:GG:q+1": {q + 1},
        # Guenda (2012); some q = r^s with r = 1 (mod 4) and s odd exists
        # exactly when q = 1 (mod 4), with s = 1
        "prior:GUE:q=3mod4": {dv + 1 for dv, base in odd_bases if q % 4 == base % 4 == 3},
        "prior:GUE:r=1mod4": {dv + 1 for dv, base in odd_bases if q % 4 == base % 4 == 1},
        # Jin & Xing (IEEE TIT 63(3), 2017)
        "prior:JX:n<=r": range(2, r + 1) if even_d else None,
        "prior:JX:n=2tr": (
            {2 * t * r for t in range(1, (r - 1) // 2 + 1)} if even_d and r % 4 == 3 else None),
        "prior:JX:4^n*n^2<=q": (
            {n for n in range(2, 40) if 4**n * n * n <= q} if q % 4 == 1 else None),
        # Yan (Cryptogr. Commun. 11, 2019)
        "prior:Yan:(n-1)|(q-1)": {dv + 1 for dv in divisors if eta(-dv) == 1},
        "prior:Yan:(n-2)|(q-1)": {dv + 2 for dv in divisors if eta(-dv) == 1},
        "prior:Yan:n|(q-1)": {dv for dv in divisors if dv < q - 1} if q % 4 == 1 else None,
        "prior:Yan:n=lr,2l|(r-1)": {l * r for l, r in lr if (r - 1) % (2 * l) == 0},
        "prior:Yan:n=lr,(l-1)|(r-1)": {
            l * r for l, r in lr if l > 1 and (r - 1) % (l - 1) == 0 and eta(1 - l) == 1},
        "prior:Yan:n=lr+1,l|(r-1)": {l * r + 1 for l, r in lr if (r - 1) % l == 0 and eta(l) == 1},
        "prior:Yan:n=lr+1,(l-1)|(r-1)": {
            l * r + 1 for l, r in lr
            if minus_one_square and l > 1 and (r - 1) % (l - 1) == 0 and eta(l - 1) == 1},
        "prior:Yan:n=tr,t-even": {t * r for t in range(2, r + 1, 2)} if even_d else None,
        "prior:Yan:n=tr+1,t-odd": {t * r + 1 for t in range(1, r + 1, 2)} if even_d else None,
        "prior:Yan:n=p^r+1": {p**s + 1 for s in sympy.divisors(d)},
        "prior:Yan:n=2p^e": {2 * p**e for e in range(1, d)} if minus_one_square else None,
        # Lebed, Liu & Luo (2019)
        "prior:LLL:n=tm": (
            {n for m, ns in tm.items() if (q - 1) // m % 2 == 0 for n in ns} if even_d else None),
        "prior:LLL:n=tm+1": {n + 1 for ns in tm.values() for n in ns} if even_d else None,
        "prior:LLL:n=tm+2": {n + 2 for ns in tm.values() for n in ns} if even_d else None,
        "prior:LLL:n=2tp^e": {2 * t * p**e for t in ts for e in range(d)},
        # Fang & Fu (IEEE TIT, 2019)
        "prior:FF:n=2tr^l": (
            {2 * t * rl for r, rl in powers for t in range(1, (r - 1) // 2 + 1)} if even_d else None),
        "prior:FF:n=(2t+1)r^l+1": (
            {(2 * t + 1) * rl + 1 for r, rl in powers for t in range((r - 1) // 2 + 1)}
            if even_d else None),
        "prior:FF:n=p^l+1": {p**l + 1 for l in range(d + 1)} if q % 4 == 1 else None,
    }
    return {rid: {n for n in ns if n % 2 == 0 and 2 <= n <= q + 1}
            for rid, ns in rows.items() if ns is not None}


# --- this package's families ---

def _new_rules(cx: CensusCtx, spot_check_bound: int
               ) -> tuple[dict[str, set[int]], dict[int, list[ConstructionParams]]]:
    """Per-family length sets, read from the length column of each family's
    accepted tuples, and for each even length up to the bound the tuples that
    give it, in enumeration order."""
    rules: dict[str, set[int]] = {}
    by_length: dict[int, list[ConstructionParams]] = {}
    # no length exceeds q + 1; the clamp keeps the comparison within int64
    bound = min(spot_check_bound, cx.q + 1)
    for th, columns in valid_param_arrays(cx.p, cx.d, cx.q + 1).items():
        n = columns["n"]
        even = n % 2 == 0
        if even.any():
            rules[f"new:{th}"] = set(n[even].tolist())
        small = even & (n <= bound)
        for pr in params_of(th, cx.p, cx.d, {key: col[small] for key, col in columns.items()}):
            by_length.setdefault(pr.n, []).append(pr)
    return rules, by_length


@dataclass
class CensusReport:
    q: int
    lengths_prior: tuple[int, ...]
    lengths_new: tuple[int, ...]
    lengths_union: tuple[int, ...]
    per_rule: dict[str, tuple[int, ...]]
    spot_checks: dict[int, str]

    @property
    def counts(self) -> dict[str, int]:
        return {
            "prior": len(self.lengths_prior),
            "new": len(self.lengths_new),
            "union": len(self.lengths_union),
        }

    def to_dict(self) -> dict:
        counts = self.counts
        return {
            "q": self.q,
            "prior_count": counts["prior"],
            "new_count": counts["new"],
            "union_count": counts["union"],
            "spot_checks": {str(n): v for n, v in sorted(self.spot_checks.items())},
            "prior": list(self.lengths_prior),
            "new": list(self.lengths_new),
            "per_rule": {rid: list(ns) for rid, ns in sorted(self.per_rule.items())},
        }


def _check_mod4(q: int, lengths) -> None:
    # no MDS self-dual code has n = 2 (mod 4) when q = 3 (mod 4); a rule
    # claiming one would be a transcription bug
    if q % 4 == 3:
        offenders = [n for n in lengths if n % 4 == 2]
        if offenders:
            raise AssertionError(f"rule claims n = 2 (mod 4) with q = 3 (mod 4): {offenders[:5]}")


def prior_lengths(q: int) -> tuple[int, ...]:
    return census_report(q).lengths_prior


def new_lengths(q: int) -> tuple[int, ...]:
    return census_report(q).lengths_new


def census_report(q: int, spot_check_bound: int = 0) -> CensusReport:
    """Evaluate every rule once; with a bound, construct and check a witness
    for every new length up to it, from the same enumeration.  A length
    beyond the build budget raises TooLargeToMaterialize."""
    cx = _field_ctx(q)
    prior_by_rule = _prior_rules(cx)
    new_by_rule, candidates = _new_rules(cx, spot_check_bound)
    per_rule = {rid: tuple(sorted(ns)) for rid, ns in {**prior_by_rule, **new_by_rule}.items()}
    prior = set().union(*(per_rule[rid] for rid in prior_by_rule))
    new = set().union(*(per_rule[rid] for rid in new_by_rule))
    _check_mod4(q, prior | new)

    spot_checks: dict[int, str] = {}
    if spot_check_bound:
        ctx = make_field(cx.p, cx.d)
        for n in sorted(candidates):
            witnessed = None
            failure = "no parameter tuple yields this length"
            for pr in candidates[n]:
                try:
                    art, _ = construct_from_params(ctx, pr)
                except TooLargeToMaterialize:  # every tuple for n is too long
                    raise
                except MdssdError as ex:  # try the next tuple
                    failure = f"{pr.label()}: {ex}"
                    continue
                if check_self_dual(art):
                    witnessed = pr.label()
                    break
                failure = f"{pr.label()}: constructed code is not self-dual"
            if witnessed is None:
                raise SpotCheckFailed(n, failure)
            spot_checks[n] = f"ok:{witnessed}"

    return CensusReport(
        q,
        tuple(sorted(prior)),
        tuple(sorted(new)),
        tuple(sorted(prior | new)),
        per_rule,
        spot_checks,
    )
