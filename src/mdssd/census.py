"""Length census: for a fixed odd prime power q, evaluate every known
length condition (prior constructions and this package's five families) as a
predicate on even n, and report attributed length sets and counts.

New-family lengths come from the same parameter enumeration the construction
layer uses, so every claimed length is constructible by definition; the
report optionally verifies small lengths end to end ("spot checks").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def q1_divisors(self) -> tuple[int, ...]:
        return tuple(sympy.divisors(self.q - 1))  # ascending

    def eta(self, c: int) -> int:
        """Quadratic character of the integer c viewed in F_q."""
        c %= self.p
        if c == 0:
            return 0
        return 1 if pow(c, (self.q - 1) // 2, self.p) == 1 else -1

    def representations(self, min_s: int = 1) -> list[tuple[int, int]]:
        """All (r, s) with r^s = q, r an odd prime power, s >= min_s."""
        return [
            (self.p ** (self.d // s), s)
            for s in sympy.divisors(self.d)
            if s >= min_s
        ]


def _field_ctx(q: int) -> CensusCtx:
    pd = odd_prime_power(q)
    if pd is None:
        raise EvenQ(q)
    if q > CENSUS_BUDGET:
        raise BudgetExceeded(q, CENSUS_BUDGET)
    return CensusCtx(q, *pd)


def _even(ns) -> set[int]:
    return {n for n in ns if n % 2 == 0 and 2 <= n}


# --- prior constructions (one rule per known length condition) ---

def _prior_rules(cx: CensusCtx) -> dict[str, set[int]]:
    q, p, d = cx.q, cx.p, cx.d
    q1 = q - 1
    rules: dict[str, set[int]] = {}

    rules["prior:GG:q+1"] = {q + 1}

    rules["prior:Yan:(n-1)|(q-1)"] = _even(
        dv + 1 for dv in cx.q1_divisors if cx.eta(1 - (dv + 1)) == 1
    )
    rules["prior:Yan:(n-2)|(q-1)"] = _even(
        dv + 2 for dv in cx.q1_divisors if cx.eta(2 - (dv + 2)) == 1
    )

    # prime-power n-1 rules
    pp3: set[int] = set()
    pp1: set[int] = set()
    has_r1mod4_odd_s = any(r % 4 == 1 for r, s in cx.representations() if s % 2 == 1)
    for dv in cx.q1_divisors:
        # dv = base^m with m odd; a power of 2 would meet neither rule below
        pd = odd_prime_power(dv)
        if pd is None or pd[1] % 2 == 0:
            continue
        base = pd[0]
        if q % 4 == 3 and base % 4 == 3:
            pp3.add(dv + 1)
        if has_r1mod4_odd_s and base % 4 == 1:
            pp1.add(dv + 1)
    rules["prior:GUE:q=3mod4"] = _even(pp3)
    rules["prior:GUE:r=1mod4"] = _even(pp1)

    lr1: set[int] = set()
    lr2: set[int] = set()
    lr3: set[int] = set()
    lr4: set[int] = set()
    for r, s in cx.representations(min_s=2):
        for l in range(1, (q + 1) // r + 1):
            n = l * r
            if l % 2 == 0 and (r - 1) % (2 * l) == 0:
                lr1.add(n)
            if l % 2 == 0 and l >= 2 and (r - 1) % (l - 1) == 0 and cx.eta(1 - l) == 1:
                lr2.add(n)
            if l % 2 == 1 and (r - 1) % l == 0 and cx.eta(l) == 1:
                lr3.add(n + 1)
            if l % 2 == 1 and l >= 2 and (r - 1) % (l - 1) == 0 \
                    and cx.eta(l - 1) == 1 and cx.eta(-1) == 1:
                lr4.add(n + 1)
    rules["prior:Yan:n=lr,2l|(r-1)"] = _even(lr1)
    rules["prior:Yan:n=lr,(l-1)|(r-1)"] = _even(lr2)
    rules["prior:Yan:n=lr+1,l|(r-1)"] = _even(lr3)
    rules["prior:Yan:n=lr+1,(l-1)|(r-1)"] = _even(lr4)

    if d % 2 == 0:
        r = p ** (d // 2)
        rules["prior:JX:n<=r"] = _even(range(2, r + 1))
        if r % 4 == 3:
            rules["prior:JX:n=2tr"] = _even(2 * t * r for t in range(1, (r - 1) // 2 + 1))
        rules["prior:Yan:n=tr,t-even"] = _even(t * r for t in range(2, r + 1, 2))
        rules["prior:Yan:n=tr+1,t-odd"] = _even(t * r + 1 for t in range(1, r + 1, 2))

    if q % 4 == 1:
        rules["prior:Yan:n|(q-1)"] = _even(dv for dv in cx.q1_divisors if dv < q1)
        rules["prior:JX:4^n*n^2<=q"] = _even(
            n for n in range(2, 40) if 4**n * n * n <= q
        )

    rules["prior:Yan:n=p^r+1"] = _even(p**rr + 1 for rr in sympy.divisors(d))
    if cx.eta(-1) == 1:
        rules["prior:Yan:n=2p^e"] = _even(2 * p**e for e in range(1, d))

    if d % 2 == 0:
        r = p ** (d // 2)
        tm: set[int] = set()
        tm1: set[int] = set()
        tm2: set[int] = set()
        for m in cx.q1_divisors:
            bound = (r - 1) // gcd(r - 1, m)
            for t in range(1, bound + 1):
                n = t * m
                if n > q + 1:
                    break
                if (q1 // m) % 2 == 0:
                    tm.add(n)
                if n % 2 == 1:
                    tm1.add(n + 1)
                else:
                    tm2.add(n + 2)
        rules["prior:LLL:n=tm"] = _even(tm)
        rules["prior:LLL:n=tm+1"] = _even(tm1)
        rules["prior:LLL:n=tm+2"] = _even(tm2)

    tp: set[int] = set()
    for t in range(1, (p - 1) // 2 + 1):
        if (p - 1) % (2 * t) != 0 or q1 % (4 * t) != 0:
            continue
        for e in range(0, d):
            n = 2 * t * p**e
            if n > q + 1:
                break
            tp.add(n)
    rules["prior:LLL:n=2tp^e"] = _even(tp)

    if d % 2 == 0:
        ff1: set[int] = set()
        ff2: set[int] = set()
        for s in sympy.divisors(d // 2):
            r = p**s
            for l in range(0, d // s + 1):
                rl = r**l
                for t in range(1, (r - 1) // 2 + 1):
                    n = 2 * t * rl
                    if n > q + 1:
                        break
                    ff1.add(n)
                for t in range(0, (r - 1) // 2 + 1):
                    if l == d // s and t != 0:
                        continue
                    n = (2 * t + 1) * rl + 1
                    if n > q + 1:
                        break
                    ff2.add(n)
        rules["prior:FF:n=2tr^l"] = _even(ff1)
        rules["prior:FF:n=(2t+1)r^l+1"] = _even(ff2)
    if q % 4 == 1:
        rules["prior:FF:n=p^l+1"] = _even(p**l + 1 for l in range(0, d + 1))

    return rules


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
    per_rule = {rid: tuple(sorted(n for n in ns if n <= q + 1))
                for rid, ns in {**prior_by_rule, **new_by_rule}.items()}
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
