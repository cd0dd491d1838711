"""Byte-level locks on the construction pipeline and the census.

`locked_digests.json` holds sha256 digests, each recorded from the code
before the refactor it guards: `fields` before the table set-up moved onto
digit arrays, `large` before assembly moved onto logarithms, the others
before the coset constructors and the hypothesis checks were merged,
`cli_census` before the census command read the report's counts.

- `fields`: the modulus, primitive element and exp, log and Zech tables of
  fourteen fields, degree 1 to 12, from q = 3 to q = 3^12;
- `moduli`: the modulus `_find_modulus` picks for each of the 223 fields
  with d >= 2 and q <= 2^20, recorded before the root sieve gave way to
  Ben-Or's test for every degree;

- `sweep`: every artifact of the acceptance sweep (q <= 289, n <= 128), each
  serialized with its trace, in `iter_valid_params` order;
- `census`: `census_report(q, bound).to_dict()` for four (q, bound) pairs;
- `cli_census`: the stdout of `mdssd census` for q = 25, 83^2 and 151^2
  with each `--rows` choice, with and without `--list`, and for q = 25 with
  a spot-check bound;
- `large`: the output file of `mdssd construct --no-mds` for six codes
  over q = 151^2 and q = 3^10, with n up to 1006, where n^2 exceeds the
  2^19-entry blocks in which vectorized kernels split their work, and for
  two family-5 codes over q = 3^6 whose subspace has two basis elements
  with F_9 coefficients, recorded before the family-4 and family-5 spans
  were merged;
- `enumeration`: the sequence that `iter_valid_params(p, d, q + 1)` yields,
  one line "n label" per tuple, for thirteen odd q from 9 to 151^2,
  recorded before the hypotheses were evaluated on integer arrays;
- `prior_rules`: the prior-construction length sets of the census, each cut
  at q + 1, for every odd prime power q <= 20,000, recorded before the
  rules lost their redundant length tests;
- `prior_rules_by_rule`: one digest per prior rule id of its length sets,
  each cut at q + 1, for the odd prime powers in (20,000, 10^5] (every one
  with d >= 2, and every tenth prime), recorded before the rules became one
  table; a mismatch names the rule;
- `clauses` and `rejections_sha256`: the distinct clause texts, and a digest
  of the clause with which `validate` rejects each call of a brute-force grid
  plus a few fixed invalid calls.  These texts reach the CLI's error JSON;
- `minors`: the witness of `first_singular_minor`, per sweep q, for every
  sweep artifact with n <= 16 and three seeded one-entry corruptions of
  each, and, under "matrices", for seeded k x n matrices with k < n from the
  generators of `test_verify.py`, recorded at commit c690e47, before the
  minors scan became one tree of Schur complements.

The grid is also the completeness check of the enumeration: the tuples it
accepts with n <= n_max are exactly those `iter_valid_params` yields.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
import sympy

from mdssd.census import CENSUS_BUDGET, _field_ctx, _prior_rules, census_report
from mdssd.cli import main
from mdssd.constructions import THEOREMS, construct_from_params, iter_valid_params, validate
from mdssd.errors import HypothesisViolated
from mdssd.field import _find_modulus, make_field
from mdssd.grs import _canonical_parts, artifact_from_json, artifact_record, artifact_to_dict, to_json
from mdssd.verify import first_singular_minor
from test_verify import (
    MINOR_FIELDS,
    _grs_matrices,
    _matrix_artifact,
    _random_minor_matrix,
    _zero_heavy_matrix,
)

LOCKED = json.loads((Path(__file__).parent / "locked_digests.json").read_text())

SWEEP_Q = (9, 25, 49, 81, 121, 169, 289)
SWEEP_N_MAX = 128
CENSUS_CASES = ((9, 16), (25, 16), (6889, 128), (22801, 128))
CLI_CENSUS_ARGS = tuple(
    ("--q", str(q), "--rows", rows, *listing)
    for q in (25, 6889, 22801) for rows in ("prior", "new", "all") for listing in ((), ("--list",))
) + (("--q", "25", "--spot-check-bound", "16"),)
# (q, theorem, parameters): T2 n = 1006, T4 n = 730 and the benchmark's
# construct-large codes
LARGE_CODES = (
    (22801, "T2", {"m": 15, "t": 67}),
    (59049, "T4", {"e": 3}),
    (22801, "T1i", {"m": 6, "t": 71}),
    (22801, "T2", {"m": 15, "t": 25}),
    (59049, "T4", {"e": 2}),
    (59049, "T1i", {"m": 44, "t": 4}),
    (729, "T5", {"k": 2, "e": 2, "t": 1}),
    (729, "T5", {"k": 2, "e": 2, "t": 2}),
)
ENUMERATION_Q = (9, 25, 27, 49, 81, 121, 125, 169, 243, 289, 729, 6889, 22801)
PRIOR_RULES_Q_MAX = 20_000
PRIOR_RULES_PRIME_STRIDE = 10
MODULI_Q_MAX = 1 << 20
MINORS_N_MAX = 16
MINORS_CORRUPTIONS = 3
MINORS_MATRICES = 20
FIELD_CASES = ((3, 1), (1009, 1), (3, 2), (5, 2), (7, 3), (3, 4), (5, 4), (17, 2),
               (83, 2), (151, 2), (3, 10), (3, 12), (5, 8), (1021, 2))
GRID_FIELDS = ((3, 2), (5, 2), (7, 2), (3, 4), (13, 2), (3, 3), (13, 1))
# calls outside the grid that reach the remaining clauses
FIXED_INVALID = (
    ("T1i", 2, 2, {"m": 3, "t": 1}),
    ("T1i", 9, 1, {"m": 2, "t": 1}),
    ("T4", 3, 0, {"e": 1}),
    ("T1i", 3, 2, {"m": 4}),
    ("T3i", 3, 2, {"m": 4, "t": 1}),
    ("T4", 3, 2, {}),
    ("T5", 3, 2, {"k_sub": 1, "e": 0}),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def field_digest(ctx) -> str:
    """sha256 of the modulus, g and the bytes, dtype and shape of the exp,
    log and Zech arrays."""
    h = hashlib.sha256(repr((ctx.modulus, ctx.g_val)).encode())
    for table in (*ctx.np_tables, ctx.np_zech):
        h.update(f"{table.dtype} {table.shape}".encode())
        h.update(np.ascontiguousarray(table).tobytes())
    return h.hexdigest()


def moduli_digest() -> str:
    """sha256 of one line "p d modulus" per odd prime power q = p^d <= 2^20
    with d >= 2, ascending in p, then d."""
    lines = [f"{p} {d} {_find_modulus(p, d)}"
             for p in sympy.primerange(3, math.isqrt(MODULI_Q_MAX) + 1)
             for d in range(2, MODULI_Q_MAX.bit_length()) if p**d <= MODULI_Q_MAX]
    assert len(lines) == 223
    return _sha("\n".join(lines))


def sweep_digests() -> list[list[str]]:
    out = []
    for q in SWEEP_Q:
        (p, d), = sympy.factorint(q).items()
        ctx = make_field(p, d)
        for pr in iter_valid_params(p, d, SWEEP_N_MAX):
            art, trace = construct_from_params(ctx, pr)
            doc = to_json(artifact_to_dict(art, trace.to_dict()))
            out.append([f"q={q} {pr.label()}", _sha(doc)])
    return out


def _minors_line(name: str, ctx, G) -> str:
    return f"{name} {first_singular_minor(_matrix_artifact(ctx, G))}"


def minors_digests() -> dict[str, str]:
    """Per sweep q, sha256 of one line "label witness" per artifact with
    n <= MINORS_N_MAX, each followed by one line per seeded one-entry
    corruption, which adds a random nonzero element to one entry; under
    "matrices", sha256 of one line per seeded k x n matrix, 1 <= k < n <= 16
    (GRS ones and their corruptions with n <= q), over MINOR_FIELDS."""
    out = {}
    for q in SWEEP_Q:
        (p, d), = sympy.factorint(q).items()
        ctx = make_field(p, d)
        rng = random.Random(q)
        lines = []
        for pr in iter_valid_params(p, d, MINORS_N_MAX):
            art, _ = construct_from_params(ctx, pr)
            G = art.G.tolist()
            lines.append(_minors_line(pr.label(), ctx, G))
            for _ in range(MINORS_CORRUPTIONS):
                r, c = rng.randrange(art.k), rng.randrange(art.n)
                bad = [row[:] for row in G]
                bad[r][c] = ctx.add_v(bad[r][c], rng.randrange(1, q))
                lines.append(_minors_line(f"{pr.label()} G[{r}][{c}]", ctx, bad))
        out[str(q)] = _sha("\n".join(lines))
    lines = []
    for p, d in MINOR_FIELDS:
        ctx = make_field(p, d)
        rng = random.Random(p * 100 + d)
        for i in range(MINORS_MATRICES):
            n = rng.randint(2, MINORS_N_MAX)
            k = rng.randint(1, n - 1)
            lines.append(_minors_line(f"{p},{d} random {i}", ctx, _random_minor_matrix(ctx, rng, k, n)))
            lines.append(_minors_line(f"{p},{d} zeros {i}", ctx, _zero_heavy_matrix(ctx, rng, k, n)))
            n = rng.randint(2, min(ctx.q, MINORS_N_MAX))
            for j, G in enumerate(_grs_matrices(ctx, rng, rng.randint(1, n - 1), n)):
                lines.append(_minors_line(f"{p},{d} grs {i}.{j}", ctx, G))
    out["matrices"] = _sha("\n".join(lines))
    return out


def enumeration_digest(q: int) -> str:
    (p, d), = sympy.factorint(q).items()
    return _sha("\n".join(f"{pr.n} {pr.label()}" for pr in iter_valid_params(p, d, q + 1)))


def census_digests() -> dict[str, str]:
    return {f"{q},{bound}": _sha(to_json(census_report(q, bound).to_dict()))
            for q, bound in CENSUS_CASES}


def prior_rules_digest() -> str:
    """sha256 of one line per (q, rule): q, the rule id and its lengths
    n <= q + 1, ascending."""
    lines = []
    for q in range(3, PRIOR_RULES_Q_MAX + 1, 2):
        if len(sympy.factorint(q)) > 1:
            continue
        for rid, ns in sorted(_prior_rules(_field_ctx(q)).items()):
            lines.append(f"{q} {rid} {sorted(n for n in ns if n <= q + 1)}")
    return _sha("\n".join(lines))


def prior_rules_high_q() -> list[int]:
    """The odd prime powers in (PRIOR_RULES_Q_MAX, CENSUS_BUDGET] with d >= 2,
    and every PRIOR_RULES_PRIME_STRIDE-th prime there, ascending."""
    primes = list(sympy.primerange(PRIOR_RULES_Q_MAX + 1, CENSUS_BUDGET + 1))
    powers = {p**d for p in sympy.primerange(3, math.isqrt(CENSUS_BUDGET) + 1)
              for d in range(2, CENSUS_BUDGET.bit_length())
              if PRIOR_RULES_Q_MAX < p**d <= CENSUS_BUDGET}
    return sorted({*primes[::PRIOR_RULES_PRIME_STRIDE], *powers})


def prior_rules_by_rule_digests() -> dict[str, str]:
    """Per rule id, sha256 of one line per q of `prior_rules_high_q` whose
    rules include it: q and the rule's lengths n <= q + 1, ascending."""
    lines: dict[str, list[str]] = {}
    for q in prior_rules_high_q():
        for rid, ns in _prior_rules(_field_ctx(q)).items():
            lines.setdefault(rid, []).append(f"{q} {sorted(n for n in ns if n <= q + 1)}")
    return {rid: _sha("\n".join(qs)) for rid, qs in sorted(lines.items())}


def cli_census_digest(args: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["census", *args]) == 0
    return _sha(out.getvalue())


def large_digest(q: int, theorem: str, params: dict, path: Path) -> str:
    flags = [arg for key, val in params.items() for arg in (f"--{key}", str(val))]
    assert main(["construct", "--q", str(q), "--theorem", theorem, *flags,
                 "--no-mds", "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _large_key(q: int, theorem: str, params: dict) -> str:
    return f"q={q} {theorem} " + ",".join(f"{k}={v}" for k, v in params.items())


def _grid(p: int, d: int, n_max: int):
    r = p ** (d // 2)
    ms, ts = range(0, n_max + 1), range(-1, n_max + 2)
    ss, es, ks = range(0, r + 3), range(-1, d + 2), range(0, d + 2)
    for th in THEOREMS:
        if th in ("T1i", "T1ii", "T2"):
            yield from ((th, {"m": m, "t": t}) for m in ms for t in ts)
        elif th in ("T3i", "T3ii"):
            yield from ((th, {"m": m, "t": t, "s": s}) for m in ms for t in ts for s in ss)
        elif th == "T4":
            yield from ((th, {"e": e}) for e in es)
        else:
            yield from ((th, {"k_sub": k, "t": t, "e": e}) for k in ks for t in ts for e in es)


def _key(th: str, p: int, d: int, kw: dict) -> str:
    return f"{th} {p} {d} " + ",".join(f"{k}={v}" for k, v in sorted(kw.items()))


def brute_force():
    """Per field, the accepted tuples with n <= n_max; overall, one
    (call, clause) pair per rejected call."""
    accepted: dict[tuple[int, int], set] = {}
    rejections = []
    for p, d in GRID_FIELDS:
        n_max = min(60, p**d + 1)
        ok = accepted.setdefault((p, d), set())
        for th, kw in _grid(p, d, n_max):
            try:
                pr = validate(th, p, d, **kw)
            except HypothesisViolated as ex:
                rejections.append((_key(th, p, d, kw), ex.clause))
                continue
            if pr.n <= n_max:
                ok.add(pr)
    for th, p, d, kw in FIXED_INVALID:
        with pytest.raises(HypothesisViolated) as info:
            validate(th, p, d, **kw)
        rejections.append((_key(th, p, d, kw), info.value.clause))
    return accepted, rejections


@pytest.mark.parametrize("p,d", FIELD_CASES, ids=[f"{p}^{d}" for p, d in FIELD_CASES])
def test_field_tables_match_locked_digest(p, d):
    assert field_digest(make_field(p, d)) == LOCKED["fields"][f"{p},{d}"]


def test_moduli_match_locked_digest():
    assert moduli_digest() == LOCKED["moduli"]


def test_sweep_artifacts_match_locked_digests():
    got, want = sweep_digests(), LOCKED["sweep"]
    for (label, digest), (want_label, want_digest) in zip(got, want):
        assert (label, digest) == (want_label, want_digest), f"first difference at {want_label}"
    assert len(got) == len(want)


def test_sweep_artifacts_write_and_read_back_as_their_lists():
    """The array writer gives the bytes of the lists, and the canonical
    reader takes them back, for every sweep artifact."""
    for q in SWEEP_Q:
        (p, d), = sympy.factorint(q).items()
        ctx = make_field(p, d)
        for pr in iter_valid_params(p, d, SWEEP_N_MAX):
            art, trace = construct_from_params(ctx, pr)
            text = to_json(artifact_record(art, trace.to_dict()))
            assert text == to_json(artifact_to_dict(art, trace.to_dict())), pr.label()
            assert _canonical_parts(text) is not None and artifact_from_json(text) == art


@pytest.mark.parametrize("q,theorem,params", LARGE_CODES,
                         ids=[_large_key(*case) for case in LARGE_CODES])
def test_large_construct_output_writes_and_reads_back_as_its_lists(q, theorem, params, tmp_path):
    path = tmp_path / "out.json"
    large_digest(q, theorem, params, path)
    text = path.read_text()
    doc, _ = _canonical_parts(text)
    art = artifact_from_json(text)
    assert to_json(artifact_to_dict(art, doc["trace"], doc["verification"])) + "\n" == text


def test_minor_witnesses_match_locked_digests():
    got, want = minors_digests(), LOCKED["minors"]
    assert sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key)) == []


@pytest.mark.parametrize("q", ENUMERATION_Q)
def test_enumeration_matches_locked_digest(q):
    assert enumeration_digest(q) == LOCKED["enumeration"][str(q)]


@pytest.mark.parametrize("q,bound", CENSUS_CASES)
def test_census_report_matches_locked_digest(q, bound):
    digest = _sha(to_json(census_report(q, bound).to_dict()))
    assert digest == LOCKED["census"][f"{q},{bound}"]


def test_prior_rules_match_locked_digest():
    assert prior_rules_digest() == LOCKED["prior_rules"]


def test_prior_rules_above_the_full_lock_match_per_rule_digests():
    got, want = prior_rules_by_rule_digests(), LOCKED["prior_rules_by_rule"]
    assert len(want) == 24
    assert sorted(rid for rid in got.keys() | want.keys() if got.get(rid) != want.get(rid)) == []


@pytest.mark.parametrize("args", CLI_CENSUS_ARGS, ids=" ".join)
def test_cli_census_output_matches_locked_digest(args):
    assert cli_census_digest(args) == LOCKED["cli_census"][" ".join(args)]


@pytest.mark.parametrize("q,theorem,params", LARGE_CODES,
                         ids=[_large_key(*case) for case in LARGE_CODES])
def test_large_construct_output_matches_locked_digest(q, theorem, params, tmp_path):
    digest = large_digest(q, theorem, params, tmp_path / "out.json")
    assert digest == LOCKED["large"][_large_key(q, theorem, params)]


def test_engines_never_compute_locators_by_brute_force(monkeypatch, tmp_path):
    """With the O(n^2) brute force refusing every call, the families'
    closed-form locators give the locked bytes: one `mdssd construct` per
    theorem over F_49 with its MDS checks on, the n = 426 code over 151^2,
    and the census at 83^2 with spot checks up to n = 128."""
    import mdssd.grs as grs

    def refuse(*args, **kw):
        raise AssertionError("an engine computed its locators by brute force")

    for name in ("locator_logs", "_log_locators", "all_locators"):
        monkeypatch.setattr(grs, name, refuse)
    sweep = dict(LOCKED["sweep"])
    firsts = {}
    for pr in iter_valid_params(7, 2, SWEEP_N_MAX):
        firsts.setdefault(pr.theorem, pr)
    assert list(firsts) == list(THEOREMS)
    for pr in firsts.values():
        flags = [arg for key, val in pr.to_dict().items() if key != "theorem"
                 for arg in (f"--{'k' if key == 'k_sub' else key}", str(val))]
        path = tmp_path / f"{pr.theorem}.json"
        assert main(["construct", "--q", "49", "--theorem", pr.theorem, *flags,
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc.pop("verification")["self_dual"]
        assert _sha(to_json(doc)) == sweep[f"q=49 {pr.label()}"]
    params = {"m": 6, "t": 71}
    digest = large_digest(22801, "T1i", params, tmp_path / "large.json")
    assert digest == LOCKED["large"][_large_key(22801, "T1i", params)]
    assert _sha(to_json(census_report(6889, 128).to_dict())) == LOCKED["census"]["6889,128"]


def test_enumeration_is_complete_and_clause_texts_are_locked():
    accepted, rejections = brute_force()
    for (p, d), ok in accepted.items():
        assert ok == set(iter_valid_params(p, d, min(60, p**d + 1))), (p, d)
    assert sorted({clause for _, clause in rejections}) == LOCKED["clauses"]
    lines = "\n".join(f"{call}: {clause}" for call, clause in rejections)
    assert _sha(lines) == LOCKED["rejections_sha256"]


def test_each_clause_is_written_once():
    src = Path(__file__).resolve().parent.parent / "src" / "mdssd"
    text = "".join(path.read_text() for path in sorted(src.glob("*.py")))
    assert {clause: text.count(f'"{clause}"') for clause in LOCKED["clauses"]} \
        == dict.fromkeys(LOCKED["clauses"], 1)
