"""The benchmark's workloads: seeded job lists of mdssd CLI invocations, and
the checks each job's outcome must pass.

A job is one `mdssd` command line.  Its `check` judges the outcome with a
seeded generator (for projection vectors and witness samples) and returns
(failure, problems): `failure` says why the operation did not do what a user
asked of it (None when it did), and `problems` lists outputs that the
independent checker refuses.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import sympy
from mdssd.constructions import build, iter_valid_params
from mdssd.grs import artifact_to_dict

import checker

SMALL_Q = (9, 25, 49, 81, 121, 169, 289)
# certify-small draws one tuple from every (q, n) stratum up to this length.
# An n = 16 stratum costs as much as all smaller strata of its field
# together, and its tuples differ in cost by up to a third, so one of them
# would set most of the round's time and of its spread between seeds.
SMALL_N_MAX = 14

# construct-large: (tag, q, theorem, parameters)
LARGE_CODES = (
    ("t1i_426", 22801, "T1i", {"m": 6, "t": 71}),
    ("t2_376", 22801, "T2", {"m": 15, "t": 25}),
    ("t4_82", 59049, "T4", {"e": 2}),
    ("t1i_176", 59049, "T1i", {"m": 44, "t": 4}),
)
TAMPERED = "t1i_426"

CENSUS_Q = (6889, 22801)
SPOT_CHECK_BOUND = 128
WITNESS_SAMPLE = 6
PUBLISHED_NEW_COUNT = {22801: 1228}

FLAGS = {"m": "--m", "t": "--t", "s": "--s", "e": "--e", "k_sub": "--k"}


@dataclass
class Outcome:
    rc: int
    traceback: str | None
    output: bytes | None


@dataclass
class Job:
    name: str
    argv: list[str]
    out: Path
    check: Callable[["Job", Outcome, np.random.Generator], tuple[str | None, list[str]]]
    prep: Callable[[], None] | None = None
    info: dict = field(default_factory=dict)


def _pd(q: int) -> tuple[int, int]:
    (p, d), = sympy.factorint(q).items()
    return p, d


def _param_flags(params: dict) -> list[str]:
    out = []
    for key, flag in FLAGS.items():
        if params.get(key) is not None:
            out += [flag, str(params[key])]
    return out


def _load(outcome: Outcome):
    try:
        return json.loads(outcome.output)
    except (TypeError, ValueError):
        return None


def _completed(job: Job, outcome: Outcome, codes=(0,)) -> str | None:
    """Why the job did not end with one of `codes` and no traceback, or None."""
    if outcome.traceback is not None:
        return f"{job.name}: traceback {outcome.traceback.strip().splitlines()[-1]}"
    if outcome.rc not in codes:
        return f"{job.name}: exit {outcome.rc}, expected {' or '.join(map(str, codes))}"
    return None


# --- checks ---

def check_construct(job: Job, outcome: Outcome, rng: np.random.Generator):
    failure = _completed(job, outcome)
    if failure:
        return failure, []
    doc = _load(outcome)
    if not isinstance(doc, dict):
        return None, [f"{job.name}: output is not a JSON object"]
    problems = [f"{job.name}: {msg}" for msg in checker.check_artifact(doc, rng)]
    ver = doc.get("verification", {})
    if ver.get("self_dual") is not True or ver.get("rank_ok") is not True:
        problems.append(f"{job.name}: report does not certify self-duality: {ver}")
    if job.info.get("mds"):
        n = doc.get("n")
        if ver.get("mds_checked") not in ("exhaustive_minors", "min_weight") \
                or ver.get("mds_ok") is not True:
            problems.append(f"{job.name}: report does not certify MDS: {ver}")
        if "min_distance" in ver and ver["min_distance"] != n // 2 + 1:
            problems.append(f"{job.name}: min_distance {ver['min_distance']} != n/2+1")
    return None, problems


def check_verify(job: Job, outcome: Outcome, rng: np.random.Generator):
    failure = _completed(job, outcome)
    if failure:
        return failure, []
    rep = _load(outcome)
    if not (isinstance(rep, dict) and rep.get("self_dual") is True
            and rep.get("rank_ok") is True):
        return None, [f"{job.name}: report does not certify the artifact: {rep}"]
    return None, []


def check_tampered(job: Job, outcome: Outcome, rng: np.random.Generator):
    """A tampered copy must be refused without a traceback.  An out-of-range
    entry may be refused as malformed (exit 2) or as not self-dual (exit 4).
    An in-range change leaves a well-formed artifact, so it must exit 4, and
    it must really break self-duality, which the checker confirms on the
    changed row."""
    problems = []
    if job.info["kind"] == "swap":
        doc = json.loads(job.info["path"].read_bytes())
        F = checker.Field(doc["p"], doc["d"], doc["modulus"])
        row = checker.gram_row(F, np.array(doc["G"], dtype=np.int64), job.info["row"])
        if not row.any():
            problems.append(f"{job.name}: the tampered copy is still self-dual")
    codes = (4,) if job.info["kind"] == "swap" else (2, 4)
    return _completed(job, outcome, codes=codes), problems


def check_census(job: Job, outcome: Outcome, rng: np.random.Generator):
    failure = _completed(job, outcome)
    if failure:
        return failure, []
    doc = _load(outcome)
    q, bound = job.info["q"], job.info["bound"]
    name = job.name
    if not isinstance(doc, dict):
        return None, [f"{name}: output is not a JSON object"]
    problems = []
    lengths = doc.get("lengths")
    if not (isinstance(lengths, list) and lengths == sorted(set(lengths))):
        return None, [f"{name}: lengths are not a sorted list of distinct values"]
    odd = [n for n in lengths if type(n) is not int or n % 2 or not 2 <= n <= q + 1]
    if odd:
        problems.append(f"{name}: lengths not even in [2, q+1]: {odd[:5]}")
    if q + 1 not in lengths:
        problems.append(f"{name}: q+1 is not among the prior lengths")
    if doc.get("q") != q or doc.get("count") != len(lengths) \
            or doc.get("prior_count") != len(lengths):
        problems.append(f"{name}: counts do not match the listed lengths")
    prior, new, union = doc.get("prior_count"), doc.get("new_count"), doc.get("union_count")
    if not (isinstance(new, int) and isinstance(union, int) and isinstance(prior, int)
            and max(prior, new) <= union <= min(prior + new, (q + 1) // 2)):
        problems.append(f"{name}: union count {union} inconsistent with {prior} + {new}")
    if q in PUBLISHED_NEW_COUNT and new != PUBLISHED_NEW_COUNT[q]:
        problems.append(f"{name}: new-family count {new} != published {PUBLISHED_NEW_COUNT[q]}")
    spots = doc.get("spot_checks")
    if not (isinstance(spots, dict) and spots):
        return None, problems + [f"{name}: no spot checks reported"]
    witnesses = {}
    for key, verdict in spots.items():
        m = re.fullmatch(r"ok:(T\w+)\(([^)]*)\)", str(verdict))
        if not (key.isdigit() and int(key) % 2 == 0 and 2 <= int(key) <= bound and m):
            problems.append(f"{name}: bad spot check {key}: {verdict}")
            continue
        witnesses[int(key)] = m
    p, d = _pd(q)
    picks = rng.choice(sorted(witnesses), size=min(WITNESS_SAMPLE, len(witnesses)),
                       replace=False)
    for n in sorted(int(x) for x in picks):
        m = witnesses[n]
        kw = {}
        for item in m.group(2).split(","):
            key, val = item.split("=")
            kw["k_sub" if key == "k" else key] = int(val)
        art, trace = build(m.group(1), p, d, **kw)
        doc_w = artifact_to_dict(art, trace.to_dict())
        if doc_w["n"] != n:
            problems.append(f"{name}: witness {m.group(0)} has n = {doc_w['n']}, not {n}")
        problems += [f"{name}: witness {m.group(0)}: {msg}"
                     for msg in checker.check_artifact(doc_w, rng)]
    return None, problems


# --- job lists ---

def construct_large(seed: int, work: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for tag, q, theorem, params in LARGE_CODES:
        art = work / f"{tag}.json"
        jobs.append(Job(f"construct_{tag}",
                        ["construct", "--q", str(q), "--theorem", theorem,
                         *_param_flags(params), "--no-mds", "--out", str(art)],
                        art, check_construct))
        jobs.append(Job(f"verify_{tag}",
                        ["verify", "--in", str(art), "--no-mds",
                         "--out", str(work / f"{tag}.report.json")],
                        work / f"{tag}.report.json", check_verify))
        if tag == TAMPERED:
            jobs += _tampered_jobs(art, work, rng)
    return jobs


def _tampered_jobs(art: Path, work: Path, rng: random.Random) -> list[Job]:
    """Three copies of `art`, each with one G entry x changed: to x - q and to
    x + q at a fixed position, so that whether verify handles them does not
    depend on the seed, and to a seeded in-range value other than +-x at a
    seeded position."""
    _, _, _, params = next(c for c in LARGE_CODES if c[0] == TAMPERED)
    k = params["m"] * params["t"] // 2
    n = 2 * k
    swap_row, swap_col, swap_draw = rng.randrange(k), rng.randrange(n), rng.random()
    kinds = {
        "minus": (k // 2, n // 3),
        "plus": (k // 2, n // 3),
        "swap": (swap_row, swap_col),
    }
    paths = {kind: work / f"tampered_{kind}.json" for kind in kinds}

    def prep():
        doc = json.loads(art.read_bytes())
        q = doc["q"]
        F = checker.Field(doc["p"], doc["d"], doc["modulus"])
        for kind, (r, c) in kinds.items():
            x = doc["G"][r][c]
            if kind == "minus":
                new = x - q
            elif kind == "plus":
                new = x + q
            else:
                neg_x = int(F.encode(-F.digits(x)))
                new = 1 + int(swap_draw * (q - 1))
                while new in (x, neg_x):
                    new = new % (q - 1) + 1
            doc["G"][r][c] = new
            paths[kind].write_text(json.dumps(doc, separators=(",", ":")))
            doc["G"][r][c] = x

    jobs = []
    for kind, (r, c) in kinds.items():
        report = work / f"tampered_{kind}.report.json"
        jobs.append(Job(f"verify_tampered_{kind}",
                        ["verify", "--in", str(paths[kind]), "--no-mds", "--out", str(report)],
                        report, check_tampered, prep=prep if kind == "minus" else None,
                        info={"kind": kind, "path": paths[kind], "row": r}))
    return jobs


def certify_small(seed: int, work: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for q in SMALL_Q:
        p, d = _pd(q)
        strata: dict[int, list] = {}
        for pr in iter_valid_params(p, d, SMALL_N_MAX):
            strata.setdefault(pr.n, []).append(pr)
        for n in sorted(strata):
            pr = rng.choice(strata[n])
            out = work / f"small_{q}_{n}.json"
            params = {key: getattr(pr, key) for key in FLAGS}
            jobs.append(Job(f"construct_{q}_{pr.label()}",
                            ["construct", "--q", str(q), "--theorem", pr.theorem,
                             *_param_flags(params), "--out", str(out)],
                            out, check_construct, info={"mds": True}))
    return jobs


def census(seed: int, work: Path) -> list[Job]:
    jobs = []
    for q in CENSUS_Q:
        out = work / f"census_{q}.json"
        jobs.append(Job(f"census_{q}",
                        ["census", "--q", str(q), "--rows", "prior", "--list",
                         "--spot-check-bound", str(SPOT_CHECK_BOUND), "--out", str(out)],
                        out, check_census, info={"q": q, "bound": SPOT_CHECK_BOUND}))
    return jobs


# name: (job list, noise weight).  The weight is the share of the Python
# kernel in the host-speed probe (speed.py).  It was fitted, not derived: on
# the reference host it is the weight with which the scaled round times
# spread least over several minutes (README.md, "Times are in reference
# seconds").  It need not equal the jobs' traced share of scalar Python
# work: census spends about 39 % of a traced round in Gram and rank (numpy),
# yet a census weight of 0.5 doubled its spread.  A change that moves the
# traced split far should be compared in raw seconds too, and the weight
# re-fitted with steady.py.
WORKLOADS = {
    "construct-large": (construct_large, 0.5),
    "certify-small": (certify_small, 0.5),
    "census": (census, 0.8),
}
