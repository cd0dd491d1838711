"""Benchmark for mdssd's batch jobs: construct, verify and census.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's jobs through `mdssd.cli.main` in this process, one after
another, in whole rounds until another round would not end within S seconds
(at least two rounds).  The
`make_field` cache is cleared before every job, so each job pays for its
field tables as a fresh `mdssd` process does.  Every output is then checked
by the independent checker in `checker.py`.  Times are reported in reference
seconds: each is divided by the host's slowness, which the probe of
`speed.py` measures right before and after it.

The last line of standard output is one JSON object: whether every output
was correct, the operations attempted and failed, and the metrics.  With
--trace 0 they are the end-to-end metrics; with --trace 1 the rounds
alternate between untraced and traced, and they are the per-layer metrics of
the traced rounds.  Earlier lines give the per-job figures, the round time
in raw seconds and the whole run's raw duration.  These raw figures also go
to .bench_out/result-<workload>-<seed>.json, so that two runs can be compared
without the scaling.  Spans of traced rounds are written to
.bench_out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from tracer import Tracer, layer_times

STARTED = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
# jobs that end sooner than this after the last probe share it: host speed
# holds for seconds at a time, and a probe every few milliseconds would
# triple the length of a round of tiny jobs
PROBE_INTERVAL_S = 0.5
# a median needs two rounds; a traced run needs an untraced and a traced one
MIN_ROUNDS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "field.make_field_s": "s", "field.elements_tabulated": "count", "field.self_s": "s",
    "constructions.validate_s": "s", "constructions.select_coset_reps_s": "s",
    "constructions.build_s": "s", "constructions.iter_valid_params_s": "s",
    "constructions.param_tuples": "count", "constructions.self_s": "s",
    "grs.assemble_s": "s", "grs.all_locators_s": "s", "grs.locator_products": "count",
    "grs.generator_matrix_s": "s", "grs.matrix_entries": "count",
    "grs.serialize_s": "s", "grs.json_bytes": "bytes", "grs.artifact_from_dict_s": "s",
    "grs.self_s": "s",
    "verify.verify_artifact_s": "s", "verify.gram_s": "s", "verify.gram_products": "count",
    "verify.rank_s": "s", "verify.rank_calls": "count", "verify.minors_s": "s",
    "verify.minor_subsets": "count", "verify.min_distance_s": "s",
    "verify.codewords": "count", "verify.self_s": "s",
    "census.rules_s": "s", "census.spot_checks_s": "s", "census.spot_checks": "count",
    "census.self_s": "s",
    "cli.overhead_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}


def cap_threads() -> None:
    """Native thread pools get at most one thread per available core."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def import_program():
    """Import mdssd from this checkout's src/, and from nowhere else."""
    if not (SRC / "mdssd" / "__init__.py").is_file():
        raise ImportError(f"no mdssd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mdssd.cli
    import mdssd.field

    if Path(mdssd.cli.__file__).resolve().parent != SRC / "mdssd":
        raise ImportError(f"mdssd was imported from {mdssd.cli.__file__}, not {SRC}")
    return mdssd.cli, mdssd.field.make_field


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(args, probe) -> float:
    """Median time from starting a fresh interpreter until it has imported
    mdssd and generated the workload's job list."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = probe.measure()
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
        times.append((ready - start) * 2 / (before + probe.measure()))
    return statistics.median(times)


class JobResult(NamedTuple):
    rc: int
    traceback: str | None
    seconds: float  # reference seconds
    raw: float  # seconds as measured
    digest: str | None  # sha256 of the output file
    output: bytes | None  # kept only when it differs from round 1's


def run_job(cli, make_field, job, tracer):
    make_field.cache_clear()
    if job.out.exists():
        job.out.unlink()
    tb = None
    with contextlib.redirect_stderr(io.StringIO()):
        span = tracer.job_span(job.name) if tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                rc = cli.main(job.argv)
        except SystemExit as ex:
            rc = ex.code if isinstance(ex.code, int) else 2
        except Exception:
            rc, tb = 1, traceback.format_exc()
        seconds = perf_counter() - start
    return rc, tb, seconds


def run_rounds(cli, make_field, jobs, seconds, trace, probe):
    """Whole rounds of the job list.  Returns one record per round: whether it
    was traced, its tracer, each job's time scale and a JobResult per job."""
    rounds = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        traced = bool(trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        results, scales = [], {}
        before, probed = probe.measure(), perf_counter()
        with tracer.instrument() if tracer else contextlib.nullcontext():
            for job in jobs:
                if job.prep:
                    job.prep()
                rc, tb, secs = run_job(cli, make_field, job, tracer)
                after = before
                if perf_counter() - probed >= PROBE_INTERVAL_S or job is jobs[-1]:
                    after, probed = probe.measure(), perf_counter()
                scales[job.name] = scale = 2 / (before + after)
                before = after
                output = job.out.read_bytes() if job.out.exists() else None
                digest = hashlib.sha256(output).hexdigest() if output is not None else None
                if rounds and rounds[0]["jobs"][len(results)].digest == digest:
                    output = None
                results.append(JobResult(rc, tb, secs * scale, secs, digest, output))
        rounds.append({"traced": traced, "tracer": tracer, "scales": scales,
                       "jobs": results, "elapsed": perf_counter() - round_start})
        elapsed = perf_counter() - start
        typical = statistics.median(rd["elapsed"] for rd in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


def judge(jobs, rounds, rng):
    """Count attempted and failed operations over all rounds and collect the
    checker's problems.  A job whose output, exit code and traceback equal
    round 1's shares round 1's verdict."""
    from workloads import Outcome

    attempted = failed = 0
    problems, failures = [], []
    first = {}
    for rd in rounds:
        for i, (job, res) in enumerate(zip(jobs, rd["jobs"])):
            attempted += 1
            key = (res.rc, res.traceback is None, res.digest)
            if key in first.get(i, {}):
                failure, probs = first[i][key]
            else:
                output = res.output
                if output is None and res.digest is not None:
                    output = rounds[0]["jobs"][i].output
                failure, probs = job.check(job, Outcome(res.rc, res.traceback, output), rng)
                first.setdefault(i, {})[key] = (failure, probs)
                problems += probs
                if failure:
                    failures.append(failure)
            failed += failure is not None
    return attempted, failed, problems, failures


def per_job_figures(workload, jobs, rounds) -> dict[str, float]:
    """Per-job reference seconds (median over untraced rounds) under the
    job's name, plus the workload's summary figures."""
    plain = [rd["jobs"] for rd in rounds if not rd["traced"]]
    out = {}
    for i, job in enumerate(jobs):
        out[f"{job.name}_s"] = statistics.median(rd[i].seconds for rd in plain)
    if workload == "construct-large":
        out["verify_json_s"] = statistics.median(
            sum(r.seconds for job, r in zip(jobs, rd) if job.name.startswith("verify_"))
            for rd in plain)
    if workload == "certify-small":
        out["certified_per_s"] = statistics.median(
            sum(r.rc == 0 for r in rd) / sum(r.seconds for r in rd) for rd in plain)
    return out


def layer_metrics(rounds) -> dict[str, float]:
    per_round = []
    for rd in rounds:
        if rd["traced"]:
            vals = dict(layer_times(rd["tracer"].spans, rd["scales"]))
            vals.update(rd["tracer"].counts)
            vals["trace.spans"] = len(rd["tracer"].spans)
            vals["trace.wall_s"] = sum(r.seconds for r in rd["jobs"])
            per_round.append(vals)
    out = {name: statistics.median(v.get(name, 0) for v in per_round) for name in PER_LAYER}
    out["trace.untraced_wall_s"] = statistics.median(
        sum(r.seconds for r in rd["jobs"]) for rd in rounds if not rd["traced"])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def end_to_end_metrics(rounds, setup_s, peak_rss_mb) -> dict[str, float]:
    plain = [rd["jobs"] for rd in rounds]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r.seconds for r in rd) for rd in plain),
        "peak_rss_mb": peak_rss_mb,
    }


def write_spans(path: Path, rounds) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n, rd in enumerate(rounds):
            if not rd["traced"]:
                continue
            for name, start, end, parent, job in rd["tracer"].spans:
                fh.write(json.dumps({"round": n, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    try:
        cli, make_field = import_program()
        import numpy as np
        import workloads
        from speed import SpeedProbe
    except ImportError as ex:
        print(f"cannot import the program: {ex}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    make_jobs, noise_weight = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make_jobs(args.seed, OUT)
        print("ready", flush=True)
        return 0

    probe = SpeedProbe(noise_weight)
    setup_s = None if args.trace else measure_setup(args, probe)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        jobs = make_jobs(args.seed, work)
        rounds = run_rounds(cli, make_field, jobs, args.seconds, args.trace, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rng = np.random.default_rng(args.seed)
        attempted, failed, problems, failures = judge(jobs, rounds, rng)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw_wall_s = statistics.median(sum(r.raw for r in rd["jobs"]) for rd in rounds
                                   if not rd["traced"])
    raw_jobs_s = {f"{job.name}_s": statistics.median(rd["jobs"][i].raw for rd in rounds
                                                     if not rd["traced"])
                  for i, job in enumerate(jobs)}
    run_s = perf_counter() - STARTED
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({sum(rd['traced'] for rd in rounds)} traced) of {len(jobs)} jobs; "
          f"median host slowness {probe.median():.4f} (reference host 1)")
    print(f"  raw seconds: untraced round median {raw_wall_s:.4f} s, "
          f"whole run {run_s:.1f} s")
    for name, val in per_job_figures(args.workload, jobs, rounds).items():
        unit = "artifacts/s" if name.endswith("_per_s") else "s"
        print(f"  {name} {val:.4f} {unit}")
    for failure in failures:
        print(f"  failed: {failure}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    (OUT / f"result-{args.workload}-{args.seed}.json").write_text(json.dumps({
        "rounds": len(rounds), "traced_rounds": sum(rd["traced"] for rd in rounds),
        "median_slowness": probe.median(), "raw_wall_s": raw_wall_s,
        "raw_run_s": run_s, "raw_jobs_s": raw_jobs_s,
    }, indent=1))
    if args.trace:
        write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", rounds)
        values, units = layer_metrics(rounds), PER_LAYER
    else:
        values = end_to_end_metrics(rounds, setup_s, peak_rss_mb)
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
