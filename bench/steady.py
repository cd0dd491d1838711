"""Steadiness of the benchmark: run workloads repeatedly, seeds 1 to --runs,
each for BENCHMARK.json's run_seconds, and print each metric's median,
quartiles and spread.

    python3 bench/steady.py                         # every workload, 10 runs
    python3 bench/steady.py --workload census --runs 5
    python3 bench/steady.py --runs 1                # one run of each workload
    python3 bench/steady.py --runs 1 --trace 1      # one traced run of each

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  Each end-to-end metric's spread is shown
against its bound in BENCHMARK.json; a benchmark is steady when every spread
but that of setup_s is below a third of its bound, and the share of failed
operations is the same in every run.  The per-run results are also written to
.bench_out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat to pick several; default every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            start = perf_counter()
            res = run_once(workload, i + 1, bench["run_seconds"], args.trace)
            results.append(res)
            print(f"{workload} seed {i + 1}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"in {perf_counter() - start:.1f} s", flush=True)
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        (ROOT / ".bench_out" / f"steady-{workload}.json").write_text(json.dumps(results))
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct {correct}")
        steady &= correct and len(shares) == 1
        print(f"   {'metric':34} {'unit':>6} {'Q1':>12} {'median':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3, spr = spread(vals)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                ok = spr < bound / 3
                steady &= ok
                mark = "" if ok else "  <-- spread not below bound/3"
            print(f"   {name:34} {first['unit']:>6} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                  f"{spr:8.4f} {'' if bound is None else bound:>6}{mark}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
