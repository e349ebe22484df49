"""Benchmark of the glie verifier: one workload, one seed, one run.

    python3 bench/run.py --workload basis-q5 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports glie from `src/` there. Each
repetition is a fresh interpreter (see worker.py), started one after the
other with thread-count variables set to 1. Another repetition starts while
it would end less than half a repetition after `--seconds`, so a run lasts
about `--seconds` on average. At least one repetition always runs.

--trace 0 reports the end-to-end metrics, the median over the repetitions:
setup_s (interpreter start to the first verification call; three
set-up-only repetitions before each full one add samples), verify_s (wall time of the
verification calls) and peak_rss_mb (peak resident memory of a repetition).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of layertrace.py, with the tracing overhead, and writes
the spans of the last traced repetition to bench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
An operation (a soundness check, a window record, a grading result) fails
when it raises or differs from reference.json; ops_failed_frac, printed
above the JSON line, is failed / attempted. If a repetition cannot run at
all (for example, src/glie is missing), the runner exits with code 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import derived_metrics, layer_metric_units
from worker import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS_PER_REP = 3
CHILD_TIMEOUT_S = 120  # a run must end within 180 s even if a repetition hangs
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def worker_env(seed: int) -> dict:
    env = dict(os.environ)
    for var in ("PYTHONOPTIMIZE", "PYTHONPATH", "PYTHONSTARTUP"):
        env.pop(var, None)
    for var in THREAD_VARS:
        env[var] = "1"
    # the seed fixes hash order too, so one seed repeats exactly
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run one repetition; returns its JSON report."""
    started = time.time()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(started), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(seed), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"repetition exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool):
    """All repetitions of one run: (untraced reports, traced reports, setup samples)."""
    deadline = time.time() + seconds
    spawn(workload, seed, "--setup-only")  # warm-up: byte-compiles src/ and fills the page cache
    setups = []
    plain, traced = [], []
    longest = {False: 0.0, True: 0.0}
    spans_out = BENCH_DIR / "out" / f"spans-{workload}.json.gz"
    while True:
        with_trace = trace and len(traced) < len(plain)
        done = plain and (traced or not trace)
        if done and time.time() + longest[with_trace] / 2 > deadline:
            break
        started = time.time()
        if with_trace:
            spans_out.parent.mkdir(exist_ok=True)
            traced.append(spawn(workload, seed, "--trace-out", str(spans_out)))
        else:
            if not trace:
                # spread over the run, so the median sees the same machine as verify_s
                setups += [spawn(workload, seed, "--setup-only")["setup_s"]
                           for _ in range(SETUP_REPS_PER_REP)]
            plain.append(spawn(workload, seed))
        longest[with_trace] = max(longest[with_trace], time.time() - started)
    return plain, traced, setups


def summarise(plain, traced, setups, trace: bool) -> dict:
    med = statistics.median
    if not trace:
        values = {
            "setup_s": med(setups + [r["setup_s"] for r in plain]),
            "verify_s": med(r["verify_s"] for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    else:
        units = layer_metric_units()
        per_rep = [{**r["layers"], **derived_metrics(r["layers"])} for r in traced]
        values = {name: med(rep[name] for rep in per_rep)
                  for name in units if not name.startswith("trace.")}
        values["trace.verify_s"] = med(r["verify_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.verify_s"] - med(r["verify_s"] for r in plain)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="glie benchmark: one workload, one seed, one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    try:
        plain, traced, setups = run(args.workload, args.seed, args.seconds, trace)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = summarise(plain, traced, setups, trace)

    env = plain[0]["env"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{len(setups)} set-up-only; nproc {os.cpu_count()}, "
          f"python {env['python']}, numpy {env['numpy']}")
    for label, reps in (("untraced", plain), ("traced", traced)):
        if reps:
            print(f"# {label} verify_s per repetition: "
                  + " ".join(f"{r['verify_s']:.3f}" for r in reps))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:14.6f} {m['unit']}")
    print(f"{'ops_failed_frac':44s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} operations)")
    for r in reports:
        for line in r["mismatches"]:
            print(f"# mismatch: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
