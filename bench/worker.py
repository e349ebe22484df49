"""One repetition of one benchmark workload, in a fresh interpreter.

Started by run.py, once per repetition:

    python3 bench/worker.py --workload basis-q5 --seed 3 --spawned-at <time.time()>
        [--setup-only] [--trace-out bench/out/spans.json.gz]

It imports `glie` from `src/` of the checkout it sits in, sets the workload
up, runs the verification calls, compares every result with the frozen
reference in reference.json, and prints one JSON line:

    {"setup_s": ..., "verify_s": ..., "peak_rss_mb": ..., "attempted": ...,
     "failed": ..., "mismatches": [...], "records": {...}, "layers": {...}}

The seed only permutes the order of the windows or gradings handed to
`glie`; the set of operations, and so the reference, is the same for every
seed. A fresh interpreter per repetition matters: `sl2_automorphisms` and
`m2_automorphisms` are lru-cached, and every user pays their scan once.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from layertrace import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# windows of default_sl2_windows(7) that basis-q7 keeps; the two span-heavy
# q = 7 windows would make one repetition take about 45 s
Q7_WINDOWS = ("(z:1,1,1)", "(y:1,z:1,1)")
GEN_LABELS = ("sem1_graded", "sem2_graded", "yy", "zyq_zy")


def import_glie():
    """Import glie from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC_DIR))
    import glie.algebra
    import glie.fields
    import glie.freelie
    import glie.gradings
    import glie.identities
    import glie.linalg

    for mod in (glie.algebra, glie.fields, glie.freelie, glie.gradings,
                glie.identities, glie.linalg):
        if Path(mod.__file__).resolve().parent != SRC_DIR / "glie":
            raise ImportError(f"{mod.__name__} imported from {mod.__file__}, not {SRC_DIR}")
    return glie


# ---------------------------------------------------------------------------
# workloads: setup(glie, seed) -> state; verify(glie, state) -> records
# ---------------------------------------------------------------------------


def setup_basis(glie, q: int, keep, seed: int):
    alg = glie.algebra.sl2(glie.fields.FieldSpec.prime(q))
    gens = glie.freelie.set_s(q)
    windows = glie.identities.default_sl2_windows(q)
    if keep is not None:
        windows = [w for w in windows if w.label in keep]
    random.Random(seed).shuffle(windows)
    return alg, gens, windows


def verify_basis(glie, state) -> dict:
    alg, gens, windows = state
    report = glie.identities.basis_check(alg, gens, windows, gen_labels=list(GEN_LABELS))
    records = {}
    for label, check in report.soundness:
        records[f"soundness {label}"] = {"holds": check.holds, "evaluations": check.evaluations}
    for w in report.windows:
        records[f"window {w.label}"] = {
            "ambient_dim": w.ambient_dim, "id_dim": w.id_dim,
            "cons_dim": w.cons_dim, "status": w.status}
    return records


def setup_gradings(glie, seed: int):
    return glie.fields.FieldSpec.prime(5), random.Random(seed)


def grading_key(d) -> str:
    even, odd = d.key()
    return ("even=" + ";".join(",".join(map(str, r)) for r in even)
            + " odd=" + ";".join(",".join(map(str, r)) for r in odd))


def verify_gradings(glie, state) -> dict:
    spec, rng = state
    g = glie.gradings
    records = {}
    for target, check in (("sl2_lie", _natural_record), ("m2_assoc", _unit_record)):
        descriptors = g.enumerate_z2_gradings(target, spec)
        rng.shuffle(descriptors)
        for i, c in enumerate(g.classify_up_to_iso(descriptors)):
            records[f"{target} class {i}"] = {
                "size": c.size, "even_dim": c.even_dim, "odd_dim": c.odd_dim,
                "zyq_identity_holds": c.zyq_identity_holds}
        for d in descriptors:
            records[f"{target} {grading_key(d)}"] = _guarded(check, glie, d)
    return records


def _natural_record(glie, d) -> dict:
    verdict = glie.gradings.natural_characterization(d)
    return {"natural": verdict.hypotheses_hold, "failing": verdict.failing}


def _unit_record(glie, d) -> dict:
    return {"unit_in_even": glie.gradings.unit_component_check(d)}


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


WORKLOADS = {
    "basis-q5": (lambda glie, seed: setup_basis(glie, 5, None, seed), verify_basis),
    "basis-q7": (lambda glie, seed: setup_basis(glie, 7, Q7_WINDOWS, seed), verify_basis),
    "gradings-p5": (setup_gradings, verify_gradings),
}


# ---------------------------------------------------------------------------
# checking against the frozen reference
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def compare(records: dict | None, reference: dict):
    """(attempted, failed, mismatches). Every reference record is one
    operation; a missing, different or extra record is a failed one. With
    records None (the verification raised) every operation failed."""
    if records is None:
        return len(reference), len(reference), ["verification raised"]
    mismatches = []
    for key, expected in reference.items():
        got = records.get(key)
        if got != expected:
            mismatches.append(f"{key}: expected {expected}, got {got}")
    extra = sorted(set(records) - set(reference))
    mismatches.extend(f"{key}: not in the reference" for key in extra)
    return len(reference) + len(extra), len(mismatches), mismatches


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() in the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="trace the run and write its spans to this file")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("run without -O: it strips the asserts basis_check relies on")

    glie = import_glie()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    try:
        setup, verify = WORKLOADS[args.workload]
        state = setup(glie, args.seed)
        out = {"setup_s": time.time() - args.spawned_at}
        if not args.setup_only:
            t0 = time.perf_counter()
            try:
                records = verify(glie, state)
            except Exception as exc:  # counted as failed operations, reported below
                records = None
                error = f"{type(exc).__name__}: {exc}"
            out["verify_s"] = time.perf_counter() - t0
            attempted, failed, mismatches = compare(records, load_reference(args.workload))
            if records is None:
                mismatches.append(error)
            out.update(attempted=attempted, failed=failed, mismatches=mismatches[:20],
                       records=records)
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            tracer.write_spans(args.trace_out)
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = {"python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
