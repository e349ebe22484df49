"""Tests of the benchmark itself:

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import random
import re
import sys
from pathlib import Path

import layertrace
import run
import worker

BENCH_DIR = Path(__file__).resolve().parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
glie = worker.import_glie()


def test_fault_in_reference_record_counts_as_failed():
    for workload in worker.WORKLOADS:
        reference = worker.load_reference(workload)
        assert worker.compare(reference, reference) == (len(reference), 0, [])
        for key in reference:
            faulty = copy.deepcopy(reference)
            field = next(iter(faulty[key]))
            value = faulty[key][field]
            faulty[key][field] = (not value) if isinstance(value, bool) else (value, "fault")
            attempted, failed, _ = worker.compare(reference, faulty)
            assert (attempted, failed) == (len(reference), 1)
        attempted, failed, _ = worker.compare(None, reference)
        assert failed == attempted == len(reference)


def test_missing_and_extra_records_count_as_failed():
    reference = worker.load_reference("basis-q5")
    records = dict(reference)
    records.pop("window (y:1,1)")
    records["window (y:9)"] = {}
    attempted, failed, _ = worker.compare(records, reference)
    assert (attempted, failed) == (len(reference) + 1, 2)


def _snapshot():
    owners = [m for name, m in sys.modules.items() if name.startswith("glie.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("glie.")]
    return {(id(o), attr): val for o in owners for attr, val in list(vars(o).items())}


def test_wrappers_restore_every_patched_name():
    before = _snapshot()
    tracer = layertrace.Tracer()
    tracer.install()
    patched = [(owner, attr) for owner, attr, _ in tracer.patched]
    assert glie.identities.substitute is not before[(id(glie.identities), "substitute")]
    assert glie.freelie.substitute is glie.identities.substitute
    assert (glie.gradings, "check_identity") in patched
    assert (glie.fields.FieldElement, "__radd__") in patched
    tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.patched


def test_self_time_subtracts_child_spans():
    tracer = layertrace.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [(0, 0.0, 10.0, -1), (1, 1.0, 3.0, 0), (0, 4.0, 6.0, 0), (1, 4.5, 5.0, 2)]
    m = tracer.layer_metrics()
    assert m["outer.calls"] == 2 and m["inner.calls"] == 2
    assert m["outer.total_s"] == 10.0  # the nested outer span is not counted twice
    assert m["outer.self_s"] == (10.0 - 2.0 - 2.0) + (2.0 - 0.5)
    assert m["inner.self_s"] == 2.5


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.layer_metric_units()


def _traced(fn, *args):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return fn(*args), tracer.layer_metrics()
    finally:
        tracer.restore()


def test_traced_and_untraced_basis_verdicts_identical():
    alg, gens, windows = worker.setup_basis(glie, 5, ("(y:1,1)", "(z:1,1)"), seed=0)
    state = (alg, gens, windows)
    plain = worker.verify_basis(glie, state)
    traced, layers = _traced(worker.verify_basis, glie, state)
    assert traced == plain
    reference = worker.load_reference("basis-q5")
    assert all(reference[k] == v for k, v in plain.items())
    assert layers["freelie.substitute.calls"] > layers["freelie.expr_expand.calls"] > 0
    assert layers["fields.elem_ops"] > 0
    assert all(NAME_RE.fullmatch(n) for n in layers)


def test_traced_and_untraced_grading_verdicts_identical():
    spec = glie.fields.FieldSpec.prime(5)
    plain = worker.verify_gradings(glie, (spec, random.Random(0)))
    traced, layers = _traced(worker.verify_gradings, glie, (spec, random.Random(0)))
    assert traced == plain == worker.load_reference("gradings-p5")
    assert layers["gradings.classify_up_to_iso.calls"] == 2
