"""The benchmark's layer tracer names glie functions and FieldElement
operators by string.  A rename or deletion in glie would only show as a
crash of a traced benchmark run, so check every name here.

bench/layertrace.py is loaded by path and is not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from glie.fields import FieldElement

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("glie_bench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = load_layertrace()


@pytest.mark.parametrize("entry", TRACE.TIMED, ids=lambda e: e[0])
def test_timed_entry_resolves(entry):
    _, module, path, _ = entry
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    assert attr in vars(owner)  # the tracer patches owner.__dict__[attr]


def test_counted_ops_are_field_element_methods():
    missing = [op for op in TRACE.COUNTED_OPS if op not in FieldElement.__dict__]
    assert missing == []


def test_tracer_counts_a_gradings_run(monkeypatch):
    """A traced run of the grading layer and two kernels: every count the
    tracer reports is an int, linalg.kernel.rows adds up the row counts of
    the matrices given to MatrixGF.kernel, and restore() puts every patched
    object back."""
    import glie.gradings
    from glie.fields import FieldSpec
    from glie.linalg import MatrixGF

    kernel = MatrixGF.kernel
    seen_rows = []

    def recording_kernel(self):
        seen_rows.append(self.rows)
        return kernel(self)

    monkeypatch.setattr(MatrixGF, "kernel", recording_kernel)
    enumerate_z2_gradings = glie.gradings.enumerate_z2_gradings
    tracer = TRACE.Tracer()
    tracer.install()
    try:
        spec = FieldSpec.prime(5)
        gradings = glie.gradings.enumerate_z2_gradings("sl2_lie", spec)
        verdict = glie.gradings.natural_characterization(gradings[1])
        square = MatrixGF.from_rows(spec, [[1, 2], [3, 1]]).kernel()
        ker = MatrixGF.from_rows(spec, [[1, 2, 0], [2, 4, 0], [0, 0, 1], [1, 2, 1], [0, 0, 0]]).kernel()
        metrics = tracer.layer_metrics()
    finally:
        tracer.restore()
    assert len(gradings) == 26 and verdict.hypotheses_hold
    assert square.dim == 1 and ker.dim == 1
    assert glie.gradings.enumerate_z2_gradings is enumerate_z2_gradings
    assert MatrixGF.__dict__["kernel"] is recording_kernel
    counts = {k: v for k, v in metrics.items()
              if k.endswith((".calls", ".rows", ".evaluations", ".rank")) or k == "fields.elem_ops"}
    assert [k for k, v in counts.items() if type(v) is not int] == []
    assert metrics["gradings.enumerate_z2_gradings.calls"] == 1
    assert metrics["gradings.natural_characterization.calls"] == 1
    assert metrics["linalg.kernel.calls"] == len(seen_rows) > 1
    assert metrics["linalg.kernel.rows"] == sum(seen_rows)
    assert seen_rows[-1] == 5
