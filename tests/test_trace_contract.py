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
