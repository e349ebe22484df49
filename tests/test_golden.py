"""Outputs of consequence_span and identity_space frozen before their
reductions changed.

data/consequence_span_golden.json holds the exact RREF rows (field codes)
that consequence_span returned when every instance was still substituted
and bounded one by one, before instances were pruned from composed degree
bounds.  data/identity_space_golden.json holds the rows identity_space
returned when it reduced all evaluation rows in one matrix, before it
reduced them block by block.  Each case names its generator set or algebra,
q, window family and label, and the settings fields it overrides.  Every row
must be reproduced exactly, in the exhaustive and in the seeded random or
sampled branches (the random span branch must consume the same rng draws).
"""

import json
from pathlib import Path

import pytest

from glie.algebra import sl2, span_e11_e12
from glie.fields import FieldSpec
from glie.freelie import lema5_set, set_s
from glie.identities import (
    IdentitySettings,
    SpanSettings,
    consequence_span,
    default_sl2_windows,
    identity_space,
    total_degree_windows,
)

DATA = Path(__file__).parent / "data"
SPAN_GOLDEN = json.loads((DATA / "consequence_span_golden.json").read_text(encoding="utf-8"))
IDS_GOLDEN = json.loads((DATA / "identity_space_golden.json").read_text(encoding="utf-8"))
GENS = {"S": set_s, "lema5": lema5_set}
ALGEBRAS = {"sl2": sl2, "e11e12": span_e11_e12}
WINDOWS = {"default": default_sl2_windows, "total3": lambda q: total_degree_windows(3, q)}
Q7_WINDOWS = {"(z:1,1,1)", "(y:1,z:1,1)"}


def window_of(case):
    window = next(w for w in WINDOWS[case["windows"]](case["q"]) if w.label == case["window"])
    assert window.dim == case["ambient_dim"]
    return window


def codes(basis):
    return [[c.code for c in row] for row in basis.rows]


def span_rows(case):
    q = case["q"]
    return codes(consequence_span(FieldSpec.prime(q), GENS[case["gens"]](q), window_of(case),
                                  SpanSettings(**case["settings"])))


def ids_rows(case):
    alg = ALGEBRAS[case["algebra"]](FieldSpec.prime(case["q"]))
    return codes(identity_space(alg, window_of(case), IdentitySettings(**case["settings"])))


def mismatches(cases, rows_of):
    return [(c["q"], c["window"], c["settings"]) for c in cases if rows_of(c) != c["rows"]]


def default_cases(golden):
    cases = [c for c in golden if c["windows"] == "default"]
    assert {(c["q"], c["window"]) for c in cases} == (
        {(5, w.label) for w in default_sl2_windows(5)} | {(7, label) for label in Q7_WINDOWS})
    return cases


SPAN_DEFAULT = default_cases(SPAN_GOLDEN)
IDS_DEFAULT = default_cases(IDS_GOLDEN)


@pytest.mark.parametrize("case", SPAN_DEFAULT,
                         ids=[f"q{c['q']}-{c['window']}" for c in SPAN_DEFAULT])
def test_span_set_s_default_windows(case):
    assert span_rows(case) == case["rows"]


def test_span_lema5_total_degree_3_exhaustive():
    cases = [c for c in SPAN_GOLDEN if c["windows"] == "total3" and not c["settings"]]
    assert len(cases) == 13
    assert mismatches(cases, span_rows) == []


def test_span_random_branch_same_draws():
    cases = [c for c in SPAN_GOLDEN if "exhaustive_pool_limit" in c["settings"]]
    assert len(cases) == 104
    # the frozen ranks vary with the seed, so a change in the draws shows
    assert len({(c["gens"], c["window"], len(c["rows"])) for c in cases}) > 26
    assert mismatches(cases, span_rows) == []


@pytest.mark.parametrize("case", IDS_DEFAULT,
                         ids=[f"q{c['q']}-{c['window']}" for c in IDS_DEFAULT])
def test_identity_space_sl2_default_windows(case):
    assert ids_rows(case) == case["rows"]


def test_identity_space_total_degree_3():
    cases = [c for c in IDS_GOLDEN if c["windows"] == "total3"]
    assert {c["algebra"] for c in cases} == {"sl2", "e11e12"}
    assert any(c["settings"] for c in cases)  # the sampled branch
    assert mismatches(cases, ids_rows) == []
