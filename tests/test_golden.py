"""Outputs of consequence_span, identity_space and the freelie expression
interpreter, frozen before their implementations changed.

data/consequence_span_golden.json holds the exact RREF rows (field codes)
that consequence_span returned when every instance was still substituted
and bounded one by one, before instances were pruned from composed degree
bounds.  data/identity_space_golden.json holds the rows identity_space
returned when it reduced all evaluation rows in one matrix, before it
reduced them block by block.  Each case names its generator set or algebra,
q, window family and label, and the settings fields it overrides.  Every
identity-space row must be reproduced exactly by the one exact evaluation on
scaling representatives that replaced both the exhaustive and the seeded
sampled branch; the identity-space settings recorded with a case (those of
the sampled branch) are no longer read.  The span cases frozen from the
exhaustive search must be reproduced exactly by the linear closure that
replaced it.  The 104
cases frozen from the search's seeded random walk lie below the span, so
the closure, which takes no seed and no settings, must contain every frozen
row and equal the identity space; the span settings recorded with a case are
no longer read.

data/freelie_golden.json holds what evaluation and expansion returned when
freelie still walked expressions separately for scalar evaluation, batch
evaluation and associative expansion.  It has batch_evaluate codes on
seeded rows of sl2 (set_s(q), sem1(q), sem2(q) at q = 5 and 7, on GF(5) and
GF(7); yy, zz, zyq_zy(25) and an AdPolyDiff chain at GF(25); sem1(2) and
sem2(2), which are no identities there), with the scalar evaluate result of
the first rows; poly_batch_evaluate of a GF(25) polynomial with proper
extension-field coefficients; and expr_expand terms of a fixed list of
expressions, among them AdPolyDiff slots whose terms are not given in
ascending exponent order.  Its "analyses" key holds what expr_variables,
expr_parity, degree_bound and degree_form (over the expression's own
variables) returned when each was still a walker of its own, before they
became backends of the one interpreter: on sem1, sem2, sem1_graded,
sem2_graded and zyq_zy at q = 5, 7, 11 and 13, on sem1 and sem2 over
renamed variables, yy, zz, chains with unsorted AdPolyDiff exponents, an
ad power of exponent 0, bases of mixed parity, ungraded variables, and
substitute instances with bracket images.  None of them holds ZERO.

data/linalg_golden.json holds what rref_rows (rows and pivots; now read
through rref_codes),
MatrixGF.kernel and SubspaceBasis.intersect returned when elimination still
ran on FieldElement objects, on seeded matrices and subspace pairs at GF(5),
GF(7) and GF(25): tall, wide, rank-deficient, all-zero, duplicate-row,
sparse and single-row matrices, and intersections of generic, nested, equal,
zero and rank-deficient spans.  data/sl2_automorphisms_p5.json holds the
sorted p = 5 sl2_automorphisms list from before the scan called
batch_bracket.

data/gradings_golden.json holds what the gradings layer returned at p = 5
and 7 when it still scanned all p^9 matrices, applied maps one MatrixGF at a
time and checked the q-power identity with scalar brackets: the length and
sha256 of the sorted sl2_automorphisms array, the m2_automorphisms codes, the
enumerate_z2_gradings keys of both targets, each class of classify_up_to_iso
(on the enumerated M2 and sl2 lists, on reference_m2_descriptors, and on the
references mixed with the enumerated M2 list), every natural_characterization
verdict with its witness and isomorphism, every unit_component_check, and the
unit_component_check of both lifts of every sl2 grading.

data/subspace_golden.json holds what linalg and the grading helpers returned
when SubspaceBasis and MatrixGF still stored FieldElement tuples: for every
subspace of linalg_golden.json at GF(5), GF(7) and GF(25), its RREF rows,
vectors() in order (the full list up to 125 vectors, a sha256 of the code
array up to 400,000 vectors) and contains() on seeded members and
non-members; product_space rows of seeded subspace pairs of sl2, gl2 and
m2_grading_iii at all three fields; the structure constants of those three
algebras; and the descriptor_to_algebra constants of every class
representative of both targets and of reference_m2_descriptors at p = 5 and
7.

data/sl2_orbits_golden.json holds what identities._sl2_orbits returned at
q = 5, 7, 11, 13 and 25 when its orbit tables still came from closed-form
constructions (a companion-form conjugator for the cover, the centralizers
F[r]^x for the stabilizers): the number of representatives and of pair rows,
and the sha256 of the little-endian int64 bytes of reps, firsts and seconds.

data/check_golden.json holds what check_identity returned at q = 5 and 7 on
every grid algebra (sl2, gl2, the three M2 gradings, heisenberg and
abelian(0, 1, 1, 1)) for set_s(q), lema5_set(q), zz(), [[y1, z1], z1] and
[[z1, y1], y1], before its variables took the reduced domains of
identities._domains: holds, and for a check that holds, evaluations, the
number of assignments it covers, which no reduction may change.  A refuted
check's evaluations counted rows of the whole domains, so they are not kept.
The cases with a "budget" needed more than the default 4 M rows then and
were frozen at that budget; they must now pass at the default.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from glie.algebra import (abelian, gl2, heisenberg, m2_grading_i, m2_grading_ii, m2_grading_iii,
                          product_space, sl2, span_e11_e12)
from glie.fields import FieldSpec
from glie.freelie import (
    AdPolyDiff,
    AdPower,
    LiePolynomial,
    Scale,
    Sum,
    Var,
    Variable,
    batch_evaluate,
    bracket,
    chain,
    degree_bound,
    degree_form,
    evaluate,
    expr_expand,
    expr_parity,
    expr_variables,
    lema5_set,
    poly_to_expr,
    sem1,
    sem1_graded,
    sem2,
    sem2_graded,
    set_s,
    substitute,
    x,
    y,
    yy,
    z,
    zyq_zy,
    zz,
)
from glie.gradings import (
    GradingDescriptor,
    classify_up_to_iso,
    descriptor_to_algebra,
    enumerate_z2_gradings,
    lift_sl2_grading_to_gl2,
    m2_automorphisms,
    natural_characterization,
    reference_m2_descriptors,
    sl2_automorphisms,
    unit_component_check,
)
from glie.identities import (
    _sl2_orbits,
    check_identity,
    consequence_span,
    default_sl2_windows,
    identity_space,
    total_degree_windows,
)
from glie.linalg import MatrixGF, SubspaceBasis, rref_codes

DATA = Path(__file__).parent / "data"
SPAN_GOLDEN = json.loads((DATA / "consequence_span_golden.json").read_text(encoding="utf-8"))
IDS_GOLDEN = json.loads((DATA / "identity_space_golden.json").read_text(encoding="utf-8"))
FREELIE_GOLDEN = json.loads((DATA / "freelie_golden.json").read_text(encoding="utf-8"))
LINALG_GOLDEN = json.loads((DATA / "linalg_golden.json").read_text(encoding="utf-8"))
AUTOMORPHISMS_P5 = json.loads((DATA / "sl2_automorphisms_p5.json").read_text(encoding="utf-8"))
GRADINGS_GOLDEN = json.loads((DATA / "gradings_golden.json").read_text(encoding="utf-8"))
SUBSPACE_GOLDEN = json.loads((DATA / "subspace_golden.json").read_text(encoding="utf-8"))
ORBITS_GOLDEN = json.loads((DATA / "sl2_orbits_golden.json").read_text(encoding="utf-8"))
CHECK_GOLDEN = json.loads((DATA / "check_golden.json").read_text(encoding="utf-8"))


def sha256_codes(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


GENS = {"S": set_s, "lema5": lema5_set}
ALGEBRAS = {"sl2": sl2, "e11e12": span_e11_e12}
GENS_ALGEBRA = {"S": sl2, "lema5": span_e11_e12}  # an algebra each set holds on
WINDOWS = {"default": default_sl2_windows, "total3": lambda q: total_degree_windows(3, q)}
Q7_WINDOWS = {"(z:1,1,1)", "(y:1,z:1,1)"}


def window_of(case):
    window = next(w for w in WINDOWS[case["windows"]](case["q"]) if w.label == case["window"])
    assert window.dim == case["ambient_dim"]
    return window


def codes(basis):
    return basis.rows.tolist()


def span_rows(case):
    q = case["q"]
    return codes(consequence_span(FieldSpec.prime(q), GENS[case["gens"]](q), window_of(case)))


def ids_rows(case):
    alg = ALGEBRAS[case["algebra"]](FieldSpec.prime(case["q"]))
    return codes(identity_space(alg, window_of(case)))


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


def test_span_contains_frozen_random_branch_rows():
    """The 104 cases frozen from the seeded random walk that consequence_span
    once took above a pool-size limit.  The walk stopped below the span, so
    the linear closure, which reads none of the walk's settings, must contain
    every frozen row and reach the identity space of the algebra the
    generators hold on."""
    cases = [c for c in SPAN_GOLDEN if "exhaustive_pool_limit" in c["settings"]]
    assert len(cases) == 104
    # the frozen ranks vary with the seed: the walk found less than the span
    assert len({(c["gens"], c["window"], len(c["rows"])) for c in cases}) > 26
    ids = {}
    for case in cases:
        q, window = case["q"], window_of(case)
        spec = FieldSpec.prime(q)
        span = consequence_span(spec, GENS[case["gens"]](q), window)
        frozen = np.array(case["rows"], dtype=np.int64).reshape(-1, window.dim)
        assert span.contains_rows(frozen), (case["gens"], case["window"])
        key = (case["gens"], case["window"])
        if key not in ids:
            ids[key] = identity_space(GENS_ALGEBRA[case["gens"]](spec), window)
        assert span == ids[key], key


@pytest.mark.parametrize("case", IDS_DEFAULT,
                         ids=[f"q{c['q']}-{c['window']}" for c in IDS_DEFAULT])
def test_identity_space_sl2_default_windows(case):
    assert ids_rows(case) == case["rows"]


def test_identity_space_total_degree_3():
    cases = [c for c in IDS_GOLDEN if c["windows"] == "total3"]
    assert {c["algebra"] for c in cases} == {"sl2", "e11e12"}
    assert any(c["settings"] for c in cases)  # frozen from the sampled branch
    assert mismatches(cases, ids_rows) == []


# -- freelie evaluation and expansion ------------------------------------------------


def gf25_chain():
    return chain(Var(z(1)), AdPolyDiff(Var(y(1)), ((2, 3), (-1, 1), (3, 2))),
                 AdPower(Var(z(2)), 2))


EVAL_EXPRS = {
    "sem1-graded": sem1_graded,
    "sem2-graded": sem2_graded,
    "yy": lambda q: yy(),
    "zz": lambda q: zz(),
    "zyq-zy": zyq_zy,
    "sem1": sem1,
    "sem2": sem2,
    "gf25-chain": lambda q: gf25_chain(),
}


def field_of(data):
    return FieldSpec.prime(data["p"]) if data["k"] == 1 else FieldSpec.extension(data["p"], 2)


def variable_of(name):
    return Variable(name[0], int(name[1:]))


def assignment_of(rows):
    return {variable_of(name): np.array(r, dtype=np.int64) for name, r in rows.items()}


def element_assignment(alg, assignment, row):
    return {v: alg.element([alg.spec.from_code(int(c)) for c in arr[row]])
            for v, arr in assignment.items()}


EVAL_CASES = FREELIE_GOLDEN["evaluations"]


@pytest.mark.parametrize("case", EVAL_CASES, ids=[
    f"{c['expr']}-q{c['q']}-GF{c['field']['p'] ** c['field']['k']}" for c in EVAL_CASES])
def test_batch_evaluate_frozen(case):
    alg = sl2(field_of(case["field"]))
    e = EVAL_EXPRS[case["expr"]](case["q"])
    assignment = assignment_of(case["rows"])
    assert batch_evaluate(e, alg, assignment).tolist() == case["values"]
    for row in range(2):
        value = evaluate(e, alg, element_assignment(alg, assignment, row), graded=False)
        assert [c.code for c in value.coeffs] == case["values"][row]


def test_frozen_evaluations_cover_the_cases():
    assert {(c["expr"], c["q"]) for c in EVAL_CASES} >= {
        (name, q) for q in (5, 7)
        for name in ("sem1-graded", "sem2-graded", "yy", "zyq-zy", "sem1", "sem2")}
    assert {c["expr"] for c in EVAL_CASES if c["q"] == 25} == {
        "yy", "zz", "zyq-zy", "gf25-chain"}
    # the frozen values are not all zero, so a wrong walk shows
    assert sum(any(any(r) for r in c["values"]) for c in EVAL_CASES) >= 19


def test_poly_evaluate_frozen():
    case = FREELIE_GOLDEN["poly_evaluation"]
    spec = field_of(case["field"])
    alg = sl2(spec)
    poly = LiePolynomial.from_dict(spec, {
        tuple(variable_of(v) for v in word): spec.from_code(code)
        for word, code in case["terms"]})
    assert any(c.code >= spec.p for _, c in poly.terms)  # proper extension scalars
    assignment = assignment_of(case["rows"])
    assert batch_evaluate(poly_to_expr(poly), alg, assignment).tolist() == case["values"]
    value = evaluate(poly_to_expr(poly), alg, element_assignment(alg, assignment, 0),
                     graded=False)
    assert [c.code for c in value.coeffs] == case["values"][0]


def expand_cases():
    gf5, gf7, gf25 = FieldSpec.prime(5), FieldSpec.prime(7), FieldSpec.extension(5, 2)
    y1, y2, z1, z2, x1, x2 = (Var(y(1)), Var(y(2)), Var(z(1)), Var(z(2)),
                              Var(x(1)), Var(x(2)))
    return [
        ("yy", gf5, yy()),
        ("zz", gf5, zz()),
        ("zyq-zy(5)", gf5, zyq_zy(5)),
        ("zyq-zy(7)", gf7, zyq_zy(7)),
        ("sem1(3)", gf5, sem1(3)),
        ("sem1(3)@gf7", gf7, sem1(3)),
        ("sem1-graded(2)", gf5, sem1_graded(2)),
        ("x1-diff-5-3", gf5, chain(x1, AdPolyDiff(x2, ((1, 5), (-1, 3))))),
        ("z1-diff-4-2-1-z2", gf7,
         chain(z1, AdPolyDiff(y1, ((1, 4), (2, 2), (-1, 1))), AdPower(z2, 1))),
        ("scaled-sum", gf5,
         Sum((bracket(y1, z1), Scale(3, bracket(z1, y1)), Scale(-2, chain(y1, AdPower(z1, 2)))))),
        ("jacobi", gf5,
         Sum((bracket(bracket(y1, z1), z2), bracket(bracket(z1, z2), y1),
              bracket(bracket(z2, y1), z1)))),
        ("nested-base", gf7,
         chain(z1, AdPower(bracket(y1, z2), 2), AdPolyDiff(y2, ((2, 3), (1, 1))))),
        ("gf25-chain", gf25, gf25_chain()),
        ("sum-of-diffs", gf25,
         Sum((chain(y1, AdPolyDiff(Sum((z1, Scale(2, y2))), ((3, 2), (1, 4)))),
              Scale(4, chain(z2, AdPolyDiff(y1, ((-1, 3), (1, 1)))))))),
    ]


def test_expr_expand_frozen():
    frozen = {c["expr"]: c for c in FREELIE_GOLDEN["expansions"]}
    cases = expand_cases()
    assert [name for name, _, _ in cases] == list(frozen)
    for name, spec, e in cases:
        assert field_of(frozen[name]["field"]) == spec
        terms = [[[str(v) for v in w], c.code] for w, c in expr_expand(e, spec).terms]
        assert terms == frozen[name]["terms"], name


def analysis_cases():
    """(name, expression) of every frozen analysis, in the order frozen."""
    y1, y2, z1, z2, x1, x2 = (Var(y(1)), Var(y(2)), Var(z(1)), Var(z(2)),
                              Var(x(1)), Var(x(2)))
    builtins = (("sem1", sem1), ("sem2", sem2), ("sem1-graded", sem1_graded),
                ("sem2-graded", sem2_graded), ("zyq-zy", zyq_zy))
    return [(f"{name}({q})", make(q)) for q in (5, 7, 11, 13) for name, make in builtins] + [
        ("sem1(5;y1,z2)", sem1(5, y(1), z(2))),
        ("sem2(7;z1,y2)", sem2(7, z(1), y(2))),
        ("sem2(5;z2,z1)", sem2(5, z(2), z(1))),
        ("yy", yy()),
        ("zz", zz()),
        ("unsorted-exponents", chain(y1, AdPolyDiff(z1, ((1, 4), (-1, 2))),
                                     AdPolyDiff(y2, ((-1, 1), (1, 5), (2, 3))))),
        ("exponent-0", chain(z1, AdPower(y1, 0), AdPower(z2, 1))),
        ("exponent-0-last", chain(y1, AdPower(z1, 0))),
        ("mixed-sum", Sum((bracket(y1, z1), Scale(3, chain(z1, AdPower(y1, 2)))))),
        ("mixed-base-even", chain(y1, AdPower(Sum((y2, z1)), 2))),
        ("mixed-base-odd", chain(y1, AdPolyDiff(Sum((y2, z1)), ((1, 2), (-1, 1))))),
        ("mixed-head", chain(Sum((y1, z1)), AdPower(z2, 2))),
        ("ungraded", chain(x1, AdPower(x2, 3))),
        ("zyq-zy(5)[brackets]",
         substitute(zyq_zy(5), {z(1): bracket(z1, y2), y(1): bracket(z1, z2)})),
        ("sem1(5)[brackets]",
         substitute(sem1(5), {x(1): bracket(y1, z1), x(2): bracket(z1, z2)}, graded=False)),
        ("sem2-graded(5)[brackets]",
         substitute(sem2_graded(5), {y(1): bracket(y1, y2), z(2): bracket(z1, y1)})),
        ("yy[chains]", substitute(yy(), {y(1): bracket(z1, z2), y(2): chain(y1, AdPower(z1, 2))})),
    ]


def analyses_json(e):
    variables = expr_variables(e)
    per, total = degree_bound(e)
    return {"variables": [str(v) for v in variables], "parity": expr_parity(e),
            "per": {str(v): d for v, d in per.items()}, "total": total,
            "form": [list(t) for t in degree_form(e, variables)]}


def test_analyses_frozen():
    frozen = FREELIE_GOLDEN["analyses"]
    cases = analysis_cases()
    assert [name for name, _ in cases] == [c["expr"] for c in frozen]
    for (name, e), case in zip(cases, frozen):
        assert analyses_json(e) == {k: v for k, v in case.items() if k != "expr"}, name
    assert {c["parity"] for c in frozen} == {0, 1, None}


# -- linear algebra and the automorphism scan ----------------------------------------


GOLDEN_FIELDS = {"GF5": FieldSpec.prime(5), "GF7": FieldSpec.prime(7),
                 "GF25": FieldSpec.extension(5, 2)}
MATRIX_CASES = [c for c in LINALG_GOLDEN if c["kind"] == "matrix"]
INTERSECT_CASES = [c for c in LINALG_GOLDEN if c["kind"] == "intersect"]


def elements(spec, rows):
    return [[spec.from_code(c) for c in r] for r in rows]


def test_frozen_linalg_cases_cover_the_shapes():
    names = {"tall", "wide", "rank-deficient", "all-zero", "duplicate-rows", "sparse"}
    for field in GOLDEN_FIELDS:
        assert names <= {c["name"] for c in MATRIX_CASES if c["field"] == field}
        assert len([c for c in INTERSECT_CASES if c["field"] == field]) == 8
    assert {len(c["rows"]) for c in INTERSECT_CASES} == {0, 1, 2, 4}
    assert {len(c["kernel"]) for c in MATRIX_CASES} >= {0, 2, 3, 4, 5}


@pytest.mark.parametrize("case", MATRIX_CASES,
                         ids=[f"{c['field']}-{c['name']}" for c in MATRIX_CASES])
def test_rref_and_kernel_frozen(case):
    spec = GOLDEN_FIELDS[case["field"]]
    matrix = elements(spec, case["input"])
    rows, pivots = rref_codes(spec, np.array(case["input"], dtype=np.int64))
    assert rows.tolist() == case["rref"]
    assert pivots == case["pivots"]
    assert codes(MatrixGF.from_rows(spec, matrix).kernel()) == case["kernel"]


@pytest.mark.parametrize("case", INTERSECT_CASES,
                         ids=[f"{c['field']}-{c['name']}" for c in INTERSECT_CASES])
def test_intersect_frozen(case):
    spec = GOLDEN_FIELDS[case["field"]]
    a = SubspaceBasis.from_vectors(spec, 6, elements(spec, case["a"]))
    b = SubspaceBasis.from_vectors(spec, 6, elements(spec, case["b"]))
    assert codes(a.intersect(b)) == case["rows"]


def test_sl2_automorphisms_p5_frozen():
    autos = sl2_automorphisms(FieldSpec.prime(5))
    assert autos.dtype == np.int64
    assert autos.tolist() == AUTOMORPHISMS_P5
    assert len(AUTOMORPHISMS_P5) == 120


GRADING_CASES = GRADINGS_GOLDEN["cases"]
SL2_CASES = [c for c in GRADING_CASES if c["target"] == "sl2_lie"]
M2_CASES = [c for c in GRADING_CASES if c["target"] == "m2_assoc"]


def case_id(case):
    return f"{case['target']}-p{case['p']}"


def key_json(d):
    return [[list(r) for r in part] for part in d.key()]


def classes_json(classes):
    return [{"representative": key_json(c.representative), "size": c.size,
             "dims": [c.even_dim, c.odd_dim], "zyq": c.zyq_identity_holds}
            for c in classes]


def test_frozen_gradings_cover_both_targets_and_primes():
    assert {(c["p"], c["target"]) for c in GRADING_CASES} == {
        (p, t) for p in (5, 7) for t in ("sl2_lie", "m2_assoc")}
    assert {c["p"]: len(c["keys"]) for c in SL2_CASES} == {5: 26, 7: 50}
    for case in SL2_CASES:  # both verdicts and both failure kinds occur
        assert {(n["hypotheses_hold"], n["failing"]) for n in case["natural"]} == {
            (True, None), (False, "dim-even"), (False, "q-power")}


@pytest.mark.parametrize("p", [5, 7])
def test_sl2_automorphisms_frozen_digest(p):
    autos = sl2_automorphisms(FieldSpec.prime(p))
    frozen = GRADINGS_GOLDEN["sl2_automorphisms"][str(p)]
    assert len(autos) == frozen["len"]
    assert sha256_codes(autos) == frozen["sha256"]


def test_sl2_automorphisms_read_only():
    """The cached array is shared by every caller: a write into it must fail
    and leave the frozen classification as it was."""
    spec = FieldSpec.prime(5)
    autos = sl2_automorphisms(spec)
    assert not autos.flags.writeable
    with pytest.raises(ValueError):
        autos[0] = 0
    case = next(c for c in SL2_CASES if c["p"] == 5)
    gradings = enumerate_z2_gradings("sl2_lie", spec)
    assert classes_json(classify_up_to_iso(gradings)) == case["classes"]


@pytest.mark.parametrize("p", [5, 7])
def test_m2_automorphisms_frozen(p):
    maps = m2_automorphisms(FieldSpec.prime(p))
    assert not maps.flags.writeable
    assert maps.tolist() == GRADINGS_GOLDEN["m2_automorphisms"][str(p)]


@pytest.mark.parametrize("case", GRADING_CASES, ids=case_id)
def test_enumeration_and_classes_frozen(case):
    gradings = enumerate_z2_gradings(case["target"], FieldSpec.prime(case["p"]))
    assert [key_json(d) for d in gradings] == case["keys"]
    assert classes_json(classify_up_to_iso(gradings)) == case["classes"]


@pytest.mark.parametrize("case", SL2_CASES, ids=case_id)
def test_natural_characterization_frozen(case):
    got = []
    for d in enumerate_z2_gradings("sl2_lie", FieldSpec.prime(case["p"])):
        v = natural_characterization(d)
        iso = None if v.isomorphism is None else v.isomorphism.entries.tolist()
        got.append({"hypotheses_hold": v.hypotheses_hold, "failing": v.failing,
                    "witness": v.witness, "isomorphism": iso})
    assert got == case["natural"]


@pytest.mark.parametrize("case", SL2_CASES, ids=case_id)
def test_lifted_unit_component_frozen(case):
    gradings = enumerate_z2_gradings("sl2_lie", FieldSpec.prime(case["p"]))
    assert [[unit_component_check(lift_sl2_grading_to_gl2(d, flag)) for flag in (True, False)]
            for d in gradings] == case["lifted_unit"]


@pytest.mark.parametrize("case", M2_CASES, ids=case_id)
def test_m2_unit_component_and_reference_classes_frozen(case):
    spec = FieldSpec.prime(case["p"])
    gradings = enumerate_z2_gradings("m2_assoc", spec)
    assert [unit_component_check(d) for d in gradings] == case["unit"]
    refs = reference_m2_descriptors(spec)
    assert [key_json(d) for d in refs] == case["reference_keys"]
    assert classes_json(classify_up_to_iso(refs)) == case["reference_classes"]
    assert classes_json(classify_up_to_iso(refs + gradings)) == case["mixed_classes"]


# -- subspaces, products and structure constants -------------------------------------


SUBSPACE_CASES = SUBSPACE_GOLDEN["subspaces"]
FROZEN_ALGEBRAS = {"sl2": sl2, "gl2": gl2, "m2_grading_iii": m2_grading_iii}


def constants_json(alg):
    return alg.constants.tolist()


def test_frozen_subspaces_cover_the_cases():
    assert len(SUBSPACE_CASES) == 48  # the distinct spans among a, b and a & b
    assert {(c["field"], c["source"].split("/")[0]) for c in SUBSPACE_CASES} <= {
        (c["field"], c["name"]) for c in INTERSECT_CASES}
    for field in GOLDEN_FIELDS:
        verdicts = [v for c in SUBSPACE_CASES if c["field"] == field for v in c["contains"]]
        assert set(verdicts) == {True, False}
    assert any(ok and max(probe) >= 5 for c in SUBSPACE_CASES if c["field"] == "GF25"
               for probe, ok in zip(c["probes"], c["contains"]))
    assert max(c.get("count", 0) for c in SUBSPACE_CASES) == 25 ** 4


@pytest.mark.parametrize("case", SUBSPACE_CASES,
                         ids=[f"{c['field']}-{c['source']}" for c in SUBSPACE_CASES])
def test_subspace_vectors_and_contains_frozen(case):
    s = SubspaceBasis.from_vectors(GOLDEN_FIELDS[case["field"]], 6, case["rows"])
    assert s.rows.tolist() == case["rows"]
    assert [s.contains(probe) for probe in case["probes"]] == case["contains"]
    if "count" in case:
        vecs = s.vectors()
        assert vecs.shape == (case["count"], 6)
        assert sha256_codes(vecs) == case["sha256"]
        if "vectors" in case:
            assert vecs.tolist() == case["vectors"]


def test_product_space_frozen():
    cases = SUBSPACE_GOLDEN["products"]
    assert {(c["field"], c["algebra"]) for c in cases} == {
        (f, a) for f in GOLDEN_FIELDS for a in FROZEN_ALGEBRAS}
    for case in cases:
        alg = FROZEN_ALGEBRAS[case["algebra"]](GOLDEN_FIELDS[case["field"]])
        a, b = (SubspaceBasis.from_vectors(alg.spec, alg.dim, case[part]) for part in "ab")
        assert product_space(alg, a, b).rows.tolist() == case["rows"], case


def test_structure_constants_frozen():
    for case in SUBSPACE_GOLDEN["constants"]:
        alg = FROZEN_ALGEBRAS[case["algebra"]](GOLDEN_FIELDS[case["field"]])
        assert list(alg.degrees) == case["degrees"]
        assert constants_json(alg) == case["constants"], (case["field"], case["algebra"])


@pytest.mark.parametrize("p", [5, 7])
def test_descriptor_algebras_frozen(p):
    spec = FieldSpec.prime(p)
    cases = [c for c in SUBSPACE_GOLDEN["descriptor_algebras"] if c["p"] == p]
    assert [c["target"] for c in cases] == [
        t for t in ("sl2_lie", "m2_assoc", "m2_reference") for _ in range(3)]
    for case in cases:
        kind = "sl2" if case["target"] == "sl2_lie" else "m2"
        even, odd = (SubspaceBasis.from_vectors(spec, 3 if kind == "sl2" else 4, rows)
                     for rows in case["key"])
        alg = descriptor_to_algebra(GradingDescriptor(kind, spec, even, odd, "frozen"))
        assert list(alg.degrees) == case["degrees"]
        assert constants_json(alg) == case["constants"], case["key"]


@pytest.mark.parametrize("q", [5, 7, 11, 13, 25])
def test_sl2_orbits_frozen(q):
    frozen = ORBITS_GOLDEN[str(q)]
    spec = FieldSpec.extension(5, 2) if q == 25 else FieldSpec.prime(q)
    reps, firsts, seconds = _sl2_orbits(sl2(spec))
    assert (len(reps), len(firsts), len(seconds)) == (frozen["reps"], frozen["rows"], frozen["rows"])
    assert {"reps": sha256_codes(reps), "firsts": sha256_codes(firsts),
            "seconds": sha256_codes(seconds)} == frozen["sha256"]


CHECK_ALGEBRAS = {"sl2": sl2, "gl2": gl2, "m2-I": m2_grading_i, "m2-II": m2_grading_ii,
                  "m2-III": m2_grading_iii, "heisenberg": heisenberg,
                  "abelian(0,1,1,1)": lambda spec: abelian(spec, (0, 1, 1, 1))}
CHECK_EXPRS = {
    "sem1-graded": sem1_graded, "sem2-graded": sem2_graded, "yy": lambda q: yy(),
    "zz": lambda q: zz(), "zyq-zy": zyq_zy,
    "[[y1,z1],z1]": lambda q: bracket(bracket(Var(y(1)), Var(z(1))), Var(z(1))),
    "[[z1,y1],y1]": lambda q: bracket(bracket(Var(z(1)), Var(y(1))), Var(y(1))),
}


def test_frozen_checks_cover_the_sets_and_algebras():
    """Every expression of set_s(q), lema5_set(q) and the three extra
    checks, on every grid algebra, at q = 5 and 7, once."""
    keys = [(c["q"], c["algebra"], c["expr"]) for c in CHECK_GOLDEN]
    assert len(set(keys)) == len(keys) == 2 * len(CHECK_ALGEBRAS) * len(CHECK_EXPRS)
    for q in (5, 7):
        named = {name: build(q) for name, build in CHECK_EXPRS.items()}
        assert all(any(e == named[n] for n in named) for e in set_s(q) + lema5_set(q) + [zz()])
    assert any(not c["holds"] for c in CHECK_GOLDEN) and any("budget" in c for c in CHECK_GOLDEN)


@pytest.mark.parametrize("q, name", [(q, name) for q in (5, 7) for name in CHECK_ALGEBRAS],
                         ids=[f"q{q}-{name}" for q in (5, 7) for name in CHECK_ALGEBRAS])
def test_checks_frozen(q, name):
    """Each check gives its frozen verdict at the default settings, and a
    check that holds covers its frozen number of assignments."""
    alg = CHECK_ALGEBRAS[name](FieldSpec.prime(q))
    for case in (c for c in CHECK_GOLDEN if (c["q"], c["algebra"]) == (q, name)):
        report = check_identity(CHECK_EXPRS[case["expr"]](q), alg)
        assert (report.holds, report.evaluations if report.holds else None) == (
            case["holds"], case["evaluations"]), case["expr"]
