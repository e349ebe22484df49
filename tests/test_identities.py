import itertools
import tracemalloc

import numpy as np
import pytest

from glie.algebra import algebra_from_matrix_basis, sl2, span_e11_e12
from glie.errors import BudgetExceeded, ParityError
from glie.fields import BatchField, FieldSpec
from glie.freelie import (
    LiePolynomial,
    MultiDegree,
    lema5_set,
    poly_batch_evaluate,
    poly_bracket,
    sem2_graded,
    set_s,
    y,
    yy,
    z,
    zyq_zy,
    zz,
)
from glie.identities import (
    CheckSettings,
    IdentitySettings,
    SpanSettings,
    basis_check,
    check_identity,
    consequence_span,
    default_sl2_windows,
    homogeneous_batch,
    identity_space,
    total_degree_windows,
    window_box,
    window_exact,
    window_multilinear,
)
from glie.linalg import SubspaceBasis

GF5 = FieldSpec.prime(5)


def brute_force_identity_space(alg, ambient):
    """Independent oracle: try every coefficient combination in the window
    and keep those vanishing on all homogeneous assignments."""
    spec = alg.spec
    variables = list(ambient.variables)
    pools = [homogeneous_batch(alg, v.parity) for v in variables]
    sizes = [p.shape[0] for p in pools]
    total = 1
    for s in sizes:
        total *= s
    assignment = {}
    for i, (v, pool) in enumerate(zip(variables, pools)):
        stride = 1
        for s in sizes[i + 1:]:
            stride *= s
        assignment[v] = pool[(np.arange(total) // stride) % sizes[i]]
    good = []
    for codes in itertools.product(range(spec.q), repeat=ambient.dim):
        if not any(codes):
            continue
        poly = ambient.poly_of(spec, [spec.from_code(c) for c in codes])
        values = poly_batch_evaluate(poly, alg, assignment, total)
        if not values.any():
            good.append([spec.from_code(c) for c in codes])
    return SubspaceBasis.from_vectors(spec, ambient.dim, good)


# -- check_identity ---------------------------------------------------------------


def test_check_yy_on_sl2():
    report = check_identity(yy(), sl2(GF5), graded=True)
    assert report.holds
    assert report.evaluations == 25


def test_check_zz_fails_with_counterexample():
    L = sl2(GF5)
    report = check_identity(zz(), L, graded=True)
    assert not report.holds
    assert report.counterexample is not None
    a = report.counterexample[z(1)]
    b = report.counterexample[z(2)]
    assert not L.bracket(a, b).is_zero()
    assert report.value == L.bracket(a, b)


def test_check_zyq_on_sl2_both_fields():
    for q in (5, 7):
        spec = FieldSpec.prime(q)
        report = check_identity(zyq_zy(q), sl2(spec), graded=True)
        assert report.holds
        assert report.evaluations == spec.q ** 3


def test_check_zyq_fails_on_nonsquare_grading():
    # sl2 carved out of the nonsquare M2 grading: even = span{e12 + 2 e21},
    # odd = span{e11 - e22, e12 - 2 e21}
    L = algebra_from_matrix_basis(
        GF5,
        [(0, 1, 2, 0), (1, 0, 0, -1), (0, 1, -2, 0)],
        (0, 1, 1),
        "sl2-grading-III",
    )
    assert L.validate().ok
    report = check_identity(zyq_zy(5), L, graded=True)
    assert not report.holds


def test_check_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        check_identity(yy(), sl2(GF5), graded=True,
                       settings=CheckSettings(budget=10))


def test_refuted_check_count_and_witness_follow_no_chunk():
    # evaluations counts the assignments up to the first failing one, in
    # itertools.product order over the odd part, whatever the chunk size
    L = sl2(FieldSpec.prime(7))
    odd = [L.element(list(row)) for row in homogeneous_batch(L, 1).tolist()]
    first = next(i for i, (a, b) in enumerate(itertools.product(odd, repeat=2))
                 if not L.bracket(a, b).is_zero())
    a, b = list(itertools.product(odd, repeat=2))[first]
    reports = [check_identity(zz(), L, settings=CheckSettings(chunk=chunk))
               for chunk in (7, 1 << 14, 1 << 16)]
    for report in reports:
        assert not report.holds
        assert report.evaluations == first + 1
        assert report.counterexample == {z(1): a, z(2): b}
        assert report.value == L.bracket(a, b)


def test_check_graded_rejects_x_vars():
    from glie.freelie import sem1

    with pytest.raises(ParityError):
        check_identity(sem1(5), sl2(GF5), graded=True)


def test_check_ordinary_sem1():
    report = check_identity(
        __import__("glie.freelie", fromlist=["sem1"]).sem1(5),
        sl2(GF5), graded=False,
        settings=CheckSettings(budget=20_000))
    assert report.holds
    assert report.evaluations == 125 ** 2


# -- identity_space -----------------------------------------------------------------


def test_identity_space_yy_window():
    L = sl2(GF5)
    win = window_multilinear([y(1), y(2)])
    ids = identity_space(L, win)
    assert ids.dim == 1
    expected = win.coords_of(LiePolynomial.monomial(GF5, (y(1), y(2))))
    assert ids == SubspaceBasis.from_vectors(GF5, win.dim, [expected])
    assert ids == brute_force_identity_space(L, win)


def test_identity_space_zz_window_empty():
    L = sl2(GF5)
    win = window_multilinear([z(1), z(2)])
    ids = identity_space(L, win)
    assert ids.dim == 0
    assert brute_force_identity_space(L, win).dim == 0


def test_identity_space_triple_z_empty():
    L = sl2(GF5)
    win = window_multilinear([z(1), z(2), z(3)])
    assert win.dim == 2
    ids = identity_space(L, win)
    assert ids.dim == 0
    assert brute_force_identity_space(L, win).dim == 0


# tracemalloc peak of identity_space(sl2(GF(7)), (z:1,1,1)) with the default
# settings, measured when the evaluation rows were still reduced as
# FieldElement objects; the code-array reduction must not need more
IDENTITY_SPACE_Q7_PEAK_BYTES = 13_020_720


def test_identity_space_q7_memory_stays_bounded():
    L = sl2(FieldSpec.prime(7))
    win = next(w for w in default_sl2_windows(7) if w.label == "(z:1,1,1)")
    tracemalloc.start()
    try:
        ids = identity_space(L, win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ids.dim == 0
    assert peak <= IDENTITY_SPACE_Q7_PEAK_BYTES


# tracemalloc peak of check_identity(sem2_graded(7), sl2(GF(7))), measured
# when every ad power was taken by repeated brackets; squaring the ad
# matrices must not need more
SEM2_CHECK_Q7_PEAK_BYTES = 14_577_448


def test_sem2_check_q7_memory_stays_bounded():
    L = sl2(FieldSpec.prime(7))
    e = sem2_graded(7)
    tracemalloc.start()
    try:
        report = check_identity(e, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and report.evaluations == 7 ** 6
    assert peak <= SEM2_CHECK_Q7_PEAK_BYTES


def test_sem2_check_q7_evaluates_shared_subexpressions_once(monkeypatch):
    """x1 = y1 + z1 and x2 = y2 + z2 are summed once per chunk, not at each
    of the 21 slots that use them.  Per chunk that leaves 4 adds for these
    two sums, 6 for the outer sum and 1 for each of the four two-term
    AdPolyDiff slots, whose sum starts from its first power; a walk that
    evaluates every occurrence makes 448 in all."""
    L = sl2(FieldSpec.prime(7))  # built before counting: only the check's adds count
    calls = []
    add = BatchField.add
    monkeypatch.setattr(BatchField, "add", lambda self, a, b: calls.append(1) or add(self, a, b))
    report = check_identity(sem2_graded(7), L)
    assert report.holds and report.evaluations == 7 ** 6
    chunks = -(-7 ** 6 // CheckSettings().chunk)
    assert len(calls) == (4 + 6 + 4) * chunks


def test_identity_space_certification_keeps_the_check_budget():
    """(y1:1, z1..z4:1) at q = 7 has 7 * 49^4, about 40 M, assignments per
    kernel vector: certification raises BudgetExceeded, and basis_check
    records the window as inconclusive."""
    L = sl2(FieldSpec.prime(7))
    win = window_multilinear([y(1), z(1), z(2), z(3), z(4)])
    with pytest.raises(BudgetExceeded):
        identity_space(L, win)
    report = basis_check(L, [yy()], [win])
    assert report.verdict == "inconclusive"
    assert [w.status for w in report.windows] == ["inconclusive"]


def test_identity_space_yzz_window():
    L = sl2(GF5)
    win = window_multilinear([y(1), z(1), z(2)])
    assert win.dim == 2
    ids = identity_space(L, win)
    assert ids.dim == 1
    # spanned by [[z1,z2],y1] = -[y1,[z1,z2]]; the Lyndon word is y1 z1 z2
    member = LiePolynomial.monomial(GF5, (y(1), z(1), z(2)))
    assert ids.contains(win.coords_of(member))
    assert ids == brute_force_identity_space(L, win)


def test_identity_space_box_zyq_window():
    L = sl2(GF5)
    win = window_box({z(1): 1, y(1): 5})
    ids = identity_space(L, win)
    assert ids.dim == 1
    from glie.freelie import expr_expand

    zyq_poly = expr_expand(zyq_zy(5), GF5, caps={z(1): 1, y(1): 5})
    assert ids.contains(win.coords_of(zyq_poly))


def test_identity_space_sampled_mode_certified():
    L = sl2(GF5)
    win = window_box({z(1): 1, y(1): 5})
    ids = identity_space(L, win, IdentitySettings(assignment_budget=10,
                                                  sample_rows=40, seed=5))
    exhaustive = identity_space(L, win)
    assert ids == exhaustive


def test_identity_space_closed_under_components():
    # per-variable caps < q, so components of identities are identities
    L = span_e11_e12(GF5)
    win = window_box({y(1): 3, z(1): 1})
    ids = identity_space(L, win)
    for row in ids.rows:
        poly = win.poly_of(GF5, row)
        for comp in poly.components().values():
            assert ids.contains(win.coords_of(comp))


# -- consequence_span ----------------------------------------------------------------


def test_consequence_contains_substitution_witness():
    win = window_multilinear([y(1), z(1), z(2)])
    span = consequence_span(GF5, [yy()], win, check_algebra=sl2(GF5))
    member = LiePolynomial.monomial(GF5, (y(1), z(1), z(2)))
    assert span.dim == 1
    assert span.contains(win.coords_of(member))


def test_consequence_lema5_zz_window():
    win = window_multilinear([z(1), z(2)])
    span = consequence_span(GF5, lema5_set(5), win, check_algebra=span_e11_e12(GF5))
    assert span.dim == 1


def test_consequence_generator_itself():
    win = window_multilinear([y(1), y(2)])
    span = consequence_span(GF5, [yy()], win)
    assert span.dim == 1


def test_consequence_monotone_in_pool():
    win = window_exact(MultiDegree.of({y(1): 1, z(1): 2}))
    small = consequence_span(GF5, lema5_set(5), win,
                             SpanSettings(two_term_samples=0))
    big = consequence_span(GF5, lema5_set(5), win,
                           SpanSettings(two_term_samples=12))
    assert big.contains_space(small)


def test_consequence_deterministic():
    win = window_box({y(1): 1, z(1): 1, z(2): 1})
    a = consequence_span(GF5, set_s(5), win, SpanSettings(seed=9))
    b = consequence_span(GF5, set_s(5), win, SpanSettings(seed=9))
    assert a == b


def test_poly_of_reads_element_codes_gf25():
    """Kernel and span rows are element codes: poly_of must read a GF(25)
    code c >= 5 as that element, not as c mod 5 in the prime subfield."""
    spec = FieldSpec.extension(5, 2)
    win = window_box({y(1): 1, z(1): 1, z(2): 1})
    codes = [(7 * i + 3) % 25 for i in range(win.dim)]
    poly = win.poly_of(spec, codes)
    assert any(c.code >= 5 for _, c in poly.terms)
    assert win.coords_of(poly).tolist() == codes
    assert win.poly_of(spec, np.array(codes)) == poly
    assert win.poly_of(spec, [spec.from_code(c) for c in codes]) == poly


def test_consequence_span_gf25_equals_identity_space():
    """Image pools hold every nonzero scalar multiple, so at GF(25) the span
    substitutes proper extension-field scalars."""
    spec = FieldSpec.extension(5, 2)
    L = sl2(spec)
    for win in default_sl2_windows(25):
        if win.label in ("(y:1,1)", "(z:1,1,1)"):
            span = consequence_span(spec, set_s(25), win, check_algebra=L)
            assert span == identity_space(L, win)


def test_consequence_span_intersects_the_box_with_the_window():
    """The exact window (y1:5, z1:1) searches in the box of (z:1,y:5), where
    the span is the line of zyq_zy(5).  Its part in the window, [z1,y1^5],
    is no identity: the window holds no consequence, and a span projected
    onto the window instead of intersected with it would fail the check."""
    L = sl2(GF5)
    win = window_exact(MultiDegree.of({y(1): 5, z(1): 1}))
    span = consequence_span(GF5, set_s(5), win, check_algebra=L)
    assert span.dim == 0 and identity_space(L, win).dim == 0


def test_ad_v_is_injective_where_brackets_leave_the_box():
    """The closure keeps the combinations of the span whose components at the
    multidegrees that ad_v takes out of the box vanish.  That equals keeping
    those whose brackets cancel outside the box because ad_v is injective
    there: the brackets with v of those monomials are independent."""
    for caps in ({z(1): 1, y(1): 5}, {y(1): 1, z(1): 3, z(2): 1}, {y(1): 2, y(2): 1, z(1): 2}):
        box = window_box(caps)
        for v in box.variables:
            leaving = [m for m in box.monomials if m.count(v) == caps[v] and m != (v,)]
            brackets = [poly_bracket(LiePolynomial.monomial(GF5, m),
                                     LiePolynomial.monomial(GF5, (v,))) for m in leaving]
            words = sorted({w for b in brackets for w, _ in b.terms})
            rows = [[dict(b.terms).get(w, GF5.zero()) for w in words] for b in brackets]
            assert SubspaceBasis.from_vectors(GF5, len(words), rows).dim == len(leaving)


def test_consequence_subset_of_identities():
    L = span_e11_e12(GF5)
    for win in total_degree_windows(3, 5):
        span = consequence_span(GF5, lema5_set(5), win, check_algebra=L)
        ids = identity_space(L, win)
        assert ids.contains_space(span)


# -- basis_check -------------------------------------------------------------------


def test_basis_check_sl2_small_windows():
    windows = [
        window_box({y(1): 1, y(2): 1}),
        window_box({z(1): 1, z(2): 1}),
        window_box({y(1): 1, z(1): 1, z(2): 1}),
    ]
    report = basis_check(sl2(GF5), set_s(5), windows,
                         gen_labels=["sem1(S)", "sem2(S)", "yy", "zyq"])
    assert report.ok
    assert all(rec.status == "equal" for rec in report.windows)


def test_basis_check_strict_inclusion_for_yy_alone():
    windows = [window_box({z(1): 1, y(1): 5}, "(z:1,y:5)")]
    report = basis_check(sl2(GF5), [yy()], windows)
    assert report.verdict == "strict-inclusion"
    rec = report.windows[0]
    assert rec.id_dim == 1 and rec.cons_dim == 0
    assert rec.witness is not None


def test_basis_check_soundness_hard_failure():
    report = basis_check(sl2(GF5), [yy(), zz()], windows=[])
    assert report.verdict == "refuted"
    failing = [rep for _, rep in report.soundness if not rep.holds]
    assert failing and failing[0].counterexample is not None


def test_default_windows_shape():
    wins = default_sl2_windows(5)
    assert [w.label for w in wins] == [
        "(y:1,1)", "(z:1,1)", "(z:1,1,1)", "(y:1,z:1,1)", "(z:1,y:5)"]


def test_total_degree_windows_count():
    wins = total_degree_windows(4, 5)
    # canonical multidegree shapes: 2 + 5 + 10 + 20
    assert len(wins) == 37
    labels = [w.label for w in wins]
    assert len(set(labels)) == len(labels)
