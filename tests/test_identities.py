import itertools
import math
import tracemalloc

import numpy as np
import pytest

from glie.algebra import (
    abelian,
    algebra_from_matrix_basis,
    gl2,
    heisenberg,
    m2_grading_i,
    m2_grading_ii,
    m2_grading_iii,
    sl2,
    span_e11_e12,
)
from glie import identities
from glie.errors import BudgetExceeded, ParityError, TheoremViolation
from glie.fields import BatchField, FieldSpec, batch_field
from glie.freelie import (
    AdPolyDiff,
    AdPower,
    LiePolynomial,
    MultiDegree,
    Sum,
    Var,
    ZERO,
    batch_evaluate,
    bracket,
    chain,
    evaluate,
    expr_expand,
    expr_variables,
    lema5_set,
    poly_bracket,
    poly_to_expr,
    sem1,
    sem1_graded,
    sem2_graded,
    set_s,
    substitute,
    word_tree_batch_evaluate,
    x,
    y,
    yy,
    z,
    zyq_zy,
    zz,
)
from glie.identities import (
    CheckSettings,
    _sl2_orbit_representatives,
    basis_batch,
    basis_check,
    check_identity,
    check_poly_identity,
    consequence_span,
    default_sl2_windows,
    homogeneous_batch,
    identity_space,
    projective_batch,
    total_degree_windows,
    window_box,
    window_exact,
    window_multilinear,
)
from glie.linalg import SubspaceBasis, kernel_codes, rref_codes

GF5 = FieldSpec.prime(5)
GF25 = FieldSpec.extension(5, 2)


def coords_of(window, poly):
    """The polynomial's coordinates in the window, as an int64 row of element codes."""
    index = {w: i for i, w in enumerate(window.monomials)}
    vec = np.zeros(window.dim, dtype=np.int64)
    for w, c in poly.terms:
        vec[index[w]] = c.code
    return vec


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
        values = batch_evaluate(poly_to_expr(poly), alg, assignment)
        if not values.any():
            good.append([spec.from_code(c) for c in codes])
    return SubspaceBasis.from_vectors(spec, ambient.dim, good)


def enumerated_identity_space(alg, ambient, chunk=1 << 14):
    """Reference: the kernel of evaluating the window's Lyndon basis on every
    homogeneous assignment, reduced chunk by chunk into one RREF.  It stops
    early only at full rank, where the kernel is 0 whatever is left."""
    spec = alg.spec
    if ambient.dim == 0:
        return SubspaceBasis.zero(spec, 0)
    variables = list(ambient.variables)
    pools = [homogeneous_batch(alg, v.parity) for v in variables]
    total = math.prod(len(p) for p in pools)
    reduced = np.zeros((0, ambient.dim), dtype=np.int64)
    pivots = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        assignment, stride = {}, total
        for v, pool in zip(variables, pools):
            stride //= len(pool)
            assignment[v] = pool[(idx // stride) % len(pool)]
        cols = [word_tree_batch_evaluate(w, alg, assignment) for w in ambient.monomials]
        rows = np.stack(cols, axis=2).reshape(-1, ambient.dim)
        for block in range(0, len(rows), 1024):
            reduced, pivots = rref_codes(spec, np.concatenate([reduced, rows[block:block + 1024]]))
        if len(pivots) == ambient.dim:
            break
    return SubspaceBasis(spec, ambient.dim, kernel_codes(spec, reduced, pivots))


def enumerated_check(e, alg, graded=True, chunk=1 << 14):
    """Reference: (holds, evaluations) from batch_evaluate of e on every
    assignment, y/z over their homogeneous parts in graded mode and every
    variable over the whole algebra otherwise, in itertools.product order;
    a refuted check counts up to its first failing assignment."""
    variables = expr_variables(e)
    whole = np.array(list(itertools.product(range(alg.spec.q), repeat=alg.dim)))
    pools = [homogeneous_batch(alg, v.parity) if graded else whole for v in variables]
    total = math.prod(len(p) for p in pools)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        assignment, stride = {}, total
        for v, pool in zip(variables, pools):
            stride //= len(pool)
            assignment[v] = pool[(idx // stride) % len(pool)]
        bad = np.flatnonzero(batch_evaluate(e, alg, assignment).any(axis=1))
        if bad.size:
            return False, start + int(bad[0]) + 1
    return True, total


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


def test_refuted_check_count_and_witness_follow_no_chunk(monkeypatch):
    # evaluations counts the assignments up to the first failing one, in
    # itertools.product order over the odd part, whatever the chunk size
    L = sl2(FieldSpec.prime(7))
    odd = [L.element(list(row)) for row in homogeneous_batch(L, 1).tolist()]
    first = next(i for i, (a, b) in enumerate(itertools.product(odd, repeat=2))
                 if not L.bracket(a, b).is_zero())
    a, b = list(itertools.product(odd, repeat=2))[first]
    reports = []
    for chunk in (7, 1 << 14, 1 << 16):
        monkeypatch.setattr(identities, "_CHUNK", chunk)
        reports.append(check_identity(zz(), L))
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


def test_variable_free_checks():
    # an expression without variables has one row, the empty assignment; a
    # bracket with ZERO keeps its variable's whole domain
    L = sl2(GF5)
    report = check_identity(ZERO, L)
    assert (report.holds, report.evaluations, report.counterexample) == (True, 1, None)
    report = check_identity(chain(ZERO, AdPower(Var(y(1)), 0)), L)
    assert (report.holds, report.evaluations) == (True, 5)


@pytest.mark.parametrize("poly, graded", [
    (LiePolynomial.from_dict(GF5, {(y(1),): GF5.one(), (z(1),): GF5.one()}), True),
    (expr_expand(bracket(Var(x(1)), Var(x(2))), GF5), False),
], ids=["y1+z1-graded", "x1x2-ungraded"])
def test_poly_check_is_the_check_of_its_expression(poly, graded):
    L = sl2(GF5)
    poly_report = check_poly_identity(poly, L, graded=graded)
    report = check_identity(poly_to_expr(poly), L, graded=graded)
    assert not report.holds
    assert ((poly_report.holds, poly_report.evaluations, poly_report.counterexample)
            == (report.holds, report.evaluations, report.counterexample))


GF7 = FieldSpec.prime(7)
# y1 + z1 merged into x1, y2 left graded
SEM1_X2_EVEN = substitute(sem1(5), {x(1): Sum((Var(y(1)), Var(z(1)))), x(2): Var(y(2))},
                          graded=False)


@pytest.mark.parametrize("e, alg, graded", [
    (sem1_graded(5), sl2(GF5), True),
    (sem2_graded(5), sl2(GF5), True),
    (sem1_graded(7), sl2(GF7), True),
    (sem2_graded(7), sl2(GF7), True),
    (sem1(5), sl2(GF5), False),
    (SEM1_X2_EVEN, sl2(GF5), True),
    # y1 also used alone: nothing merged, and refuted
    (bracket(Sum((Var(y(1)), Var(z(1)))), Var(y(1))), sl2(GF5), True),
    # merged, but not sl2: the whole domain
    (sem1_graded(5), span_e11_e12(GF5), True),
], ids=["sem1-q5", "sem2-q5", "sem1-q7", "sem2-q7", "sem1-ungraded-q5", "sem1-x2-even",
        "y1-unpaired", "sem1-e11e12"])
def test_check_equals_enumeration(e, alg, graded):
    """The merged and orbit-reduced check gives the verdict of the q^6
    enumeration and counts the assignments it covers; where nothing is
    reduced, a refuted check counts up to the same first failure."""
    report = check_identity(e, alg, graded=graded, settings=CheckSettings(budget=20_000))
    assert (report.holds, report.evaluations) == enumerated_check(e, alg, graded)


def test_sem_checks_evaluate_orbit_rows_only():
    """(x1, x2) over one pair per GL2-orbit: q^3 + q^2 + q rows, within a
    budget far below the q^6 graded assignments."""
    for q in (5, 7):
        rows = q ** 3 + q ** 2 + q
        for e in (sem1_graded(q), sem2_graded(q)):
            report = check_identity(e, sl2(FieldSpec.prime(q)), settings=CheckSettings(budget=rows))
            assert report.holds and report.evaluations == q ** 6
            with pytest.raises(BudgetExceeded, match=f"{rows} evaluations"):
                check_identity(e, sl2(FieldSpec.prime(q)), settings=CheckSettings(budget=rows - 1))


def test_third_whole_algebra_variable_ranges_over_sl2():
    """Ungraded, with three variables: (x1, x2) over the 155 orbit pairs and
    x3 over all 125 elements.  The Jacobi sum holds; [x1, [x2, x3]] does not,
    and its witness re-evaluates to the reported value."""
    a, b, c = (Var(x(i)) for i in (1, 2, 3))
    jacobi = Sum((bracket(a, bracket(b, c)), bracket(b, bracket(c, a)), bracket(c, bracket(a, b))))
    L = sl2(GF5)
    rows = 155 * 125
    report = check_identity(jacobi, L, graded=False, settings=CheckSettings(budget=rows))
    assert report.holds and report.evaluations == 125 ** 3
    with pytest.raises(BudgetExceeded, match=f"{rows} evaluations"):
        check_identity(jacobi, L, graded=False, settings=CheckSettings(budget=rows - 1))
    e = bracket(a, bracket(b, c))
    report = check_identity(e, L, graded=False)
    assert not report.holds and sorted(report.counterexample) == [x(1), x(2), x(3)]
    assert evaluate(e, L, report.counterexample, graded=False) == report.value


def test_unpaired_graded_variable_keeps_the_whole_domain():
    """With y2 left graded, x1 = y1 + z1 is merged but not reduced to orbit
    representatives: conjugation does not keep the even part."""
    with pytest.raises(BudgetExceeded, match="625 evaluations"):
        check_identity(SEM1_X2_EVEN, sl2(GF5), settings=CheckSettings(budget=624))


def test_wrong_sem1_refuted_with_graded_witness():
    """sem1 with exponent q^2 + 1 in place of q^2 + 2 fails on sl2(GF(11)).
    The failing orbit row maps back to a graded witness: y_i the even and
    z_i the odd part of x_i, on which the scalar evaluation is nonzero."""
    q = 11
    L = sl2(FieldSpec.prime(q))
    wrong = substitute(chain(Var(x(1)), AdPolyDiff(Var(x(2)), ((1, q * q + 1), (-1, 3)))),
                       {x(1): Sum((Var(y(1)), Var(z(1)))), x(2): Sum((Var(y(2)), Var(z(2))))},
                       graded=False)
    report = check_identity(wrong, L)
    assert not report.holds
    assert sorted(report.counterexample) == [y(1), y(2), z(1), z(2)]
    for v, el in report.counterexample.items():
        assert el.is_zero() or el.degree() == v.parity
    value = evaluate(wrong, L, report.counterexample)
    assert not value.is_zero() and value == report.value


def test_orbit_representatives_certified_gf25():
    """The cover of sl2(GF(25)) by its 26 representatives is certified over
    all 15,625 elements, with extension-field arithmetic throughout."""
    reps = _sl2_orbit_representatives(sl2(GF25))
    assert reps.shape == (26, 3)


def test_orbit_reduction_only_for_the_constants_of_sl2():
    """An algebra isomorphic to sl2 in another basis, or gl2, gets no
    representatives: conjugation is known to be an automorphism only of
    the constants of sl2, whatever the name."""
    renamed = sl2(GF5)
    renamed.name = "other"
    assert _sl2_orbit_representatives(renamed) is not None
    other_basis = algebra_from_matrix_basis(GF5, [(0, 1, 2, 0), (1, 0, 0, -1), (0, 1, -2, 0)],
                                            (0, 1, 1), "sl2")
    assert _sl2_orbit_representatives(other_basis) is None
    assert _sl2_orbit_representatives(gl2(GF5)) is None


@pytest.mark.parametrize("table", [
    lambda reps: np.delete(reps, 0, axis=0),
    lambda reps: np.where(np.arange(len(reps))[:, None] == 4, [0, 3, 2], reps),
], ids=["drop-zero", "wrong-one"])
def test_broken_orbit_table_raises(monkeypatch, table):
    """A table without the zero orbit, or with (0, 3, 2) in place of
    (0, 3, 1), fails the certification (a dropped (0, 2, 1) is a proof
    obligation scenario)."""
    original = identities._orbit_representatives
    monkeypatch.setattr(identities, "_orbit_representatives", lambda spec: table(original(spec)))
    with pytest.raises(TheoremViolation, match="orbit representative"):
        check_identity(sem1_graded(5), sl2(GF5))


def _gl2_orbit_ids(q: int) -> np.ndarray:
    """Brute force over GF(q), q prime: for each pair (a, b) of sl2 elements,
    numbered code(a) * q^3 + code(b) with (h, e, f) codes, the least such
    number over its orbit under conjugation by all of GL2(q)."""
    elements = np.array(list(itertools.product(range(q), repeat=3)))[:, ::-1]  # h fastest
    h, e, f = elements.T
    matrices = np.stack([h, e, f, -h], axis=1).reshape(-1, 2, 2)
    place = q ** np.arange(3)
    least = np.full(q ** 6, q ** 6)
    for g in itertools.product(range(q), repeat=4):
        g = np.array(g).reshape(2, 2)
        det = int(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % q
        if not det:
            continue
        inverse = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) * pow(det, -1, q)
        image = (g @ matrices @ inverse) % q
        codes = image.reshape(-1, 4)[:, :3] @ place
        least = np.minimum(least, (codes[:, None] * q ** 3 + codes[None, :]).ravel())
    return least


def test_orbit_pairs_hit_every_gl2_orbit_once_at_q5():
    """The 155 pair rows at q = 5 lie in 155 distinct orbits of GL2(5) on
    sl2 x sl2, and those are all of its orbits."""
    firsts, seconds = identities._sl2_orbits(sl2(GF5))[1:]
    assert len(firsts) == 5 ** 3 + 5 ** 2 + 5
    orbit = _gl2_orbit_ids(5)
    place = 5 ** np.arange(3)
    hit = orbit[(firsts @ place) * 5 ** 3 + seconds @ place]
    assert len(set(hit.tolist())) == len(hit)
    assert set(hit.tolist()) == set(orbit.tolist())


@pytest.mark.parametrize("q", [5, 7, 13])
def test_orbit_pair_counts_per_representative(q):
    """Pairs per representative r: q + 1 for r = 0 (GL2's orbits), and for
    r = [[0, d], [1, 0]]: q^2 + q - 1 for d = 0, q^2 + 2q for d a nonzero
    square and q^2 for a non-square; q^3 + q^2 + q in all."""
    reps, firsts, _ = identities._sl2_orbits(sl2(FieldSpec.prime(q)))
    squares = {d * d % q for d in range(1, q)}
    expected = [q + 1] + [q * q + q - 1 if d == 0 else q * q + 2 * q if d in squares else q * q
                          for d in range(q)]
    counts = [int((firsts == r).all(axis=1).sum()) for r in reps]
    assert counts == expected
    assert sum(counts) == q ** 3 + q ** 2 + q


def test_sem_checks_at_gf25_on_orbit_pairs():
    """sl2(GF(25)): both sem generators hold on all 25^6 graded assignments,
    checked on 16,275 pair rows with extension-field arithmetic."""
    L = sl2(GF25)
    rows = 25 ** 3 + 25 ** 2 + 25
    assert rows == 16_275
    for e in (sem1_graded(25), sem2_graded(25)):
        report = check_identity(e, L, settings=CheckSettings(budget=rows))
        assert report.holds and report.evaluations == 25 ** 6
        with pytest.raises(BudgetExceeded, match=f"{rows} evaluations"):
            check_identity(e, L, settings=CheckSettings(budget=rows - 1))


def test_soundness_of_s_at_q13_within_the_default_budget():
    """q^6 = 4.83 M graded assignments are over the 4 M budget; the 2,379
    orbit rows are not."""
    report = basis_check(sl2(FieldSpec.prime(13)), set_s(13), [])
    assert report.verdict == "all-equal"
    assert [r.holds for _, r in report.soundness] == [True] * 4
    assert [r.evaluations for _, r in report.soundness][:2] == [13 ** 6] * 2


# -- identity_space -----------------------------------------------------------------


def test_identity_space_yy_window():
    L = sl2(GF5)
    win = window_multilinear([y(1), y(2)])
    ids = identity_space(L, win)
    assert ids.dim == 1
    expected = coords_of(win, LiePolynomial.monomial(GF5, (y(1), y(2))))
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
    """Each shared subexpression is evaluated once per chunk, not at each
    of the slots that use it.  The check merges x1 = y1 + z1 and
    x2 = y2 + z2 into single variables, so per chunk that leaves 6 adds for
    the outer sum and 1 for each of the four two-term AdPolyDiff slots,
    whose sum starts from its first power; the 399 orbit pairs of (x1, x2)
    make one chunk.  The orbit tables are built and certified before
    counting, once per field, so only the evaluation's adds count."""
    L = sl2(FieldSpec.prime(7))
    identities._sl2_orbits(L)
    calls = []
    add = BatchField.add
    monkeypatch.setattr(BatchField, "add", lambda self, a, b: calls.append(1) or add(self, a, b))
    report = check_identity(sem2_graded(7), L)
    assert report.holds and report.evaluations == 7 ** 6
    chunks = -(-(7 ** 3 + 7 ** 2 + 7) // identities._CHUNK)
    assert chunks == 1
    assert len(calls) == (6 + 4) * chunks


def default_windows_named(q, labels):
    windows = [w for w in default_sl2_windows(q) if w.label in labels]
    assert len(windows) == len(labels)
    return windows


def test_identity_space_resolves_y1_z1_to_z4_at_q7():
    """(y1:1, z1..z4:1) at q = 7 has 7 * 49^4, about 40 M, homogeneous
    assignments, too many to enumerate within the default budget, but only
    1 * 2^4 = 16 grid points, since every variable is linear in the window:
    basis_check resolves the window.  The identity space has dimension 21,
    as the exhaustive path certified for the same window at q = 5."""
    L = sl2(FieldSpec.prime(7))
    win = window_multilinear([y(1), z(1), z(2), z(3), z(4)])
    ids = identity_space(L, win)
    assert ids.dim == 21
    report = basis_check(L, [yy()], [win])
    [rec] = report.windows
    assert rec.status in ("equal", "strict-inclusion")
    assert rec.id_dim == ids.dim


def test_identity_space_over_the_grid_budget_is_inconclusive():
    """(y1:1, z1:2, z2:2) at q = 7 has 1 * 9 * 9 = 81 grid points: y1 is
    linear, and z1 and z2, of degree 2, run over 0 and the 8 lines of the odd
    part.  A budget one below raises BudgetExceeded, and basis_check, whose
    soundness check of [y1, y2] needs 49 assignments only, records the
    window as inconclusive."""
    L = sl2(FieldSpec.prime(7))
    win = window_exact(MultiDegree.of({y(1): 1, z(1): 2, z(2): 2}))
    tight = CheckSettings(budget=81 - 1)
    with pytest.raises(BudgetExceeded, match="needs 81 grid points"):
        identity_space(L, win, tight)
    report = basis_check(L, [yy()], [win], check_settings=tight)
    assert report.verdict == "inconclusive"
    assert [w.status for w in report.windows] == ["inconclusive"]
    assert "grid points" in report.windows[0].witness


@pytest.mark.parametrize("win, points", [
    (window_multilinear([z(i) for i in range(1, 7)]), 64),
    (default_windows_named(7, ("(z:1,1,1)",))[0], 8),
    (default_windows_named(7, ("(y:1,z:1,1)",))[0], 4),
], ids=["z1-z6-multilinear", "z-1-1-1", "y-1-z-1-1"])
def test_identity_space_grid_counts_at_q7(win, points):
    """A variable of cap 1 takes the basis vectors of its homogeneous part
    (2 for z, 1 for y in sl2), whether or not every monomial holds it: the
    exact grid, whatever q, passes a budget of its size and raises one
    below."""
    L = sl2(FieldSpec.prime(7))
    expected = identity_space(L, win)
    assert identity_space(L, win, CheckSettings(budget=points)) == expected
    with pytest.raises(BudgetExceeded, match=f"needs {points} grid points"):
        identity_space(L, win, CheckSettings(budget=points - 1))


# twice the tracemalloc peak of identity_space(sl2(GF(7)), (z1..z6
# multilinear)) in a fresh process, 1.06 MB on the 64 points of its basis
# grid; on the 531,441 points of the projective grid it was about 146 MB
MULTILINEAR_Z6_Q7_PEAK_BYTES = 2_120_000


def test_identity_space_multilinear_z6_q7_memory_stays_bounded():
    L = sl2(FieldSpec.prime(7))
    win = window_multilinear([z(i) for i in range(1, 7)])
    tracemalloc.start()
    try:
        ids = identity_space(L, win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (win.dim, ids.dim) == (120, 110)
    assert peak <= MULTILINEAR_Z6_Q7_PEAK_BYTES


def test_identity_space_yzz_window():
    L = sl2(GF5)
    win = window_multilinear([y(1), z(1), z(2)])
    assert win.dim == 2
    ids = identity_space(L, win)
    assert ids.dim == 1
    # spanned by [[z1,z2],y1] = -[y1,[z1,z2]]; the Lyndon word is y1 z1 z2
    member = LiePolynomial.monomial(GF5, (y(1), z(1), z(2)))
    assert ids.contains(coords_of(win, member))
    assert ids == brute_force_identity_space(L, win)


def test_identity_space_empty_odd_part_matches_brute_force():
    """m2-I has no odd part, so z1 of cap 1 takes 0 alone, and every
    polynomial that holds z1 is an identity: y1 is the one that is not."""
    L = m2_grading_i(GF5)
    win = window_box({y(1): 1, z(1): 1})
    ids = identity_space(L, win)
    assert (win.dim, ids.dim) == (3, 2)
    assert ids == brute_force_identity_space(L, win)


def test_identity_space_box_zyq_window():
    L = sl2(GF5)
    win = window_box({z(1): 1, y(1): 5})
    ids = identity_space(L, win)
    assert ids.dim == 1
    from glie.freelie import expr_expand

    zyq_poly = expr_expand(zyq_zy(5), GF5, caps={z(1): 1, y(1): 5})
    assert ids.contains(coords_of(win, zyq_poly))


def test_identity_space_closed_under_components():
    # per-variable caps < q, so components of identities are identities
    L = span_e11_e12(GF5)
    win = window_box({y(1): 3, z(1): 1})
    ids = identity_space(L, win)
    for row in ids.rows:
        poly = win.poly_of(GF5, row)
        for comp in poly.components().values():
            assert ids.contains(coords_of(win, comp))


GRID_ALGEBRAS = [sl2, gl2, m2_grading_i, m2_grading_ii, m2_grading_iii,
                 heisenberg, lambda spec: abelian(spec, (0, 1, 1, 1))]


@pytest.mark.parametrize("spec", [GF5, FieldSpec.prime(7), GF25],
                         ids=["q5", "q7", "q25"])
def test_projective_batch_meets_every_line_once(spec):
    """The nonzero multiples of the grid points are the whole homogeneous
    part, and the grid has one point per line through 0 plus the origin, so
    it meets each line exactly once."""
    q, bf = spec.q, batch_field(spec)
    for make in GRID_ALGEBRAS:
        alg = make(spec)
        weights = q ** np.arange(alg.dim)
        for parity in (0, 1):
            grid = projective_batch(alg, parity)
            d = len(alg.homogeneous_indices(parity))
            assert len(grid) == 1 + (q ** d - 1) // (q - 1), (alg.name, parity)
            multiples = np.concatenate([bf.scale(lam, grid) for lam in range(1, q)])
            assert np.array_equal(np.unique(multiples @ weights),
                                  np.unique(homogeneous_batch(alg, parity) @ weights)), \
                (alg.name, parity)


@pytest.mark.parametrize("spec", [GF5, GF25], ids=["q5", "q25"])
def test_basis_batch_is_a_basis_of_each_homogeneous_part(spec):
    """The rows are d independent vectors of the degree-d part, so they
    span it."""
    for make in GRID_ALGEBRAS:
        alg = make(spec)
        for parity in (0, 1):
            idx = alg.homogeneous_indices(parity)
            grid = basis_batch(alg, parity)
            assert len(grid) == len(idx)
            assert not np.delete(grid, idx, axis=1).any()
            assert SubspaceBasis(spec, alg.dim, grid).dim == len(idx), (alg.name, parity)


@pytest.mark.parametrize("alg, windows", [
    (sl2(GF5), total_degree_windows(4, 5)),
    (sl2(GF5), default_sl2_windows(5)),
    (sl2(FieldSpec.prime(7)), default_sl2_windows(7)),
    (sl2(GF25), default_windows_named(25, ("(y:1,1)", "(z:1,1,1)"))),
    (span_e11_e12(GF5), total_degree_windows(3, 5)),
], ids=["sl2-q5-degree4", "sl2-q5-default", "sl2-q7-default", "sl2-q25-default",
        "e11e12-q5-degree3"])
def test_identity_space_equals_enumeration(alg, windows):
    for win in windows:
        assert identity_space(alg, win) == enumerated_identity_space(alg, win), win.label


# one even and one odd variable, so that enumeration stays cheap at GF(25)
LINEAR_WINDOWS = [
    window_exact(MultiDegree.of({y(1): 1, z(1): 2})),  # y1 of cap 1 everywhere, z1 of cap 2
    window_box({y(1): 2, z(1): 1}),  # z1 of cap 1 but not in (y1:1), y1 of cap 2
    window_box({y(1): 0, z(1): 1}),  # y1 of cap 0
]
# two odd variables, at prime q only: at GF(25) abelian(0, 1, 1, 1) has
# 25^6, about 2.4e8, assignments of them
ODD_LINEAR_WINDOWS = [
    window_multilinear([y(1), z(1), z(2)]),
    window_exact(MultiDegree.of({z(1): 2, z(2): 1})),
    window_box({z(1): 1, z(2): 1}),
]


@pytest.mark.parametrize("spec", [GF5, FieldSpec.prime(7), GF25], ids=["q5", "q7", "q25"])
def test_identity_space_on_basis_grids_equals_enumeration(spec):
    """Variables of cap 1 run over basis vectors, and those of cap 0 over 0
    alone; identity_space must still equal the enumeration of every
    homogeneous assignment.  That includes m2-I, whose odd part is 0, so
    that its odd variables take 0 alone."""
    algebras = [make(spec) for make in GRID_ALGEBRAS]
    assert any(not alg.homogeneous_indices(1) for alg in algebras)
    windows = LINEAR_WINDOWS + (ODD_LINEAR_WINDOWS if spec.k == 1 else [])
    caps = [win.caps() for win in windows]
    assert {c.get(y(1)) for c in caps} >= {0, 1, 2} and {c[z(1)] for c in caps} >= {1, 2}
    for alg in algebras:
        for win in windows:
            assert identity_space(alg, win) == enumerated_identity_space(alg, win), \
                (alg.name, win.label)


def test_identity_space_vectors_hold_exhaustively():
    L = sl2(GF5)
    for counts in ({y(1): 2, z(1): 1, z(2): 1}, {z(1): 2, z(2): 2, z(3): 1},
                   {y(1): 1, y(2): 1, z(1): 2, z(2): 1}):
        win = window_exact(MultiDegree.of(counts))
        ids = identity_space(L, win)
        assert ids.dim > 0
        for row in ids.rows:
            assert check_poly_identity(win.poly_of(GF5, row), L).holds, win.label


# -- consequence_span ----------------------------------------------------------------


def test_consequence_contains_substitution_witness():
    win = window_multilinear([y(1), z(1), z(2)])
    span = consequence_span(GF5, [yy()], win)
    assert identity_space(sl2(GF5), win).contains_space(span)
    member = LiePolynomial.monomial(GF5, (y(1), z(1), z(2)))
    assert span.dim == 1
    assert span.contains(coords_of(win, member))


def test_consequence_lema5_zz_window():
    win = window_multilinear([z(1), z(2)])
    span = consequence_span(GF5, lema5_set(5), win)
    assert identity_space(span_e11_e12(GF5), win).contains_space(span)
    assert span.dim == 1


def test_consequence_generator_itself():
    win = window_multilinear([y(1), y(2)])
    span = consequence_span(GF5, [yy()], win)
    assert span.dim == 1


# (ambient, identity, consequence) dims of the windows of
# total_degree_windows(5, 5) that were strict-inclusion while images were
# capped at total degree 3
FORMERLY_STRICT = {
    "(y1:1, z1:3, z2:1)": (4, 3, 3),
    "(y1:1, z1:2, z2:2)": (6, 4, 4),
    "(y1:1, z1:2, z2:1, z3:1)": (12, 10, 10),
    "(y1:1, z1:1, z2:1, z3:1, z4:1)": (24, 21, 21),
    "(y1:3, z1:1, z2:1)": (4, 3, 3),
    "(y1:2, y2:1, z1:1, z2:1)": (12, 11, 11),
    "(y1:1, y2:1, y3:1, z1:1, z2:1)": (24, 23, 23),
}


def test_every_box_monomial_image_closes_the_degree_5_windows():
    """With every Lyndon monomial of the box as an image, S spans the whole
    identity space of each window that a cap on the image degree left short."""
    windows = [w for w in total_degree_windows(5, 5) if w.label in FORMERLY_STRICT]
    assert len(windows) == len(FORMERLY_STRICT)
    report = basis_check(sl2(GF5), set_s(5), windows)
    assert report.ok
    assert {r.label: (r.ambient_dim, r.id_dim, r.cons_dim)
            for r in report.windows} == FORMERLY_STRICT


def test_consequence_deterministic():
    win = window_box({y(1): 1, z(1): 1, z(2): 1})
    a = consequence_span(GF5, set_s(5), win)
    b = consequence_span(GF5, set_s(5), win)
    assert a == b


def test_poly_of_reads_element_codes_gf25():
    """Kernel and span rows are element codes: poly_of must read a GF(25)
    code c >= 5 as that element, not as c mod 5 in the prime subfield."""
    spec = FieldSpec.extension(5, 2)
    win = window_box({y(1): 1, z(1): 1, z(2): 1})
    codes = [(7 * i + 3) % 25 for i in range(win.dim)]
    poly = win.poly_of(spec, codes)
    assert any(c.code >= 5 for _, c in poly.terms)
    assert coords_of(win, poly).tolist() == codes
    assert win.poly_of(spec, np.array(codes)) == poly
    assert win.poly_of(spec, [spec.from_code(c) for c in codes]) == poly


def test_consequence_span_gf25_equals_identity_space():
    """Every variable of S has one degree residue mod 24, so the pools hold
    the coefficient-1 monomials alone; that keeps (z:1,y:25), the box of
    zyq_zy(25), well under a second.  two_class in test_span_prune keeps every extension-field
    multiple.  The identity space of (y:1,z:1,1) needs 2 * 27 * 27 grid
    points; enumerating its 9.77 M homogeneous assignments was over the
    budget."""
    L = sl2(GF25)
    for win in default_windows_named(25, ("(y:1,1)", "(z:1,1,1)", "(y:1,z:1,1)",
                                          "(z:1,y:25)")):
        span = consequence_span(GF25, set_s(25), win)
        assert span == identity_space(L, win)


def test_consequence_span_intersects_the_box_with_the_window():
    """The exact window (y1:5, z1:1) searches in the box of (z:1,y:5), where
    the span is the line of zyq_zy(5).  Its part in the window, [z1,y1^5],
    is no identity: the window holds no consequence, and a span projected
    onto the window instead of intersected with it would not lie in the
    identity space."""
    L = sl2(GF5)
    win = window_exact(MultiDegree.of({y(1): 5, z(1): 1}))
    span = consequence_span(GF5, set_s(5), win)
    ids = identity_space(L, win)
    assert ids.contains_space(span)
    assert span.dim == 0 and ids.dim == 0


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
        span = consequence_span(GF5, lema5_set(5), win)
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


def test_basis_check_needs_one_label_per_generator():
    """With four labels for five generators, zz(), which fails on sl2,
    would be neither labelled nor checked for soundness, yet it would
    enter the consequence span."""
    gens = set_s(5) + [zz()]
    with pytest.raises(ValueError, match="4 labels for 5 generators"):
        basis_check(sl2(GF5), gens, [], gen_labels=list("abcd"))
    with pytest.raises(ValueError, match="2 labels for 1 generators"):
        basis_check(sl2(GF5), [yy()], [], gen_labels=["a", "b"])
    report = basis_check(sl2(GF5), gens, [], gen_labels=list("abcde"))
    assert [label for label, _ in report.soundness] == list("abcde")
    assert report.verdict == "refuted"


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
