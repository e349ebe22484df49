import random
import tracemalloc
from functools import partial

import numpy as np
import pytest

from glie import algebra, gradings, linalg
from glie.algebra import _m2_mult, gl2, sl2
from glie.errors import SpecError
from glie.fields import FieldElement, FieldSpec
from glie.gradings import (
    _ASSOC_PAIRS,
    _LIE_PAIRS,
    GradingDescriptor,
    _respects_degrees,
    associative_closure_ok,
    classify_up_to_iso,
    descriptor_to_algebra,
    enumerate_z2_gradings,
    lift_sl2_grading_to_gl2,
    m2_automorphisms,
    natural_characterization,
    natural_sl2_descriptor,
    reference_m2_descriptors,
    remark_boboc,
    sl2_automorphisms,
    unit_component_check,
)
from glie.linalg import MatrixGF, SubspaceBasis, row_pairs

GF5 = FieldSpec.prime(5)
GF25 = FieldSpec.extension(5, 2)

# tracemalloc peak of sl2_automorphisms(GF(7)) when it scanned all p^9
# candidate matrices in blocks of p^7
P9_SCAN_PEAK_P7 = 231_460_745


def apply(spec, matrix, vec):
    """A code matrix times a vector of codes or field elements, by
    FieldElement arithmetic: a reference independent of the program's
    code-array products."""
    vec = [x if isinstance(x, FieldElement) else spec.from_code(int(x)) for x in vec]
    return tuple(sum((spec.from_code(a) * x for a, x in zip(row, vec)), spec.zero())
                 for row in np.asarray(matrix).tolist())


def test_sl2_automorphism_count_and_closure():
    autos = sl2_automorphisms(GF5)
    assert len(autos) == 120  # |PGL2(F5)|, found by brute force
    # spot-check bracket compatibility on a few entries
    from glie.algebra import sl2

    L = sl2(GF5)
    for phi in autos[:10]:
        for i in range(3):
            for j in range(i + 1, 3):
                lhs = apply(GF5, phi, L.bracket(L.basis_element(i), L.basis_element(j)).coeffs)
                left = L.element(apply(GF5, phi, L.basis_element(i).coeffs))
                right = L.element(apply(GF5, phi, L.basis_element(j).coeffs))
                assert list(lhs) == list(L.bracket(left, right).coeffs)


def test_m2_automorphism_count():
    assert len(m2_automorphisms(GF5)) == 120


@pytest.mark.parametrize("spec", [GF5, FieldSpec.prime(7), GF25], ids=lambda s: f"GF{s.q}")
def test_m2_scan_takes_one_matrix_per_scalar_class(spec, monkeypatch):
    """The candidates g are the q^3 + q^2 + q + 1 rows of projective_codes,
    not the q^4 matrices, and still give all |PGL2(q)| = q(q^2 - 1) maps."""
    q, sizes = spec.q, []
    monkeypatch.setattr(gradings, "projective_codes", lambda spec, n: (
        sizes.append(n) or linalg.projective_codes(spec, n)))
    maps = m2_automorphisms.__wrapped__(spec)
    assert sizes == [4]
    assert len(linalg.projective_codes(spec, 4)) - 1 == q ** 3 + q ** 2 + q + 1
    assert len(maps) == q * (q * q - 1)
    assert np.array_equal(maps, m2_automorphisms(spec))


def test_gradings_pipeline_over_gf25():
    """The pipeline over GF(25), against the theory of PGL2(q) for odd q,
    which is Aut(sl2) and Aut(M2): the identity and the q^2 involutions give
    q^2 + 1 gradings of each target.  The involutions form two conjugacy
    classes: q(q + 1)/2 with eigenvalues in F, the class of diag(1, -1) and
    of the natural grading, where [z1, y1^q] = [z1, y1] holds, and
    q(q - 1)/2 without, where it fails."""
    q = GF25.q
    assert len(sl2_automorphisms(GF25)) == len(m2_automorphisms(GF25)) == q * (q * q - 1)
    sl, m2 = (enumerate_z2_gradings(target, GF25) for target in ("sl2_lie", "m2_assoc"))
    assert len(sl) == len(m2) == q * q + 1
    for descriptors, even_dims in ((sl, (3, 1)), (m2, (4, 2))):
        classes = classify_up_to_iso(descriptors)
        assert sorted((c.size, c.even_dim, c.zyq_identity_holds) for c in classes) == [
            (1, even_dims[0], True), (q * (q - 1) // 2, even_dims[1], False),
            (q * (q + 1) // 2, even_dims[1], True)]
    assert sum(natural_characterization(d).hypotheses_hold for d in sl) == q * (q + 1) // 2
    assert all(unit_component_check(d) for d in m2)


def test_enumerate_m2_gradings():
    gradings = enumerate_z2_gradings("m2_assoc", GF5)
    assert len(gradings) == 26
    assert gradings[0].dims() == (4, 0)  # trivial included
    diagonal = SubspaceBasis.from_vectors(GF5, 4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert any(d.even == diagonal for d in gradings)


def test_enumerate_sl2_gradings():
    gradings = enumerate_z2_gradings("sl2_lie", GF5)
    assert len(gradings) == 26
    natural = natural_sl2_descriptor(GF5)
    assert any(d.key() == natural.key() for d in gradings)
    # no grading has a zero even part
    assert all(d.even.dim > 0 for d in gradings)
    # nontrivial gradings all have a 1-dimensional even part
    assert {d.dims() for d in gradings} == {(3, 0), (1, 2)}


def kernel_eigensplit(spec, phi):
    """The split of an involution as two kernels, ker(phi - I) and
    ker(phi + I): the reference for the image-based split of enumeration."""
    eye = np.eye(len(phi), dtype=np.int64)
    even, odd = (MatrixGF.from_rows(spec, phi + sign * eye).kernel() for sign in (-1, 1))
    return (tuple(map(tuple, even.rows.tolist())), tuple(map(tuple, odd.rows.tolist())))


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("target", ["sl2_lie", "m2_assoc"])
def test_eigensplit_matches_kernels_for_every_involution(target, p):
    spec = FieldSpec.prime(p)
    maps = sl2_automorphisms(spec) if target == "sl2_lie" else m2_automorphisms(spec)
    eye = np.eye(maps.shape[1], dtype=np.int64)
    involutions = [phi for phi in maps if ((phi @ phi) % p == eye).all()]
    expected = sorted(kernel_eigensplit(spec, phi) for phi in involutions)
    gradings = enumerate_z2_gradings(target, spec)
    # the identity and the p^2 involutions of PGL2(p), each with its own split
    assert len(expected) == len(set(expected)) == p * p + 1
    assert sorted(d.key() for d in gradings) == expected


def test_classify_m2_three_classes():
    gradings = enumerate_z2_gradings("m2_assoc", GF5)
    classes = classify_up_to_iso(gradings)
    assert len(classes) == 3
    assert sum(c.size for c in classes) == 26
    by_dims = {(c.even_dim, c.odd_dim) for c in classes}
    assert by_dims == {(4, 0), (2, 2)}


def test_classify_m2_representatives_match_displays():
    gradings = enumerate_z2_gradings("m2_assoc", GF5)
    classes = classify_up_to_iso(gradings)
    refs = reference_m2_descriptors(GF5)
    # each displayed grading falls into a distinct class: check via orbit
    # invariants (dims + the zyq separating certificate)
    from glie.identities import check_identity
    from glie.freelie import zyq_zy

    def certificate(d):
        alg = descriptor_to_algebra(d)
        return (d.even.dim, d.odd.dim,
                check_identity(zyq_zy(5), alg, graded=True).holds)

    ref_certs = {certificate(d) for d in refs}
    class_certs = {(c.even_dim, c.odd_dim, c.zyq_identity_holds) for c in classes}
    assert ref_certs == class_certs
    assert len(ref_certs) == 3


def test_classify_sl2_three_classes():
    gradings = enumerate_z2_gradings("sl2_lie", GF5)
    classes = classify_up_to_iso(gradings)
    assert len(classes) == 3
    certs = {(c.even_dim, c.odd_dim, c.zyq_identity_holds) for c in classes}
    assert certs == {(3, 0, True), (1, 2, True), (1, 2, False)}


def test_conjugated_natural_grading_same_class():
    # conjugating the natural grading by diag(1,2) must stay in its class
    from glie.algebra import sl2

    g = (GF5.from_int(1), GF5.zero(), GF5.zero(), GF5.from_int(2))
    # adjoint action of diag(1,2) on sl2 basis (h, e, f):
    # h -> h, e -> (1/2) e, f -> 2 f
    phi = [[1, 0, 0], [0, 3, 0], [0, 0, 2]]
    natural = natural_sl2_descriptor(GF5)
    conj = GradingDescriptor(
        "sl2", GF5,
        SubspaceBasis.from_vectors(GF5, 3, [apply(GF5, phi, r) for r in natural.even.rows]),
        SubspaceBasis.from_vectors(GF5, 3, [apply(GF5, phi, r) for r in natural.odd.rows]),
        "conjugated-natural")
    classes = classify_up_to_iso([natural, conj])
    assert len(classes) == 1
    assert classes[0].size == 2


def test_unit_component_criterion_both_directions():
    gradings = enumerate_z2_gradings("sl2_lie", GF5)
    for d in gradings:
        lifted_even = lift_sl2_grading_to_gl2(d, unit_in_even=True)
        assert unit_component_check(lifted_even) is True
        assert associative_closure_ok(lifted_even)
        lifted_odd = lift_sl2_grading_to_gl2(d, unit_in_even=False)
        assert unit_component_check(lifted_odd) is False
        assert not associative_closure_ok(lifted_odd)
    for d in enumerate_z2_gradings("m2_assoc", GF5):
        assert unit_component_check(d) is True


def test_descriptor_validation_rejects_bad_split():
    # even = span{e}, odd = span{h, f} is not a Lie grading of sl2
    with pytest.raises(SpecError):
        GradingDescriptor(
            "sl2", GF5,
            SubspaceBasis.from_vectors(GF5, 3, [[0, 1, 0]]),
            SubspaceBasis.from_vectors(GF5, 3, [[1, 0, 0], [0, 0, 1]]),
            "bad")


# (parent, branch, ambient dim, even rows, odd rows).  sl2 rows are in (h, e, f)
# coordinates, M2 rows in (e11, e12, e21, e22).  Each case breaks the named
# check; all but sl2 even-even pass every other check, so dropping any one
# check lets a case through.  (A 2-dim even part of sl2 that is no subalgebra
# generates sl2, so no odd part can be invariant under it.)  The short cases
# are independent and bracket-closed but fall short of n, so only the
# dimension check rejects them; the sum cases have too many dimensions and
# the overlap cases the right number of dependent ones, so the parts do not
# span.
FULL3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
BAD_SPLITS = [
    ("sl2", "ambient", 4, [[1, 0, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0]]),
    ("sl2", "short", 3, [[1, 0, 0]], []),
    ("sl2", "sum", 3, FULL3, FULL3),
    ("sl2", "overlap", 3, [[1, 0, 0], [0, 1, 0]], [[0, 1, 0]]),
    ("sl2", "even-even", 3, [[0, 1, 0], [0, 0, 1]], [[1, 0, 0]]),
    ("sl2", "even-odd", 3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]),
    ("sl2", "odd-odd", 3, [], FULL3),
    ("m2", "ambient", 5, [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]], [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]),
    ("m2", "short", 4, [[1, 0, 0, 1]], []),
    ("m2", "sum", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 0, 1]]),
    ("m2", "overlap", 4, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], [[0, 1, 0, 0]]),
    ("m2", "even-even", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 1]]),
    ("m2", "even-odd", 4, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], [[0, 0, 1, 0]]),
    ("m2", "odd-odd", 4, [[1, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
]


@pytest.mark.parametrize("kind, branch, n, even, odd", BAD_SPLITS,
                         ids=[f"{c[0]}-{c[1]}" for c in BAD_SPLITS])
def test_descriptor_validation_rejects_each_branch(kind, branch, n, even, odd):
    message = {"ambient": "wrong field or ambient dimension", "short": "do not split",
               "sum": "do not split", "overlap": "do not split"}.get(branch, "bracket closure")
    with pytest.raises(SpecError, match=message):
        GradingDescriptor(kind, GF5, SubspaceBasis.from_vectors(GF5, n, even),
                          SubspaceBasis.from_vectors(GF5, n, odd), branch)


def test_descriptor_validation_rejects_parts_over_another_field():
    natural = natural_sl2_descriptor(FieldSpec.prime(7))
    with pytest.raises(SpecError, match="wrong field"):
        GradingDescriptor("sl2", GF5, natural.even, natural.odd, "mixed")


def rank_test_closed(even, odd, mult, pairs):
    """The rank-test formulation of a closure check, the reference for the
    homogeneous-basis one: even + odd must span, and the products of each
    listed part pair must lie in the part of their degree."""
    n = even.ambient_dim
    if even.dim + odd.dim != n or even.sum(odd).dim != n:
        raise SpecError("even and odd parts do not split the algebra")
    parts = (even, odd)
    return all(parts[(g + h) % 2].contains_rows(mult(*row_pairs(parts[g].rows, parts[h].rows)))
               for g, h in pairs)


def outcome(check, *args):
    """True / False, or "no split" when the check raises that the parts do
    not span.  A descriptor reads True when it constructs and False when it
    fails its bracket closure."""
    try:
        result = check(*args)
    except SpecError as exc:
        if "bracket closure" in str(exc):
            return False
        assert "do not split" in str(exc), exc
        return "no split"
    return result if isinstance(result, bool) else True


def assert_closures_agree(kind, even, odd):
    """The descriptor's validation and, inside M2, the associative closure
    agree with rank_test_closed; returns the two outcomes.  The closure check
    takes parts whose dimensions add up (the descriptor checks that first),
    so it is compared on those only."""
    spec = even.spec
    lie = outcome(GradingDescriptor, kind, spec, even, odd, "test")
    bracket = (gl2 if kind == "m2" else sl2)(spec).batch_bracket
    assert lie == outcome(rank_test_closed, even, odd, bracket,
                          ((0, 0), (0, 1), (1, 1))), (even.rows, odd.rows)
    if kind != "m2" or even.dim + odd.dim != even.ambient_dim:
        return lie, None
    mult = partial(_m2_mult, spec)
    assoc = outcome(_respects_degrees, even, odd, mult, _ASSOC_PAIRS)
    assert assoc == outcome(rank_test_closed, even, odd, mult,
                            ((0, 0), (0, 1), (1, 0), (1, 1))), (even.rows, odd.rows)
    if lie is True:
        assert associative_closure_ok(GradingDescriptor(kind, spec, even, odd, "test")) == assoc
    return lie, assoc


@pytest.mark.parametrize("p", [5, 7])
def test_closure_checks_match_rank_tests_on_enumerated_gradings(p):
    spec = FieldSpec.prime(p)
    for d in enumerate_z2_gradings("m2_assoc", spec):
        assert assert_closures_agree("m2", d.even, d.odd) == (True, True)
    for d in enumerate_z2_gradings("sl2_lie", spec):
        assert assert_closures_agree("sl2", d.even, d.odd) == (True, None)
        for unit_in_even in (True, False):
            lift = lift_sl2_grading_to_gl2(d, unit_in_even)
            assert assert_closures_agree("m2", lift.even, lift.odd) == (True, unit_in_even)


@pytest.mark.parametrize("kind, branch, n, even, odd",
                         [c for c in BAD_SPLITS if c[1] not in ("ambient", "short")],
                         ids=[f"{c[0]}-{c[1]}" for c in BAD_SPLITS
                              if c[1] not in ("ambient", "short")])
def test_closure_checks_match_rank_tests_on_bad_splits(kind, branch, n, even, odd):
    lie, _ = assert_closures_agree(kind, SubspaceBasis.from_vectors(GF5, n, even),
                                   SubspaceBasis.from_vectors(GF5, n, odd))
    assert lie == ("no split" if branch in ("sum", "overlap") else False)


def test_closure_checks_match_rank_tests_on_random_splits():
    rng = random.Random(20170208)
    seen = set()
    for kind, n in [("sl2", 3), ("m2", 4)] * 150:
        k = rng.randrange(n + 1)
        rows = [[rng.choice((0, 0, 0, 1, 1, 2, 4)) for _ in range(n)] for _ in range(n)]
        even, odd = (SubspaceBasis.from_vectors(GF5, n, part) if part
                     else SubspaceBasis.zero(GF5, n) for part in (rows[:k], rows[k:]))
        seen.update((kind, i, result)
                    for i, result in enumerate(assert_closures_agree(kind, even, odd)))
    # both checks see every outcome
    assert {(kind, 0, r) for kind in ("sl2", "m2") for r in (True, False, "no split")} <= seen
    assert {("m2", 1, r) for r in (True, False, "no split")} <= seen


def one_pair_broken(spec, broken):
    """A bilinear product on F^2 = span(x0) + span(x1), with x0 even and x1
    odd, where x_g x_h = x_{g+h} for every pair but the broken one, whose
    product lands in the wrong degree; and that split."""
    table = np.zeros((2, 2, 2), dtype=np.int64)
    for g in (0, 1):
        for h in (0, 1):
            table[g, h, (g + h + ((g, h) == broken)) % 2] = 1
    mult = lambda a, b: np.einsum("ni,nj,ijk->nk", a, b, table) % spec.p  # noqa: E731
    even, odd = (SubspaceBasis.from_vectors(spec, 2, [row]) for row in ([1, 0], [0, 1]))
    return even, odd, mult


@pytest.mark.parametrize("pairs, listed", [(_LIE_PAIRS, ((0, 0), (0, 1), (1, 1))),
                                           (_ASSOC_PAIRS, ((0, 0), (0, 1), (1, 0), (1, 1)))],
                         ids=["lie", "assoc"])
def test_closure_check_reads_every_listed_pair(pairs, listed):
    # In M2 no split fails the associative closure on (0, 0), (0, 1) or
    # (1, 0) alone, so a product with one broken pair is what shows that
    # each listed pair is checked.
    for broken in ((0, 0), (0, 1), (1, 0), (1, 1)):
        even, odd, mult = one_pair_broken(GF5, broken)
        assert _respects_degrees(even, odd, mult, pairs) == (broken not in listed), broken


def test_each_validation_and_closure_check_is_one_elimination(monkeypatch):
    for kind in ("m2", "sl2"):
        gradings._parent_algebra(GF5, kind)  # build the parents outside the count
    eliminations = []
    real = linalg.rref_codes
    for module in (linalg, algebra):
        monkeypatch.setattr(module, "rref_codes",
                            lambda *args: eliminations.append(1) or real(*args))
    per_call = {"validate": [], "assoc": []}

    def counted(name, fn):
        def wrapper(*args):
            before = len(eliminations)
            out = fn(*args)
            per_call[name].append(len(eliminations) - before)
            return out
        return wrapper

    monkeypatch.setattr(GradingDescriptor, "__post_init__",
                        counted("validate", GradingDescriptor.__post_init__))
    monkeypatch.setattr(gradings, "associative_closure_ok",
                        counted("assoc", gradings.associative_closure_ok))
    sl2_gradings = enumerate_z2_gradings("sl2_lie", GF5)
    m2_gradings = enumerate_z2_gradings("m2_assoc", GF5)
    for d in sl2_gradings:
        natural_characterization(d)
    for d in m2_gradings:
        unit_component_check(d)
    assert per_call["validate"] == [1] * (len(sl2_gradings) + len(m2_gradings))
    assert per_call["assoc"] == [1] * len(m2_gradings)


def test_natural_characterization_identity_map():
    verdict = natural_characterization(natural_sl2_descriptor(GF5))
    assert verdict.hypotheses_hold
    iso = verdict.isomorphism
    assert iso.entries.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_natural_characterization_nonsquare_fails_qpower():
    gradings = enumerate_z2_gradings("sl2_lie", GF5)
    nonsquare = [d for d in gradings if d.dims() == (1, 2)
                 and not descriptor_zyq(d)]
    assert nonsquare
    verdict = natural_characterization(nonsquare[0])
    assert not verdict.hypotheses_hold
    assert verdict.failing == "q-power"
    assert verdict.witness


def descriptor_zyq(d):
    from glie.freelie import zyq_zy
    from glie.identities import check_identity

    return check_identity(zyq_zy(d.spec.q), descriptor_to_algebra(d), graded=True).holds


def test_natural_characterization_trivial_fails_dims():
    gradings = enumerate_z2_gradings("sl2_lie", GF5)
    trivial = [d for d in gradings if d.dims() == (3, 0)][0]
    verdict = natural_characterization(trivial)
    assert not verdict.hypotheses_hold
    assert verdict.failing == "dim-even"


def test_natural_characterization_all_qualifying_gradings():
    # every enumerated grading satisfying the hypotheses maps to the natural
    # one; the theorem-violation path never fires
    gradings = enumerate_z2_gradings("sl2_lie", GF5)
    natural = natural_sl2_descriptor(GF5)
    qualified = 0
    for d in gradings:
        verdict = natural_characterization(d)
        if verdict.hypotheses_hold:
            qualified += 1
            phi = verdict.isomorphism.entries
            image_even = SubspaceBasis.from_vectors(
                GF5, 3, [apply(GF5, phi, r) for r in d.even.rows])
            image_odd = SubspaceBasis.from_vectors(
                GF5, 3, [apply(GF5, phi, r) for r in d.odd.rows])
            assert image_even == natural.even
            assert image_odd == natural.odd
    assert qualified == 15  # the orbit of the natural grading


def test_remark_boboc_frozen_gf5():
    report = remark_boboc(GF5)
    assert report.bprime.code == 2
    assert report.lhs == (0, 2, 1, 0)   # 2 e12 + e21
    assert report.rhs == (0, 3, 4, 0)   # 3 e12 + 4 e21 = -2 lhs... scaled by (4b)^2 = 4
    assert report.differ
    assert report.control_equal


def test_remark_boboc_gf7():
    report = remark_boboc(FieldSpec.prime(7))
    assert report.bprime.code == 3
    assert report.lhs == (0, 2, 1, 0)
    assert report.rhs == (0, 5, 6, 0)   # (4b)^3 = 12^3 = -1: rhs = -lhs
    assert report.differ and report.control_equal


def uncached_scan(p):
    """sl2_automorphisms(GF(p)) past its cache, with its tracemalloc peak."""
    tracemalloc.start()
    try:
        autos = sl2_automorphisms.__wrapped__(FieldSpec.prime(p))
        return autos, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sl2_scan_memory_stays_bounded():
    autos, peak = uncached_scan(7)
    assert len(autos) == 336
    assert peak < P9_SCAN_PEAK_P7
    # memory does not grow with p: both primes fill whole _SCAN_ROWS blocks
    # of nilpotent pairs, 28,224 at p = 13 and 104,976 at p = 19
    assert (13 ** 2 - 1) ** 2 > gradings._SCAN_ROWS
    assert uncached_scan(19)[1] < 2 * uncached_scan(13)[1]


def p6_scan(spec):
    """sl2_automorphisms as it was before the scan kept ad-nilpotent images
    only: every one of the p^6 pairs (phi(e), phi(f)), in _SCAN_ROWS blocks."""
    p = spec.p
    alg = sl2(spec)
    eye = np.eye(3, dtype=np.int64)
    relations = [(j, alg.batch_bracket(eye[:1], eye[j:j + 1])[0]) for j in (1, 2)]
    powers = p ** np.arange(6, dtype=np.int64)
    found = []
    for start in range(0, p ** 6, gradings._SCAN_ROWS):
        digits = np.arange(start, min(start + gradings._SCAN_ROWS, p ** 6))[:, None] // powers % p
        m = np.empty((len(digits), 3, 3), dtype=np.int64)
        m[:, :, 1], m[:, :, 2] = digits[:, :3], digits[:, 3:]
        m[:, :, 0] = alg.batch_bracket(m[:, :, 1], m[:, :, 2])
        # the determinant of a 3x3 matrix is column 0 . (column 1 x column 2)
        mask = np.einsum("ni,ni->n", m[:, :, 0], np.cross(m[:, :, 1], m[:, :, 2])) % p != 0
        for j, c0j in relations:
            mask &= ((m @ c0j) % p == alg.batch_bracket(m[:, :, 0], m[:, :, j])).all(axis=1)
        found.append(m[mask])
    out = np.concatenate(found, axis=0)
    return out[np.lexsort(tuple(out.reshape(len(out), 9).T[::-1]))]


def test_sl2_automorphisms_match_p6_scan_p11():
    spec = FieldSpec.prime(11)
    autos = sl2_automorphisms(spec)
    reference = p6_scan(spec)
    assert autos.shape == reference.shape and (autos == reference).all()


def test_sl2_automorphisms_p11_exhaustive():
    spec = FieldSpec.prime(11)
    autos, _ = uncached_scan(11)
    assert len(autos) == 1320  # |PGL2(F11)|, which the scan does not assume
    assert len(np.unique(autos.reshape(-1, 9), axis=0)) == 1320
    L = sl2(spec)
    for i in range(3):
        for j in range(3):
            cij = L.constants[i, j]
            assert ((autos @ cij) % 11 == L.batch_bracket(autos[:, :, i], autos[:, :, j])).all()


def brute_force_classes(gradings, maps):
    """Orbits by scalar images and from_vectors: {(representative key, size)}."""
    def image(phi, d):
        return tuple(
            tuple(map(tuple, SubspaceBasis.from_vectors(
                d.spec, s.ambient_dim, [apply(d.spec, phi, r) for r in s.rows]).rows.tolist()))
            for s in (d.even, d.odd))

    members = {}
    for d in gradings:
        members.setdefault(min(image(phi, d) for phi in maps), []).append(d.key())
    return {(min(keys), len(keys)) for keys in members.values()}


@pytest.mark.parametrize("target", ["sl2_lie", "m2_assoc"])
def test_classify_shuffled_subset_matches_brute_force_orbits(target):
    gradings = random.Random(11).sample(enumerate_z2_gradings(target, GF5), 12)
    maps = sl2_automorphisms(GF5) if target == "sl2_lie" else m2_automorphisms(GF5)
    classes = classify_up_to_iso(gradings)
    assert sum(c.size for c in classes) == 12
    assert {(c.representative.key(), c.size) for c in classes} == \
        brute_force_classes(gradings, maps)


def test_classify_references_mixed_with_enumerated_matches_brute_force():
    gradings = (reference_m2_descriptors(GF5)
                + random.Random(12).sample(enumerate_z2_gradings("m2_assoc", GF5), 9))
    random.Random(13).shuffle(gradings)
    classes = classify_up_to_iso(gradings)
    assert {(c.representative.key(), c.size) for c in classes} == \
        brute_force_classes(gradings, m2_automorphisms(GF5))


def scalar_qpower_witness(d):
    """The first (a, c), in vectors() order, with [a, c^q] != [a, c], by
    scalar gl2 brackets."""
    spec = d.spec
    parent = gl2(spec)
    embed = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [spec.p - 1, 0, 0]]
    odd = SubspaceBasis.from_vectors(spec, 4, [apply(spec, embed, r) for r in d.odd.rows])
    even = SubspaceBasis.from_vectors(
        spec, 4, [apply(spec, embed, r) for r in d.even.rows] + [(1, 0, 0, 1)])
    for a_vec in odd.vectors():
        a = parent.element(a_vec)
        for c_vec in even.vectors():
            c = parent.element(c_vec)
            val = a
            for _ in range(spec.q):
                val = parent.bracket(val, c)
            if val != parent.bracket(a, c):
                return f"a = {a}, c = {c}"
    return None


def test_qpower_witness_matches_scalar_loop():
    for p in (5, 7):
        gradings = [d for d in enumerate_z2_gradings("sl2_lie", FieldSpec.prime(p))
                    if d.even.dim == 1]
        failing = [d for d in gradings if not descriptor_zyq(d)]
        holding = [d for d in gradings if descriptor_zyq(d)][:2]
        assert failing and holding
        for d in failing + holding:
            verdict = natural_characterization(d)
            assert verdict.witness == scalar_qpower_witness(d)
            assert verdict.failing == ("q-power" if verdict.witness else None)
        assert all(natural_characterization(d).witness for d in failing)


def batch_qpower_witness(d):
    """The q-power witness from one batch of all q^4 pairs (a, c), a slowest."""
    even, odd = gradings._lifted_parts(d, unit_in_even=True)
    a, c = row_pairs(odd.vectors(), even.vectors())
    once, val = gl2(d.spec).batch_ad_powers(a, c, (1, d.spec.q))
    failing = np.flatnonzero((val != once).any(axis=1))
    if not failing.size:
        return None
    i = failing[0]
    return f"a = {tuple(a[i].tolist())}, c = {tuple(c[i].tolist())}"


def image_stack_isomorphism(d):
    """The first automorphism, in sorted order, whose images of the even and
    odd parts reduce to the parts of the natural grading."""
    maps = sl2_automorphisms(d.spec)
    even, odd = gradings._image_stacks(d, maps)
    hits = np.flatnonzero((even == [[1, 0, 0]]).all(axis=(1, 2))
                          & (odd == [[0, 1, 0], [0, 0, 1]]).all(axis=(1, 2)))
    return maps[hits[0]].tolist() if hits.size else None


@pytest.mark.parametrize("p", [5, 7, 11])
def test_natural_characterization_matches_full_batch_and_image_stacks(p):
    verdicts = set()
    for d in enumerate_z2_gradings("sl2_lie", FieldSpec.prime(p)):
        v = natural_characterization(d)
        iso = None if v.isomorphism is None else v.isomorphism.entries.tolist()
        if d.even.dim != 1:
            assert (v.hypotheses_hold, v.failing, iso) == (False, "dim-even", None)
            continue
        witness = batch_qpower_witness(d)
        assert v.witness == witness
        assert v.failing == ("q-power" if witness else None)
        assert v.hypotheses_hold == (witness is None)
        assert iso == (None if witness else image_stack_isomorphism(d))
        verdicts.add(v.failing)
    assert verdicts == {"q-power", None}
