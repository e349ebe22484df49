import itertools
import random

import numpy as np
import pytest

import glie.algebra as algebra

from glie.errors import (
    AmbientMismatch,
    EigenspaceNotGraded,
    NotAnIdeal,
    SpecError,
)
from glie.algebra import (
    GradedLieAlgebra,
    a_property_probe,
    abelian,
    center,
    centralizer_of_ideal,
    construct,
    direct_sum,
    from_spec_data,
    generated_ideal,
    gl2,
    heisenberg,
    is_graded_subspace,
    is_ideal,
    m2_grading_i,
    m2_grading_ii,
    m2_grading_iii,
    product_space,
    root_decomposition,
    sl2,
    span_e11_e12,
    structure_report,
    to_spec_data,
)
from glie.fields import FieldSpec, find_nonsquare
from glie.linalg import SubspaceBasis

GF5 = FieldSpec.prime(5)
GF7 = FieldSpec.prime(7)
GF25 = FieldSpec.extension(5, 2)


def all_subspaces(alg, max_dim=None):
    """Independent oracle: every subspace of the algebra, by enumerating all
    bases.  Only usable for tiny dimensions."""
    q = alg.spec.q
    n = alg.dim
    seen = {}
    vectors = [alg.element_from_code(c) for c in range(q ** n)]
    limit = max_dim if max_dim is not None else n
    for r in range(1, limit + 1):
        for combo in itertools.combinations(vectors[1:], r):
            s = SubspaceBasis.from_vectors(alg.spec, n, [v.coeffs for v in combo])
            if s.dim == r:
                seen[s.rows] = s
    seen[()] = SubspaceBasis.zero(alg.spec, n)
    return list(seen.values())


# -- constructors -------------------------------------------------------------


def test_sl2_relations():
    L = sl2(GF5)
    h, e, f = (L.basis_element(i) for i in range(3))
    assert L.bracket(e, f) == h
    assert L.bracket(h, e) == e.scale(2)
    assert L.bracket(h, f) == f.scale(-2)
    assert L.validate().ok
    assert L.degrees == (0, 1, 1)


def test_span_e11_e12_relations():
    L = span_e11_e12(GF5)
    a, b = L.basis_element(0), L.basis_element(1)
    assert L.bracket(a, b) == b
    assert L.bracket(b, a) == -b
    assert L.validate().ok


def test_m2_grading_iii_structure():
    L = m2_grading_iii(GF5)  # b' = 2
    assert find_nonsquare(GF5).code == 2
    assert L.degrees == (0, 0, 1, 1)
    assert L.validate().ok
    # identity matrix is central: column of zeros in every bracket
    one = L.basis_element(0)
    for j in range(4):
        assert L.bracket(one, L.basis_element(j)).is_zero()


def test_m2_grading_iii_rejects_square():
    with pytest.raises(ValueError):
        m2_grading_iii(GF5, GF5.from_int(4))


@pytest.mark.parametrize("spec", [GF5, GF7, GF25])
def test_all_constructors_validate(spec):
    for kind in ["sl2", "gl2", "m2-i", "m2-ii", "m2-iii", "span-e11-e12", "heisenberg"]:
        alg = construct(kind, spec)
        assert alg.validate().ok, kind


def test_validate_catches_bad_grading():
    # sl2 with degrees (0,1,0) on (h,e,f): [h,f] = -2f is odd output from
    # even-labeled inputs
    L = sl2(GF5)
    bad = GradedLieAlgebra(GF5, (0, 1, 0), L.constants, "bad")
    report = bad.validate()
    assert not report.ok
    assert any(name == "grading" for name, _ in report.failing())


def test_validate_catches_anticommutativity():
    L = span_e11_e12(GF5)
    constants = [list(row) for row in L.constants]
    constants[1][0] = constants[0][1]  # c[1][0] != -c[0][1]
    bad = GradedLieAlgebra(GF5, (0, 1), constants, "bad")
    assert any(name == "anticommutativity" for name, _ in bad.validate().failing())


def test_bracket_bilinear_and_alternating():
    L = sl2(GF5)
    rng = random.Random(0)
    for _ in range(50):
        a = L.element_from_code(rng.randrange(125))
        b = L.element_from_code(rng.randrange(125))
        assert L.bracket(a, a).is_zero()
        assert L.bracket(a, b) == -L.bracket(b, a)


def test_ad_matrix_of_h():
    L = sl2(GF5)
    h = L.basis_element(0)
    ad = L.ad_matrix(h)
    codes = [[x.code for x in row] for row in ad.entries]
    assert codes == [[0, 0, 0], [0, 2, 0], [0, 0, 3]]


def test_bracket_parent_mismatch():
    with pytest.raises(AmbientMismatch):
        sl2(GF5).bracket(sl2(GF5).basis_element(0), span_e11_e12(GF5).basis_element(0))


def test_batch_bracket_matches_scalar():
    import numpy as np

    constructors = (sl2, gl2, m2_grading_i, m2_grading_ii, m2_grading_iii, span_e11_e12,
                    heisenberg, lambda spec: abelian(spec, (0, 1, 1)),
                    lambda spec: direct_sum([sl2(spec), heisenberg(spec)]))
    for spec in (GF5, GF7, GF25):
        for make in constructors:
            L = make(spec)
            rng = random.Random(3)
            pairs = [(L.element_from_code(rng.randrange(spec.q ** L.dim)),
                      L.element_from_code(rng.randrange(spec.q ** L.dim))) for _ in range(30)]
            pairs += [(L.zero_element(), L.zero_element()),
                      (L.zero_element(), pairs[0][1]), (pairs[0][0], L.zero_element())]
            u = np.stack([a.codes() for a, _ in pairs])
            v = np.stack([b.codes() for _, b in pairs])
            out = L.batch_bracket(u, v)
            assert out.dtype == np.int64 and out.shape == u.shape
            for row, (a, b) in zip(out, pairs):
                assert list(row) == [x.code for x in L.bracket(a, b).coeffs], (L.name, spec)


AD_POWER_ALGEBRAS = {
    "sl2": sl2, "gl2": gl2, "m2_i": m2_grading_i, "m2_ii": m2_grading_ii,
    "m2_iii": m2_grading_iii, "heisenberg": heisenberg,
    "abelian": lambda spec: abelian(spec, (0, 1, 1)),
    "sl2+heisenberg": lambda spec: direct_sum([sl2(spec), heisenberg(spec)]),
}


def repeated_ad_powers(L, u, w, top):
    """u (ad w)^e for e = 0 .. top, by top calls of batch_bracket."""
    powers = [u]
    for _ in range(top):
        powers.append(L.batch_bracket(powers[-1], w))
    return powers


def ad_power_inputs(L, rows, seed):
    """Random code rows, with all-zero rows in u, in w and in both."""
    rng = np.random.default_rng(seed)
    u, w = (rng.integers(0, L.spec.q, (rows, L.dim)) for _ in range(2))
    u[:4] = 0
    w[2:6] = 0
    return u, w


def repeating_bases(L, rows, seed):
    """Bases of three kinds: all rows equal, three distinct values (zero
    among them), and every row distinct, which leaves at most q^dim rows."""
    rng = np.random.default_rng(seed)
    size = L.spec.q ** L.dim
    codes = rng.choice(np.arange(1, size), min(rows, size - 1), replace=False)
    decode = lambda c: c[:, None] // L.spec.q ** np.arange(L.dim) % L.spec.q
    return {"equal": decode(np.repeat(codes[:1], rows)),
            "few": decode(np.array([0, *codes[:2]])[rng.integers(0, 3, rows)]),
            "distinct": decode(codes)}


@pytest.mark.parametrize("spec", [GF5, GF7, GF25], ids=lambda s: f"GF{s.q}")
@pytest.mark.parametrize("name", AD_POWER_ALGEBRAS)
def test_batch_ad_powers_matches_repeated_brackets(name, spec, monkeypatch):
    """Exponents 0 to q^2 + 2, alone and in sets, on both sides of the path
    rule, over several blocks of which the last is partial, for bases that
    are all equal, take a few values or are all distinct."""
    block = 64
    monkeypatch.setattr(algebra, "_AD_BLOCK", block)
    powered = []
    ad_power_matrices = algebra.GradedLieAlgebra._ad_power_matrices
    monkeypatch.setattr(algebra.GradedLieAlgebra, "_ad_power_matrices",
                        lambda self, w, exponents: powered.append(len(w))
                        or ad_power_matrices(self, w, exponents))
    L = AD_POWER_ALGEBRAS[name](spec)
    u, _ = ad_power_inputs(L, 3 * block + 5, spec.q)
    top = spec.q ** 2 + 2
    paths = set()
    for kind, bases in repeating_bases(L, len(u), spec.q).items():
        rows = len(bases)
        distinct = len(np.unique(bases, axis=0))
        assert distinct == {"equal": 1, "few": 3, "distinct": rows}[kind]
        expected = repeated_ad_powers(L, u[:rows], bases, top + 1)
        cross = next((e for e in range(2, top + 1)
                      if algebra._ad_matrices_pay(rows, distinct, L.dim, (e,))), top)
        exponent_sets = [tuple(range(1, top + 1)), (3, top), (1, top - 2), (top, 3), (0, top),
                         (0,), (2,), (cross - 1,), (cross,), (cross + 1,), (1, 2, cross - 1),
                         (top,)]
        for exponents in exponent_sets:
            before = len(powered)
            got = L.batch_ad_powers(u[:rows], bases, exponents)
            paths.add(len(powered) > before)
            assert len(got) == len(exponents)
            for e, g in zip(exponents, got):
                assert g.shape == (rows, L.dim) and (g == expected[e]).all(), (kind, e, exponents)
    assert paths == {False, True}


def test_batch_ad_powers_full_blocks():
    """The default block size, with a partial last block of rows and, for
    sl2 + heisenberg, of distinct bases too."""
    for L in (sl2(GF7), direct_sum([sl2(GF7), heisenberg(GF7)])):
        u, w = ad_power_inputs(L, 2 * algebra._AD_BLOCK + 3, 11)
        expected = repeated_ad_powers(L, u, w, 51)
        for exponents in [(51,), (3, 51), (49, 1), (48, 47)]:
            for e, g in zip(exponents, L.batch_ad_powers(u, w, exponents)):
                assert (g == expected[e]).all(), (e, exponents)


def test_spec_file_roundtrip():
    L = sl2(GF5)
    data = to_spec_data(L)
    L2 = from_spec_data(data)
    assert L2.constants == L.constants
    assert L2.degrees == L.degrees


def test_spec_file_rejects_bad_jacobi():
    data = {
        "field": {"p": 5},
        "dim": 3,
        "degrees": [0, 0, 0],
        # [[b0,b1],b2] + [[b1,b2],b0] + [[b2,b0],b1] = [b1,b2] = b0 != 0
        "constants": [[0, 1, [0, 0, 1]], [0, 2, [0, 0, 1]], [1, 2, [1, 0, 0]]],
    }
    with pytest.raises(SpecError, match="jacobi"):
        from_spec_data(data)


# -- ideals and series ---------------------------------------------------------


def test_generated_ideal_sl2_from_h():
    L = sl2(GF5)
    ideal = generated_ideal(L, [L.basis_element(0)])
    assert ideal.dim == 3


def test_generated_ideal_span_from_e12():
    L = span_e11_e12(GF5)
    ideal = generated_ideal(L, [L.basis_element(1)])
    assert ideal.dim == 1
    assert ideal.contains([0, 1])


def test_generated_ideal_abelian():
    L = abelian(GF5, (0,))
    ideal = generated_ideal(L, [L.basis_element(0)])
    assert ideal.dim == 1


def test_generated_ideal_monotone_idempotent():
    L = sl2(GF5)
    rng = random.Random(5)
    for _ in range(20):
        a = L.element_from_code(rng.randrange(1, 125))
        b = L.element_from_code(rng.randrange(1, 125))
        ia = generated_ideal(L, [a])
        iab = generated_ideal(L, [a, b])
        assert iab.contains_space(ia)
        regenerated = generated_ideal(L, [L.element(r) for r in ia.rows])
        assert regenerated.rows == ia.rows


def test_center_and_centralizer():
    L = sl2(GF5)
    assert center(L).dim == 0
    full = SubspaceBasis.full(GF5, 3)
    assert centralizer_of_ideal(L, full).dim == 0

    S = span_e11_e12(GF5)
    ideal = SubspaceBasis.from_vectors(GF5, 2, [[0, 1]])
    cent = centralizer_of_ideal(S, ideal)
    assert cent.rows == ideal.rows

    A = abelian(GF5, (0, 1))
    assert centralizer_of_ideal(A, SubspaceBasis.from_vectors(GF5, 2, [[1, 0]])).dim == 2


def test_centralizer_rejects_non_ideal():
    L = sl2(GF5)
    not_ideal = SubspaceBasis.from_vectors(GF5, 3, [[0, 1, 0]])  # span{e}
    with pytest.raises(NotAnIdeal):
        centralizer_of_ideal(L, not_ideal)


def test_structure_sl2():
    rep = structure_report(sl2(GF5))
    assert rep.center.dim == 0
    assert rep.radical.dim == 0
    assert rep.nilradical.dim == 0
    assert rep.graded_simple
    assert rep.monolithic and rep.monolith.dim == 3
    assert not rep.solvable and not rep.nilpotent and not rep.metabelian


def test_structure_sl2_against_subspace_oracle():
    # independent oracle: enumerate all proper subspaces, find ideals directly
    L = sl2(GF5)
    ideals = [s for s in all_subspaces(L, max_dim=2) if is_ideal(L, s)]
    assert sorted(s.dim for s in ideals) == [0]  # simple: no proper ideal


def test_structure_span_e11_e12():
    L = span_e11_e12(GF5)
    rep = structure_report(L)
    assert [s.dim for s in rep.derived] == [2, 1, 0]
    assert rep.metabelian and rep.solvable and not rep.nilpotent
    assert rep.monolithic
    assert [[x.code for x in r] for r in rep.monolith.rows] == [[0, 1]]
    assert rep.nilradical.rows == rep.derived[1].rows  # Nil(L) = [L,L]
    assert rep.center.dim == 0


def test_structure_span_oracle_ideals():
    L = span_e11_e12(GF5)
    ideals = [s for s in all_subspaces(L) if is_ideal(L, s)]
    dims = sorted(s.dim for s in ideals)
    assert dims == [0, 1, 2]
    one_dim = [s for s in ideals if s.dim == 1]
    assert len(one_dim) == 1
    assert one_dim[0].contains([0, 1])


def test_structure_direct_sum_abelian():
    L = direct_sum([abelian(GF5, (0,)), abelian(GF5, (1,))])
    rep = structure_report(L)
    assert rep.center.dim == 2
    assert rep.radical.dim == 2
    assert rep.solvable
    assert not rep.monolithic  # two minimal ideals
    assert len(rep.minimal_graded_ideals) == 2


def test_structure_heisenberg():
    rep = structure_report(heisenberg(GF5))
    assert rep.nilpotent and rep.solvable
    assert rep.center.dim == 1
    assert rep.nilradical.dim == 3


def test_radical_nilradical_graded():
    for alg in (sl2(GF5), span_e11_e12(GF5), heisenberg(GF5), gl2(GF5)):
        rep = structure_report(alg)
        assert is_graded_subspace(alg, rep.radical)
        assert is_graded_subspace(alg, rep.nilradical)


def test_nil_equals_comm_plus_center_metabelian():
    # Nil(L) = [L,L] + Z(L) on metabelian A-algebras
    for alg in (span_e11_e12(GF5), direct_sum([span_e11_e12(GF5), abelian(GF5, (0,))])):
        rep = structure_report(alg)
        assert rep.metabelian
        comm_plus_center = rep.derived[1].sum(rep.center) if len(rep.derived) > 1 else rep.center
        assert rep.nilradical.rows == comm_plus_center.rows


def test_comm_intersect_center_trivial_for_paper_algebras():
    for spec in (GF5, GF7):
        for alg in (sl2(spec), span_e11_e12(spec)):
            rep = structure_report(alg)
            comm = product_space(alg, SubspaceBasis.full(alg.spec, alg.dim),
                                 SubspaceBasis.full(alg.spec, alg.dim))
            assert comm.intersect(rep.center).dim == 0


def test_structure_dim_cap():
    L = direct_sum([sl2(GF5), sl2(GF5), abelian(GF5, (0,))])
    rep = structure_report(L, dim_cap=6)
    assert rep.radical is None and rep.nilradical is None
    assert rep.notes


# -- A-property probe ----------------------------------------------------------


def test_a_property_sl2_exhaustive():
    report = a_property_probe(sl2(GF5), budget=20_000)
    assert report.exhaustive
    assert report.ok
    assert "partial" in report.message


def test_a_property_heisenberg_violation():
    report = a_property_probe(heisenberg(GF5), budget=20_000)
    assert not report.ok
    gens = report.violations[0]
    # re-verify the witness independently
    from glie.algebra import generated_subalgebra, is_abelian_space, is_nilpotent_space

    sub = generated_subalgebra(heisenberg(GF5), list(gens))
    L = heisenberg(GF5)
    assert is_nilpotent_space(L, sub)
    assert not is_abelian_space(L, sub)


def test_a_property_abelian():
    assert a_property_probe(abelian(GF5, (0, 1)), budget=20_000).ok


def test_a_property_sampled_mode():
    report = a_property_probe(gl2(GF5), budget=500, seed=11)
    assert not report.exhaustive
    assert report.pairs_checked <= 500


# -- root decomposition ----------------------------------------------------------


def test_root_decomposition_h():
    L = sl2(GF5)
    rep = root_decomposition(L, L.basis_element(0))
    eigenvalues = sorted(lam.code for lam, _ in rep.eigen.pairs)
    assert eigenvalues == [0, 2, 3]
    assert len(rep.pairs) == 1
    pair = rep.pairs[0]
    assert pair.plus_space.dim == 1 and pair.minus_space.dim == 1
    assert pair.bracket_span.rows == L.homogeneous_part(0).rows
    assert pair.plus_subalgebra and pair.minus_subalgebra
    assert pair.graded_ideal
    assert rep.even_part_is_pair_bracket_sum
    assert not rep.zero_space_meets_odd_part


def test_root_decomposition_scaled():
    L = sl2(GF5)
    rep = root_decomposition(L, L.basis_element(0).scale(2))
    assert sorted(lam.code for lam, _ in rep.eigen.pairs) == [0, 1, 4]
    # same eigenvectors as for h
    rep_h = root_decomposition(L, L.basis_element(0))
    spaces = {s.rows for _, s in rep.eigen.pairs}
    spaces_h = {s.rows for _, s in rep_h.eigen.pairs}
    assert spaces == spaces_h


def test_root_decomposition_zero():
    L = sl2(GF5)
    rep = root_decomposition(L, L.zero_element())
    assert len(rep.eigen.pairs) == 1
    assert rep.eigen.pairs[0][1].dim == 3
    assert not rep.pairs


def test_root_decomposition_requires_even():
    L = sl2(GF5)
    with pytest.raises(ValueError):
        root_decomposition(L, L.basis_element(1))


def test_root_zero_eigenspace_avoids_odd_part():
    # V(ad a0)_0 has no odd component for any nonzero even a0 in sl2
    for spec in (GF5, GF7):
        L = sl2(spec)
        for c in range(1, spec.q):
            a0 = L.basis_element(0).scale(spec.from_code(c))
            rep = root_decomposition(L, a0)
            assert not rep.zero_space_meets_odd_part
            assert rep.even_part_is_pair_bracket_sum
