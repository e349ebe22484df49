import random

import numpy as np
import pytest

import glie.algebra as algebra

from glie.errors import AmbientMismatch
from glie.algebra import (
    GradedLieAlgebra,
    abelian,
    direct_sum,
    gl2,
    heisenberg,
    m2_grading_i,
    m2_grading_ii,
    m2_grading_iii,
    sl2,
    span_e11_e12,
)
from glie.fields import FieldSpec, find_nonsquare
from glie.linalg import MatrixGF

GF5 = FieldSpec.prime(5)
GF7 = FieldSpec.prime(7)
GF25 = FieldSpec.extension(5, 2)


def random_element(L, rng):
    return L.element([L.spec.from_code(rng.randrange(L.spec.q)) for _ in range(L.dim)])


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
    for make in (sl2, gl2, m2_grading_i, m2_grading_ii, m2_grading_iii, span_e11_e12,
                 heisenberg):
        alg = make(spec)
        assert alg.validate().ok, alg.name


ALL_CONSTRUCTORS = {
    "sl2": sl2, "gl2": gl2, "m2_i": m2_grading_i, "m2_ii": m2_grading_ii,
    "m2_iii": m2_grading_iii, "span_e11_e12": span_e11_e12, "heisenberg": heisenberg,
    "abelian": lambda spec: abelian(spec, (0, 1, 1)),
    "sl2+heisenberg": lambda spec: direct_sum([sl2(spec), heisenberg(spec)]),
}


@pytest.mark.parametrize("spec", [GF5, GF7, GF25], ids=lambda s: f"GF{s.q}")
def test_constants_are_one_read_only_code_array(spec):
    for name, make in ALL_CONSTRUCTORS.items():
        L = make(spec)
        c = L.constants
        assert isinstance(c, np.ndarray) and c.dtype == np.int64, name
        assert c.shape == (L.dim,) * 3 and not c.flags.writeable, name
        assert ((0 <= c) & (c < spec.q)).all(), name


def test_direct_sum_constants_are_block_diagonal():
    a, b = sl2(GF7), heisenberg(GF7)
    c = direct_sum([a, b]).constants
    assert np.array_equal(c[:3, :3, :3], a.constants)
    assert np.array_equal(c[3:, 3:, 3:], b.constants)
    c = c.copy()
    c[:3, :3, :3] = c[3:, 3:, 3:] = 0
    assert not c.any()


@pytest.mark.parametrize("constants", [
    [[(0, 0)]],
    [[(0, 0), (0, 1)], [(0, -1)]],
    [[(0, 0), (0, 1)], [(0, -1), (0, 0, 0)]],
    [[0, 0], [0, 0]],
    np.zeros((2, 2, 3), dtype=np.int64),
], ids=["one-entry", "ragged-row", "long-vector", "no-vectors", "wrong-array"])
def test_malformed_constants_rejected_at_construction(constants):
    with pytest.raises(AmbientMismatch):
        GradedLieAlgebra(GF5, (0, 1), constants)


def test_int_coordinates_are_codes_and_int_multipliers_are_multiples_of_one():
    """At GF(25) the int 7 is code 7 as a coordinate, as in linalg, and
    7 * 1 = 2 * 1, code 2, as a multiplier."""
    L = sl2(GF25)
    assert L.element([0, 7, 0]).codes().tolist() == [0, 7, 0]
    assert MatrixGF.from_rows(GF25, [[0, 7, 0]]).entries[0].tolist() == [0, 7, 0]
    assert L.element([0, 7, 0]) == L.element([GF25.zero(), GF25.from_code(7), GF25.zero()])
    assert L.basis_element(1).scale(7).codes().tolist() == [0, 2, 0]


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


def test_validate_catches_jacobi():
    # [[b0,b1],b2] + [[b1,b2],b0] + [[b2,b0],b1] = [b1,b2] = b0 != 0
    z3 = (0, 0, 0)
    constants = [
        [z3, (0, 0, 1), (0, 0, 1)],
        [(0, 0, -1), z3, (1, 0, 0)],
        [(0, 0, -1), (-1, 0, 0), z3],
    ]
    bad = GradedLieAlgebra(GF5, (0, 0, 0), constants, "bad")
    assert [name for name, _ in bad.validate().failing()] == ["jacobi"]


def test_bracket_bilinear_and_alternating():
    L = sl2(GF5)
    rng = random.Random(0)
    for _ in range(50):
        a = random_element(L, rng)
        b = random_element(L, rng)
        assert L.bracket(a, a).is_zero()
        assert L.bracket(a, b) == -L.bracket(b, a)


def test_bracket_parent_mismatch():
    with pytest.raises(AmbientMismatch):
        sl2(GF5).bracket(sl2(GF5).basis_element(0), span_e11_e12(GF5).basis_element(0))


def test_batch_bracket_matches_scalar():
    import numpy as np

    for spec in (GF5, GF7, GF25):
        for make in ALL_CONSTRUCTORS.values():
            L = make(spec)
            rng = random.Random(3)
            pairs = [(random_element(L, rng), random_element(L, rng)) for _ in range(30)]
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
    """Exponents 0 to q^2 + 2, alone and in sets, over several blocks of
    which the last is partial, for bases that are all equal, take a few
    values or are all distinct; the ad matrices are powered exactly when
    the top exponent is at least 2."""
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
    for kind, bases in repeating_bases(L, len(u), spec.q).items():
        rows = len(bases)
        distinct = len(np.unique(bases, axis=0))
        assert distinct == {"equal": 1, "few": 3, "distinct": rows}[kind]
        expected = repeated_ad_powers(L, u[:rows], bases, top + 1)
        exponent_sets = [tuple(range(1, top + 1)), (3, top), (1, top - 2), (top, 3), (0, top),
                         (0,), (1,), (2,), (3,), (4,), (1, 2, 2), (top,)]
        for exponents in exponent_sets:
            before = len(powered)
            got = L.batch_ad_powers(u[:rows], bases, exponents)
            assert (len(powered) > before) == (max(exponents) >= 2), exponents
            assert len(got) == len(exponents)
            for e, g in zip(exponents, got):
                assert g.shape == (rows, L.dim) and (g == expected[e]).all(), (kind, e, exponents)


def test_batch_ad_powers_full_blocks():
    """The default block size, with a partial last block of rows and, for
    sl2 + heisenberg, of distinct bases too."""
    for L in (sl2(GF7), direct_sum([sl2(GF7), heisenberg(GF7)])):
        u, w = ad_power_inputs(L, 2 * algebra._AD_BLOCK + 3, 11)
        expected = repeated_ad_powers(L, u, w, 51)
        for exponents in [(51,), (3, 51), (49, 1), (48, 47)]:
            for e, g in zip(exponents, L.batch_ad_powers(u, w, exponents)):
                assert (g == expected[e]).all(), (e, exponents)

