import random

import pytest
from hypothesis import given, settings, strategies as st

from glie.errors import AmbientMismatch
from glie.fields import FieldSpec
from glie.linalg import MatrixGF, SubspaceBasis

GF5 = FieldSpec.prime(5)
GF7 = FieldSpec.prime(7)


def random_matrix(spec, rows, cols, rng):
    return MatrixGF.from_rows(
        spec, [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_identity():
    m = MatrixGF.identity(GF5, 3)
    red, rank, pivots = m.rref()
    assert rank == 3
    assert m.kernel().dim == 0


def test_rref_zero_matrix():
    m = MatrixGF.zero(GF5, 2, 4)
    _, rank, _ = m.rref()
    assert rank == 0
    assert m.kernel().dim == 4


def test_kernel_frozen_example():
    # x + 2y = 0 over GF(5): kernel spanned by (3,1), RREF-normalized to (1,2)
    m = MatrixGF.from_rows(GF5, [[1, 2], [2, 4]])
    red, rank, _ = m.rref()
    assert rank == 1
    ker = m.kernel()
    assert ker.dim == 1
    assert [x.code for x in ker.rows[0]] == [1, 2]
    assert ker.contains([3, 1])
    assert all(x.is_zero() for x in m.matvec(ker.rows[0]))


def test_rank_nullity_on_random_matrices():
    rng = random.Random(20240501)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = random_matrix(GF5, rows, cols, rng)
        _, rank, _ = m.rref()
        assert rank + m.kernel().dim == cols
        for kv in m.kernel().rows:
            assert all(x.is_zero() for x in m.matvec(kv))


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(GF7, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        red, _, _ = m.rref()
        red2, _, _ = red.rref()
        assert red.entries == red2.entries


def test_matrix_inverse():
    m = MatrixGF.from_rows(GF5, [[1, 2], [3, 4]])
    inv = m.inverse()
    columns = inv.transpose().entries
    assert [m.matvec(c) for c in columns] == list(MatrixGF.identity(GF5, 2).entries)


def test_subspace_sum_intersect_trivia():
    a = SubspaceBasis.from_vectors(GF5, 3, [[1, 0, 0]])
    b = SubspaceBasis.from_vectors(GF5, 3, [[0, 1, 0]])
    assert a.sum(b).dim == 2
    full = SubspaceBasis.from_vectors(GF5, 2, [[1, 0], [0, 1]])
    line = SubspaceBasis.from_vectors(GF5, 2, [[1, 1]])
    inter = full.intersect(line)
    assert inter.rows == line.rows


def test_contains_scalar_multiple():
    s = SubspaceBasis.from_vectors(GF5, 2, [[1, 2]])
    assert s.contains([2, 4])
    assert not s.contains([1, 0])


def test_ambient_mismatch():
    a = SubspaceBasis.from_vectors(GF5, 3, [[1, 0, 0]])
    b = SubspaceBasis.from_vectors(GF5, 2, [[1, 0]])
    with pytest.raises(AmbientMismatch):
        a.sum(b)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_modular_dimension_law(seed):
    rng = random.Random(seed)
    dim = 4
    a = SubspaceBasis.from_vectors(
        GF5, dim, [[rng.randrange(5) for _ in range(dim)] for _ in range(rng.randrange(1, 4))]
    )
    b = SubspaceBasis.from_vectors(
        GF5, dim, [[rng.randrange(5) for _ in range(dim)] for _ in range(rng.randrange(1, 4))]
    )
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim
    inter = a.intersect(b)
    assert a.contains_space(inter) and b.contains_space(inter)


def test_vectors_enumeration():
    s = SubspaceBasis.from_vectors(GF5, 3, [[1, 0, 2], [0, 1, 3]])
    vecs = s.vectors()
    assert len(vecs) == 25
    assert len({tuple(x.code for x in v) for v in vecs}) == 25
    for v in vecs:
        assert s.contains(v)
