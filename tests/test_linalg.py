import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glie import linalg
from glie.errors import AmbientMismatch
from glie.fields import FieldSpec, batch_field
from glie.linalg import (MatrixGF, SubspaceBasis, grid_codes, matmul_codes, projective_codes, row_keys,
                         rref_codes, rref_stack)

GF5 = FieldSpec.prime(5)
GF7 = FieldSpec.prime(7)
GF25 = FieldSpec.extension(5, 2)


def scalar_matvec(m, vec):
    """Codes of M v, by FieldElement arithmetic: a reference independent of
    the program's code-array products."""
    spec = m.spec
    return [sum((spec.from_code(a) * spec.from_code(int(b)) for a, b in zip(row, vec)),
                spec.zero()).code for row in m.entries.tolist()]


def random_matrix(spec, rows, cols, rng):
    return MatrixGF.from_rows(
        spec, [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_identity():
    m = MatrixGF(GF5, 3, 3, np.eye(3, dtype=np.int64))
    red, pivots = rref_codes(GF5, m.entries)
    assert pivots == [0, 1, 2]
    assert red.tolist() == m.entries.tolist()
    assert m.kernel().dim == 0


def test_rref_zero_matrix():
    m = MatrixGF.from_rows(GF5, [[0] * 4] * 2)
    red, pivots = rref_codes(GF5, m.entries)
    assert pivots == [] and red.shape == (0, 4)
    assert m.kernel().dim == 4


def test_kernel_frozen_example():
    # x + 2y = 0 over GF(5): kernel spanned by (3,1), RREF-normalized to (1,2)
    m = MatrixGF.from_rows(GF5, [[1, 2], [2, 4]])
    assert len(rref_codes(GF5, m.entries)[1]) == 1
    ker = m.kernel()
    assert ker.dim == 1
    assert ker.rows.tolist() == [[1, 2]]
    assert ker.contains([3, 1])
    assert scalar_matvec(m, ker.rows[0]) == [0, 0]


def test_rank_nullity_on_random_matrices():
    rng = random.Random(20240501)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = random_matrix(GF5, rows, cols, rng)
        rank = len(rref_codes(GF5, m.entries)[1])
        assert rank + m.kernel().dim == cols
        for kv in m.kernel().rows:
            assert scalar_matvec(m, kv) == [0] * rows


def random_stack(spec, b, r, n, rng):
    """b random (r, n) code matrices: dense, sparse (most entries 0, so the
    items pivot in different columns), rank-deficient products of an
    (r, k) and a (k, n) matrix with k < min(r, n), and all-zero items."""
    items = []
    for i in range(b):
        kind = i % 4
        if kind == 0:
            items.append(rng.integers(0, spec.q, (r, n)))
        elif kind == 1:
            items.append(rng.integers(0, spec.q, (r, n)) * (rng.random((r, n)) < 0.3))
        elif kind == 2:
            k = max(min(r, n) - 2, 1)
            items.append(matmul_codes(spec, rng.integers(0, spec.q, (r, k)),
                                      rng.integers(0, spec.q, (k, n))))
        else:
            items.append(np.zeros((r, n), dtype=np.int64))
    return np.array(items, dtype=np.int64).reshape(b, r, n)


@pytest.mark.parametrize("spec", [GF5, GF7, GF25], ids=lambda s: f"GF{s.q}")
@pytest.mark.parametrize("r, n", [(1, 3), (2, 3), (3, 3), (4, 4), (6, 3), (3, 7), (5, 1)])
def test_rref_stack_matches_rref_codes(spec, r, n):
    rng = np.random.default_rng(1000 * spec.q + 10 * r + n)
    stack = random_stack(spec, 40, r, n, rng)
    frozen = stack.copy()
    reduced, ranks = rref_stack(spec, stack)
    assert np.array_equal(stack, frozen)  # the input is not written to
    assert reduced.shape == (40, r, n) and ranks.shape == (40,)
    assert set(ranks.tolist()) > {0}  # the zero items, and at least one other rank
    for item, out, rank in zip(stack, reduced, ranks):
        rows, pivots = rref_codes(spec, item)
        assert rank == len(pivots)
        assert np.array_equal(out[:rank], rows)
        assert not out[rank:].any()


def test_rref_stack_empty_shapes():
    for shape in [(0, 3, 3), (5, 0, 3), (5, 2, 0)]:
        reduced, ranks = rref_stack(GF5, np.zeros(shape, dtype=np.int64))
        assert reduced.shape == shape and ranks.tolist() == [0] * shape[0]


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(GF7, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        red, pivots = rref_codes(GF7, m.entries)
        red2, pivots2 = rref_codes(GF7, red)
        assert red.tolist() == red2.tolist() and pivots == pivots2


def test_matrix_inverse():
    m = MatrixGF.from_rows(GF5, [[1, 2], [3, 4]])
    inv = m.inverse()
    columns = inv.entries.T
    assert [scalar_matvec(m, c) for c in columns] == [[1, 0], [0, 1]]
    with pytest.raises(ZeroDivisionError):
        MatrixGF.from_rows(GF5, [[1, 2], [2, 4]]).inverse()


def test_subspace_sum_intersect_trivia():
    a = SubspaceBasis.from_vectors(GF5, 3, [[1, 0, 0]])
    b = SubspaceBasis.from_vectors(GF5, 3, [[0, 1, 0]])
    assert a.sum(b).dim == 2
    full = SubspaceBasis.from_vectors(GF5, 2, [[1, 0], [0, 1]])
    line = SubspaceBasis.from_vectors(GF5, 2, [[1, 1]])
    inter = full.intersect(line)
    assert inter == line
    assert inter != SubspaceBasis.from_vectors(GF7, 2, [[1, 1]])


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
    assert vecs.shape == (25, 3)
    assert len({tuple(v) for v in vecs.tolist()}) == 25
    for v in vecs:
        assert s.contains(v)


def test_edge_reads_ints_as_codes():
    """At the input edge an int is an element code, and -c is minus the
    element with code c; FieldElements give their codes."""
    b = GF25.from_code(7)
    s = SubspaceBasis.from_vectors(GF25, 3, [[1, 7, -1], [0, 1, -7]])
    assert s == SubspaceBasis.from_vectors(GF25, 3, [[1, b, -GF25.one()], [0, 1, -b]])
    assert s.contains([2, GF25.from_code(2) * b, -2])
    assert not s.contains([1, 2, 4])  # 7 is no prime-subfield residue
    assert SubspaceBasis.from_vectors(GF5, 2, [[-1, 7]]).rows.tolist() == [[1, 3]]
    with pytest.raises(AmbientMismatch):
        SubspaceBasis.from_vectors(GF25, 2, [[GF5.one(), 0]])
    with pytest.raises(ValueError):
        SubspaceBasis.from_vectors(GF25, 2, [[25, 0]])
    with pytest.raises(AmbientMismatch):
        MatrixGF.from_rows(GF5, [[1, 2], [3]])


def test_constructor_reads_codes_by_the_input_rule():
    """SubspaceBasis(spec, n, rows) reads its code rows as from_vectors and
    MatrixGF.from_rows do: in a prime field any int is taken mod p, and in
    GF(p^k) a code out of range is refused."""
    assert SubspaceBasis(GF5, 3, np.array([[7, 0, 0]])).rows.tolist() == [[1, 0, 0]]
    rows = [[7, -1, 12], [0, 5, 3], [2, 9, -6]]
    assert SubspaceBasis(GF5, 3, np.array(rows)) == SubspaceBasis.from_vectors(GF5, 3, rows)
    assert (SubspaceBasis(GF5, 3, np.array(rows)).rows
            == rref_codes(GF5, MatrixGF.from_rows(GF5, rows).entries)[0]).all()
    with pytest.raises(ValueError, match="out of range"):
        SubspaceBasis(GF25, 2, np.array([[30, 0]]))


@pytest.mark.parametrize("spec", [GF5, GF25], ids=lambda s: f"GF{s.q}")
def test_subspace_rows_are_the_rref_and_reduced_rows_are_kept(spec, monkeypatch):
    rng = np.random.default_rng(spec.q)
    reduced = []
    for _ in range(200):
        r, n = rng.integers(0, 5), rng.integers(1, 6)
        codes = rng.integers(0, spec.q, (r, n)) * (rng.random((r, n)) < 0.6)
        rows = SubspaceBasis(spec, n, codes).rows
        assert np.array_equal(rows, rref_codes(spec, codes)[0])
        reduced.append(rows)
    monkeypatch.setattr(linalg, "rref_codes", lambda *args: pytest.fail("RREF input reduced"))
    for rows in reduced:
        kept = SubspaceBasis(spec, rows.shape[1], rows).rows
        assert np.array_equal(kept, rows) and kept is not rows


@pytest.mark.parametrize("spec", [GF5, GF25], ids=lambda s: f"GF{s.q}")
def test_membership_by_pivot_reduction_matches_the_rank_test(spec):
    rng = np.random.default_rng(spec.q + 1)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 6))
        s = SubspaceBasis(spec, n, rng.integers(0, spec.q, (rng.integers(0, n + 1), n)))
        inside = matmul_codes(spec, rng.integers(0, spec.q, (2, s.dim)), s.rows)
        for codes in (inside, rng.integers(0, spec.q, (rng.integers(1, 3), n)),
                      np.concatenate([inside, rng.integers(0, spec.q, (1, n))])):
            rank_test = len(rref_codes(spec, np.concatenate([s.rows, codes]))[1]) == s.dim
            assert s.contains_rows(codes) == rank_test
            seen.add(rank_test)
    assert seen == {True, False}


def test_contains_rows_refuses_the_wrong_width():
    s = SubspaceBasis.from_vectors(GF5, 3, [[1, 0, 2]])
    for width in (1, 4):  # a width-1 array would broadcast against the rows
        with pytest.raises(AmbientMismatch):
            s.contains_rows(np.zeros((1, width), dtype=np.int64))


def test_rows_and_entries_are_read_only():
    s = SubspaceBasis.from_vectors(GF5, 2, [[1, 2]])
    m = MatrixGF.from_rows(GF5, [[1, 2], [3, 4]])
    for arr in (s.rows, m.entries, m.inverse().entries):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_row_keys_order_rows_lexicographically():
    """Row keys sort and search as the rows' tuples do, also for entries
    past one byte and rows longer than 63 binary digits could code."""
    rng = random.Random(11)
    rows = np.array([[rng.choice([0, 1, 255, 256, 4095, 1 << 40]) for _ in range(70)]
                     for _ in range(300)], dtype=np.int64)
    keys = row_keys(rows)
    order = sorted(range(len(rows)), key=lambda i: tuple(rows[i]))
    assert np.argsort(keys, kind="stable").tolist() == order
    ascending = np.sort(keys)
    assert (np.searchsorted(ascending, keys) == [order.index(i) for i in range(len(rows))]).all()


@pytest.mark.parametrize("spec", [GF5, GF25], ids=lambda s: f"GF{s.q}")
def test_grid_codes_lists_every_vector_first_coordinate_fastest(spec):
    q = spec.q
    for n in range(4):
        grid = grid_codes(spec, n)
        assert grid.shape == (q ** n, n)
        assert (grid @ q ** np.arange(n) == np.arange(q ** n)).all()


@pytest.mark.parametrize("spec", [GF5, GF25], ids=lambda s: f"GF{s.q}")
def test_projective_codes_meet_every_line_once(spec):
    """The zero row, then rows whose first nonzero coordinate is 1, one per
    line: every nonzero vector of F^3 is a nonzero multiple of exactly one
    row."""
    q, bf = spec.q, batch_field(spec)
    for n in range(4):
        assert projective_codes(spec, n).shape == (1 + (q ** n - 1) // (q - 1), n)
    rows = projective_codes(spec, 3)
    assert not rows[0].any()
    lines = rows[1:]
    assert (lines[np.arange(len(lines)), (lines != 0).argmax(axis=1)] == 1).all()
    multiples = np.concatenate([bf.scale(lam, lines) for lam in range(1, q)])
    codes = multiples @ q ** np.arange(3)
    assert sorted(codes.tolist()) == list(range(1, q ** 3))


@pytest.mark.parametrize("spec", [GF5, GF25], ids=lambda s: f"GF{s.q}")
def test_matmul_codes_on_stacks_is_the_product_of_each_item(spec):
    """(N, n, n) @ (N, n, n), (m, n) @ (N, n, k), (N, m, n) @ (n, k) and
    (N, m, 1) @ (N, 1, k) agree with the 2-d product of each item; the 2-d
    product is checked against FieldElement arithmetic."""
    rng = np.random.default_rng(spec.q)
    a, b = (rng.integers(0, spec.q, (30, 3, 3)) for _ in range(2))
    left, right = rng.integers(0, spec.q, (2, 3)), rng.integers(0, spec.q, (3, 4))
    column, row = rng.integers(0, spec.q, (30, 3, 1)), rng.integers(0, spec.q, (30, 1, 4))
    for got, pairs in ((matmul_codes(spec, a, b), zip(a, b)),
                       (matmul_codes(spec, left, b), ((left, m) for m in b)),
                       (matmul_codes(spec, a, right), ((m, right) for m in a)),
                       (matmul_codes(spec, column, row), zip(column, row))):
        assert np.array_equal(got, [matmul_codes(spec, x, y) for x, y in pairs])
    els = spec.elements()
    for x, y in ((a[0], right), (column[0], row[0])):
        expected = [[sum((els[s] * els[t] for s, t in zip(r, col)), spec.zero()).code
                     for col in y.T] for r in x]
        assert matmul_codes(spec, x, y).tolist() == expected
