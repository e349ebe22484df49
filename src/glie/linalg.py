"""Dense exact linear algebra over GF(q) on int64 arrays of element codes:
RREF, kernels, products, subspaces, and the vectors and lines of F^n.

rref_codes, a Gauss-Jordan pass through BatchField, reduces one matrix;
rref_stack runs the same pass over a stack of equally shaped matrices at
once, for the many small eliminations of the gradings layer.  SubspaceBasis
and MatrixGF hold read-only code arrays.  Vectors of FieldElements or ints
are converted to codes once, at the input edge (_as_codes, behind the
SubspaceBasis constructor and membership tests, MatrixGF.from_rows and the
algebra layer); an int there is an element code, by the rule stated in
fields.
Subspaces are always kept in reduced row echelon form, so two spans are equal
exactly when their row arrays are equal.  The constructor keeps rows that
pass a vectorised RREF test, such as the output of an elimination, and
reduces only other input; membership is a pivot reduction, with no
elimination.  Everything here is immutable after construction and safe to
share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbientMismatch
from .fields import FieldElement, FieldSpec, batch_field


def _as_codes(spec: FieldSpec, vectors, ncols: int | None = None) -> np.ndarray:
    """The input edge: vectors of FieldElements or ints as an (N, ncols)
    int64 code array.  An int is an element code, and -c stands for minus
    the element with code c; in a prime field any int is taken mod p."""
    if isinstance(vectors, np.ndarray):
        arr = vectors.astype(np.int64)
    else:
        rows = []
        for vec in vectors:
            row = []
            for x in vec:
                if isinstance(x, FieldElement):
                    if x.spec != spec:
                        raise AmbientMismatch("vector entry from a different field")
                    x = x.code
                row.append(int(x))
            rows.append(row)
        if len({len(r) for r in rows}) > 1:
            raise AmbientMismatch("ragged matrix rows")
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else ncols or 0)
    if arr.ndim != 2 or ncols not in (None, arr.shape[1]):
        raise AmbientMismatch(f"rows of shape {arr.shape} in ambient {ncols}")
    if spec.k == 1:
        return np.remainder(arr, spec.p, out=arr)  # arr is a new array
    if (np.abs(arr) >= spec.q).any():
        raise ValueError(f"code out of range for GF({spec.q})")
    return np.where(arr < 0, batch_field(spec).neg(-arr), arr)


def rref_codes(spec: FieldSpec, codes):
    """Reduced row echelon form of an (N, n) array of element codes; returns
    (rows, pivots).

    rows is a new (rank, n) int64 array: zero rows are dropped; pivot columns
    are strictly increasing with pivot entry 1 and zeros elsewhere in the
    pivot column.  Codes must lie in range(q), as _as_codes makes them.
    """
    bf = batch_field(spec)
    work = np.array(codes, dtype=np.int64)
    pivots: list[int] = []
    for col in range(work.shape[1]):
        rank = len(pivots)
        if rank == work.shape[0]:
            break
        nonzero = np.flatnonzero(work[rank:, col])
        if not nonzero.size:
            continue
        r = rank + nonzero[0]
        if r != rank:
            work[[rank, r]] = work[[r, rank]]
        work[rank] = bf.scale(bf.inv(work[rank, col]), work[rank])
        others = np.flatnonzero(work[:, col])
        others = others[others != rank]
        work[others] = bf.sub(work[others], bf.mul(work[others, col][:, None], work[rank]))
        pivots.append(col)
    return work[:len(pivots)], pivots


def rref_stack(spec: FieldSpec, codes):
    """Reduced row echelon forms of a (B, r, n) stack of code matrices;
    returns (reduced, ranks).

    reduced is a new (B, r, n) int64 array whose item b holds
    rref_codes(spec, codes[b])[0] in its first ranks[b] rows and zeros below.
    The loop runs over the n columns only, and stops once every matrix has
    full rank; each step pivots, scales and clears every matrix that has a
    pivot in that column.  Codes must lie in range(q), as _as_codes makes
    them.
    """
    bf = batch_field(spec)
    work = np.array(codes, dtype=np.int64)
    ranks = np.zeros(len(work), dtype=np.int64)
    if not work.size:
        return work, ranks
    below, every = np.arange(work.shape[1]), np.arange(len(work))
    for col in range(work.shape[2]):
        candidates = (work[:, :, col] != 0) & (below >= ranks[:, None])
        hit = candidates.any(axis=1)
        items = every if hit.all() else np.flatnonzero(hit)
        if not items.size:
            continue
        block = slice(None) if items is every else items  # a view, not a gather
        rows, top = candidates[items].argmax(axis=1), ranks[items]
        pivot = work[items, rows]
        pivot = bf.mul(bf.inv(pivot[:, col])[:, None], pivot)
        # clear the column in every row, the pivot row too, then put the pivot at row top
        work[block] = bf.sub(work[block], bf.mul(work[block, :, col, None], pivot[:, None, :]))
        work[items, rows] = work[items, top]
        work[items, top] = pivot
        ranks[items] += 1
        if ranks.min() == work.shape[1]:
            break
    return work, ranks


def kernel_codes(spec: FieldSpec, reduced: np.ndarray, pivots) -> np.ndarray:
    """RREF codes of the right kernel {v : R v = 0} of an RREF matrix R with
    the given pivot columns: one vector per free column, then reduced."""
    bf = batch_field(spec)
    ncols = reduced.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = bf.zeros((len(free), ncols))
    basis[range(len(free)), free] = 1
    basis[:, pivots] = bf.neg(reduced[:, free]).T
    return rref_codes(spec, basis)[0]


def matmul_codes(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of (..., m, k) and (..., k, n) code arrays, the
    leading axes broadcast as in numpy's matmul.  An extension field takes
    each term at x * q + y from BatchField's flattened tables; that index
    checks no code, so codes outside range(q) are refused first."""
    if spec.k == 1 or not a.shape[-1]:  # an empty sum is the zero matrix
        return a @ b % spec.p
    if any(c.size and (c.min() < 0 or c.max() >= spec.q) for c in (a, b)):
        raise ValueError(f"code out of range for GF({spec.q})")
    bf, q = batch_field(spec), spec.q
    mul, add = bf.mul_table.ravel(), bf.add_table.ravel()
    out = mul.take(a[..., :, 0, None] * q + b[..., 0, None, :])
    for j in range(1, a.shape[-1]):
        out *= q
        out += mul.take(a[..., :, j, None] * q + b[..., j, None, :])
        out = add.take(out)
    return out


def grid_codes(spec: FieldSpec, n: int) -> np.ndarray:
    """All q^n code vectors of length n as (q^n, n) rows, the first
    coordinate fastest."""
    grid = np.arange(spec.q ** n, dtype=np.int64)[:, None] // spec.q ** np.arange(n)
    grid %= spec.q
    return grid


def projective_codes(spec: FieldSpec, n: int) -> np.ndarray:
    """The zero vector of F^n and one representative of each line through 0,
    the vector whose first nonzero coordinate is code 1: 1 + (q^n - 1)/(q - 1)
    rows, by the position of that coordinate, then as in grid_codes."""
    blocks = [np.zeros((1, n), dtype=np.int64)]
    for lead in range(n):
        block = np.zeros((spec.q ** (n - 1 - lead), n), dtype=np.int64)
        block[:, lead], block[:, lead + 1:] = 1, grid_codes(spec, n - 1 - lead)
        blocks.append(block)
    return np.concatenate(blocks)


def _is_rref(codes: np.ndarray) -> bool:
    """Whether a 2-d code array is in reduced row echelon form with no zero
    rows: the leading entries lie in strictly increasing columns, and those
    columns hold the identity matrix (a zero row leads with a 0)."""
    if not codes.size:
        return not len(codes)
    pivots = (codes != 0).argmax(axis=1)
    return bool((np.diff(pivots) > 0).all() and (codes[:, pivots] == np.eye(len(codes))).all())


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array of non-negative integers as one opaque value,
    its big-endian bytes, so that the values sort, search and compare as the
    rows do lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel()


def row_pairs(a: np.ndarray, b: np.ndarray):
    """(a_i, b_j) for every pair of rows, i slowest, as two stacked arrays."""
    return np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Row-reduced basis of a subspace of F^ambient_dim.

    rows is a read-only (dim, ambient_dim) int64 RREF array.  The constructor
    reads the code rows it is given by _as_codes' rule, keeps them when they
    pass the RREF test _is_rref and reduces them otherwise.
    """

    spec: FieldSpec
    ambient_dim: int
    rows: np.ndarray

    def __post_init__(self):
        reduced = _as_codes(self.spec, self.rows, self.ambient_dim)  # a new array
        if not _is_rref(reduced):
            reduced = rref_codes(self.spec, reduced)[0]
        reduced.flags.writeable = False
        object.__setattr__(self, "rows", reduced)

    @classmethod
    def from_vectors(cls, spec: FieldSpec, ambient_dim: int, vectors) -> "SubspaceBasis":
        return cls(spec, ambient_dim, vectors)

    @classmethod
    def zero(cls, spec: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        return cls(spec, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64))

    @classmethod
    def full(cls, spec: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        return cls(spec, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.spec == other.spec
                and self.ambient_dim == other.ambient_dim
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.spec, self.ambient_dim, self.rows.tobytes()))

    def _check_compatible(self, other: "SubspaceBasis"):
        if self.ambient_dim != other.ambient_dim or self.spec != other.spec:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains_rows(self, codes) -> bool:
        """Whether every row v of (N, ambient_dim) codes, read by _as_codes'
        rule, lies in the subspace.  The pivot columns of the rows hold the
        identity, so v is in the span exactly when v - v[pivots] . rows = 0."""
        codes = _as_codes(self.spec, codes, self.ambient_dim)
        pivots = (self.rows != 0).argmax(axis=1) if self.dim else []
        return not batch_field(self.spec).sub(
            codes, matmul_codes(self.spec, codes[:, pivots], self.rows)).any()

    def contains(self, vector) -> bool:
        return self.contains_rows([vector])

    def contains_space(self, other: "SubspaceBasis") -> bool:
        self._check_compatible(other)
        return self.contains_rows(other.rows)

    def sum(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._check_compatible(other)
        return SubspaceBasis(self.spec, self.ambient_dim, np.concatenate([self.rows, other.rows]))

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        """Zassenhaus intersection: in the RREF of [A A ; B 0], the rows whose
        left half is zero have the rows of the intersection's RREF as right half."""
        self._check_compatible(other)
        n, a, b = self.ambient_dim, self.rows, other.rows
        reduced, pivots = rref_codes(self.spec, np.block([[a, a], [b, np.zeros_like(b)]]))
        return SubspaceBasis(self.spec, n, reduced[np.array(pivots, dtype=int) >= n, n:])

    def vectors(self) -> np.ndarray:
        """All q^dim elements of the subspace as a (q^dim, ambient_dim) code
        array: the combinations of the rows with coefficients in code order,
        the coefficient of row 0 changing slowest."""
        return matmul_codes(self.spec, grid_codes(self.spec, self.dim)[:, ::-1], self.rows)


@dataclass(frozen=True, eq=False)
class MatrixGF:
    """Dense matrix over GF(q): a read-only (rows, cols) int64 code array."""

    spec: FieldSpec
    rows: int
    cols: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "MatrixGF":
        entries = _as_codes(spec, rows)
        return cls(spec, *entries.shape, entries)

    def kernel(self) -> SubspaceBasis:
        """Right kernel {v : M v = 0}, as an RREF SubspaceBasis of F^cols."""
        reduced, pivots = rref_codes(self.spec, self.entries)
        return SubspaceBasis(self.spec, self.cols, kernel_codes(self.spec, reduced, pivots))

    def inverse(self) -> "MatrixGF":
        if self.rows != self.cols:
            raise AmbientMismatch("only square matrices invert")
        n = self.rows
        reduced, pivots = rref_codes(self.spec, np.hstack([self.entries, np.eye(n, dtype=np.int64)]))
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return MatrixGF(self.spec, n, n, reduced[:, n:])

    def __str__(self):
        return "\n".join("[" + " ".join(map(str, r)) + "]" for r in self.entries.tolist())
