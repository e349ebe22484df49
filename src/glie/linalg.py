"""Dense exact linear algebra over GF(q): RREF, kernels and subspace
lattice operations.

rref_codes, an elimination on int64 arrays of element codes through
BatchField, is the one elimination kernel.  FieldElement rows are adapted at
the edge: rref_rows, MatrixGF and SubspaceBasis convert them to codes and
back.  Subspaces are always kept in reduced row echelon form, so two spans
are equal exactly when their row lists are equal.  Everything here is
immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AmbientMismatch
from .fields import FieldElement, FieldSpec, batch_field


def _as_vector(spec: FieldSpec, vec) -> tuple[FieldElement, ...]:
    out = []
    for x in vec:
        if isinstance(x, FieldElement):
            if x.spec != spec:
                raise AmbientMismatch("vector entry from a different field")
            out.append(x)
        else:
            out.append(spec.from_int(int(x)))
    return tuple(out)


@lru_cache(maxsize=None)
def _elements(spec: FieldSpec) -> tuple[FieldElement, ...]:
    return tuple(spec.elements())


def _to_codes(rows, ncols: int) -> np.ndarray:
    return np.array([[x.code for x in r] for r in rows], dtype=np.int64).reshape(-1, ncols)


def _from_codes(spec: FieldSpec, codes: np.ndarray) -> tuple[tuple[FieldElement, ...], ...]:
    els = _elements(spec)
    return tuple(tuple(els[c] for c in row) for row in codes.tolist())


def rref_codes(spec: FieldSpec, codes):
    """Reduced row echelon form of an (N, n) array of element codes; returns
    (rows, pivots).

    rows is a new (rank, n) int64 array: zero rows are dropped; pivot columns
    are strictly increasing with pivot entry 1 and zeros elsewhere in the
    pivot column.
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


def rref_rows(spec: FieldSpec, rows):
    """rref_codes for a list of FieldElement vectors; returns (rows, pivots)
    with the rows as tuples of field elements."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return [], []
    reduced, pivots = rref_codes(spec, _to_codes(rows, len(rows[0])))
    return list(_from_codes(spec, reduced)), pivots


@dataclass(frozen=True)
class SubspaceBasis:
    """Row-reduced basis of a subspace of F^ambient_dim."""

    spec: FieldSpec
    ambient_dim: int
    rows: tuple[tuple[FieldElement, ...], ...]

    @classmethod
    def from_vectors(cls, spec: FieldSpec, ambient_dim: int, vectors) -> "SubspaceBasis":
        vecs = [_as_vector(spec, v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        rows, _ = rref_rows(spec, vecs)
        return cls(spec, ambient_dim, tuple(rows))

    @classmethod
    def from_rref_codes(cls, spec: FieldSpec, codes: np.ndarray) -> "SubspaceBasis":
        """The span of the rows of an RREF code array, taken as they are."""
        return cls(spec, codes.shape[1], _from_codes(spec, codes))

    @classmethod
    def zero(cls, spec: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        return cls(spec, ambient_dim, ())

    @classmethod
    def full(cls, spec: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        one, zero = spec.one(), spec.zero()
        rows = tuple(
            tuple(one if i == j else zero for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(spec, ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check_compatible(self, other: "SubspaceBasis"):
        if self.ambient_dim != other.ambient_dim or self.spec != other.spec:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains(self, vector) -> bool:
        """Exact membership by reduction against the RREF rows."""
        v = list(_as_vector(self.spec, vector))
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector has wrong length")
        for row in self.rows:
            pivot = next(i for i, x in enumerate(row) if not x.is_zero())
            if not v[pivot].is_zero():
                c = v[pivot]
                v = [a - c * b for a, b in zip(v, row)]
        return all(x.is_zero() for x in v)

    def contains_space(self, other: "SubspaceBasis") -> bool:
        self._check_compatible(other)
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._check_compatible(other)
        return SubspaceBasis.from_vectors(
            self.spec, self.ambient_dim, list(self.rows) + list(other.rows)
        )

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        """Zassenhaus intersection: in the RREF of [A A ; B 0], the rows whose
        left half is zero have the rows of the intersection's RREF as right half."""
        self._check_compatible(other)
        n = self.ambient_dim
        a, b = _to_codes(self.rows, n), _to_codes(other.rows, n)
        reduced, pivots = rref_codes(self.spec, np.block([[a, a], [b, np.zeros_like(b)]]))
        return SubspaceBasis.from_rref_codes(self.spec, reduced[np.array(pivots) >= n, n:])

    def vectors(self):
        """All q^dim elements of the subspace, in deterministic order."""
        els = self.spec.elements()
        out = []

        def rec(i, acc):
            if i == len(self.rows):
                out.append(tuple(acc))
                return
            for c in els:
                rec(i + 1, [a + c * b for a, b in zip(acc, self.rows[i])])

        rec(0, [self.spec.zero()] * self.ambient_dim)
        return out


@dataclass(frozen=True)
class MatrixGF:
    """Dense matrix over GF(q), row-major, immutable."""

    spec: FieldSpec
    rows: int
    cols: int
    entries: tuple[tuple[FieldElement, ...], ...]

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "MatrixGF":
        ents = tuple(_as_vector(spec, r) for r in rows)
        ncols = len(ents[0]) if ents else 0
        if any(len(r) != ncols for r in ents):
            raise AmbientMismatch("ragged matrix rows")
        return cls(spec, len(ents), ncols, ents)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "MatrixGF":
        one, zero = spec.one(), spec.zero()
        return cls(spec, n, n, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int) -> "MatrixGF":
        z = spec.zero()
        return cls(spec, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.spec, self.cols, self.rows,
                        tuple(zip(*self.entries)) if self.entries else ())

    def __add__(self, other: "MatrixGF") -> "MatrixGF":
        return MatrixGF(self.spec, self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "MatrixGF") -> "MatrixGF":
        return MatrixGF(self.spec, self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def matvec(self, vec) -> tuple[FieldElement, ...]:
        v = _as_vector(self.spec, vec)
        z = self.spec.zero()
        out = []
        for r in self.entries:
            acc = z
            for a, b in zip(r, v):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def rref(self):
        """Returns (rref: MatrixGF, rank: int, pivots: list[int])."""
        rows, pivots = rref_rows(self.spec, self.entries)
        z = self.spec.zero()
        padded = list(rows) + [tuple(z for _ in range(self.cols))] * (self.rows - len(rows))
        return MatrixGF(self.spec, self.rows, self.cols, tuple(padded)), len(pivots), pivots

    def kernel(self) -> SubspaceBasis:
        """Right kernel {v : M v = 0}, as an RREF SubspaceBasis of F^cols."""
        reduced, pivots = rref_codes(self.spec, _to_codes(self.entries, self.cols))
        return SubspaceBasis.from_rref_codes(
            self.spec, kernel_codes(self.spec, reduced, pivots))

    def inverse(self) -> "MatrixGF":
        if self.rows != self.cols:
            raise AmbientMismatch("only square matrices invert")
        n = self.rows
        aug = [list(r) + list(MatrixGF.identity(self.spec, n).entries[i])
               for i, r in enumerate(self.entries)]
        rows, pivots = rref_rows(self.spec, aug)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return MatrixGF.from_rows(self.spec, [r[n:] for r in rows])

    def __str__(self):
        return "\n".join("[" + " ".join(str(x) for x in r) + "]" for r in self.entries)

