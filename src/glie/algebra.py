"""Finite-dimensional Z2-graded Lie algebras given by structure constants.

Built-in constructors cover the algebras the verification suites need:
sl2 and gl2 with the diagonal/off-diagonal grading, the three Z2-gradings
of M2 viewed as a Lie algebra, the two-dimensional span{e11, e12}, the
Heisenberg algebra, abelian algebras and direct sums.

Structure constants and coordinates come in through linalg's input edge,
as code arrays (the int rule is stated in fields).  Two kernels work on
code rows: batch_bracket, with an int64 fast path for prime fields, and
batch_ad_powers, which raises the ad matrices of the distinct bases by
squaring through matmul_codes.  The scalar bracket, AlgebraElement and
validate's Jacobi check keep FieldElement arithmetic, a reference that
shares none with them.

m2_automorphisms lists the conjugations of M2 by PGL2(q), the one
conjugation list of the package: gradings takes it as the automorphisms of
M2, and identities restricts it to sl2 for its orbit tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AmbientMismatch, SpecError, TheoremViolation
from .fields import FieldElement, FieldSpec, batch_field, find_nonsquare
from .linalg import (SubspaceBasis, _as_codes, matmul_codes, projective_codes, row_keys, row_pairs,
                     rref_codes)

_AD_BLOCK = 2048  # distinct bases, or rows, per block of ad matrices
_MAX_KEY = 1 << 62  # element codes up to this serve as int64 keys of rows


def repeated_brackets(bracket, u, w, exponents) -> list:
    """u (ad w)^e for each e in exponents: bracket with w up to each exponent
    in ascending order."""
    powers, cur, done = {}, u, 0
    for e in sorted(set(exponents)):
        for _ in range(done, e):
            cur = bracket(cur, w)
        powers[e], done = cur, e
    return [powers[e] for e in exponents]


class GradedLieAlgebra:
    """Lie algebra with a Z2 degree on each basis vector.

    constants is a read-only int64 array of element codes, of shape
    (dim, dim, dim): constants[i, j] is the coordinate vector of [b_i, b_j].
    The constructor takes any nested (dim, dim, dim) sequence of codes or
    FieldElements, an array included, and raises AmbientMismatch on any
    other shape.  Instances are immutable after construction.
    """

    def __init__(self, spec: FieldSpec, degrees, constants, name: str = "L"):
        self.spec = spec
        self.dim = n = len(degrees)
        self.degrees = tuple(int(d) % 2 for d in degrees)
        try:
            regular = np.shape(constants) == (n, n, n)
        except ValueError:  # a ragged sequence
            regular = False
        if not regular:
            raise AmbientMismatch(f"structure constants are not {n} x {n} x {n}")
        rows = [vec for row in constants for vec in row]
        self.constants = _as_codes(spec, rows, n).reshape(n, n, n)
        self.constants.flags.writeable = False
        self.name = name

    # -- elements -------------------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        """The element with these coordinates: FieldElements or codes."""
        codes = _as_codes(self.spec, [coeffs], self.dim)[0]
        return AlgebraElement(self, tuple(map(self.spec.from_code, codes.tolist())))

    def zero_element(self) -> "AlgebraElement":
        return self.element([0] * self.dim)

    def basis_element(self, i: int) -> "AlgebraElement":
        return self.element([1 if j == i else 0 for j in range(self.dim)])

    def homogeneous_indices(self, degree: int):
        return [i for i, d in enumerate(self.degrees) if d == degree]

    # -- bracket --------------------------------------------------------------

    def bracket(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        if a.parent is not self or b.parent is not self:
            raise AmbientMismatch("bracket arguments from different algebras")
        out = [self.spec.zero()] * self.dim
        constants = self.constants.tolist()
        for i, ai in enumerate(a.coeffs):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b.coeffs):
                if bj.is_zero():
                    continue
                c = ai * bj
                for k, s in enumerate(constants[i][j]):
                    if s:
                        out[k] = out[k] + c * self.spec.from_code(s)
        return AlgebraElement(self, tuple(out))

    # -- batched evaluation support --------------------------------------------

    @cached_property
    def _bracket_pairs(self):
        """Nonzero structure constants by (i, j), as (i, j, ((k, code), ...),
        paired).  Where c_ji = -c_ij holds exactly, (j, i) is folded into
        (i, j) with paired True: the product is then u_i v_j - u_j v_i."""
        c = self.constants
        terms = [(i, j, tuple((k, s) for k, s in enumerate(cij) if s))
                 for i, row in enumerate(c.tolist()) for j, cij in enumerate(row) if any(cij)]
        paired = {(i, j) for i, j, _ in terms
                  if i < j and np.array_equal(c[i, j], batch_field(self.spec).neg(c[j, i]))}
        return tuple((i, j, nonzero, (i, j) in paired)
                     for i, j, nonzero in terms if (j, i) not in paired)

    def batch_bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bracket of element-code arrays of shape (N, dim).

        Prime fields sum the products in int64 and reduce mod p once;
        extension fields go through the BatchField tables term by term.
        Powers of one ad go through batch_ad_powers instead.
        """
        bf = batch_field(self.spec)
        out = bf.zeros(u.shape)
        if self.spec.k == 1:
            for i, j, nonzero, paired in self._bracket_pairs:
                prod = u[:, i] * v[:, j]
                if paired:
                    prod -= u[:, j] * v[:, i]
                for k, s in nonzero:
                    out[:, k] += s * prod
            out %= self.spec.p
            return out
        for i, j, nonzero, paired in self._bracket_pairs:
            prod = bf.mul(u[:, i], v[:, j])
            if paired:
                prod = bf.sub(prod, bf.mul(u[:, j], v[:, i]))
            for k, s in nonzero:
                out[:, k] = bf.add(out[:, k], bf.scale(s, prod))
        return out

    def batch_ad_powers(self, u: np.ndarray, w: np.ndarray, exponents) -> list:
        """u (ad w)^e, row by row, for each e in exponents; u and w are
        element-code arrays of shape (N, dim).

        Rows of an exhaustive check share their bases: the rows of w take
        few distinct values.  The rows of w are keyed by element code, the
        ad matrices of the distinct values are raised to each exponent by
        _ad_power_matrices in blocks of _AD_BLOCK values, and u (ad w)^e is
        the row u times the power of its own base: matmul_codes of an
        (N, 1, dim) and an (N, dim, dim) stack, _AD_BLOCK rows at a time.
        A top exponent below 2, or q^dim > _MAX_KEY, which leaves no int64
        key, brackets repeatedly instead.
        """
        if max(exponents, default=0) < 2 or not len(u) or self.spec.q ** self.dim > _MAX_KEY:
            return repeated_brackets(self.batch_bracket, u, w, exponents)
        place = self.spec.q ** np.arange(self.dim, dtype=np.int64)
        distinct, inverse = np.unique(w @ place, return_inverse=True)
        bases = distinct[:, None] // place % self.spec.q
        powers = [np.concatenate(parts) for parts in zip(*(
            self._ad_power_matrices(bases[lo:lo + _AD_BLOCK], exponents)
            for lo in range(0, len(bases), _AD_BLOCK)))]
        outs = [np.empty_like(u) for _ in exponents]
        for start in range(0, len(u), _AD_BLOCK):
            rows = slice(start, start + _AD_BLOCK)
            for out, power in zip(outs, powers):
                out[rows] = matmul_codes(self.spec, u[rows, None], power[inverse[rows]])[:, 0]
        return outs

    def _ad_power_matrices(self, w: np.ndarray, exponents) -> list:
        """(len(w), dim, dim) code stacks of (ad w)^e, one matrix per row of
        w, for each e in exponents, by repeated squaring.  Row i of ad w is
        [b_i, w], so u (ad w)^e is the row u times the matrix."""
        n, spec = self.dim, self.spec
        square = matmul_codes(spec, w, self.constants.transpose(1, 0, 2).reshape(n, -1))
        square = square.reshape(-1, n, n)
        powers = {0: np.broadcast_to(np.eye(n, dtype=np.int64), square.shape)}
        for bit in range(max(exponents).bit_length()):
            if bit:
                square = matmul_codes(spec, square, square)
            for e in set(exponents):
                if e >> bit & 1:
                    powers[e] = matmul_codes(spec, powers[e], square) if e in powers else square
        return [powers[e] for e in exponents]

    # -- validation -------------------------------------------------------------

    def validate(self) -> "ValidationReport":
        c, checks = self.constants, []
        # c_ij + c_ji, which is 2 c_ii on the diagonal
        sums = batch_field(self.spec).add(c, c.swapaxes(0, 1))
        asymmetric = np.argwhere(np.triu(sums.any(axis=2)))
        witness = None
        if len(asymmetric):
            i, j = asymmetric[0]
            witness = f"[b{i},b{i}] != 0" if i == j else f"[b{i},b{j}] != -[b{j},b{i}]"
        checks.append(("anticommutativity", witness is None, witness))

        ok, witness = True, None
        for i, j, k in itertools.combinations(range(self.dim), 3):
            bi, bj, bk = (self.basis_element(t) for t in (i, j, k))
            s = (self.bracket(self.bracket(bi, bj), bk)
                 + self.bracket(self.bracket(bj, bk), bi)
                 + self.bracket(self.bracket(bk, bi), bj))
            if not s.is_zero():
                ok, witness = False, f"jacobi fails on (b{i},b{j},b{k})"
                break
        checks.append(("jacobi", ok, witness))

        degrees = np.array(self.degrees)
        target = (degrees[:, None] + degrees) % 2
        misplaced = np.argwhere((c != 0) & (degrees != target[:, :, None]))
        witness = None
        if len(misplaced):
            i, j, k = misplaced[0]
            witness = (f"[b{i},b{j}] has a degree-{self.degrees[k]} component, "
                       f"expected {target[i, j]}")
        checks.append(("grading", witness is None, witness))
        return ValidationReport(tuple(checks))

    def __repr__(self):
        return f"<{self.name}: dim {self.dim} over {self.spec!r}, degrees {self.degrees}>"


@dataclass(frozen=True)
class AlgebraElement:
    parent: GradedLieAlgebra
    coeffs: tuple[FieldElement, ...]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.parent is not self.parent:
            raise AmbientMismatch("elements of different algebras")
        return AlgebraElement(self.parent, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.parent, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "AlgebraElement":
        """c times the element; an int c is c * 1 (see fields)."""
        return AlgebraElement(self.parent, tuple(a * c for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coeffs)

    def degree(self) -> int | None:
        """0 or 1 for nonzero homogeneous elements, None for mixed or zero."""
        if self.is_zero():
            return None
        degs = {self.parent.degrees[i] for i, x in enumerate(self.coeffs) if not x.is_zero()}
        return degs.pop() if len(degs) == 1 else None

    def codes(self) -> np.ndarray:
        return np.array([x.code for x in self.coeffs], dtype=np.int64)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and other.parent is self.parent and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.parent), self.coeffs))

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.coeffs) + ")"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[tuple[str, bool, str | None], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failing(self):
        return [(name, witness) for name, passed, witness in self.checks if not passed]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _m2_mult(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise associative products of 2x2 matrices given as (N, 4) code
    arrays in (e11, e12, e21, e22) coordinates."""
    return matmul_codes(spec, a.reshape(-1, 2, 2), b.reshape(-1, 2, 2)).reshape(-1, 4)


def algebra_from_matrix_basis(spec: FieldSpec, basis, degrees, name: str) -> GradedLieAlgebra:
    """Build structure constants from a list of 2x2 matrices (4-coordinate
    vectors of field elements or codes) that must be bracket-closed and
    independent."""
    basis = _as_codes(spec, basis)
    left, right = row_pairs(basis, basis)
    comms = batch_field(spec).sub(_m2_mult(spec, left, right), _m2_mult(spec, right, left))
    return algebra_in_basis(spec, basis, comms, degrees, name)


def algebra_in_basis(spec: FieldSpec, basis: np.ndarray, brackets: np.ndarray,
                     degrees, name: str) -> GradedLieAlgebra:
    """The algebra with the independent code rows of basis as its basis,
    where row i * n + j of brackets is [b_i, b_j] in the ambient
    coordinates."""
    n = len(basis)
    constants = _solve_in_span(spec, basis, brackets).reshape(n, n, n)
    return GradedLieAlgebra(spec, degrees, constants, name)


def _solve_in_span(spec: FieldSpec, basis: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Codes of the coordinates of each target row in the span of the
    independent basis rows: one elimination of [basis^T | targets^T]."""
    n = len(basis)
    reduced, pivots = rref_codes(spec, np.concatenate([basis, targets]).T)
    if pivots != list(range(n)):
        raise SpecError("matrix basis is not independent and bracket-closed")
    return reduced[:, n:].T


# h = e11 - e22, e = e12 and f = e21 in (e11, e12, e21, e22) coordinates
SL2_BASIS = ((1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0))


def sl2(spec: FieldSpec) -> GradedLieAlgebra:
    """sl2 with the natural grading: basis h=e11-e22 (even), e=e12, f=e21 (odd)."""
    return algebra_from_matrix_basis(spec, SL2_BASIS, (0, 1, 1), "sl2")


def gl2(spec: FieldSpec) -> GradedLieAlgebra:
    """2x2 matrices as a Lie algebra, diagonal/off-diagonal grading,
    basis (e11, e12, e21, e22)."""
    return algebra_from_matrix_basis(
        spec,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        (0, 1, 1, 0),
        "gl2",
    )


@lru_cache(maxsize=None)
def m2_automorphisms(spec: FieldSpec) -> np.ndarray:
    """The conjugation maps x -> g x g^-1 of M2 (inner = all, by
    Skolem-Noether) on (e11, e12, e21, e22) coordinates, sorted, as a
    read-only (N, 4, 4) int64 array; N = |PGL2(q)| = q(q^2 - 1).  The map of g
    is the Kronecker product of g and the transpose of g^-1.  g runs over the
    q^3 + q^2 + q + 1 matrices whose first nonzero entry is 1, one per scalar
    class (projective_codes); conjugation by g is the identity only when g
    is scalar, so no two maps are equal (TheoremViolation if they are)."""
    bf = batch_field(spec)
    g = projective_codes(spec, 4)[1:]
    a, b, c, d = g.T
    det = bf.sub(bf.mul(a, d), bf.mul(b, c))
    adj_t = np.stack([d, bf.neg(c), bf.neg(b), a], axis=1)
    g, ginv_t = g[det != 0], bf.mul(adj_t[det != 0], bf.inv(det[det != 0])[:, None])
    maps = bf.mul(g.reshape(-1, 2, 1, 2, 1), ginv_t.reshape(-1, 1, 2, 1, 2)).reshape(-1, 16)
    maps = maps[np.argsort(row_keys(maps), kind="stable")].reshape(-1, 4, 4)
    if (maps[1:] == maps[:-1]).all(axis=(1, 2)).any():
        raise TheoremViolation("two non-proportional matrices conjugate alike")
    maps.flags.writeable = False  # the cached array is shared by every caller
    return maps


def m2_grading_i(spec: FieldSpec) -> GradedLieAlgebra:
    """Trivial grading of M2: everything even."""
    alg = algebra_from_matrix_basis(
        spec,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        (0, 0, 0, 0),
        "m2-I",
    )
    return alg


def m2_grading_ii(spec: FieldSpec) -> GradedLieAlgebra:
    """Diagonal/off-diagonal grading of M2."""
    alg = gl2(spec)
    alg.name = "m2-II"
    return alg


def m2_grading_iii(spec: FieldSpec, bprime: FieldElement | None = None) -> GradedLieAlgebra:
    """Nonsquare grading of M2: even = span{1, e12 + b'e21},
    odd = span{e11 - e22, e12 - b'e21}; b' must be a non-square."""
    if bprime is None:
        bprime = find_nonsquare(spec)
    if bprime.is_square():
        raise ValueError(f"b' = {bprime} is a square; grading III needs a non-square")
    basis = [
        (1, 0, 0, 1),           # identity matrix
        (0, 1, bprime, 0),      # e12 + b' e21
        (1, 0, 0, -1),          # e11 - e22
        (0, 1, -bprime, 0),     # e12 - b' e21
    ]
    return algebra_from_matrix_basis(spec, basis, (0, 0, 1, 1), f"m2-III(b'={bprime})")


def span_e11_e12(spec: FieldSpec) -> GradedLieAlgebra:
    """The two-dimensional algebra span{e11, e12}, degrees (0, 1)."""
    constants = [
        [(0, 0), (0, 1)],
        [(0, -1), (0, 0)],
    ]
    return GradedLieAlgebra(spec, (0, 1), constants, "span-e11-e12")


def heisenberg(spec: FieldSpec) -> GradedLieAlgebra:
    """3-dim Heisenberg algebra [x,y] = z, graded with x,y odd and z even.

    Nilpotent and non-abelian: the tests use it as an input whose ad
    matrices are nilpotent.
    """
    z3 = (0, 0, 0)
    constants = [
        [z3, (0, 0, 1), z3],
        [(0, 0, -1), z3, z3],
        [z3, z3, z3],
    ]
    return GradedLieAlgebra(spec, (1, 1, 0), constants, "heisenberg")


def abelian(spec: FieldSpec, degrees) -> GradedLieAlgebra:
    n = len(degrees)
    return GradedLieAlgebra(spec, tuple(degrees), np.zeros((n, n, n), dtype=np.int64),
                            f"abelian{tuple(degrees)}")


def direct_sum(parts) -> GradedLieAlgebra:
    """The parts side by side: block-diagonal structure constants."""
    parts = list(parts)
    spec = parts[0].spec
    if any(p.spec != spec for p in parts):
        raise AmbientMismatch("direct sum over mixed fields")
    n = sum(p.dim for p in parts)
    constants = np.zeros((n, n, n), dtype=np.int64)
    off = 0
    for p in parts:
        block = slice(off, off + p.dim)
        constants[block, block, block] = p.constants
        off += p.dim
    degrees = tuple(d for p in parts for d in p.degrees)
    return GradedLieAlgebra(spec, degrees, constants, " (+) ".join(p.name for p in parts))


# ---------------------------------------------------------------------------
# subspace helpers
# ---------------------------------------------------------------------------

def product_space(alg: GradedLieAlgebra, a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Span of [a_i, b_j] over basis rows: one batch_bracket of all pairs."""
    return SubspaceBasis(alg.spec, alg.dim, alg.batch_bracket(*row_pairs(a.rows, b.rows)))

