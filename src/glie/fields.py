"""Exact arithmetic in GF(p^k) for small odd q = p^k with p > 3.

Elements are polynomial residues modulo a fixed monic irreducible; for k = 1
they degenerate to bare residues mod p.  Every element has a canonical
integer code c0 + c1*p + ... + c_{k-1}*p^(k-1), which fixes the enumeration
order used by find_nonsquare and by all exhaustive searches.

Scalar arithmetic lives on FieldElement (operator overloading).  Hot loops
use BatchField, which works on numpy arrays of codes: direct mod-p ops for
prime fields, precomputed lookup tables for extensions.  Linear algebra,
structure constants and the gradings layer hold code arrays only: linalg
converts FieldElement vectors to codes once, where they come in, and never
converts back.

One rule reads an int everywhere.  An int given as a coordinate or a
coefficient is an element code (and -c is minus the element of code c): a
vector, a matrix entry, a structure constant, an element of an algebra, the
coefficient of a monomial.  An int that multiplies something is n * 1, its
image in the prime subfield: a Scale or Ad coefficient, a word-table
entry, AlgebraElement.scale, FieldElement arithmetic.  The two agree on prime
fields only: in GF(25), code 7 is not 7 * 1, which is code 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedField

_MAX_TABLE_Q = 4096  # lookup tables are q x q; anything bigger is a misuse


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], p: int):
    """Long division of dense coefficient tuples over GF(p); b must be monic-lead."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    quot = [0] * max(len(a) - db, 0)
    while len(_poly_trim(tuple(a))) - 1 >= db:
        a = list(_poly_trim(tuple(a)))
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lb) % p
        quot[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
    return tuple(quot), _poly_trim(tuple(a))


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tail + (1,)
            if not _poly_divmod(poly, divisor, p)[1]:
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest (on low-order-first coefficients) monic
    irreducible of degree k over GF(p)."""
    if k == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=k):
        cand = tail + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) with a pinned reduction modulus (length k+1, monic)."""

    p: int
    k: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.p) or self.p <= 3:
            raise UnsupportedField(f"p = {self.p} must be a prime > 3")
        if self.k < 1:
            raise UnsupportedField(f"extension degree k = {self.k} must be >= 1")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise UnsupportedField("modulus must be monic of degree k")
        if self.k > 1 and not _poly_is_irreducible(self.modulus, self.p):
            raise UnsupportedField("modulus is reducible")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p, 1, (0, 1))

    @classmethod
    def extension(cls, p: int, k: int) -> "FieldSpec":
        return cls(p, k, smallest_irreducible(p, k))

    @property
    def q(self) -> int:
        return self.p ** self.k

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        """Embed an integer via the prime subfield."""
        return FieldElement(self, (n % self.p,) + (0,) * (self.k - 1))

    def from_code(self, code: int) -> "FieldElement":
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for GF({self.q})")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(code % self.p)
            code //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        """All field elements in canonical code order."""
        return [self.from_code(c) for c in range(self.q)]

    # -- internal arithmetic on coefficient tuples ---------------------------

    def _reduce(self, c: tuple[int, ...]) -> tuple[int, ...]:
        _, rem = _poly_divmod(c, self.modulus, self.p)
        return rem + (0,) * (self.k - len(rem))

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        if self.k == 1:
            return ((a[0] * b[0]) % self.p,)
        prod = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % self.p
        return self._reduce(tuple(prod))

    def __repr__(self):
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"


@dataclass(frozen=True)
class FieldElement:
    """Immutable element of GF(p^k); supports +, -, *, /, ** and unary -."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    @property
    def code(self) -> int:
        c = 0
        for x in reversed(self.coeffs):
            c = c * self.spec.p + x
        return c

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.spec, self.spec._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        # square and multiply
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_square(self) -> bool:
        if self.is_zero():
            return True
        return (self ** ((self.spec.q - 1) // 2)).code == 1

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return str(self.code)

    def __repr__(self):
        if self.spec.k == 1:
            return f"{self.coeffs[0]}@GF({self.spec.p})"
        return f"{list(self.coeffs)}@{self.spec!r}"


@lru_cache(maxsize=None)
def squares(spec: FieldSpec) -> frozenset[int]:
    """Codes of all squares in GF(q), zero included."""
    return frozenset((e * e).code for e in spec.elements())


def find_nonsquare(spec: FieldSpec) -> FieldElement:
    """Smallest (in code order) nonzero element with no square root.

    Exists for every odd q; the nonzero squares form the index-2 subgroup of
    the multiplicative group.
    """
    sq = squares(spec)
    for code in range(1, spec.q):
        if code not in sq:
            return spec.from_code(code)
    raise AssertionError("every element is a square; q cannot be odd")


class BatchField:
    """Vectorized GF(q) arithmetic on int64 numpy arrays of element codes,
    through the q x q code tables add_table and mul_table for extensions."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.k = spec.k
        self.q = spec.q
        if self.k > 1:
            if self.q > _MAX_TABLE_Q:
                raise UnsupportedField(f"q = {self.q} too large for table arithmetic")
            els = spec.elements()
            self.add_table = np.array([[(a + b).code for b in els] for a in els], dtype=np.int64)
            self.mul_table = np.array([[(a * b).code for b in els] for a in els], dtype=np.int64)
            self._neg = np.array([(-a).code for a in els], dtype=np.int64)
            self._inv = np.argmax(self.mul_table == 1, axis=1)  # row 0 has no 1: maps 0 to 0
        else:
            self._inv = np.array([pow(c, self.p - 2, self.p) for c in range(self.p)],
                                 dtype=np.int64)

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self.add_table[a, b]

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return self.add_table[a, self._neg[b]]

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return self._neg[a]

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        return self.mul_table[a, b]

    def inv(self, a):
        """Multiplicative inverse; zero maps to zero."""
        return self._inv[a]

    def scale(self, code: int, a):
        if self.k == 1:
            return (code * a) % self.p
        return self.mul_table[code, a]

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)


@lru_cache(maxsize=None)
def batch_field(spec: FieldSpec) -> BatchField:
    return BatchField(spec)
