"""Graded identity checking and bounded basis verification.

The pipeline compares, inside finite windows of the free graded Lie algebra,
the space of graded identities of a concrete algebra (an evaluation kernel,
exact) against the span of consequences of candidate generators (a lower
bound of the verbal ideal's window part: the substitution instances that fit
the window's degree box, closed under linear combinations and brackets with
the window variables, then intersected with the window).

Statuses are honest about one asymmetry: the identity space is computed
exactly, the consequence span is a lower bound, so "strict-inclusion" means
"not derived by this search", never "the theorem is refuted".
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import SL2_BASIS, AlgebraElement, GradedLieAlgebra, _m2_mult, sl2
from .errors import BudgetExceeded, ParityError, TheoremViolation
from .fields import FieldElement, FieldSpec, batch_field
from .freelie import (
    LiePolynomial,
    MultiDegree,
    Sum,
    TruncatedLieAlgebra,
    Var,
    batch_evaluate,
    degree_form,
    degree_residues,
    evaluate,
    expr_variables,
    lyndon_words,
    poly_to_expr,
    replace,
    word_tree_batch_evaluate,
    x,
    y,
    z,
)
from .linalg import (SubspaceBasis, _as_codes, grid_codes, kernel_codes, matmul_codes, projective_codes,
                     row_pairs, rref_codes)


# ---------------------------------------------------------------------------
# ambient windows
# ---------------------------------------------------------------------------


class AmbientSpace:
    """A finite-dimensional window of the free graded Lie algebra: the span
    of the Lyndon bases of a fixed list of multidegrees."""

    def __init__(self, label: str, variables, multidegrees):
        self.label = label
        self.variables = tuple(sorted(set(variables), key=lambda v: v.sort_key))
        mds = []
        monomials = []
        for md in sorted(set(multidegrees), key=lambda m: (m.total, str(m))):
            words = lyndon_words(md)
            if words:
                mds.append(md)
                monomials.extend(words)
        self.multidegrees = tuple(mds)
        self.monomials = tuple(monomials)

    @property
    def dim(self) -> int:
        return len(self.monomials)

    @property
    def max_total(self) -> int:
        return max((md.total for md in self.multidegrees), default=0)

    def caps(self) -> dict:
        out: dict = {}
        for md in self.multidegrees:
            for v, c in md.counts:
                out[v] = max(out.get(v, 0), c)
        for v in self.variables:
            out.setdefault(v, 0)
        return out

    def poly_of(self, spec: FieldSpec, coords) -> LiePolynomial:
        """The polynomial with these coordinates: FieldElements or element codes."""
        terms = {}
        for w, c in zip(self.monomials, coords):
            if not isinstance(c, FieldElement):
                c = spec.from_code(int(c))
            if not c.is_zero():
                terms[w] = c
        return LiePolynomial.from_dict(spec, terms)

    def __repr__(self):
        return f"<window {self.label}: dim {self.dim}>"


def _box_multidegrees(caps: dict):
    """All multidegrees with 0 <= deg_v <= caps[v] (total degree >= 1)."""
    variables = sorted(caps, key=lambda v: v.sort_key)
    for counts in itertools.product(*(range(caps[v] + 1) for v in variables)):
        if sum(counts):
            yield MultiDegree.of(dict(zip(variables, counts)))


def window_box(caps: dict, label: str | None = None) -> AmbientSpace:
    """The window on the whole box of caps, every multidegree of
    _box_multidegrees(caps), labelled by the caps unless a label is given."""
    variables = sorted(caps, key=lambda v: v.sort_key)
    if label is None:
        label = "(" + ", ".join(f"{v}:{caps[v]}" for v in variables) + ")"
    return AmbientSpace(label, variables, _box_multidegrees(caps))


def window_multilinear(variables, label: str | None = None) -> AmbientSpace:
    md = MultiDegree.of({v: 1 for v in variables})
    if label is None:
        label = "(" + ", ".join(str(v) for v in sorted(variables, key=lambda v: v.sort_key)) + " multilinear)"
    return AmbientSpace(label, variables, [md])


def window_exact(md: MultiDegree, label: str | None = None) -> AmbientSpace:
    return AmbientSpace(label or str(md), md.variables(), [md])


def default_sl2_windows(q: int):
    """The bounded completeness probes for the sl2 basis check."""
    return [
        window_box({y(1): 1, y(2): 1}, "(y:1,1)"),
        window_box({z(1): 1, z(2): 1}, "(z:1,1)"),
        window_box({z(1): 1, z(2): 1, z(3): 1}, "(z:1,1,1)"),
        window_box({y(1): 1, z(1): 1, z(2): 1}, "(y:1,z:1,1)"),
        window_box({z(1): 1, y(1): q}, f"(z:1,y:{q})"),
    ]


def _partitions(n: int, cap: int):
    """Non-increasing partitions of n with parts <= cap."""
    if n == 0:
        yield ()
        return

    def rec(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, cap)


def total_degree_windows(max_total: int, per_var_cap: int):
    """One exact-multidegree window per canonical multidegree shape with
    total degree <= max_total (variable names are canonical: y1..ya, z1..zb)."""
    windows = []
    for total in range(1, max_total + 1):
        for even_deg in range(total + 1):
            odd_deg = total - even_deg
            for even_parts in _partitions(even_deg, per_var_cap):
                for odd_parts in _partitions(odd_deg, per_var_cap):
                    counts: dict = {}
                    for i, c in enumerate(even_parts, start=1):
                        counts[y(i)] = c
                    for i, c in enumerate(odd_parts, start=1):
                        counts[z(i)] = c
                    if counts:
                        windows.append(window_exact(MultiDegree.of(counts)))
    return windows


# ---------------------------------------------------------------------------
# assignment enumeration
# ---------------------------------------------------------------------------


def _on_coordinates(alg: GradedLieAlgebra, rows: np.ndarray, idx) -> np.ndarray:
    """Code rows over the coordinates idx as (N, dim) rows, zero elsewhere."""
    out = np.zeros((len(rows), alg.dim), dtype=np.int64)
    out[:, idx] = rows
    return out


def homogeneous_batch(alg: GradedLieAlgebra, degree: int) -> np.ndarray:
    """All q^d elements of the degree-d part, as (q^d, dim) coordinate codes
    (linalg.grid_codes on its coordinates)."""
    idx = alg.homogeneous_indices(degree)
    return _on_coordinates(alg, grid_codes(alg.spec, len(idx)), idx)


def projective_batch(alg: GradedLieAlgebra, degree: int) -> np.ndarray:
    """The zero vector and one representative of each line through 0 of the
    degree-d part (linalg.projective_codes on its coordinates): 1 + (q^d -
    1)/(q - 1) rows of coordinate codes."""
    idx = alg.homogeneous_indices(degree)
    return _on_coordinates(alg, projective_codes(alg.spec, len(idx)), idx)


def basis_batch(alg: GradedLieAlgebra, degree: int) -> np.ndarray:
    """The basis vectors of the degree-d part as unit code rows."""
    idx = alg.homogeneous_indices(degree)
    return _on_coordinates(alg, np.eye(len(idx), dtype=np.int64), idx)


def _domains(alg: GradedLieAlgebra, variables, graded: bool, points=None, pairs=()):
    """One joint domain per variable (see _assignment_slice): points(v), by
    default the whole homogeneous part of v's parity, in graded mode; the
    whole algebra otherwise and for a variable of pairs, which stands for the
    sum of an even and an odd variable."""
    domains = []
    for v in variables:
        if graded and v not in pairs:
            if v.parity is None:
                raise ParityError(f"{v} has no parity; graded mode forbids x variables")
            domains.append({v: points(v) if points else homogeneous_batch(alg, v.parity)})
        else:
            domains.append({v: grid_codes(alg.spec, alg.dim)})
    return domains


def _domain_size(domain: dict) -> int:
    """The number of rows of a joint domain."""
    return len(next(iter(domain.values())))


def _assignment_slice(domains, start: int, stop: int) -> dict:
    """Assignments number start..stop-1 of the cartesian product of the
    joint domains, the first slowest (itertools.product order).  A joint
    domain maps each of its variables to an array of code rows, all of one
    length: its row i assigns row i of each array."""
    sizes = [_domain_size(d) for d in domains]
    strides = []
    acc = 1
    for s in reversed(sizes):
        strides.append(acc)
        acc *= s
    strides.reverse()
    idx = np.arange(start, stop)
    assignment = {}
    for dom, stride, size in zip(domains, strides, sizes):
        pick = (idx // stride) % size
        for v, rows in dom.items():
            assignment[v] = rows[pick]
    return assignment


# ---------------------------------------------------------------------------
# orbits of sl2 under conjugation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _sl2_constants(spec: FieldSpec) -> np.ndarray:
    """The structure constants of sl2(spec), a read-only code array."""
    return sl2(spec).constants


def _orbit_representatives(spec: FieldSpec) -> np.ndarray:
    """0 and, for each d in F, the companion matrix [[0, d], [1, 0]] of
    t^2 - d, as (h, e, f) coordinate codes (0, d, 1): q + 1 rows."""
    reps = np.zeros((spec.q + 1, 3), dtype=np.int64)
    reps[1:, 1] = np.arange(spec.q)
    reps[1:, 2] = 1
    return reps


def _sl2_orbit_representatives(alg: GradedLieAlgebra) -> np.ndarray | None:
    """Representatives of the orbits of GL2(F) acting on alg by conjugation,
    if alg has the structure constants of sl2, so that every conjugation is a
    Lie automorphism of it; None for any other algebra.

    The cover is certified on every call, over all q^3 elements x in one
    batch.  x = 0 is a representative.  A nonzero x = [[a, b], [c, -a]] is
    no scalar, so for a vector v that is no eigenvector of x, g = [v | xv]
    is invertible, and x g = g R with R = [[0, -det x], [1, 0]] because
    x^2 = -det x.  v is e1 if c != 0, else e2 if b != 0, else e1 + e2: both
    e1 and e2 are eigenvectors of diag(a, -a).  This raises TheoremViolation
    unless 0 is in the table and, for every nonzero x, R is in the table,
    det g != 0 and g R = x g.
    """
    spec = alg.spec
    if not np.array_equal(alg.constants, _sl2_constants(spec)):
        return None
    bf = batch_field(spec)
    reps = _orbit_representatives(spec)
    xs = grid_codes(spec, alg.dim)
    basis = _as_codes(spec, SL2_BASIS)
    matrices = matmul_codes(spec, xs, basis)
    a, b, c, d = matrices.T
    nonzero = xs.any(axis=1)
    canonical = np.zeros_like(xs)
    canonical[:, 1] = bf.sub(bf.mul(b, c), bf.mul(a, d))
    canonical[:, 2] = nonzero
    v1 = ((c != 0) | (b == 0)).astype(np.int64)
    v2 = (c == 0).astype(np.int64)
    g = np.stack([v1, bf.add(bf.mul(a, v1), bf.mul(b, v2)),
                  v2, bf.add(bf.mul(c, v1), bf.mul(d, v2))], axis=1)
    det = bf.sub(bf.mul(g[:, 0], g[:, 3]), bf.mul(g[:, 1], g[:, 2]))
    place = spec.q ** np.arange(alg.dim)
    ok = (np.isin(canonical @ place, reps @ place) & ((det != 0) | ~nonzero)
          & (_m2_mult(spec, g, matmul_codes(spec, canonical, basis))
             == _m2_mult(spec, matrices, g)).all(axis=1))
    if not ok.all():
        bad = xs[np.argmin(ok)].tolist()
        raise TheoremViolation(f"sl2 element {bad} is conjugate to no orbit representative")
    return reps


def _centralizer_maps(spec: FieldSpec, rs: np.ndarray):
    """The centralizer C(r) in GL2(F) of each nonzero r of sl2, modulo
    scalars.  rs holds the 2x2 matrices r as (n, 4) code rows; returns the
    maps as (m, 4) code rows and, for each, the index of its r in rs.

    r is no scalar, so C(r) = F[r]^x, the invertible aI + br: modulo
    scalars, I and the sI + r with det(sI + r) = s^2 + det r != 0, at most
    q + 1 maps per r."""
    bf = batch_field(spec)
    scalars = np.outer(np.arange(spec.q), [1, 0, 0, 1])  # sI for every s in F
    maps = np.concatenate([np.broadcast_to([1, 0, 0, 1], (len(rs), 1, 4)),
                           bf.add(scalars, rs[:, None])], axis=1)
    det = bf.sub(bf.mul(maps[..., 0], maps[..., 3]), bf.mul(maps[..., 1], maps[..., 2]))
    owners, kept = np.nonzero(det)
    return maps[owners, kept], owners


_PAIR_CELLS = 1 << 14  # image coordinates computed at once by _orbit_pairs


def _orbit_pairs(alg: GradedLieAlgebra, reps: np.ndarray):
    """One pair (r, s) per orbit of GL2(F), acting by conjugation, on pairs
    of elements of sl2, with r from the certified table reps: two (N, 3)
    code arrays, by row of reps, then by the code of s.

    (r, s) and (r, s') share an orbit exactly when s' = g s g^-1 for some g
    in the stabilizer of r, its centralizer C(r).  For r = 0 that is GL2,
    whose orbits reps represents.  For a nonzero r, s is replaced by the
    least code among its images under the maps of _centralizer_maps, C(r)
    modulo the scalars, which act trivially: one element per orbit.  This
    raises TheoremViolation unless each map g commutes with r and has an
    inverse, so that the pairs cover every pair of sl2 whatever the maps
    are.  The images are computed at most _PAIR_CELLS coordinates at a
    time."""
    spec = alg.spec
    bf = batch_field(spec)
    q = spec.q
    codes = np.arange(q)
    xs = grid_codes(spec, 3)
    basis = _as_codes(spec, SL2_BASIS)
    seen = np.zeros((len(reps), q ** 3), dtype=bool)
    zero = ~reps.any(axis=1)
    seen[np.flatnonzero(zero)[:, None], reps @ q ** np.arange(3)] = True  # GL2 = C(0)
    nonzero = np.flatnonzero(~zero)
    rs = matmul_codes(spec, reps[nonzero], basis)
    maps, owners = _centralizer_maps(spec, rs)
    r = rs[owners]
    inverse = bf.mul(np.stack([maps[:, 3], bf.neg(maps[:, 1]), bf.neg(maps[:, 2]), maps[:, 0]],
                              axis=1),
                     bf.inv(bf.sub(bf.mul(maps[:, 0], maps[:, 3]),
                                   bf.mul(maps[:, 1], maps[:, 2])))[:, None])
    ok = ((_m2_mult(spec, maps, inverse) == [1, 0, 0, 1]).all(axis=1)
          & (_m2_mult(spec, maps, r) == _m2_mult(spec, r, maps)).all(axis=1))
    if not ok.all():
        i = int(np.argmin(ok))
        raise TheoremViolation(
            f"centralizer map {maps[i].tolist()} of {r[i].tolist()} is singular or moves it")
    # conj[j, i]: the (h, e, f) coordinates of g_j b_i g_j^-1, its (e11, e12,
    # e21) entries.  Coordinate k of the image of x under g_j is the sum over
    # i of x_i conj[j, i, k], looked up in add3 at the index that sums
    # parts[i][x_i, k * m + j] = (x_i conj[j, i, k]) q^(2 - i)
    left, right = row_pairs(maps, basis)
    conj = _m2_mult(spec, _m2_mult(spec, left, right), np.repeat(inverse, 3, axis=0))
    conj = conj[:, :3].reshape(len(maps), 3, 3)
    parts = [bf.mul(codes[:, None], conj[:, i].T.reshape(1, -1)) * q ** (2 - i) for i in range(3)]
    add3 = functools.reduce(bf.add, np.ix_(codes, codes, codes)).ravel()
    starts = np.flatnonzero(np.diff(owners, prepend=-1))  # the runs of one r
    step = max(1, _PAIR_CELLS // (3 * len(maps)))
    for start in range(0, q ** 3, step):
        chunk = xs[start:start + step].T
        index = parts[0][chunk[0]]
        index += parts[1][chunk[1]]
        index += parts[2][chunk[2]]
        images = add3[index].reshape(-1, 3, len(maps))
        least = np.minimum.reduceat(images[:, 0] + q * (images[:, 1] + q * images[:, 2]),
                                    starts, axis=1)
        seen[nonzero[owners[starts]], least] = True
    rows, found = np.nonzero(seen)
    return reps[rows], xs[found]


_ORBITS: dict = {}  # (spec, bytes of _orbit_representatives(spec)) -> _sl2_orbits


def _sl2_orbits(alg: GradedLieAlgebra):
    """(reps, firsts, seconds): the certified representatives of
    _sl2_orbit_representatives and the pair rows of _orbit_pairs, if alg has
    the structure constants of sl2; None for any other algebra.  Both are
    certified once per field and representative table."""
    spec = alg.spec
    if not np.array_equal(alg.constants, _sl2_constants(spec)):
        return None
    key = (spec, _orbit_representatives(spec).tobytes())
    if key not in _ORBITS:
        reps = _sl2_orbit_representatives(alg)
        _ORBITS[key] = (reps, *_orbit_pairs(alg, reps))
    return _ORBITS[key]


# ---------------------------------------------------------------------------
# identity checking
# ---------------------------------------------------------------------------


_CHUNK = 1 << 14  # rows or grid points evaluated at once
_REDUCE_BLOCK = 1024  # evaluation rows stacked under the reduced rows per elimination


@dataclass(frozen=True)
class CheckSettings:
    """budget caps the rows a check evaluates and the grid points of an
    identity space."""

    budget: int = 4_000_000


@dataclass(frozen=True)
class CheckReport:
    """evaluations is, for a check that holds, the number of assignments it
    covers (all of them), and for a refuted check the number of rows it
    evaluated up to and including the first failing one."""

    holds: bool
    evaluations: int
    counterexample: dict | None = None
    value: AlgebraElement | None = None


def _witness(alg: GradedLieAlgebra, codes: dict, pairs) -> dict:
    """The assignment of elements with these coordinate codes, each variable
    x of pairs split into its even part pairs[x][0] and odd part pairs[x][1]."""
    odd = np.array(alg.degrees, dtype=bool)
    out = {}
    for v, row in codes.items():
        parts = zip(pairs[v], (row * ~odd, row * odd)) if v in pairs else [(v, row)]
        for u, part in parts:
            out[u] = alg.element(part)
    return out


def _merge_pairs(e, variables):
    """(f, pairs): e with each pair y_i, z_i that it uses only through the
    node Sum((Var(y_i), Var(z_i))), the node substitute builds for
    x_i -> y_i + z_i, replaced by Var(x_i), and pairs mapping each such x_i
    to (y_i, z_i).  An e with x variables is returned as it is, for graded
    mode to refuse them."""
    if any(v.parity is None for v in variables):
        return e, {}
    sums = {Sum((Var(v), Var(z(v.index)))): Var(x(v.index))
            for v in variables if v.kind == "y" and z(v.index) in variables}
    merged = replace(e, sums)
    left = set(expr_variables(merged))
    kept = {s: xv for s, xv in sums.items() if not left & {t.var for t in s.terms}}
    return (merged if kept == sums else replace(e, kept),
            {xv.var: tuple(t.var for t in s.terms) for s, xv in kept.items()})


def check_identity(e, alg: GradedLieAlgebra, graded: bool = True,
                   settings: CheckSettings = CheckSettings()) -> CheckReport:
    """Does the expression vanish on the algebra?  Every assignment is
    covered, and settings.budget caps the rows evaluated (BudgetExceeded
    beyond).

    Graded mode substitutes homogeneous elements of matching parity only;
    ordinary mode ranges every variable over the whole algebra.

    Two exact reductions cut the rows.  In graded mode, (y_i, z_i) -> y_i +
    z_i is a bijection from the even part times the odd part onto the
    algebra, so a pair used only through that sum (_merge_pairs, as in
    sem1_graded and sem2_graded) is one variable x_i over the whole algebra.
    When every variable ranges over the whole algebra of sl2, conjugation
    by GL2(F) is a Lie automorphism phi with f(phi a, phi b, ...) =
    phi f(a, b, ...), so f vanishes on an assignment exactly when it
    vanishes on any conjugate of it.  Hence the first two variables need
    one pair per GL2-orbit of pairs (_sl2_orbits), the others still ranging
    over the whole algebra: a pair (a, b) is conjugate to (r, b') with r
    one of the q + 1 certified orbit representatives, and the conjugations
    that keep r form its stabilizer, the centralizer C(r), so b' needs one
    element per orbit of C(r).  That is q + 1 elements for r = 0, where
    C(r) = GL2, and q^2 + q - 1, q^2 + 2q or q^2 for r = [[0, d], [1, 0]]
    with d zero, a nonzero square or a non-square: q^3 + q^2 + q rows in
    all for the q^6 graded assignments of sem*_graded.  A single variable
    takes the q + 1 representatives alone.

    The rows run over the product of the joint domains (_assignment_slice),
    _CHUNK at a time.  A check that holds reports as evaluations the number
    of assignments covered, a refuted one the number of rows up to and
    including the first failing one, whatever the chunk size, with its
    witness re-evaluated by the scalar backend on e itself, the variables of
    merged pairs split (_witness).  An expression without variables has one
    row, the empty assignment.
    """
    variables = expr_variables(e)
    f, pairs = _merge_pairs(e, variables) if graded else (e, {})
    variables = expr_variables(f)
    domains = _domains(alg, variables, graded, pairs=pairs)
    covered = math.prod(map(_domain_size, domains))
    orbits = (_sl2_orbits(alg) if variables and (not graded or set(variables) <= pairs.keys())
              else None)
    if orbits is not None:
        reps, firsts, seconds = orbits
        domains[:2] = ([{variables[0]: reps}] if len(variables) == 1
                       else [{variables[0]: firsts, variables[1]: seconds}])
    total = math.prod(map(_domain_size, domains))
    if total > settings.budget:
        raise BudgetExceeded(f"check needs {total} evaluations (budget {settings.budget})")
    for done in range(0, total, _CHUNK):
        assignment = _assignment_slice(domains, done, min(done + _CHUNK, total))
        bad = np.flatnonzero(batch_evaluate(f, alg, assignment).any(axis=1))
        if bad.size:
            row = int(bad[0])
            witness = _witness(alg, {v: rows[row] for v, rows in assignment.items()}, pairs)
            value = evaluate(e, alg, witness, graded=graded)
            if value.is_zero():
                raise TheoremViolation("counterexample failed re-evaluation")
            return CheckReport(False, done + row + 1, witness, value)
    return CheckReport(True, covered)


def check_poly_identity(poly: LiePolynomial, alg: GradedLieAlgebra,
                        graded: bool = True,
                        settings: CheckSettings = CheckSettings()) -> CheckReport:
    """check_identity of the polynomial's expression (poly_to_expr)."""
    return check_identity(poly_to_expr(poly), alg, graded, settings)


# ---------------------------------------------------------------------------
# identity spaces
# ---------------------------------------------------------------------------


def identity_space(alg: GradedLieAlgebra, ambient: AmbientSpace,
                   settings: CheckSettings = CheckSettings()) -> SubspaceBasis:
    """The window part of Id_G(alg), exactly: the polynomials of the window
    that vanish on every homogeneous assignment.

    Scaling a variable v by λ in GF(q)^* multiplies the multidegree-m part of
    a polynomial by λ^m_v, and λ^m_v depends on m_v mod (q - 1) only.  So
    group the window's Lyndon monomials into classes by their degrees mod
    (q - 1), one per variable: by the orthogonality of the characters of
    (GF(q)^*)^N, a polynomial vanishes on every assignment if and only if
    each class component does.

    A class component vanishes everywhere if and only if it vanishes on a
    grid: a product of one set of points per variable v, chosen from v's cap
    in the window (its largest degree in a monomial):
    - cap 1: the basis vectors of v's homogeneous part (basis_batch);
    - cap 0, so that no monomial uses v, or a homogeneous part of
      dimension 0: 0 alone;
    - any other cap: 0 and one representative of each line through 0
      (projective_batch).
    Fix every variable but v.  At cap <= 1 each monomial has degree 0 or 1
    in v, and as q >= 5 these lie in different classes mod q - 1.  So a
    class component is either constant in v, or linear in v, since a Lie
    monomial of degree 1 in v is linear in v.  Either way it vanishes for
    every v if it does on a basis, or at 0 when the part is 0.  At any
    other cap it scales by a nonzero factor when a nonzero value of v is
    scaled, so it vanishes for every v if it does at 0 and on the
    representatives.  Widening the grid to the whole homogeneous part one
    variable at a time, each step keeps the component vanishing.

    The kernel is the direct sum of the class kernels: the evaluation rows
    on the grid, restricted to each class's columns in turn, go into one
    running RREF.

    settings.budget caps the grid points (BudgetExceeded beyond).
    """
    spec = alg.spec
    if ambient.dim == 0:
        return SubspaceBasis.zero(spec, 0)
    variables = list(ambient.variables)
    caps = ambient.caps()

    def points(v):
        if caps[v] > 1:
            return projective_batch(alg, v.parity)
        if caps[v] and alg.homogeneous_indices(v.parity):
            return basis_batch(alg, v.parity)
        return np.zeros((1, alg.dim), dtype=np.int64)

    domains = _domains(alg, variables, graded=True, points=points)
    total = math.prod(map(_domain_size, domains))
    if total > settings.budget:
        raise BudgetExceeded(
            f"identity space needs {total} grid points (budget {settings.budget})")
    classes: dict = {}
    for j, w in enumerate(ambient.monomials):
        key = tuple(w.count(v) % (spec.q - 1) for v in variables)
        classes.setdefault(key, np.zeros(ambient.dim, dtype=bool))[j] = True

    # the running RREF of all evaluation rows; chunks are reduced into it
    # block by block, because eliminating a whole chunk at once raises the
    # memory peak by several of its copies
    reduced = np.zeros((0, ambient.dim), dtype=np.int64)
    pivots: list[int] = []
    for done in range(0, total, _CHUNK):
        stop = min(done + _CHUNK, total)
        assignment = _assignment_slice(domains, done, stop)
        cols = [word_tree_batch_evaluate(w, alg, assignment) for w in ambient.monomials]
        values = np.stack(cols, axis=2).reshape(-1, ambient.dim)
        for mask in classes.values():
            rows = values * mask
            rows = rows[rows.any(axis=1)]
            for start in range(0, len(rows), _REDUCE_BLOCK):
                reduced, pivots = rref_codes(
                    spec, np.concatenate([reduced, rows[start:start + _REDUCE_BLOCK]]))
        if len(pivots) == ambient.dim:
            break  # full rank: no row can shrink the kernel further
    return SubspaceBasis(spec, ambient.dim, kernel_codes(spec, reduced, pivots))


# ---------------------------------------------------------------------------
# consequence spans
# ---------------------------------------------------------------------------


def _instance_fits(form, mds, caps: dict, max_total: int) -> bool:
    """Would substituting images of these multidegrees, one per variable of
    a generator, stay within the degree caps?  form is the generator's
    freelie.degree_form over its variables, and a monomial's degree bound is
    its multidegree, so this is decided without building the instance or
    walking the generator: the tuple is rejected at the first vector of the
    form whose total exceeds max_total, else at the first whose sum for a
    variable of the images exceeds that variable's cap."""
    if _form_exceeds(form, [md.total for md in mds], max_total):
        return False
    counts = [dict(md.counts) for md in mds]
    return not any(_form_exceeds(form, [c.get(u, 0) for c in counts], caps.get(u, 0))
                   for u in dict.fromkeys(u for c in counts for u in c))


def _form_exceeds(form, leaf, cap: int) -> bool:
    """Does some vector of the form, weighted by leaf, exceed cap?"""
    return any(sum(map(operator.mul, t, leaf)) > cap for t in form)


def _rows_vanishing_on(spec: FieldSpec, rows: np.ndarray, head: int) -> np.ndarray:
    """RREF codes of the combinations of rows whose first head columns
    vanish, without those columns: the rows of the RREF whose pivot lies
    past the head."""
    reduced, pivots = rref_codes(spec, rows)
    return reduced[np.array(pivots, dtype=int) >= head, head:]


def _instances(lie: TruncatedLieAlgebra, gen, gvars, caps: dict, max_total: int):
    """The images of gen's variables in every instance that fits the box, as
    the L_box column and the scalar code of each variable's image: two (N,
    len(gvars)) arrays."""
    form = degree_form(gen, gvars)
    picks = []
    # every image has a total degree bound of at least 1
    if not _form_exceeds(form, [1] * len(gvars), max_total):
        pools = []  # per variable: its candidate blocks and scalar codes
        for v, residues in zip(gvars, degree_residues(gen, gvars, lie.spec)):
            pools.append(([i for i, md in enumerate(lie.multidegrees)
                           if v.parity in (None, md.parity)],
                          [1] if len(residues) == 1 else range(1, lie.spec.q)))
        for blocks in itertools.product(*(b for b, _ in pools)):
            if _instance_fits(form, [lie.multidegrees[i] for i in blocks], caps, max_total):
                picks.extend(itertools.product(*(
                    itertools.product(range(lie.blocks[i].start, lie.blocks[i].stop), codes)
                    for i, (_, codes) in zip(blocks, pools))))
    picks = np.array(picks, dtype=np.int64).reshape(len(picks), len(gvars), 2)
    return picks[:, :, 0], picks[:, :, 1]


def _unit_rows(dim: int, columns: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Row r holds codes[r] at columns[r] and zeros elsewhere."""
    rows = np.zeros((len(columns), dim), dtype=np.int64)
    rows[np.arange(len(columns)), columns] = codes
    return rows


def _letter_map(lie: TruncatedLieAlgebra, v):
    """ad_v as the closure applies it: (order, head, ad) with ad from
    lie.letter_ad(v), and order the columns of the blocks whose bracket with
    v leaves the box, head of them, followed by those of ad's blocks.  v's
    own block is in neither part, since [v, v] = 0."""
    ad = lie.letter_ad(v)
    columns = np.arange(lie.dim)
    kept = [columns[lie.blocks[i]] for i, _, _ in ad]
    leaves = np.ones(lie.dim, dtype=bool)
    leaves[np.concatenate([columns[lie.blocks[lie.multidegrees.index(MultiDegree.of({v: 1}))]],
                           *kept])] = False
    return np.concatenate([columns[leaves], *kept]), int(leaves.sum()), ad


def _ad_image(spec: FieldSpec, lie: TruncatedLieAlgebra, span: np.ndarray, letter) -> np.ndarray:
    """[c, v] for a basis of the combinations c of span whose bracket with
    the letter v stays in the box, block by block (letter from _letter_map)."""
    order, head, ad = letter
    combos = _rows_vanishing_on(spec, span[:, order], head)
    image = np.zeros((len(combos), lie.dim), dtype=np.int64)
    col = 0
    for _, k, matrix in ad:
        image[:, lie.blocks[k]] = matmul_codes(spec, combos[:, col:col + len(matrix)], matrix)
        col += len(matrix)
    return image


_SPAN_CELLS = 1 << 20  # rows times box dimension of one batch of instances


def consequence_span(spec: FieldSpec, gens, ambient: AmbientSpace,
                     target: int | None = None) -> SubspaceBasis:
    """A lower bound of the verbal ideal of gens inside the window.

    The search runs in L_box, the free Lie algebra on the window's variables
    modulo every multidegree over the window's per-variable caps or total
    degree: those span an ideal, so the box's Lyndon monomials are a basis
    of the quotient (freelie.TruncatedLieAlgebra, one block of codes per
    multidegree).  The blocks outside the window come first.

    1. A variable's images are the Lyndon monomials of the box with its
       parity, as unit code rows of L_box, each times every nonzero scalar,
       or times 1 alone when the variable's degrees in the generator share
       one residue mod q - 1 (freelie.degree_residues): scaling its image
       then only scales the instance.  Sums of monomials are not
       substituted, which is exact for a variable the generator is linear
       in and a lower bound otherwise.  No zero image is substituted either:
       f(.., 0, ..) is the sum of the components of f that lack the
       variable, 0 when there are none.  Among the built-in generators only
       sem1_graded and sem2_graded have such components, and their degree
       bound is >= q^2 + 3: below that total degree the skip of step 2
       drops them whole, so no instance is lost.
    2. Each generator's degree bound is compiled once per call into its
       degree form (freelie.degree_form): multiplicity vectors whose
       maximum, weighted by the image bounds, is the bound of the instance.
       A generator over the window's total degree at image bounds 1, the
       least, is skipped.  Otherwise the tuples of multidegrees, one per
       variable, are walked (a monomial's degree bound is its multidegree),
       and a tuple is rejected at the first vector of the form whose
       weighted sum exceeds the window's total degree or a cap.
    3. All instances of a generator's passing tuples are evaluated together
       in L_box (batch_evaluate, in batches of at most _SPAN_CELLS codes).
       The value is the expansion of the instance truncated to the box,
       which the prune makes the whole expansion.
    4. The row space is closed under ad_v for each window variable v, until
       the rank stops growing.  Each round brackets with v every combination
       of the span whose bracket stays in the box.  [m, v] has the
       multidegree of m plus one v, so such a combination is one whose
       components at the multidegrees that would leave the box vanish:
       ad_v is injective on every multidegree but that of v alone (the
       centralizer of a letter in the free Lie algebra is its span), and
       distinct multidegrees stay distinct.  Components outside the box are
       never dropped: over GF(q) the identities are not closed under
       multihomogeneous components, so a truncated bracket need not be a
       consequence.  ad_v maps each block into one other block, so the
       bracket is taken block by block (TruncatedLieAlgebra.letter_ad).
    5. The result is the part of the closure inside the window: with the
       blocks outside the window first, the rows of the closure's RREF
       whose pivot lies inside it.  With target given, the closure stops
       as soon as that part has dimension target.  basis_check passes the
       dimension of the identity space, which holds the window part of the
       full closure; a part of that dimension is then all of it.

    The closure contains every left-normed extension of every instance that
    stays in the window, since the verbal ideal is closed under brackets with
    variables and under linear combinations.

    basis_check compares the result with the exact identity space and
    raises TheoremViolation on a consequence that is not an identity.
    """
    if not ambient.dim:
        return SubspaceBasis.zero(spec, 0)
    caps = ambient.caps()
    max_total = ambient.max_total
    inside = set(ambient.multidegrees)
    lie = TruncatedLieAlgebra(spec, [
        *(md for md in _box_multidegrees(caps) if md.total <= max_total and md not in inside),
        *ambient.multidegrees])
    head = lie.dim - ambient.dim

    rows = [np.zeros((0, lie.dim), dtype=np.int64)]
    step = max(1, _SPAN_CELLS // lie.dim)
    for gen in gens:
        gvars = expr_variables(gen)
        columns, codes = _instances(lie, gen, gvars, caps, max_total)
        for start in range(0, len(columns), step):
            part = slice(start, start + step)
            rows.append(batch_evaluate(gen, lie, {
                v: _unit_rows(lie.dim, columns[part, i], codes[part, i])
                for i, v in enumerate(gvars)}))
    span, pivots = rref_codes(spec, np.concatenate(rows))

    letters = [_letter_map(lie, v) for v in ambient.variables if caps[v]]
    while target is None or sum(p >= head for p in pivots) < target:
        grown, grown_pivots = rref_codes(spec, np.concatenate(
            [span, *(_ad_image(spec, lie, span, letter) for letter in letters)]))
        if len(grown) == len(span):
            break
        span, pivots = grown, grown_pivots
    return SubspaceBasis(spec, ambient.dim, span[np.array(pivots, dtype=int) >= head, head:])


# ---------------------------------------------------------------------------
# basis check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowRecord:
    label: str
    ambient_dim: int
    id_dim: int
    cons_dim: int
    status: str  # equal | strict-inclusion | inconclusive
    witness: str | None = None


@dataclass(frozen=True)
class BasisCheckReport:
    algebra_name: str
    soundness: tuple  # tuple[(str, CheckReport)]
    windows: tuple  # tuple[WindowRecord]
    verdict: str  # all-equal | refuted | strict-inclusion | inconclusive

    @property
    def ok(self) -> bool:
        return self.verdict == "all-equal"


def basis_check(alg: GradedLieAlgebra, gens, windows,
                gen_labels=None,
                check_settings: CheckSettings = CheckSettings()) -> BasisCheckReport:
    """Soundness first (every generator must hold on every graded
    assignment, by check_identity), then a window-by-window comparison of
    identity space and consequence span.  gen_labels, when given, names each
    generator (ValueError unless there is one label per generator).

    check_settings bounds both the soundness checks (rows evaluated) and the
    identity spaces (the points of identity_space's grid, where a variable
    of degree <= 1 takes at most 0 and a basis of its part).  A window whose
    identity space needs more grid points is recorded as inconclusive, with
    the budget message as its witness.  A consequence that is not an
    identity raises TheoremViolation.

    The consequence span is a subspace of the identity space once that
    containment holds, so the span stops at the identity space's dimension
    (consequence_span's target), and is not searched at all when that
    dimension is 0.  Either way the span found is the same subspace.
    """
    labels = [f"gen{i + 1}" for i in range(len(gens))] if gen_labels is None else list(gen_labels)
    if len(labels) != len(gens):
        raise ValueError(f"{len(labels)} labels for {len(gens)} generators")
    soundness = []
    refuted = False
    for label, gen in zip(labels, gens):
        report = check_identity(gen, alg, graded=True, settings=check_settings)
        soundness.append((label, report))
        if not report.holds:
            refuted = True
    records = []
    if not refuted:
        for window in windows:
            try:
                ids = identity_space(alg, window, check_settings)
                cons = (consequence_span(alg.spec, gens, window, ids.dim) if ids.dim
                        else SubspaceBasis.zero(alg.spec, window.dim))
            except BudgetExceeded as exc:
                records.append(WindowRecord(window.label, window.dim, -1, -1,
                                            "inconclusive", str(exc)))
                continue
            if not ids.contains_space(cons):
                raise TheoremViolation(
                    f"window {window.label}: a consequence vector is not an identity")
            if ids == cons:
                records.append(WindowRecord(window.label, window.dim,
                                            ids.dim, cons.dim, "equal"))
            else:
                missing = next(r for r in ids.rows if not cons.contains(r))
                poly = window.poly_of(alg.spec, missing)
                records.append(WindowRecord(
                    window.label, window.dim, ids.dim, cons.dim,
                    "strict-inclusion", str(poly)))
    if refuted:
        verdict = "refuted"
    elif any(r.status == "inconclusive" for r in records):
        verdict = "inconclusive"
    elif any(r.status == "strict-inclusion" for r in records):
        verdict = "strict-inclusion"
    else:
        verdict = "all-equal"
    return BasisCheckReport(alg.name, tuple(soundness), tuple(records), verdict)
