"""Z2-gradings of M2(F) (associative) and sl2(F) (Lie) over small finite
fields F = GF(q): enumeration through involutive automorphisms,
classification up to graded isomorphism, the unit-component criterion, and
the recognition of the natural grading of sl2.

In characteristic != 2 every Z2-grading is the eigensplit of the involutive
automorphism that negates the odd part, so enumeration reduces to finding
involutions: conjugations g with g^2 scalar for M2, from the conjugation
list algebra.m2_automorphisms (which identities restricts to sl2 for its
orbit tables), and bracket-compatible invertible 3x3 matrices for sl2, found
by a scan over the pairs of ad-nilpotent images of e and f.  That scan is
still exhaustive, as every automorphism maps the ad-nilpotent e and f to
ad-nilpotent elements; the full automorphism list doubles as the isomorphism
group for orbit classification, with no reliance on Aut = PGL2 as an input
fact.

Everything here runs on int64 arrays of element codes, and computes in
GF(q) only through BatchField, linalg.matmul_codes and linalg.rref_stack: the
scan, the eigensplits (the images of phi + I and phi - I of all involutions
phi, reduced in one rref_stack), the orbits (a map list is applied to
all rows of a subspace at once, and the whole stack of images is reduced in
one rref_stack), the split checks (one rref_stack of [basis | all n^2
products of the basis]^T per dims class proves every split of an
enumeration, and yields each grading's structure constants in its
homogeneous basis even + odd), the q-power check (one matrix
ad(x)^q - ad(x) for the even basis vector x) and the search for an isomorphism to the
natural grading (the even row times every map, then the odd rows times the
maps that keep the even row in F.h).
FieldElement appears only in remark_boboc, which keeps scalar brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .algebra import SL2_BASIS, GradedLieAlgebra, _m2_mult, gl2, m2_automorphisms, sl2
from .errors import SpecError, TheoremViolation
from .fields import FieldElement, FieldSpec, batch_field, find_nonsquare
from .freelie import zyq_zy
from .identities import check_identity
from .linalg import (MatrixGF, SubspaceBasis, _as_codes, grid_codes, matmul_codes, row_keys,
                     rref_stack)

_SCAN_ROWS = 1 << 14  # candidate (phi(e), phi(f)) pairs per block of the sl2 scan
_NATURAL_ROWS = ([[1, 0, 0]], [[0, 1, 0], [0, 0, 1]])  # RREF parts of the natural grading


@lru_cache(maxsize=None)
def _parent_algebra(spec: FieldSpec, kind: str) -> GradedLieAlgebra:
    if kind == "m2":
        return gl2(spec)
    if kind == "sl2":
        return sl2(spec)
    raise SpecError(f"unknown grading parent {kind!r}")


def _key(even: np.ndarray, odd: np.ndarray):
    return tuple(tuple(map(tuple, part.tolist())) for part in (even, odd))


_LIE_PAIRS = ((0, 0), (0, 1), (1, 1))  # [odd, even] follows by antisymmetry
_ASSOC_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _split_products(spec: FieldSpec, evens: np.ndarray, odds: np.ndarray, mult, pairs):
    """(constants, respects) for a (B, de, n) stack of even and a (B, do, n)
    stack of odd parts, de + do = n, under a bilinear product mult.  One
    rref_stack of [basis | all n^2 products of the basis]^T, basis = even +
    odd, proves each basis one of F^n (SpecError if not) and gives
    constants[b, i, j], the coordinates of b_i b_j in it; respects[b] says
    whether the products of each listed pair (g, h) of parts lie in R_{g+h}."""
    basis = np.concatenate([evens, odds], axis=1)
    items, n = basis.shape[:2]
    if n != basis.shape[2]:
        raise SpecError("even and odd parts do not split the algebra")
    left, right = np.repeat(basis, n, axis=1), np.tile(basis, (1, n, 1))
    products = mult(left.reshape(-1, n), right.reshape(-1, n)).reshape(items, n * n, n)
    reduced, _ = rref_stack(spec, np.concatenate([basis, products], axis=1).transpose(0, 2, 1))
    if (reduced[:, :, :n] != np.eye(n, dtype=np.int64)).any():
        raise SpecError("even and odd parts do not split the algebra")
    constants = reduced[:, :, n:].reshape(items, n, n, n).transpose(0, 2, 3, 1)
    part = (slice(0, evens.shape[1]), slice(evens.shape[1], n))
    wrong = [constants[:, part[g], part[h], part[(g + h + 1) % 2]] for g, h in pairs]
    return constants, ~np.any([w.any(axis=(1, 2, 3)) for w in wrong], axis=0)


def _respects_degrees(even: SubspaceBasis, odd: SubspaceBasis, mult, pairs) -> bool:
    """Whether mult(R_g, R_h) lies in R_{g+h} for each listed pair (g, h) of parts
    of dimensions adding up to n: _split_products on a stack of one."""
    return bool(_split_products(even.spec, even.rows[None], odd.rows[None], mult, pairs)[1][0])


@dataclass(frozen=True)
class GradingDescriptor:
    """An even/odd split of M2 (as Lie algebra) or sl2, validated as a Lie
    grading; constants, the parent's structure constants in the homogeneous
    basis even + odd, come out of that check."""

    parent_kind: str  # "m2" | "sl2"
    spec: FieldSpec
    even: SubspaceBasis
    odd: SubspaceBasis
    origin: str
    constants: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # the check of a stack of one
        checked = self.checked_stack(self.parent_kind, self.spec, [(self.even, self.odd)], "")
        object.__setattr__(self, "constants", checked[0].constants)

    @classmethod
    def checked_stack(cls, kind: str, spec: FieldSpec, splits, origin: str) -> list:
        """One descriptor per (even, odd) SubspaceBasis pair of a list of one
        dims class, all checked as Lie gradings of the parent in one
        _split_products; SpecError if any split fails."""
        parent = _parent_algebra(spec, kind)
        if any(s.spec != spec or s.ambient_dim != parent.dim for split in splits for s in split):
            raise SpecError("grading subspaces have the wrong field or ambient dimension")
        if any(e.dim + o.dim != parent.dim or e.dim != splits[0][0].dim for e, o in splits):
            raise SpecError("even and odd parts do not split the algebra")
        if not splits:
            return []
        evens, odds = (np.stack([s.rows for s in part]) for part in zip(*splits))
        constants, respects = _split_products(spec, evens, odds, parent.batch_bracket, _LIE_PAIRS)
        if not respects.all():
            raise SpecError("bracket closure fails for the split")
        out = [object.__new__(cls) for _ in splits]  # filled as __init__ would, checked
        for d, (even, odd), c in zip(out, splits, constants):
            d.__dict__.update(parent_kind=kind, spec=spec, even=even, odd=odd, origin=origin,
                              constants=c)
        return out

    def key(self):
        return _key(self.even.rows, self.odd.rows)

    def dims(self):
        return (self.even.dim, self.odd.dim)

    def __repr__(self):
        return (f"<grading of {self.parent_kind} over GF({self.spec.q}): "
                f"dims {self.dims()}, from {self.origin}>")


def descriptor_to_algebra(d: GradingDescriptor) -> GradedLieAlgebra:
    """The parent Lie algebra in the homogeneous basis, from d.constants."""
    degrees = (0,) * d.even.dim + (1,) * d.odd.dim
    alg = GradedLieAlgebra(d.spec, degrees, d.constants, f"{d.parent_kind}[{d.origin}]")
    report = alg.validate()
    if not report.ok:
        raise SpecError(f"descriptor does not define a graded algebra: {report.failing()}")
    return alg


# ---------------------------------------------------------------------------
# automorphism enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def sl2_automorphisms(spec: FieldSpec) -> np.ndarray:
    """All invertible 3x3 matrices over GF(q) commuting with the sl2 bracket,
    sorted, as a read-only (N, 3, 3) int64 array whose column i is the image
    of b_i; N = |PGL2(q)| = q(q^2 - 1).

    The scan is exhaustive over the (q^2 - 1)^2 pairs (phi(e), phi(f)) of
    nonzero ad-nilpotent elements, taken _SCAN_ROWS pairs at a time so that
    its memory does not grow with q.  It misses no automorphism:
    ad_phi(x) = phi ad_x phi^-1, so phi maps the ad-nilpotent e and f to
    ad-nilpotent elements, and a h + b e + c f is ad-nilpotent exactly when
    a^2 + bc = 0 (the matrix squares to (a^2 + bc) I, and ad of a matrix with
    eigenvalues +-l != 0 has the eigenvalue 2l != 0).  As [e, f] = h,
    phi(h) := [phi(e), phi(f)]; a candidate is kept when it respects [h, e]
    and [h, f] and has rank 3.  [e, f] then holds by construction, and the
    remaining brackets follow by antisymmetry.
    """
    bf = batch_field(spec)
    alg = _parent_algebra(spec, "sl2")
    nonzero = grid_codes(spec, 3)[1:]
    a, b, c = nonzero.T
    nilpotent = nonzero[bf.add(bf.mul(a, a), bf.mul(b, c)) == 0]
    k = len(nilpotent)
    found = []
    for start in range(0, k * k, _SCAN_ROWS):
        pair = np.arange(start, min(start + _SCAN_ROWS, k * k))
        m = np.empty((len(pair), 3, 3), dtype=np.int64)
        m[:, :, 1], m[:, :, 2] = nilpotent[pair // k], nilpotent[pair % k]
        m[:, :, 0] = alg.batch_bracket(m[:, :, 1], m[:, :, 2])
        for j in (1, 2):  # phi([h, b_j]) = [phi(h), phi(b_j)], [h, b_j] = constants[0, j]
            m = m[(matmul_codes(spec, m, alg.constants[0, j, :, None])[:, :, 0]
                   == alg.batch_bracket(m[:, :, 0], m[:, :, j])).all(axis=1)]
        found.append(m[rref_stack(spec, m)[1] == 3])
    out = np.concatenate(found, axis=0)
    out = out[np.lexsort(tuple(out.reshape(len(out), 9).T[::-1]))]
    out.flags.writeable = False  # the cached array is shared by every caller
    return out


# ---------------------------------------------------------------------------
# grading enumeration
# ---------------------------------------------------------------------------


def _involution_splits(spec: FieldSpec, kind: str, maps: np.ndarray):
    """The eigensplit of every involution in a list of distinct maps (an
    involution is determined by its split, so the splits are distinct too).
    In characteristic != 2, ker(phi - I) = im(phi + I) and ker(phi + I) =
    im(phi - I): the even and odd parts are the row spaces of (phi + I)^T and
    (phi - I)^T, all reduced in one rref_stack.  The splits of each dims
    class are then checked together, by GradingDescriptor.checked_stack."""
    bf, n = batch_field(spec), maps.shape[1]
    eye = np.eye(n, dtype=np.int64)
    phis = maps[(matmul_codes(spec, maps, maps) == eye).all(axis=(1, 2))].transpose(0, 2, 1)
    reduced, ranks = rref_stack(spec, np.concatenate([bf.add(phis, eye), bf.sub(phis, eye)]))
    parts = [SubspaceBasis(spec, n, rows[:rank]) for rows, rank in zip(reduced, ranks)]
    classes = {}
    for even, odd in zip(parts[:len(phis)], parts[len(phis):]):
        classes.setdefault((even.dim, odd.dim), []).append((even, odd))
    return [d for splits in classes.values()
            for d in GradingDescriptor.checked_stack(kind, spec, splits, "involution")]


def enumerate_z2_gradings(target: str, spec: FieldSpec):
    """All Z2-gradings of the target, one descriptor per distinct split.

    target "m2_assoc": gradings of M2 as associative algebra, via the
    involutions among the conjugations of M2 (g^2 scalar).  target
    "sl2_lie": gradings of sl2 as Lie algebra, via the involutions in the
    brute-forced automorphism list.  The trivial grading (odd = 0) arises
    from the identity automorphism.
    """
    kind = {"m2_assoc": "m2", "sl2_lie": "sl2"}.get(target.lower().replace("-", "_"))
    if kind is None:
        raise SpecError(f"unknown grading target {target!r}")
    maps = m2_automorphisms(spec) if kind == "m2" else sl2_automorphisms(spec)
    descriptors = _involution_splits(spec, kind, maps)
    descriptors.sort(key=lambda d: (-d.even.dim, d.key()))
    return descriptors


def reference_m2_descriptors(spec: FieldSpec):
    """The three displayed M2 gradings: trivial, diagonal/off-diagonal, and
    the nonsquare one for b' = find_nonsquare."""
    b = find_nonsquare(spec).code
    splits = (("trivial", np.eye(4, dtype=np.int64), []),
              ("diagonal", [[1, 0, 0, 0], [0, 0, 0, 1]], [[0, 1, 0, 0], [0, 0, 1, 0]]),
              (f"nonsquare(b'={b})", [[1, 0, 0, 1], [0, 1, b, 0]], [[1, 0, 0, -1], [0, 1, -b, 0]]))
    return [GradingDescriptor("m2", spec, SubspaceBasis(spec, 4, even), SubspaceBasis(spec, 4, odd),
                              f"reference-{name}") for name, even, odd in splits]


def natural_sl2_descriptor(spec: FieldSpec) -> GradingDescriptor:
    even, odd = (SubspaceBasis.from_vectors(spec, 3, rows) for rows in _NATURAL_ROWS)
    return GradingDescriptor("sl2", spec, even, odd, "reference-natural")


def _lifted_parts(d: GradingDescriptor, unit_in_even: bool):
    """The parts of an sl2 grading carried into gl2, the identity matrix added to one."""
    embed = _as_codes(d.spec, SL2_BASIS)  # rows h, e, f as 2x2 matrices
    parts = [matmul_codes(d.spec, s.rows, embed) for s in (d.even, d.odd)]
    parts[not unit_in_even] = np.concatenate([parts[not unit_in_even], [[1, 0, 0, 1]]])
    return tuple(SubspaceBasis(d.spec, 4, rows) for rows in parts)


def lift_sl2_grading_to_gl2(d: GradingDescriptor, unit_in_even: bool) -> GradingDescriptor:
    """Extend an sl2 grading to gl2 by placing the identity matrix in the
    even (the paper's move) or the odd part (a Lie-legal control that can
    never be an associative grading)."""
    if d.parent_kind != "sl2":
        raise SpecError("lift expects an sl2 grading")
    return GradingDescriptor("m2", d.spec, *_lifted_parts(d, unit_in_even),
                             f"lift[{d.origin}, 1 in {'even' if unit_in_even else 'odd'}]")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradingClass:
    representative: GradingDescriptor
    size: int
    even_dim: int
    odd_dim: int
    zyq_identity_holds: bool


def _image_stacks(d: GradingDescriptor, maps: np.ndarray):
    """The reduced rows of phi(even) and phi(odd) for every map phi, in map
    order, as two (N, dim, n) stacks: all maps are applied at once, and each
    stack of images is reduced in one rref_stack (the maps are invertible,
    so every image keeps the dimension of its part)."""
    return tuple(rref_stack(d.spec, matmul_codes(d.spec, s.rows, maps.transpose(0, 2, 1)))[0]
                 for s in (d.even, d.odd))


def classify_up_to_iso(gradings) -> list:
    """Group descriptors into orbits of the parent automorphism group.

    One orbit is computed per class; its minimum key is the class label of
    every listed member in it (the map lists are groups).  The orbit's
    images and the members are compared as flattened code rows, in one
    np.unique per class.  Each class carries separating certificates: part
    dimensions and whether [z1, y1^q] = [z1, y1] holds as a graded identity
    of the representative.
    """
    if not gradings:
        return []
    spec, kind = gradings[0].spec, gradings[0].parent_kind
    if any(d.spec != spec or d.parent_kind != kind for d in gradings):
        raise SpecError("classification needs a homogeneous descriptor list")
    maps = m2_automorphisms(spec) if kind == "m2" else sl2_automorphisms(spec)
    labels = [None] * len(gradings)
    for first, d in enumerate(gradings):
        if labels[first] is not None:
            continue
        # flattened rows compare as their keys do: low is the least key
        images = np.concatenate([s.reshape(len(maps), -1) for s in _image_stacks(d, maps)],
                                axis=1)
        unlabelled = [i for i, e in enumerate(gradings)
                      if labels[i] is None and e.dims() == d.dims()]
        members = [np.concatenate([gradings[i].even.rows.ravel(), gradings[i].odd.rows.ravel()])
                   for i in unlabelled]
        _, inverse = np.unique(row_keys(np.concatenate([images, members])), return_inverse=True)
        low = images[inverse[:len(images)].argmin()]
        cut = d.even.rows.size
        low = _key(low[:cut].reshape(d.even.rows.shape), low[cut:].reshape(d.odd.rows.shape))
        for i, hit in zip(unlabelled, np.isin(inverse[len(images):], inverse[:len(images)])):
            if hit:
                labels[i] = low
    classes = {}
    for d, label in zip(gradings, labels):
        classes.setdefault(label, []).append(d)
    out = []
    for members in classes.values():
        rep = min(members, key=lambda d: d.key())
        holds = check_identity(zyq_zy(spec.q), descriptor_to_algebra(rep), graded=True).holds
        out.append(GradingClass(rep, len(members), rep.even.dim, rep.odd.dim, holds))
    out.sort(key=lambda c: (-c.even_dim, c.representative.key()))
    return out


# ---------------------------------------------------------------------------
# unit component criterion
# ---------------------------------------------------------------------------


def associative_closure_ok(d: GradingDescriptor) -> bool:
    """Is the split multiplicative (R_g . R_h inside R_{g+h} for all four
    part pairs)?  One batch of products and one elimination."""
    if d.parent_kind != "m2":
        raise SpecError("associative closure only makes sense inside M2")
    return _respects_degrees(d.even, d.odd, partial(_m2_mult, d.spec), _ASSOC_PAIRS)


def unit_component_check(d: GradingDescriptor) -> bool:
    """Whether the identity matrix lies in the even part.

    By the unit-component criterion this is equivalent, for a Lie-compatible
    split of M2, to the split being an associative grading; the equivalence
    is recomputed here and enforced.
    """
    if d.parent_kind != "m2":
        raise SpecError("unit component check needs an M2 grading")
    in_even = d.even.contains([1, 0, 0, 1])
    assoc = associative_closure_ok(d)
    if in_even != assoc:
        raise TheoremViolation(
            f"unit-component criterion failed for {d!r}: 1 in even = {in_even}, "
            f"associative closure = {assoc}")
    return in_even


# ---------------------------------------------------------------------------
# recognition of the natural grading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaturalVerdict:
    hypotheses_hold: bool
    failing: str | None
    witness: str | None
    isomorphism: MatrixGF | None


def _qpower_hypothesis(d: GradingDescriptor):
    """[a, c^q] = [a, c] for all homogeneous a odd and c in F.1 + even,
    computed inside gl2; the witness is the first failing pair (a, c) in
    vectors() order, a changing slowest.

    The identity is linear in c.  Write c = s.1 + t.x with F.x the even part:
    the identity is central, so ad_c = t ad_x, and t^q = t in GF(q), so
    [a, c^q] - [a, c] = t (a ad_x^q - a ad_x).  A pair (a, c) thus fails
    exactly when t != 0 and a (ad_x^q - ad_x) != 0, which is computed in
    sl2 with one 3x3 matrix, ad_x raised to q by squaring.  The failing
    pairs are those of the odd a that fail with any c that is not a scalar;
    the first of them is (the first failing a, c*), c* the first such c.  The
    gl2 lift only formats that witness."""
    spec, x = d.spec, d.even.rows
    once, power = _parent_algebra(spec, "sl2")._ad_power_matrices(x, (1, spec.q))
    failing = matmul_codes(spec, d.odd.vectors(), batch_field(spec).sub(power, once)[0])
    failing = np.flatnonzero(failing.any(axis=1))
    if not failing.size:
        return None
    even, odd = _lifted_parts(d, unit_in_even=True)
    c = even.vectors()
    c_star = c[(c[:, 1:3] != 0).any(axis=1) | (c[:, 0] != c[:, 3])][0]
    return f"a = {tuple(odd.vectors()[failing[0]].tolist())}, c = {tuple(c_star.tolist())}"


def natural_characterization(d: GradingDescriptor) -> NaturalVerdict:
    """Check the two recognition hypotheses (1-dimensional even part and the
    q-power identity over F.1 + even) and, when they hold, produce an explicit
    graded automorphism carrying the grading to the natural one, raising
    TheoremViolation if there is none."""
    if d.parent_kind != "sl2":
        raise SpecError("natural characterization applies to sl2 gradings")
    spec = d.spec
    if d.even.dim != 1:
        return NaturalVerdict(False, "dim-even", f"dim even = {d.even.dim}", None)
    witness = _qpower_hypothesis(d)
    if witness is not None:
        return NaturalVerdict(False, "q-power", witness, None)
    # the maps are invertible, so phi carries the grading to the natural one
    # exactly when it maps the even row into F.h and the odd rows into F.e + F.f
    maps = sl2_automorphisms(spec).transpose(0, 2, 1)  # phi^T maps code rows
    maps = maps[~matmul_codes(spec, d.even.rows, maps)[:, 0, 1:].any(axis=1)]
    hits = np.flatnonzero(~matmul_codes(spec, d.odd.rows, maps)[:, :, 0].any(axis=1))
    if not hits.size:
        raise TheoremViolation(
            f"hypotheses hold for {d!r} but no graded isomorphism to the "
            "natural grading exists")
    return NaturalVerdict(True, None, None, MatrixGF.from_rows(spec, maps[hits[0]].T))


# ---------------------------------------------------------------------------
# the nonsquare remark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BobocReport:
    bprime: FieldElement
    lhs: tuple
    rhs: tuple
    differ: bool
    control_b: FieldElement
    control_equal: bool


def remark_boboc(spec: FieldSpec) -> BobocReport:
    """[e11 - e22, (e12 + b'e21)] vs the q-fold commutator: they differ for a
    non-square b' and coincide for any square control b."""
    parent = gl2(spec)
    q = spec.q

    def both_sides(b: FieldElement):
        xmat = parent.element((1, 0, 0, -1))
        s = parent.element((0, 1, b, 0))
        lhs = parent.bracket(xmat, s)
        val = xmat
        for _ in range(q):
            val = parent.bracket(val, s)
        return lhs, val

    bprime = find_nonsquare(spec)
    lhs, rhs = both_sides(bprime)
    if lhs == rhs:
        raise TheoremViolation(f"q-fold commutator collapsed for non-square b' = {bprime}")
    control = next(e for e in spec.elements()
                   if not e.is_zero() and e.is_square())
    clhs, crhs = both_sides(control)
    if clhs != crhs:
        raise TheoremViolation(f"square control b = {control} failed to collapse")
    return BobocReport(
        bprime,
        tuple(x.code for x in lhs.coeffs),
        tuple(x.code for x in rhs.coeffs),
        True,
        control,
        True,
    )
