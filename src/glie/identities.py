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

The checks on sl2 evaluate one pair per orbit of its conjugations
(_sl2_orbits).  The conjugation list is algebra.m2_automorphisms, which the
gradings layer shares; here each map is restricted to sl2 and certified as a
Lie automorphism before the orbit tables use it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import SL2_BASIS, AlgebraElement, GradedLieAlgebra, m2_automorphisms, sl2
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
                     rref_codes, rref_stack)


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
    _box_multidegrees(caps), labelled by the caps unless a label is given.
    Caps are counts, as in MultiDegree.of: ValueError unless ints >= 0."""
    MultiDegree.of(caps)
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
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


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
                    windows.append(window_exact(MultiDegree.of(counts)))
    return windows


# ---------------------------------------------------------------------------
# assignment enumeration
# ---------------------------------------------------------------------------


def _coordinates(alg: GradedLieAlgebra, v, graded: bool) -> list:
    """The coordinates v ranges over: those of its homogeneous part in
    graded mode, which forbids x variables, and all of them otherwise."""
    if graded and v.parity is None:
        raise ParityError(f"{v} has no parity; graded mode forbids x variables")
    return alg.homogeneous_indices(v.parity) if graded else list(range(alg.dim))


def _domains(alg: GradedLieAlgebra, parts, budget: int, refusal: str, head=()):
    """(domains, rows): the joint domains of head (see _assignment_slice),
    then one per part (v, idx, top, one), and the number of rows of their
    product.  v ranges over the elements with coordinates idx, has degree
    at most top in each multihomogeneous component of the expression e, and
    one tells whether those degrees share one residue mod q - 1.  With the
    other variables fixed, v takes these rows, zero off idx:
    - at top 0, or without coordinates, 0 alone: e does not depend on v;
    - at top 1 the basis vectors, after 0 unless v has one residue: e is
      c + l(v) with l linear, and c = 0 or l = 0 with one residue, as
      q - 1 > 1;
    - with one residue r, 0 and one point per line through 0
      (projective_codes), as e(λv) = λ^r e(v) for λ in GF(q)^*;
    - otherwise every point (grid_codes).
    So e vanishes everywhere if it does on the product: widen the domains
    to the whole parts one variable at a time.  The rows are counted before
    any is built: BudgetExceeded, with refusal formatted by their number,
    when they exceed budget."""
    spec, q = alg.spec, alg.spec.q
    sizes = [1 if not top or not idx else len(idx) + (not one) if top == 1
             else 1 + (q ** len(idx) - 1) // (q - 1) if one else q ** len(idx)
             for _, idx, top, one in parts]
    total = math.prod(map(_domain_size, head)) * math.prod(sizes)
    if total > budget:
        raise BudgetExceeded(f"{refusal.format(total)} (budget {budget})")
    domains = list(head)
    for (v, idx, top, one), size in zip(parts, sizes):
        rows = np.zeros((size, alg.dim), dtype=np.int64)
        if top == 1 and idx:
            rows[size - len(idx):, idx] = np.eye(len(idx), dtype=np.int64)
        elif top and idx:
            rows[:, idx] = (projective_codes if one else grid_codes)(spec, len(idx))
        domains.append({v: rows})
    return domains, total


def _domain_size(domain: dict) -> int:
    """The number of rows of a joint domain."""
    return len(next(iter(domain.values())))


def _assignment_slice(domains, start: int, stop: int) -> dict:
    """Assignments number start..stop-1 of the cartesian product of the
    joint domains, the first slowest (itertools.product order).  A joint
    domain maps each of its variables to an array of code rows, all of one
    length: its row i assigns row i of each array."""
    sizes = [_domain_size(d) for d in domains]
    picks = np.unravel_index(np.arange(start, stop), sizes) if sizes else ()
    return {v: rows[pick] for dom, pick in zip(domains, picks) for v, rows in dom.items()}


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


_PAIR_CELLS = 1 << 14  # coordinates handled at once by _orbit_pairs


def _orbit_pairs(alg: GradedLieAlgebra, reps: np.ndarray):
    """One pair (r, s) per orbit of the conjugations of sl2 on pairs of its
    elements, with r from the table reps: two (N, 3) code arrays, by row of
    reps, then by the code of s.

    The conjugations are algebra.m2_automorphisms restricted to sl2: map j
    holds in row i the (h, e, f) coordinates of g_j b_i g_j^-1, its (e11,
    e12, e21) entries.  This raises TheoremViolation unless every map has
    rank 3 and respects the brackets [b0, b1], [b0, b2] and [b1, b2], so
    that it is a Lie automorphism; unless the images of reps under the maps
    hit all q^3 elements, so that every pair is the image of some (r, s');
    and unless each nonzero r is fixed by some map.  For r = 0, which every
    map fixes, s ranges over reps.  For a nonzero r, s is the least code
    among the images of s' under the maps that fix r, the conjugations by
    its centralizer modulo the scalars, which act trivially: one element per
    orbit.  The maps are certified and applied to reps _PAIR_CELLS // 9 at a
    time, and the images of s' computed at most _PAIR_CELLS coordinates at
    a time."""
    spec = alg.spec
    bf = batch_field(spec)
    q = spec.q
    codes = np.arange(q)
    xs = grid_codes(spec, 3)
    place = q ** np.arange(3)
    targets = reps @ place
    basis = _as_codes(spec, SL2_BASIS)
    conjugations = m2_automorphisms(spec)
    hit = np.zeros(q ** 3, dtype=bool)
    kept, owners = [], []
    used = reps.any(axis=0)  # the columns of reps that are not all 0
    step = _PAIR_CELLS // 9
    for start in range(0, len(conjugations), step):
        maps = matmul_codes(spec, basis, conjugations[start:start + step, :3].transpose(0, 2, 1))
        ok = rref_stack(spec, maps)[1] == 3
        for i, j in ((0, 1), (0, 2), (1, 2)):
            ok &= (matmul_codes(spec, alg.constants[i, j, None], maps)[:, 0]
                   == alg.batch_bracket(maps[:, i], maps[:, j])).all(axis=1)
        if not ok.all():
            raise TheoremViolation(
                f"conjugation {maps[np.argmin(ok)].tolist()} is no automorphism of sl2")
        images = place @ matmul_codes(spec, maps[:, used].transpose(0, 2, 1), reps[:, used].T)
        hit[images.ravel()] = True
        fixing, fixed = np.nonzero((images == targets) & (targets != 0))
        kept.append(maps[fixing])
        owners.append(fixed)
    if not hit.all():
        bad = xs[np.argmin(hit)].tolist()
        raise TheoremViolation(f"sl2 element {bad} is conjugate to no orbit representative")
    owners = np.concatenate(owners)
    order = np.argsort(owners, kind="stable")
    maps, owners = np.concatenate(kept)[order], owners[order]
    if not np.isin(np.flatnonzero(targets), owners).all():
        raise TheoremViolation("a nonzero orbit representative is fixed by no conjugation")
    seen = np.zeros((len(reps), q ** 3), dtype=bool)
    seen[np.flatnonzero(targets == 0)[:, None], targets] = True  # every map fixes 0
    # coordinate k of the image of x under map j is the sum over i of x_i
    # maps[j, i, k], looked up in add3 at the index that sums
    # parts[i][x_i, k * m + j] = (x_i maps[j, i, k]) q^(2 - i)
    parts = [bf.mul(codes[:, None], maps[:, i].T.reshape(1, -1)) * q ** (2 - i) for i in range(3)]
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
        seen[owners[starts], least] = True
    rows, found = np.nonzero(seen)
    return reps[rows], xs[found]


_ORBITS: dict = {}  # (spec, bytes of _orbit_representatives(spec)) -> _sl2_orbits


def _sl2_orbits(alg: GradedLieAlgebra):
    """(reps, firsts, seconds): the representatives of _orbit_representatives
    and the pair rows of _orbit_pairs, if alg has the structure constants of
    sl2, so that conjugations restrict to it; None for any other algebra.
    Both are certified once per field and representative table."""
    spec = alg.spec
    if not np.array_equal(alg.constants, _sl2_constants(spec)):
        return None
    reps = _orbit_representatives(spec)
    key = (spec, reps.tobytes())
    if key not in _ORBITS:
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
    covers (all of them), and for a refuted check the number of rows of its
    reduced domains it evaluated up to and including the first failing one."""

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

    Three exact reductions cut the rows.  In graded mode, (y_i, z_i) -> y_i +
    z_i is a bijection from the even part times the odd part onto the
    algebra, so a pair used only through that sum (_merge_pairs, as in
    sem1_graded and sem2_graded) is one variable x_i over the whole algebra.
    When every variable ranges over the whole algebra of sl2, each map phi
    of the certified conjugation list (_orbit_pairs) is an invertible Lie
    automorphism with f(phi a, phi b, ...) = phi f(a, b, ...), so f
    vanishes on an assignment exactly when it vanishes on its image.  Hence
    the first two variables need one pair per orbit of pairs (_sl2_orbits):
    a pair (a, b) is the image of some (r, b') with r one of the q + 1 orbit
    representatives, whose images cover sl2, and b' may be replaced by its
    image under any map that fixes r.  With the q(q^2 - 1) conjugations by PGL2(F) that
    leaves q + 1 elements for r = 0 and q^2 + q - 1, q^2 + 2q or q^2 for
    r = [[0, d], [1, 0]] with d zero, a nonzero square or a non-square:
    q^3 + q^2 + q rows in all for the q^6 graded assignments of
    sem*_graded.  A single variable takes the q + 1 representatives alone.
    Every other variable takes the rows of _domains for its top entry of
    freelie.degree_form and whether freelie.degree_residues finds one residue.

    The rows run over the product of the joint domains (_assignment_slice),
    _CHUNK at a time.  A check that holds reports as evaluations the number
    of assignments covered, a refuted one the number of those rows up to and
    including the first failing one, whatever the chunk size, with its
    witness re-evaluated by the scalar backend on e itself, the variables of
    merged pairs split (_witness).  An expression without variables has one
    row, the empty assignment.
    """
    variables = expr_variables(e)
    f, pairs = _merge_pairs(e, variables) if graded else (e, {})
    variables = expr_variables(f)
    coordinates = {v: _coordinates(alg, v, graded and v not in pairs) for v in variables}
    covered = math.prod(alg.spec.q ** len(idx) for idx in coordinates.values())
    orbits = (_sl2_orbits(alg) if variables and (not graded or set(variables) <= pairs.keys())
              else None)
    head = []
    if orbits is not None:
        reps, firsts, seconds = orbits
        head = ([{variables[0]: reps}] if len(variables) == 1
                else [{variables[0]: firsts, variables[1]: seconds}])
    rest = variables[sum(map(len, head)):]  # the degree analyses only run on these
    tops = dict(zip(variables, map(max, zip(*degree_form(f, variables))))) if rest else {}
    parts = [(v, coordinates[v], tops[v], len(r) == 1)
             for v, r in zip(rest, degree_residues(f, rest, alg.spec))]
    domains, total = _domains(alg, parts, settings.budget, "check needs {} evaluations", head)
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

    A class component vanishes everywhere if and only if it vanishes on the
    grid of _domains, the rows of each variable v chosen from its cap in the
    window (its largest degree in a monomial) as top degree and one residue,
    which it has within a class: 0 alone at cap 0 or on a part of dimension
    0, a basis of its homogeneous part at cap 1, and 0 and one point per
    line through 0 at any other cap.

    The kernel is the direct sum of the class kernels: the evaluation rows
    on the grid, restricted to each class's columns in turn, go into one
    running RREF.

    settings.budget caps the grid points, the rows of the product of those
    reduced domains (BudgetExceeded beyond, before any point is built).
    """
    spec = alg.spec
    if ambient.dim == 0:
        return SubspaceBasis.zero(spec, 0)
    variables = list(ambient.variables)
    caps = ambient.caps()
    parts = [(v, _coordinates(alg, v, True), caps[v], True) for v in variables]
    domains, total = _domains(alg, parts, settings.budget, "identity space needs {} grid points")
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
