"""The free Z2-graded Lie algebra on even variables y1, y2, ... and odd
variables z1, z2, ..., plus ungraded variables x1, x2, ... for ordinary
(parity-blind) identities.

Basis monomials are standard bracketings of Lyndon words under the order
y1 < y2 < ... < z1 < z2 < ... < x1 < ....  Normalization embeds bracket
expressions into the free associative algebra (where the free Lie algebra
lives as the span of Lie monomials) and peels off Lyndon terms by
triangularity; that route is canonical, so results never depend on a
rewriting order.

Expressions (LieExpr) are built from four nodes: Var, Sum, Scale and Ad.
Ad(v, w, terms) is v followed by an operator, a sum of ad powers of w:

    ((1, k),)            v -> v (ad w)^k         (k-fold [v, w, ..., w])
    ((1, a), (-1, b))    v -> v ((ad w)^a - (ad w)^b), generally any power sum

A left-normed chain [head, s1, s2, ...] with such operator slots is nested
Ad nodes (chain, with the slot builders AdPower and AdPolyDiff), which is
exactly the convention that turns the classical two-variable identities of
sl2 over GF(q) into well-formed Lie elements.

One walker, _interpret, gives expressions their meaning.  It runs over a
backend of four operations (zero, add, scale, ad_powers) plus the value of a
variable.  Three backends give values, and four analyse structure on sets:

    scalar        AlgebraElement arithmetic, repeated alg.bracket (evaluate)
    batch         BatchField code arrays and alg.batch_ad_powers (batch_evaluate),
                  where alg is a GradedLieAlgebra or a TruncatedLieAlgebra: the
                  Lyndon basis of a box of the free Lie algebra, modulo
                  everything outside it
    free algebra  dicts from words to coefficients, repeated commutators
                  (assoc_expand, expr_expand, poly_bracket)
    variables     sets of variables (expr_variables)
    parities      sets of parities of components (expr_parity, substitute)
    degree forms  sets of multiplicity vectors (degree_form, degree_bound)
    residue sets  sets of degrees mod q - 1 of one variable (degree_residues)

Besides _interpret and its _children, only replace, which rebuilds
expressions, dispatches on the node types.  The scalar backend is not a
batch of one: counterexample re-evaluation in identities and the tests use
it as a reference that shares no arithmetic with the batch backend.  Only
the walk is shared.  Likewise the free algebra backend is the tests'
reference for the batch backend over a truncated algebra.

Within one call the walker evaluates each structurally distinct
subexpression once, so chains that share leading slots share their inner
Ad node: in sem2_graded(q), x1 = y1 + z1 is summed once, not at every slot
that uses it.  Only the values asked for more than once are kept until the
call ends.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .algebra import AlgebraElement, GradedLieAlgebra, repeated_brackets
from .errors import (
    ExpansionTooLarge,
    MissingAssignment,
    NotALieElement,
    ParityError,
)
from .fields import FieldElement, FieldSpec, batch_field
from .linalg import _as_codes, matmul_codes, row_keys, row_pairs

NORMALIZE_TOTAL_CAP = 16

_KIND_RANK = {"y": 0, "z": 1, "x": 2}
_KIND_PARITY = {"y": 0, "z": 1, "x": None}


def _at_least(least: int, n, what: str) -> int:
    """n, an int or numpy integer (no bool), as an int >= least; ValueError
    for anything else."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{what} must be an int >= {least}, not {n!r}")
    return int(n)


@dataclass(frozen=True)
class Variable:
    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"variable kind must be y, z or x, not {self.kind!r}")
        _at_least(1, self.index, "a variable index")

    @property
    def parity(self):
        return _KIND_PARITY[self.kind]

    @property
    def sort_key(self):
        return (_KIND_RANK[self.kind], self.index)

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __str__(self):
        return f"{self.kind}{self.index}"

    __repr__ = __str__


def y(i: int) -> Variable:
    return Variable("y", i)


def z(i: int) -> Variable:
    return Variable("z", i)


def x(i: int) -> Variable:
    return Variable("x", i)


Word = tuple  # tuple[Variable, ...]


def word_key(word: Word):
    return tuple(v.sort_key for v in word)


def is_lyndon(word: Word) -> bool:
    """Strictly smaller than every proper rotation (hence aperiodic)."""
    n = len(word)
    if n == 0:
        return False
    k = word_key(word)
    for i in range(1, n):
        if k >= k[i:] + k[:i]:
            return False
    return True


@dataclass(frozen=True)
class MultiDegree:
    """Occurrence count per variable; the shape of a multihomogeneous component."""

    counts: tuple  # tuple[(Variable, int)], sorted by variable, counts >= 1

    @classmethod
    def of(cls, mapping) -> "MultiDegree":
        """The multidegree of a mapping from variables to counts, ints >= 0
        (ValueError otherwise); zero counts drop out."""
        items = [(v, n) for v, c in dict(mapping).items() if (n := _at_least(0, c, "a count"))]
        items.sort(key=lambda it: it[0].sort_key)
        return cls(tuple(items))

    @classmethod
    def of_word(cls, word: Word) -> "MultiDegree":
        counts: dict = {}
        for v in word:
            counts[v] = counts.get(v, 0) + 1
        return cls.of(counts)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def parity(self):
        par = 0
        for v, c in self.counts:
            if v.parity is None:
                return None
            par ^= (v.parity * c) % 2
        return par

    def variables(self):
        return [v for v, _ in self.counts]

    def __str__(self):
        return "(" + ", ".join(f"{v}:{c}" for v, c in self.counts) + ")"


def lyndon_words(md: MultiDegree):
    """All Lyndon words with the given letter content, ascending."""
    letters = []
    for v, c in md.counts:
        letters.extend([v] * c)
    out = [perm for perm in _multiset_permutations(letters) if is_lyndon(perm)]
    out.sort(key=word_key)
    return out


def _multiset_permutations(letters):
    """Distinct permutations of a small multiset."""
    letters = sorted(letters, key=lambda v: v.sort_key)
    n = len(letters)
    results = []

    def rec(remaining, acc):
        if not remaining:
            results.append(tuple(acc))
            return
        last = None
        for i, v in enumerate(remaining):
            if last is not None and v == last:
                continue
            last = v
            rec(remaining[:i] + remaining[i + 1:], acc + [v])

    rec(letters, [])
    return results


def _standard_cut(word: Word) -> int:
    """The length of u in the standard factorization w = uv, with v the
    longest proper Lyndon suffix."""
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return i
    raise NotALieElement(f"{word} is not a Lyndon word")


@lru_cache(maxsize=None)
def standard_bracketing(word: Word):
    """Right standard factorization tree: w = uv with v the longest proper
    Lyndon suffix; returns nested (left, right) pairs with Variable leaves."""
    if len(word) == 1:
        return word[0]
    cut = _standard_cut(word)
    return (standard_bracketing(word[:cut]), standard_bracketing(word[cut:]))


# ---------------------------------------------------------------------------
# Lie polynomials in the Lyndon basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiePolynomial:
    """Finite combination of Lyndon monomials with field coefficients."""

    spec: FieldSpec
    terms: tuple  # tuple[(Word, FieldElement)], sorted by word key, no zeros

    @classmethod
    def from_dict(cls, spec: FieldSpec, mapping) -> "LiePolynomial":
        items = [(w, c) for w, c in mapping.items() if not c.is_zero()]
        items.sort(key=lambda it: (len(it[0]), word_key(it[0])))
        return cls(spec, tuple(items))

    @classmethod
    def zero(cls, spec: FieldSpec) -> "LiePolynomial":
        return cls(spec, ())

    @classmethod
    def monomial(cls, spec: FieldSpec, word: Word, coeff=1) -> "LiePolynomial":
        """coeff times the Lyndon monomial of word: a FieldElement or a code."""
        if not is_lyndon(word):
            raise NotALieElement(f"{word} is not a Lyndon word")
        (code,) = _as_codes(spec, [[coeff]])[0]
        return cls.from_dict(spec, {word: spec.from_code(int(code))})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "LiePolynomial") -> "LiePolynomial":
        return LiePolynomial.from_dict(self.spec, _nc_add_scaled(
            self.spec, dict(self.terms), dict(other.terms), self.spec.one()))

    def components(self):
        """Multihomogeneous components; they sum back to the polynomial."""
        groups: dict = {}
        for w, c in self.terms:
            groups.setdefault(MultiDegree.of_word(w), {})[w] = c
        return {md: LiePolynomial.from_dict(self.spec, g) for md, g in groups.items()}

    def variables(self):
        vs = {v for w, _ in self.terms for v in w}
        return sorted(vs, key=lambda v: v.sort_key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.terms:
            mono = print_word(w)
            parts.append(f"{c}*{mono}" if c.code != 1 else mono)
        return " + ".join(parts)


def print_word(word: Word) -> str:
    def render(tree):
        if isinstance(tree, Variable):
            return str(tree)
        return f"[{render(tree[0])},{render(tree[1])}]"

    return render(standard_bracketing(word))


def lyndon_decompose(spec: FieldSpec, ncpoly: dict) -> LiePolynomial:
    """Write a Lie element of the free associative algebra in the Lyndon basis.

    Uses triangularity: the expansion of the bracketing of a Lyndon word w is
    w + (lexicographically larger words), so repeatedly stripping the minimal
    surviving word terminates and detects non-Lie input.
    """
    remaining = {w: c for w, c in ncpoly.items() if not c.is_zero()}
    out: dict = {}
    while remaining:
        w = min(remaining, key=word_key)
        if not is_lyndon(w):
            raise NotALieElement(f"minimal word {w} is not Lyndon")
        c = remaining[w]
        out[w] = c
        _nc_add_scaled(spec, remaining, _word_assoc(w, spec), -c)
    return LiePolynomial.from_dict(spec, out)


# ---------------------------------------------------------------------------
# expression AST
# ---------------------------------------------------------------------------


def _expr_node(cls):
    """cls as a frozen dataclass that keeps its hash after the first use.
    The generated hash walks the node's whole subtree, and expressions share
    subtrees, so each walk would hash them again.  String hashes are salted
    per process, so the kept hash is left out of pickles and copies."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = fields_hash(self)
            return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_expr_node
class Var:
    var: Variable


@_expr_node
class Sum:
    terms: tuple  # tuple[LieExpr]


@_expr_node
class Scale:
    coeff: int | FieldElement  # an int n stands for n * 1
    expr: "LieExpr"


@_expr_node
class Ad:
    """value followed by the operator sum of coeff (ad base)^exponent over
    terms, (coeff, exponent) pairs of ints, exponents >= 0.  A left-normed
    chain is nested Ad nodes, its head innermost."""

    value: "LieExpr"
    base: "LieExpr"
    terms: tuple  # tuple[(int coeff, int exponent)]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("an Ad node needs at least one (coeff, exponent) term")
        if any(not isinstance(k, int) or k < 0 for _, k in self.terms):
            raise ValueError(f"Ad exponents must be ints >= 0, not {self.terms!r}")


LieExpr = (Var, Sum, Scale, Ad)
ZERO = Sum(())  # the zero expression: it has every parity and no variable


def AdPower(base, exponent: int) -> tuple:
    """The chain slot (ad base)^exponent."""
    return base, ((1, exponent),)


def AdPolyDiff(base, terms) -> tuple:
    """The chain slot sum of coeff (ad base)^exponent over the (coeff,
    exponent) pairs of terms."""
    return base, tuple(terms)


def chain(value, *slots):
    """The left-normed chain [value, s1, s2, ...]: one Ad node per slot,
    nested, so chain(value) is value."""
    for base, terms in slots:
        value = Ad(value, base, terms)
    return value


def bracket(a, b) -> Ad:
    """Plain commutator [a, b]."""
    return Ad(a, b, ((1, 1),))


# ---------------------------------------------------------------------------
# the expression interpreter and its backends
# ---------------------------------------------------------------------------


class _Backend(NamedTuple):
    """What _interpret needs to give expressions values.  scale takes a
    coefficient as the node holds it: an int n, which stands for n * 1, or a
    FieldElement, as in Lie polynomials with extension-field coefficients.
    add may update its first argument in place: the walker only passes
    accumulators it got from zero or values no one else holds."""

    zero: Callable       # () -> value
    add: Callable        # (accumulator, value) -> value
    scale: Callable      # (int | FieldElement, value) -> value
    ad_powers: Callable  # (u, w, exponents) -> [u (ad w)^e for each e]
    leaf: Callable       # Variable -> value


def _children(e) -> tuple:
    """The subexpressions _interpret asks for to evaluate e."""
    if isinstance(e, Scale):
        return (e.expr,)
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Ad):
        return e.value, e.base
    return ()


def _memo_for(e) -> dict:
    """A memo for walking e with one _interpret call: it holds None for every
    subexpression that the walk asks for more than once and nothing else, so
    it keeps no value that is needed only once."""
    seen, memo = set(), {}
    todo = [e]
    while todo:
        e = todo.pop()
        if e in seen:
            memo[e] = None
        else:
            seen.add(e)
            todo.extend(_children(e))
    return memo


def _interpret(e, ops: _Backend, memo: dict | None = None):
    """The one walk of the expression AST.  An Ad node asks the backend for
    all of its exponents at once and adds the powers, scaling those whose
    coefficient is not 1.

    memo is _memo_for(e) of the outermost call: each subexpression it
    names is evaluated once and its value kept there.  Such a value may be
    handed out again, so it is never the first argument of add, which may
    update that in place.  The walk is no nested closure on purpose: one
    that calls itself is a reference cycle, which would keep each chunk's
    assignment arrays alive until the garbage collector runs."""
    if memo is None:
        memo = _memo_for(e)
    val = memo.get(e)
    if val is not None:
        return val
    if isinstance(e, Var):
        val = ops.leaf(e.var)
    elif isinstance(e, Scale):
        val = ops.scale(e.coeff, _interpret(e.expr, ops, memo))
    elif isinstance(e, Sum):
        val = ops.zero()
        for t in e.terms:
            val = ops.add(val, _interpret(t, ops, memo))
    elif isinstance(e, Ad):
        val = _interpret(e.value, ops, memo)
        powers = ops.ad_powers(val, _interpret(e.base, ops, memo), [k for _, k in e.terms])
        first, *rest = [power if coeff == 1 else ops.scale(coeff, power)
                        for (coeff, _), power in zip(e.terms, powers)]
        # add may update the first term in place, so start from it only if
        # no one else holds it: not the value, which exponent 0 returns, nor
        # a power of a repeated exponent
        shared = first is val or any(first is t for t in rest)
        val = ops.add(ops.zero(), first) if shared else first
        for t in rest:
            val = ops.add(val, t)
    else:
        raise TypeError(f"not a LieExpr node: {e!r}")
    if e in memo:
        memo[e] = val
    return val


def _lookup(assignment: dict):
    def leaf(v):
        if v not in assignment:
            raise MissingAssignment(f"no value for {v}")
        return assignment[v]

    return leaf


def _code(spec: FieldSpec, c) -> int:
    """The code of a coefficient: a FieldElement's own, n * 1 for an int n."""
    return c.code if isinstance(c, FieldElement) else c % spec.p


def _algebra_backend(alg: GradedLieAlgebra, assignment: dict) -> _Backend:
    """AlgebraElement arithmetic, one assignment at a time.  It shares no
    arithmetic with the batch backend, so it stays an independent reference
    for re-evaluating counterexamples."""
    return _Backend(alg.zero_element, operator.add, lambda c, a: a.scale(c),
                    partial(repeated_brackets, alg.bracket), _lookup(assignment))


def _batch_backend(alg, assignment: dict, count: int) -> _Backend:
    """(count, dim) arrays of coordinate codes, one row per assignment."""
    bf = batch_field(alg.spec)
    return _Backend(lambda: bf.zeros((count, alg.dim)), bf.add,
                    lambda c, a: bf.scale(_code(alg.spec, c), a), alg.batch_ad_powers,
                    _lookup(assignment))


def _free_backend(spec: FieldSpec) -> _Backend:
    """The free associative algebra: dicts from words to nonzero
    coefficients, bracketed by the commutator."""
    one = spec.one()
    return _Backend(dict, lambda acc, b: _nc_add_scaled(spec, acc, b, one),
                    lambda c, a: _nc_add_scaled(spec, {}, a, c),
                    partial(repeated_brackets, partial(_nc_comm, spec)), lambda v: {(v,): one})


def _sets(leaf, ad_powers, zero=frozenset(), add=operator.or_) -> _Backend:
    """A backend whose values are sets, read off the structure of an
    expression alone: nothing cancels, and scale keeps a set."""
    return _Backend(lambda: zero, add, lambda c, a: a, ad_powers, leaf)


@lru_cache(maxsize=256)
def _variables(e) -> tuple:
    # kept per expression, as nodes are immutable: one basis check asks for
    # each generator's variables in every window
    return tuple(sorted(_interpret(e, _sets(
        lambda v: {v}, lambda u, w, exponents: [u | w] * len(exponents)))))


def expr_variables(e) -> list:
    """The variables of e, ascending: _interpret on sets of variables."""
    return list(_variables(e))


def _parities(e) -> frozenset:
    """The parities of e's components: _interpret on sets of parities, an x
    variable taking both, an Ad node adding each of its exponents times
    each parity of its base.  ZERO has no component."""

    def ad_powers(u, w, exponents):
        return [{(a + k * b) % 2 for a in u for b in w} if k else u for k in exponents]

    return frozenset(_interpret(e, _sets(
        lambda v: {0, 1} if v.parity is None else {v.parity}, ad_powers)))


def expr_parity(e):
    """0 or 1 if every component of e has that parity, else None: for mixed
    or ungraded expressions, and for those with no component at all (ZERO,
    or a bracket with it), which have every parity."""
    parities = _parities(e)
    return next(iter(parities)) if len(parities) == 1 else None


def degree_form(e, variables) -> tuple:
    """degree_bound of e as a max-plus function of the bounds of its leaves.

    Returns distinct multiplicity vectors t, indexed like variables (which
    must hold every variable of e), such that for any substitution m of
    those variables

        degree_bound(substitute(e, m)) = max over t of sum_i t[i] * b_i,

    per variable and in total alike, where b_i = degree_bound(m[variables[i]]).
    _interpret on sets of vectors: a Sum takes the union of its terms', an
    Ad node adds its largest exponent times each vector of its base to each
    of its value's.  ZERO, whose bound is 0, gives the zero vector, which a Sum
    with other vectors drops: bounds are >= 0, so the maximum stays.  The
    vectors come by decreasing total multiplicity, so the one most likely
    to exceed a cap comes first.
    """
    unit = {v: tuple(int(v == u) for u in variables) for v in variables}
    zero = frozenset({(0,) * len(variables)})

    def ad_powers(u, w, exponents):
        top = max(exponents)
        return [{tuple(a + top * b for a, b in zip(t, s)) for t in u for s in w}] * len(exponents)

    form = _interpret(e, _sets(lambda v: {unit[v]}, ad_powers, zero,
                               lambda a, b: (a | b) - zero or zero))
    return tuple(sorted(form, key=lambda t: (-sum(t), t)))


def degree_bound(e):
    """Per-variable and total upper bounds on expansion degrees: the largest
    entry of each variable and the largest sum among the vectors of e's
    degree_form over its variables."""
    variables = expr_variables(e)
    form = degree_form(e, variables)
    return dict(zip(variables, map(max, zip(*form)))), max(map(sum, form))


def degree_residues(e, variables, spec: FieldSpec) -> list:
    """For each of variables, a set holding its degree mod q - 1 in every
    multihomogeneous component of e, or more: _interpret on residue sets, an
    Ad node adding each of its exponents times its base's one residue, else
    every residue.  If v has one residue r, then
    e(.., c * m, ..) = c^r * e(.., m, ..) for every c in GF(q)^*."""
    modulus = spec.q - 1

    def ad_powers(u, w, exponents):
        steps = [{k * b % modulus for b in w} if len(w) == 1 else range(modulus)
                 for k in exponents]
        return [{(a + b) % modulus for a in u for b in step} for step in steps]

    return [_interpret(e, _sets(lambda u, v=v: {int(u == v) % modulus}, ad_powers))
            for v in variables]


def _row_count(assignment: dict) -> int:
    """The rows of the assignment arrays; the empty assignment is one row."""
    sizes = {a.shape[0] for a in assignment.values()} or {1}
    if len(sizes) != 1:
        raise ValueError("assignment arrays must share their first dimension")
    return sizes.pop()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _check_graded_assignment(alg: GradedLieAlgebra, assignment, variables):
    for v in variables:
        if v not in assignment:
            raise MissingAssignment(f"no value for {v}")
        if v.parity is None:
            raise ParityError(f"ungraded variable {v} is not allowed in graded mode")
        el = assignment[v]
        deg = el.degree()
        if deg is not None and deg != v.parity:
            raise ParityError(f"{v} assigned an element of degree {deg}")


def evaluate(e, alg: GradedLieAlgebra, assignment: dict, graded: bool = True) -> AlgebraElement:
    """Evaluate an expression at algebra elements.

    In graded mode each y/z variable must receive a homogeneous element of
    its parity; in ordinary mode any element goes and x variables are legal.
    """
    if graded:
        _check_graded_assignment(alg, assignment, expr_variables(e))
    return _interpret(e, _algebra_backend(alg, assignment))


def batch_evaluate(e, alg, assignment: dict) -> np.ndarray:
    """Evaluate over many assignments at once in alg, a GradedLieAlgebra or
    a TruncatedLieAlgebra; assignment maps each variable to an (N, dim)
    array of coordinate codes."""
    return _interpret(e, _batch_backend(alg, assignment, _row_count(assignment)))


def word_tree_batch_evaluate(word: Word, alg: GradedLieAlgebra, assignment: dict) -> np.ndarray:
    """batch_evaluate of the standard bracketing of a Lyndon word."""
    return _interpret(word_to_expr(word),
                      _batch_backend(alg, assignment, _row_count(assignment)))


# ---------------------------------------------------------------------------
# symbolic expansion
# ---------------------------------------------------------------------------


def _nc_mul(spec, a: dict, b: dict) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = out.get(w, spec.zero()) + c1 * c2
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
    return out


def _nc_comm(spec, a: dict, b: dict) -> dict:
    return _nc_add_scaled(spec, _nc_mul(spec, a, b), _nc_mul(spec, b, a), -spec.one())


def _nc_add_scaled(spec, acc: dict, other: dict, coeff: int | FieldElement) -> dict:
    """acc + coeff * other, in acc; an int coeff n is n * 1."""
    for w, c in other.items():
        s = acc.get(w, spec.zero()) + coeff * c
        if s.is_zero():
            acc.pop(w, None)
        else:
            acc[w] = s
    return acc


@lru_cache(maxsize=None)
def _word_assoc(word: Word, spec: FieldSpec) -> dict:
    """Associative expansion of the standard bracketing of a Lyndon word.
    The dict is shared by every caller; callers must not mutate it."""
    return _interpret(word_to_expr(word), _free_backend(spec))


def assoc_expand(e, spec: FieldSpec) -> dict:
    """Expression as a noncommutative polynomial (dict word -> coefficient)."""
    return _interpret(e, _free_backend(spec))


def expr_expand(e, spec: FieldSpec, caps: dict | None = None,
                total_cap: int | None = None) -> LiePolynomial:
    """Expand an expression into the Lyndon basis, guarded by degree caps.

    caps maps variables to their maximal admissible degree; expressions whose
    degree bound exceeds a cap (or total_cap) raise ExpansionTooLarge without
    any expansion work.  With caps=None a global sanity bound still applies,
    so an accidental q^3-degree expansion cannot be attempted.
    """
    per, total = degree_bound(e)
    if caps is not None:
        for v, d in per.items():
            if d > caps.get(v, 0):
                raise ExpansionTooLarge(
                    f"degree bound {d} for {v} exceeds cap {caps.get(v, 0)}"
                )
    if total > (total_cap if total_cap is not None else NORMALIZE_TOTAL_CAP):
        raise ExpansionTooLarge(f"total degree bound {total} exceeds cap")
    return lyndon_decompose(spec, assoc_expand(e, spec))


def poly_bracket(a: LiePolynomial, b: LiePolynomial) -> LiePolynomial:
    """[a, b] in the Lyndon basis, computed in the free associative algebra."""
    return lyndon_decompose(a.spec, assoc_expand(bracket(poly_to_expr(a), poly_to_expr(b)), a.spec))


# ---------------------------------------------------------------------------
# truncated free Lie algebras on code arrays
# ---------------------------------------------------------------------------


class WordTable(NamedTuple):
    """The words with one multidegree's letter content, and the associative
    expansions of its Lyndon monomials, as codes of integers mod p (an
    integer n stands for n * 1, so the table serves every field of
    characteristic p)."""

    letters: tuple       # the multidegree's variables, ascending
    digits: np.ndarray   # (words, total): each word as positions in letters, ascending
    columns: dict        # word -> its row in digits
    lyndon: tuple        # the Lyndon words, ascending
    expand: np.ndarray   # (lyndon, words): the expansion of each standard bracketing
    inverse: np.ndarray  # (lyndon, lyndon): the inverse of expand's Lyndon columns


@lru_cache(maxsize=None)
def word_table(p: int, md: MultiDegree) -> WordTable:
    """The word table of a multidegree in characteristic p, built once.

    A Lyndon word w = uv, its standard factorization, expands to uv - vu
    in the expansions of u and v, which the tables of their multidegrees
    hold; the words of the products are found among the ascending words by
    their digits (linalg.row_keys).  The expansion of w is w plus larger
    words (Reutenauer, Free Lie Algebras, ch. 5), so the Lyndon columns of
    expand form an upper unitriangular matrix, inverted exactly by back
    substitution."""
    letters = tuple(md.variables())
    words = _multiset_permutations([v for v, c in md.counts for _ in range(c)])
    position = {v: i for i, v in enumerate(letters)}
    digits = np.array([[position[v] for v in w] for w in words], dtype=np.int64)
    keys = row_keys(digits)
    at = [i for i, w in enumerate(words) if is_lyndon(w)]
    lyndon = tuple(words[i] for i in at)
    expand = np.zeros((len(lyndon), len(words)), dtype=np.int64)
    for row, w in enumerate(lyndon):
        if len(w) == 1:
            expand[row, 0] = 1
            continue
        cut = _standard_cut(w)
        (left, u), (right, v) = (_expansion_terms(p, part, letters)
                                 for part in (w[:cut], w[cut:]))
        products = np.outer(left, right).ravel()
        u, v = row_pairs(u, v)
        np.add.at(expand[row], np.searchsorted(keys, row_keys(np.hstack([u, v]))), products)
        np.subtract.at(expand[row], np.searchsorted(keys, row_keys(np.hstack([v, u]))), products)
    expand %= p
    square = expand[:, at]
    inverse = np.eye(len(lyndon), dtype=np.int64)
    for i in range(len(lyndon) - 2, -1, -1):
        inverse[i] = (inverse[i] - square[i, i + 1:] @ inverse[i + 1:]) % p
    for shared in (digits, expand, inverse):
        shared.flags.writeable = False  # every caller of the cache gets these arrays
    return WordTable(letters, digits, {w: i for i, w in enumerate(words)}, lyndon, expand,
                     inverse)


def _expansion_terms(p: int, word: Word, letters: tuple):
    """The nonzero coefficients of a Lyndon word's expansion, and their
    words as digits over letters, a superset of the word's letters."""
    table = word_table(p, MultiDegree.of_word(word))
    row = table.expand[table.lyndon.index(word)]
    terms = np.flatnonzero(row)
    position = np.array([letters.index(v) for v in table.letters], dtype=np.int64)
    return row[terms], position[table.digits[terms]]


class TruncatedLieAlgebra:
    """The free Lie algebra on the letters of some multidegrees, modulo every
    multidegree outside them, on code arrays.

    The multidegrees must contain every multidegree below one of theirs, as
    those of a box do (each letter at most its cap, the total at most a
    bound): brackets only add multidegrees, so the Lyndon monomials outside
    them span an ideal, and the quotient has the Lyndon monomials of the
    multidegrees as basis.  Elements are rows of codes over that basis, one
    block of columns per multidegree with Lyndon words, in the given order.

    The bracket of a in block i and b in block j lies in the block k of
    their summed multidegree, or is 0 when there is none.  There the
    associative expansion of [a, b] = ab - ba has, at a Lyndon word w, the
    coefficient a(prefix) b(suffix) - b(prefix') a(suffix'), with w cut
    after the length of i and of j; a(.) is read off the expansion of a
    through the word table of block i.  Those coefficients times the inverse
    of block k's Lyndon columns are the coordinates of [a, b].
    """

    def __init__(self, spec: FieldSpec, multidegrees):
        self.spec = spec
        tables = [(md, word_table(spec.p, md)) for md in multidegrees]
        tables = [(md, t) for md, t in tables if t.lyndon]
        self.multidegrees = tuple(md for md, _ in tables)
        self.tables = tuple(t for _, t in tables)
        self.monomials = tuple(w for t in self.tables for w in t.lyndon)
        self.dim = len(self.monomials)
        ends = np.cumsum([len(t.lyndon) for t in self.tables], dtype=int).tolist()
        self.blocks = tuple(slice(end - len(t.lyndon), end) for t, end in zip(self.tables, ends))
        self._block_of = {md: i for i, md in enumerate(self.multidegrees)}
        self._pairs: dict = {}

    def _pair(self, i: int, j: int):
        """(k, pre, suf, pre', suf') for blocks i and j whose multidegrees
        add up to block k's, else None: [a, b] = ((a pre) * (b suf) -
        (b pre') * (a suf')) inverse_k, the products taken entrywise."""
        if (i, j) not in self._pairs:
            total = Counter(dict(self.multidegrees[i].counts))
            total.update(dict(self.multidegrees[j].counts))
            k = self._block_of.get(MultiDegree.of(total))
            self._pairs[i, j] = None if k is None else (
                k, *self._cut(i, j, k), *self._cut(j, i, k))
        return self._pairs[i, j]

    def _cut(self, i: int, j: int, k: int):
        """The columns of block i's expansions at the prefixes of length
        |i| of block k's Lyndon words, and of block j's at the suffixes: 0
        where the prefix has another letter content."""
        first, second = self.tables[i], self.tables[j]
        n = self.multidegrees[i].total
        cuts = [(first.columns.get(w[:n], -1), second.columns.get(w[n:], -1))
                for w in self.tables[k].lyndon]
        pre, suf = np.array(cuts, dtype=np.int64).T
        return first.expand[:, pre] * (pre >= 0), second.expand[:, suf] * (suf >= 0)

    def _bracket_block(self, pair, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """[a, b] in block k for rows a of block i and b of block j."""
        k, pre, suf, pre2, suf2 = pair
        bf, dot = batch_field(self.spec), partial(matmul_codes, self.spec)
        assoc = bf.sub(bf.mul(dot(a, pre), dot(b, suf)), bf.mul(dot(b, pre2), dot(a, suf2)))
        return dot(assoc, self.tables[k].inverse)

    def bracket(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """[u, w] row by row, for (N, dim) code arrays: each pair of blocks
        brackets only the rows that are nonzero in both."""
        bf = batch_field(self.spec)
        out = bf.zeros(u.shape)
        if not self.dim:
            return out
        starts = [s.start for s in self.blocks]
        u_in = np.logical_or.reduceat(u != 0, starts, axis=1)
        w_in = np.logical_or.reduceat(w != 0, starts, axis=1)
        for i in np.flatnonzero(u_in.any(axis=0)):
            for j in np.flatnonzero(w_in.any(axis=0)):
                pair = self._pair(i, j)
                if pair is None:
                    continue
                rows = np.flatnonzero(u_in[:, i] & w_in[:, j])
                if rows.size:
                    k = self.blocks[pair[0]]
                    out[rows, k] = bf.add(out[rows, k], self._bracket_block(
                        pair, u[rows, self.blocks[i]], w[rows, self.blocks[j]]))
        return out

    def letter_ad(self, v: Variable) -> list:
        """ad_v block by block: (i, k, matrix) for every block i whose
        multidegree plus v is block k's, with matrix the codes of
        m -> [m, v] from block i's monomials to block k's."""
        j = self._block_of[MultiDegree.of({v: 1})]
        out = []
        for i, t in enumerate(self.tables):
            pair = self._pair(i, j)
            if pair is not None:
                n = len(t.lyndon)
                out.append((i, pair[0], self._bracket_block(
                    pair, np.eye(n, dtype=np.int64), np.ones((n, 1), dtype=np.int64))))
        return out

    def batch_ad_powers(self, u: np.ndarray, w: np.ndarray, exponents) -> list:
        """u (ad w)^e for each e in exponents, by repeated brackets."""
        return repeated_brackets(self.bracket, u, w, exponents)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def word_to_expr(word: Word):
    def walk(tree):
        if isinstance(tree, Variable):
            return Var(tree)
        return bracket(walk(tree[0]), walk(tree[1]))

    return walk(standard_bracketing(word))


def poly_to_expr(poly: LiePolynomial):
    if poly.is_zero():
        return ZERO
    terms = [word_to_expr(w) if c.code == 1 else Scale(c, word_to_expr(w))
             for w, c in poly.terms]
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def substitute(f, mapping: dict, graded: bool = True):
    """Replace variables by expressions (or Lyndon polynomials).

    In graded mode every component of an image must have the parity of its
    variable; x variables accept anything, and so does an image with no
    component, such as the zero image.  Unmapped variables are kept.
    """
    images = {}
    for v, img in mapping.items():
        expr = poly_to_expr(img) if isinstance(img, LiePolynomial) else img
        if graded and v.parity is not None and not _parities(expr) <= {v.parity}:
            raise ParityError(f"{v} has parity {v.parity}, image has parity {expr_parity(expr)}")
        images[Var(v)] = expr
    return replace(f, images)


def replace(e, images: dict):
    """e with each subexpression that is a key of images replaced by its
    image.  Images are not walked, so an image may hold its own key."""
    if e in images:
        return images[e]
    if isinstance(e, Var):
        return e
    if isinstance(e, Scale):
        return Scale(e.coeff, replace(e.expr, images))
    if isinstance(e, Sum):
        return Sum(tuple(replace(t, images) for t in e.terms))
    if isinstance(e, Ad):
        return Ad(replace(e.value, images), replace(e.base, images), e.terms)
    raise TypeError(f"not a LieExpr node: {e!r}")


# ---------------------------------------------------------------------------
# built-in expressions
# ---------------------------------------------------------------------------


def sem1(q: int, v1: Variable | None = None, v2: Variable | None = None):
    """First classical two-variable identity of sl2 over GF(q):
    the head pushed through (ad)^(q^2+2) - (ad)^3 of the second variable."""
    a = Var(v1 or x(1))
    b = Var(v2 or x(2))
    return chain(a, AdPolyDiff(b, ((1, q * q + 2), (-1, 3))))


def sem2(q: int, v1: Variable | None = None, v2: Variable | None = None):
    """Second classical identity; six left-normed terms with operator slots."""
    a = Var(v1 or x(1))
    b = Var(v2 or x(2))
    q2 = q * q
    frob_a = ((1, q2), (-1, 1))   # (ad a)^{q^2} - (ad a)
    frob_b = ((1, q2), (-1, 1))
    t1 = bracket(a, b)
    t2 = chain(a, AdPower(b, 1), AdPower(a, q2 - 1))
    t3 = chain(a, AdPower(b, q))
    t4 = chain(a, AdPower(b, 1), AdPower(a, q2 - 1), AdPower(b, q - 1))
    t5 = chain(
        a,
        AdPower(b, 1),
        AdPolyDiff(a, frob_a),
        AdPower(bracket(a, b), q - 2),
        AdPolyDiff(b, frob_b),
    )
    # the sixth term brackets with u = [a^{q^2} - a, b], i.e. minus the chain
    # b ((ad a)^{q^2} - (ad a))
    u = Scale(-1, chain(b, AdPolyDiff(a, frob_a)))
    t6 = chain(b, AdPower(u, q), AdPolyDiff(b, ((1, q2 - 2), (-1, q - 2))))
    return Sum((t1, Scale(-1, t2), Scale(-1, t3), t4, t5, Scale(-1, t6)))


def yy():
    """[y1, y2]: the even part is commutative."""
    return bracket(Var(y(1)), Var(y(2)))


def zz():
    return bracket(Var(z(1)), Var(z(2)))


def zyq_zy(q: int):
    """[z1, y1^q] - [z1, y1], the q-power identity of the natural grading."""
    return Sum((
        chain(Var(z(1)), AdPower(Var(y(1)), q)),
        Scale(-1, bracket(Var(z(1)), Var(y(1)))),
    ))


def _graded_substitution():
    return {
        x(1): Sum((Var(y(1)), Var(z(1)))),
        x(2): Sum((Var(y(2)), Var(z(2)))),
    }


def sem1_graded(q: int):
    return substitute(sem1(q), _graded_substitution(), graded=False)


def sem2_graded(q: int):
    return substitute(sem2(q), _graded_substitution(), graded=False)


def set_s(q: int):
    """The basis candidate for the graded identities of sl2(GF(q))."""
    return [sem1_graded(q), sem2_graded(q), yy(), zyq_zy(q)]


def lema5_set(q: int):
    """Generators for the graded identities of span{e11, e12}."""
    return [yy(), zz(), zyq_zy(q)]


BUILTIN_NAMES = {
    "sem1": lambda q: sem1(q),
    "sem2": lambda q: sem2(q),
    "sem1-graded": sem1_graded,
    "sem2-graded": sem2_graded,
    "yy": lambda q: yy(),
    "zz": lambda q: zz(),
    "zyq-zy": zyq_zy,
}

BUILTIN_SETS = {
    "S": set_s,
    "lema5": lema5_set,
}


def builtin(name: str, q: int):
    """The built-in expression or generator set of that name, in any case and
    with _ for -."""
    found = {**BUILTIN_NAMES, **{k.lower(): fn for k, fn in BUILTIN_SETS.items()}}
    key = name.lower().replace("_", "-")
    if key not in found:
        raise KeyError(f"unknown builtin {name!r}")
    return found[key](q)
