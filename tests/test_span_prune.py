"""The consequence-span prune decides instances exactly as substitution does.

Images are drawn from the real pools of consequence_span, every nonzero
multiple of each box monomial, for graded generator sets and for the ungraded
sem1/sem2 and [x1, x2], whose x variables take images of either parity.  The
prune reads an image's degree bound from its multidegree; substitution is
the reference.  The degree form of a generator is also checked against
substitution on random images whose per-variable and total bounds are
unrelated, and on edge cases of the AST.  Spans whose pools keep one image
per scaling class are checked against a reference whose pools keep every
scalar multiple.
"""

import random
from collections import Counter

import pytest

from glie import freelie, identities
from glie.algebra import sl2
from glie.errors import ParityError
from glie.fields import FieldSpec
from glie.freelie import (
    AdPolyDiff,
    AdPower,
    LiePolynomial,
    MultiDegree,
    Sum,
    Var,
    ZERO,
    bracket,
    chain,
    degree_bound,
    degree_form,
    degree_residues,
    expr_expand,
    expr_parity,
    expr_variables,
    lema5_set,
    lyndon_words,
    poly_to_expr,
    sem1,
    sem1_graded,
    sem2,
    sem2_graded,
    set_s,
    substitute,
    x,
    y,
    z,
)
from glie.identities import (
    _instance_fits,
    basis_check,
    consequence_span,
    default_sl2_windows,
    total_degree_windows,
    window_box,
    window_exact,
)

GEN_SETS = {
    "S5": (5, lambda: set_s(5)),
    "S7": (7, lambda: set_s(7)),
    "lema5": (5, lambda: lema5_set(5)),
    # [x1, x2] is the ungraded generator that fits these windows
    "ungraded": (5, lambda: [sem1(5), sem2(5), bracket(Var(x(1)), Var(x(2)))]),
}
DRAWS = 150


def form_bound(form, bounds):
    """(per, total) of the max-plus function form at the leaf bounds."""
    keys = dict.fromkeys(u for per, _ in bounds for u in per)
    per = {u: max(sum(k * p.get(u, 0) for k, (p, _) in zip(t, bounds)) for t in form)
           for u in keys}
    return per, max(sum(k * s for k, (_, s) in zip(t, bounds)) for t in form)


def assert_form_matches(gen, mapping):
    gvars = expr_variables(gen)
    bounds = [degree_bound(mapping[v]) for v in gvars]
    assert (form_bound(degree_form(gen, gvars), bounds)
            == degree_bound(substitute(gen, mapping, graded=False)))


def pool(spec, parity, ambient):
    """(multidegree, image) for every candidate image of a variable of this
    parity (None: either parity): c * w for every Lyndon monomial w of the
    window's multidegrees with that parity and every nonzero scalar c."""
    return [(md, poly_to_expr(LiePolynomial.monomial(spec, w, spec.from_code(c))))
            for md in ambient.multidegrees if parity in (None, md.parity)
            for w in lyndon_words(md) for c in range(1, spec.q)]


def pools_for(spec, gvars, ambient):
    pools = {p: pool(spec, p, ambient) for p in (0, 1, None)}
    return [pools[v.parity] for v in gvars]


def rejected_by_substitution(gen, mapping, caps, max_total) -> bool:
    try:
        inst = substitute(gen, mapping, graded=True)
    except ParityError:
        return True
    per, total = degree_bound(inst)
    return total > max_total or any(d > caps.get(v, 0) for v, d in per.items())


@pytest.mark.parametrize("name", sorted(GEN_SETS))
def test_prune_matches_substitution(name):
    q, make_gens = GEN_SETS[name]
    spec = FieldSpec.prime(q)
    rng = random.Random(name)
    verdicts = set()
    for ambient in default_sl2_windows(q):
        caps, max_total = ambient.caps(), ambient.max_total
        for gen in make_gens():
            gvars = expr_variables(gen)
            pools = pools_for(spec, gvars, ambient)
            if not all(pools):
                continue  # e.g. the odd pool of (y:1,1): no instance to decide
            for _ in range(DRAWS):
                picks = [rng.choice(images) for images in pools]
                mapping = {v: image for v, (_, image) in zip(gvars, picks)}
                assert_form_matches(gen, mapping)
                fits = _instance_fits(degree_form(gen, gvars), [md for md, _ in picks],
                                      caps, max_total)
                assert fits != rejected_by_substitution(gen, mapping, caps, max_total)
                verdicts.add(fits)
    assert verdicts == {True, False}


def test_pool_classes_share_parity_and_bound():
    """The prune groups images by multidegree: an image's parity and degree
    bound are those of its multidegree, and several images share each."""
    spec = FieldSpec.prime(5)
    ambient = default_sl2_windows(5)[3]
    for parity in (0, 1):
        images = pool(spec, parity, ambient)
        assert len({md for md, _ in images}) < len(images)
        for md, expr in images:
            assert (expr_parity(expr), degree_bound(expr)) == (
                md.parity, (dict(md.counts), md.total))


@pytest.mark.parametrize("q", [5, 7])
def test_only_sem_graded_components_lack_a_variable(q):
    """consequence_span substitutes no zero image: f(.., 0, ..) is the sum of
    the components of f that lack the variable.  Among the built-in
    generators a degree-form vector with a zero entry, the only way to have
    such a component, occurs in sem1_graded and sem2_graded alone.  Their
    degree bound is at least q^2 + 3, so every window below that total
    degree skips them whole, zero image or not."""
    gens = [make(q) for make in freelie.BUILTIN_NAMES.values()]
    gens += [gen for make in freelie.BUILTIN_SETS.values() for gen in make(q)]
    lacking = set()
    for gen in gens:
        form = degree_form(gen, expr_variables(gen))
        if any(0 in t for t in form):
            assert degree_bound(gen)[1] == max(map(sum, form)) >= q * q + 3
            lacking.add(gen)
    assert lacking == {sem1_graded(q), sem2_graded(q)}


def monomial_image(degrees):
    """An expression whose degree bound is exactly degrees (all >= 1)."""
    (head, _), *rest = degrees.items()
    slots = [AdPower(Var(v), d) for v, d in rest]
    if degrees[head] > 1:
        slots.append(AdPower(Var(head), degrees[head] - 1))
    return chain(Var(head), *slots)


def random_image(rng):
    """A sum of one to three monomials in y1, y2 and z1, so that the per-
    variable bounds and the total bound of the image are unrelated."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        picked = rng.sample([y(1), y(2), z(1)], rng.randint(1, 3))
        terms.append(monomial_image({v: rng.randint(1, 6) for v in picked}))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


@pytest.mark.parametrize("name", sorted(GEN_SETS))
def test_degree_form_matches_substitution_on_random_images(name):
    _, make_gens = GEN_SETS[name]
    rng = random.Random(name)
    for gen in make_gens():
        for _ in range(60):
            assert_form_matches(gen, {v: random_image(rng) for v in expr_variables(gen)})


UNSORTED_SLOTS = chain(
    Var(y(1)),
    AdPolyDiff(Var(z(1)), ((1, 4), (-1, 2))),
    AdPolyDiff(Var(y(2)), ((-1, 1), (1, 5), (2, 3))),
)


@pytest.mark.parametrize("gen", [
    UNSORTED_SLOTS,
    chain(Var(y(1))),
    chain(Var(y(1)), AdPower(chain(Var(z(1))), 2)),
    chain(Var(x(1)), AdPower(Var(x(2)), 3)),
], ids=["unsorted-exponents", "no-slots", "no-slot-base", "ungraded"])
def test_degree_form_edge_cases(gen):
    rng = random.Random(repr(gen))
    zero = poly_to_expr(LiePolynomial.zero(FieldSpec.prime(5)))
    assert zero == ZERO and degree_bound(zero) == ({}, 0)
    gvars = expr_variables(gen)
    for _ in range(40):
        assert_form_matches(gen, {v: random_image(rng) for v in gvars})
        # the zero image, which has no variable and bound 0
        assert_form_matches(gen, {v: zero if rng.random() < 0.5 else random_image(rng)
                                  for v in gvars})


def test_degree_form_takes_the_largest_exponent():
    gvars = expr_variables(UNSORTED_SLOTS)
    assert gvars == [y(1), y(2), z(1)]
    assert degree_form(UNSORTED_SLOTS, gvars) == ((1, 5, 4),)


def test_span_walks_no_expression_per_image_or_instance(monkeypatch):
    """The prune walks no generator per tuple and no image at all: during
    the basis check of S at q = 5, degree_bound, substitute and expr_expand
    never run, since an image's bound is its multidegree and the instances
    are evaluated in L_box.  sem1_graded and sem2_graded (degree >= 28) fit
    no window, so not one of their tuples is decided."""
    gens = set_s(5)  # sem1_graded and sem2_graded are built by substitution
    calls = Counter()
    for name in ("degree_bound", "substitute", "expr_expand"):
        fn = getattr(freelie, name)
        monkeypatch.setattr(freelie, name, lambda *args, fn=fn, name=name, **kwargs:
                            calls.update([name]) or fn(*args, **kwargs))
    forms = Counter()
    fits = identities._instance_fits
    monkeypatch.setattr(identities, "_instance_fits",
                        lambda form, *rest: forms.update([form]) or fits(form, *rest))
    assert basis_check(sl2(FieldSpec.prime(5)), gens, default_sl2_windows(5)).ok
    assert not calls
    for gen in (sem1_graded(5), sem2_graded(5)):
        assert forms[degree_form(gen, expr_variables(gen))] == 0
    assert sum(forms.values()) > 0


# -- one image per scaling class ------------------------------------------------------


def two_class():
    """[z1, y1, y1] + [z1, y1]: y1 has degrees 2 and 1, two residues mod
    q - 1, so scaling the image of y1 does not scale the instance."""
    return Sum((chain(Var(z(1)), AdPower(Var(y(1)), 2)), bracket(Var(z(1)), Var(y(1)))))


@pytest.mark.parametrize("gen", [
    UNSORTED_SLOTS,
    two_class(),
    freelie.zyq_zy(5),
    chain(Var(y(1)), AdPower(Sum((Var(y(2)), Var(z(1)))), 3), AdPower(Var(z(1)), 2)),
    chain(Var(x(1)), AdPolyDiff(Var(x(2)), ((1, 7), (-1, 3)))),
], ids=["unsorted-exponents", "two-class", "zyq-zy", "sum-base", "ungraded"])
def test_degree_residues_cover_every_component(gen):
    """Each variable's degree mod q - 1 in each term of the expansion is one
    of its residues; here, where nothing cancels, every residue occurs."""
    spec = FieldSpec.prime(5)
    gvars = expr_variables(gen)
    terms = expr_expand(gen, spec).terms
    assert terms
    assert degree_residues(gen, gvars, spec) == [{w.count(v) % 4 for w, _ in terms} for v in gvars]


def every_multiple_span(monkeypatch, spec, gens, window):
    """The reference: consequence_span as if every generator variable had
    degrees in two residue classes, so that its pool keeps every nonzero
    multiple of each monomial."""
    with monkeypatch.context() as patch:
        patch.setattr(identities, "degree_residues",
                      lambda e, gvars, spec: [{0, 1}] * len(gvars))
        return consequence_span(spec, gens, window)


GF25 = FieldSpec.extension(5, 2)


@pytest.mark.parametrize("spec, make_gens, windows", [
    (FieldSpec.prime(5), set_s, total_degree_windows(4, 5)),
    (FieldSpec.prime(5), lema5_set, total_degree_windows(4, 5)),
    # (z:1,y:25) is left to test_consequence_span_gf25_equals_identity_space:
    # with every multiple its span takes about 7 s
    (GF25, set_s, [w for w in default_sl2_windows(25) if w.label != "(z:1,y:25)"]),
], ids=["S-q5-degree4", "lema5-q5-degree4", "S-q25-default"])
def test_one_image_per_scaling_class_keeps_the_span(monkeypatch, spec, make_gens, windows):
    gens = make_gens(spec.q)
    for win in windows:
        assert (consequence_span(spec, gens, win)
                == every_multiple_span(monkeypatch, spec, gens, win)), win.label


@pytest.mark.parametrize("spec, caps, rank", [
    (FieldSpec.prime(5), {z(1): 1, y(1): 5}, 5),
    (FieldSpec.prime(5), {y(1): 2, z(1): 1}, 1),
    (GF25, {y(1): 2, z(1): 1}, 1),
    (GF25, {z(1): 1, y(1): 3}, 3),
], ids=["q5-box", "q5-exact", "q25-exact", "q25-box"])
def test_two_residue_variables_keep_every_multiple(monkeypatch, spec, caps, rank):
    """y1 of two_class() keeps all q - 1 multiples of each monomial: with
    only the coefficient-1 ones the spans lose a dimension.  At GF(25)
    images with proper extension-field scalars are substituted."""
    win = window_box(caps) if rank > 1 else window_exact(MultiDegree.of(caps))
    scalars = set()
    instances = identities._instances

    def recording(*args):
        columns, codes = instances(*args)
        scalars.update(codes.ravel().tolist())
        return columns, codes

    monkeypatch.setattr(identities, "_instances", recording)
    span = consequence_span(spec, [two_class()], win)
    assert span.dim == rank
    assert span == every_multiple_span(monkeypatch, spec, [two_class()], win)
    assert max(scalars) == spec.q - 1


def test_each_scaling_class_expands_once(monkeypatch):
    """Both variables of [y1, y2] and of zyq_zy(5) have one degree residue
    mod 4, so their images are the coefficient-1 monomials alone.  The basis
    check of S at q = 5 evaluates 6 instances, and no two instances of one
    generator in one window differ only by the scalars of their images."""
    spec = FieldSpec.prime(5)
    calls = []
    instances = identities._instances

    def recording(lie, gen, *args):
        columns, codes = instances(lie, gen, *args)
        calls.append((lie, gen, columns, codes))
        return columns, codes

    monkeypatch.setattr(identities, "_instances", recording)
    assert basis_check(sl2(spec), set_s(5), default_sl2_windows(5)).ok
    assert sum(len(columns) for _, _, columns, _ in calls) == 6
    for lie, gen, columns, codes in calls:
        assert (codes == 1).all()
        images = [tuple(lie.monomials[c] for c in row) for row in columns.tolist()]
        assert len(set(images)) == len(images)
