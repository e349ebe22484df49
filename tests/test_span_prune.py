"""The consequence-span prune decides instances exactly as substitution does.

Images are drawn from the real pools of consequence_span, zero image and
two-term samples included, for graded generator sets and for the ungraded
sem1/sem2 and [x1, x2], whose x variables take images of either parity.
"""

import random

import pytest

from glie.errors import ParityError
from glie.fields import FieldSpec
from glie.freelie import (
    LiePolynomial,
    Var,
    bracket,
    degree_bound,
    expr_parity,
    expr_variables,
    lema5_set,
    poly_to_expr,
    sem1,
    sem2,
    set_s,
    substitute,
    x,
)
from glie.identities import (
    SpanSettings,
    _image_pool,
    _instance_fits,
    _Pool,
    default_sl2_windows,
)

GEN_SETS = {
    "S5": (5, lambda: set_s(5)),
    "S7": (7, lambda: set_s(7)),
    "lema5": (5, lambda: lema5_set(5)),
    # [x1, x2] is the ungraded generator that fits these windows
    "ungraded": (5, lambda: [sem1(5), sem2(5), bracket(Var(x(1)), Var(x(2)))]),
}
DRAWS = 150


def pools_for(spec, gvars, ambient, rng):
    settings = SpanSettings()
    graded = {p: _Pool(_image_pool(spec, p, ambient, settings, rng)) for p in (0, 1)}
    both = _Pool(_image_pool(spec, 0, ambient, settings, rng)
                 + _image_pool(spec, 1, ambient, settings, rng))
    return [both if v.parity is None else graded[v.parity] for v in gvars]


def draw(pool, rng):
    """An image index, biased towards the zero image (first) and the
    two-term samples (last)."""
    r = rng.random()
    if r < 0.2:
        return 0
    if r < 0.4:
        tail = min(SpanSettings().two_term_samples, len(pool.exprs))
        return len(pool.exprs) - 1 - rng.randrange(tail)
    return rng.randrange(len(pool.exprs))


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
            pools = pools_for(spec, gvars, ambient, rng)
            for _ in range(DRAWS):
                picks = [draw(pool, rng) for pool in pools]
                mapping = {v: pool.exprs[i] for v, pool, i in zip(gvars, pools, picks)}
                leaves = {v: degree_bound(e) for v, e in mapping.items()}
                assert (degree_bound(gen, leaves)
                        == degree_bound(substitute(gen, mapping, graded=False)))
                classes = [pool.classes[pool.class_of[i]] for pool, i in zip(pools, picks)]
                fits = _instance_fits(gen, gvars, classes, caps, max_total)
                assert fits != rejected_by_substitution(gen, mapping, caps, max_total)
                verdicts.add(fits)
    assert verdicts == {True, False}


def test_pool_classes_share_parity_and_bound():
    spec = FieldSpec.prime(5)
    ambient = default_sl2_windows(5)[3]
    for parity in (0, 1):
        pool = _Pool(_image_pool(spec, parity, ambient, SpanSettings(), random.Random(1)))
        assert len(pool.classes) < len(pool.exprs)
        for i, expr in enumerate(pool.exprs):
            class_parity, bound, members = pool.classes[pool.class_of[i]]
            assert (expr_parity(expr), degree_bound(expr)) == (class_parity, bound)
            assert any(m is expr for m in members)


def test_zero_image_is_rejected_for_odd_variables():
    # the zero image is encoded with parity 0, so substitution refuses it for
    # z variables; the prune must refuse it too
    spec = FieldSpec.prime(5)
    ambient = default_sl2_windows(5)[1]
    pool = _Pool(_image_pool(spec, 1, ambient, SpanSettings(), random.Random(0)))
    assert pool.exprs[0] == poly_to_expr(LiePolynomial.zero(spec))
    gen = lema5_set(5)[1]  # [z1, z2]
    gvars = expr_variables(gen)
    classes = [pool.classes[pool.class_of[0]], pool.classes[pool.class_of[1]]]
    assert not _instance_fits(gen, gvars, classes, ambient.caps(), ambient.max_total)
    with pytest.raises(ParityError):
        substitute(gen, dict(zip(gvars, pool.exprs[:2])), graded=True)
