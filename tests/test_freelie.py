import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from glie.algebra import sl2, span_e11_e12
from glie.errors import ExpansionTooLarge, NotALieElement, ParityError
from glie.fields import FieldSpec
from glie.freelie import (
    Ad,
    AdPolyDiff,
    AdPower,
    LiePolynomial,
    MultiDegree,
    Variable,
    Scale,
    Sum,
    Var,
    ZERO,
    assoc_expand,
    batch_evaluate,
    bracket,
    builtin,
    chain,
    degree_bound,
    degree_form,
    evaluate,
    expr_expand,
    expr_parity,
    expr_variables,
    is_lyndon,
    lyndon_words,
    poly_to_expr,
    print_word,
    sem1,
    sem2,
    set_s,
    standard_bracketing,
    substitute,
    x,
    y,
    yy,
    z,
    zyq_zy,
    zz,
)

GF5 = FieldSpec.prime(5)


def mobius(n):
    if n == 1:
        return 1
    result = 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def witt_total(m, n):
    """Dimension of the degree-n component of the free Lie algebra on m letters."""
    return sum(mobius(d) * m ** (n // d) for d in divisors(n)) // n


def witt_multidegree(counts):
    """Lyndon word count for a fixed letter content (necklace-style formula)."""
    from math import factorial, gcd
    from functools import reduce

    n = sum(counts)
    g = reduce(gcd, counts)
    total = 0
    for d in divisors(g):
        prod = factorial(n // d)
        for c in counts:
            prod //= factorial(c // d)
        total += mobius(d) * prod
    return total // n


# -- Lyndon machinery ----------------------------------------------------------


def test_lyndon_basic():
    assert is_lyndon((y(1), y(2)))
    assert not is_lyndon((y(2), y(1)))
    assert not is_lyndon((y(1), y(1)))
    assert is_lyndon((y(1), z(1), z(1)))


def test_variable_order():
    assert y(2) < z(1)
    assert z(9) < x(1)
    assert y(1) < y(2)


@pytest.mark.parametrize("index", [1.5, True, "1"], ids=repr)
def test_variable_index_must_be_an_int(index):
    """y(True) and Variable("y", 1.5) would be the variables yTrue and y1.5."""
    with pytest.raises(ValueError, match="a variable index must be an int >= 1"):
        Variable("y", index)


def test_multidegree_refuses_a_negative_count():
    """y1 used to drop out of {y1: -3, z1: 2}, as a zero count does."""
    with pytest.raises(ValueError, match="a count must be an int >= 0"):
        MultiDegree.of({y(1): -3, z(1): 2})
    assert MultiDegree.of({y(1): 0, z(1): 2}) == MultiDegree.of({z(1): 2})


@pytest.mark.parametrize("count", [2.7, 2.0, True], ids=repr)
def test_multidegree_refuses_a_count_that_is_no_int(count):
    """{y1: 2.7} used to read as y1 of degree 2."""
    with pytest.raises(ValueError, match="a count must be an int >= 0"):
        MultiDegree.of({y(1): count})


def test_lyndon_words_frozen_counts():
    md = MultiDegree.of({z(1): 1, y(1): 3})
    words = lyndon_words(md)
    assert len(words) == 1
    assert words[0] == (y(1), y(1), y(1), z(1))

    assert len(lyndon_words(MultiDegree.of({y(1): 1, y(2): 1}))) == 1
    assert len(lyndon_words(MultiDegree.of({z(1): 2, z(2): 2}))) == 1


def test_lyndon_counts_match_witt_formula():
    # every multidegree on letters {a:y1, b:y2} with total degree <= 6
    for na in range(0, 7):
        for nb in range(0, 7 - na):
            if na + nb == 0:
                continue
            md = MultiDegree.of({y(1): na, y(2): nb})
            counts = [c for c in (na, nb) if c]
            assert len(lyndon_words(md)) == witt_multidegree(counts)


def test_witt_totals_two_letters():
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}
    for n, val in expected.items():
        total = sum(
            len(lyndon_words(MultiDegree.of({y(1): a, y(2): n - a})))
            for a in range(n + 1)
        )
        assert total == val == witt_total(2, n)


def test_standard_bracketing_shapes():
    assert standard_bracketing((y(1), z(1), z(2))) == (y(1), (z(1), z(2)))
    assert standard_bracketing((y(1), z(1), z(1))) == ((y(1), z(1)), z(1))
    assert print_word((y(1), z(1), z(2))) == "[y1,[z1,z2]]"


# -- normalization ---------------------------------------------------------------


def test_normalize_alternating():
    assert expr_expand(bracket(Var(y(1)), Var(y(1))), GF5).is_zero()


def test_normalize_antisymmetry():
    p = expr_expand(bracket(Var(z(2)), Var(z(1))), GF5)
    assert len(p.terms) == 1
    word, coeff = p.terms[0]
    assert word == (z(1), z(2))
    assert coeff.code == 4  # -1 mod 5


def test_normalize_jacobi_rearrangement():
    # [[z1,y1],z2] - [[z2,y1],z1] = [[z1,z2],y1]
    lhs = Sum((
        bracket(bracket(Var(z(1)), Var(y(1))), Var(z(2))),
        Scale(-1, bracket(bracket(Var(z(2)), Var(y(1))), Var(z(1)))),
    ))
    rhs = bracket(bracket(Var(z(1)), Var(z(2))), Var(y(1)))
    # independent oracle: equality already in the associative algebra
    la = assoc_expand(lhs, GF5)
    ra = assoc_expand(rhs, GF5)
    assert la == ra
    assert expr_expand(lhs, GF5).terms == expr_expand(rhs, GF5).terms


def test_normalize_jacobi_property_random():
    rng = random.Random(42)
    vars_pool = [y(1), y(2), z(1), z(2)]

    def random_tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return Var(rng.choice(vars_pool))
        return bracket(random_tree(depth - 1), random_tree(depth - 1))

    for _ in range(200):
        a, b, c = (random_tree(2) for _ in range(3))
        total = Sum((
            bracket(bracket(a, b), c),
            bracket(bracket(b, c), a),
            bracket(bracket(c, a), b),
        ))
        assert expr_expand(total, GF5).is_zero()


def test_lyndon_decompose_rejects_non_lie():
    from glie.freelie import lyndon_decompose

    with pytest.raises(NotALieElement):
        lyndon_decompose(GF5, {(y(1), y(1)): GF5.one()})


def test_expand_zyq():
    p = expr_expand(zyq_zy(5), GF5, caps={z(1): 1, y(1): 5})
    words = {w: c.code for w, c in p.terms}
    assert words == {
        (y(1), z(1)): 1,
        (y(1),) * 5 + (z(1),): 4,
    } or words == {
        (y(1), z(1)): 4,
        (y(1),) * 5 + (z(1),): 1,
    }
    # exactly two terms with coefficients 1 and -1
    codes = sorted(c.code for _, c in p.terms)
    assert codes == [1, 4]


def test_expand_operator_slot():
    # [y1, (y2^2 - y2)] = [y1,y2,y2] - [y1,y2]
    e = chain(Var(y(1)), AdPolyDiff(Var(y(2)), ((1, 2), (-1, 1))))
    p = expr_expand(e, GF5, caps={y(1): 1, y(2): 2})
    assert {w: c.code for w, c in p.terms} == {
        (y(1), y(2)): 4,
        (y(1), y(2), y(2)): 1,
    }


def test_operator_slot_sum_leaves_shared_powers_alone():
    """An AdPolyDiff sum starts from its first power only where no one else
    holds it.  The free backend adds in place, so a power repeated by a
    duplicate exponent, or the exponent-0 power, which is the memoized
    prefix [y1, y2], would be counted twice."""
    p = bracket(Var(y(1)), Var(y(2)))
    p_y3 = bracket(p, Var(y(3)))
    triple = chain(Var(y(1)), AdPower(Var(y(2)), 1),
                   AdPolyDiff(Var(y(3)), ((1, 1), (1, 1), (1, 1))))
    assert assoc_expand(triple, GF5) == assoc_expand(Scale(3, p_y3), GF5)
    with_prefix = chain(Var(y(1)), AdPower(Var(y(2)), 1), AdPolyDiff(Var(y(3)), ((1, 0), (1, 1))))
    assert (assoc_expand(Sum((with_prefix, p)), GF5)
            == assoc_expand(Sum((Scale(2, p), p_y3)), GF5))


def test_expand_rejects_sem2():
    with pytest.raises(ExpansionTooLarge):
        expr_expand(sem2(5), GF5, caps={x(1): 5, x(2): 5})


def homogeneous_elements(L, parity):
    """Every element of L's homogeneous part of this parity."""
    idx = L.homogeneous_indices(parity)
    for codes in itertools.product(range(L.spec.q), repeat=len(idx)):
        row = [0] * L.dim
        for i, c in zip(idx, codes):
            row[i] = c
        yield L.element(row)


def test_expand_agrees_with_evaluation_exhaustive():
    # over span{e11,e12}: coordinate evaluation of the expansion matches
    # direct expression evaluation on every homogeneous assignment
    L = span_e11_e12(GF5)
    exprs = [
        zyq_zy(5),
        yy(),
        bracket(bracket(Var(z(1)), Var(y(1))), Var(z(2))),
        chain(Var(z(1)), AdPower(Var(y(1)), 3)),
    ]
    from glie.freelie import expr_variables

    for e in exprs:
        p = expr_expand(e, GF5, caps={y(1): 5, y(2): 5, z(1): 1, z(2): 1})
        variables = expr_variables(e)
        pools = [list(homogeneous_elements(L, v.parity)) for v in variables]
        for combo in itertools.product(*pools):
            assignment = dict(zip(variables, combo))
            left = evaluate(e, L, assignment, graded=True)
            right = evaluate(poly_to_expr(p), L, assignment, graded=False)
            assert left == right


# -- degree bounds and parity ------------------------------------------------------


def test_sem1_degree_in_second_variable():
    per, total = degree_bound(sem1(5))
    assert per[x(2)] == 27  # q^2 + 2 at q = 5
    assert per[x(1)] == 1


def test_expr_parity():
    assert expr_parity(yy()) == 0
    assert expr_parity(bracket(Var(z(1)), Var(z(2)))) == 0
    assert expr_parity(bracket(Var(z(1)), Var(y(1)))) == 1
    assert expr_parity(Sum((Var(y(1)), Var(z(1))))) is None
    assert expr_parity(zyq_zy(5)) == 1


def test_zero_has_every_parity():
    """ZERO has no component, so it has every parity and no one parity:
    expr_parity gives None for it and for every bracket with it, except
    through (ad 0)^0, the identity; a Sum reads only its other terms; and
    substitute takes such an image for a variable of either parity."""
    y1, z1 = Var(y(1)), Var(z(1))
    assert expr_parity(ZERO) is None
    assert expr_parity(Sum((ZERO, z1))) == 1
    assert expr_parity(Sum((y1, ZERO, Scale(2, y1)))) == 0
    assert expr_parity(chain(y1, AdPower(ZERO, 2))) is None
    assert expr_parity(bracket(ZERO, z1)) is None
    assert expr_parity(chain(y1, AdPower(ZERO, 0))) == 0
    for image in (ZERO, bracket(ZERO, z1), chain(z1, AdPolyDiff(ZERO, ((1, 2), (-1, 1))))):
        assert substitute(bracket(y1, z1), {y(1): image, z(1): image}) == bracket(image, image)
    with pytest.raises(ParityError):
        substitute(yy(), {y(2): Sum((ZERO, z1))})


def test_zero_degree_form_and_bound():
    """ZERO has no variable and bound 0: its degree form is the zero vector,
    which a Sum with other terms drops, and a slot on it adds nothing."""
    y1, z1 = Var(y(1)), Var(z(1))
    assert expr_variables(ZERO) == [] and degree_bound(ZERO) == ({}, 0)
    assert degree_form(ZERO, []) == ((),) and degree_form(ZERO, [z(1)]) == ((0,),)
    assert degree_form(Sum((ZERO, z1)), [z(1)]) == ((1,),)
    assert degree_form(Sum((ZERO, ZERO)), [y(1), z(1)]) == ((0, 0),)
    assert degree_bound(Sum((z1, ZERO))) == ({z(1): 1}, 1)
    assert degree_bound(chain(y1, AdPower(ZERO, 2))) == ({y(1): 1}, 1)
    assert degree_form(chain(ZERO, AdPower(z1, 3)), [z(1)]) == ((3,),)


def test_analyses_answer_each_call_afresh():
    """The variables are kept per expression, but the list expr_variables
    returns is the caller's to change."""
    e = zyq_zy(5)
    first = expr_variables(e)
    first.append(x(1))
    assert expr_variables(e) == [y(1), z(1)]
    assert expr_variables(zyq_zy(5)) is not expr_variables(zyq_zy(5))


def test_multihomog_components():
    p = expr_expand(zyq_zy(5), GF5, caps={z(1): 1, y(1): 5})
    comps = p.components()
    totals = sorted(md.total for md in comps)
    assert totals == [2, 6]
    merged = LiePolynomial.zero(GF5)
    for c in comps.values():
        merged = merged.add(c)
    assert merged.terms == p.terms


def test_components_of_zero():
    assert LiePolynomial.zero(GF5).components() == {}


# -- evaluation -----------------------------------------------------------------


def test_evaluate_zy5_equals_zy():
    L = sl2(GF5)
    h, e = L.basis_element(0), L.basis_element(1)
    val5 = evaluate(chain(Var(z(1)), AdPower(Var(y(1)), 5)), L, {z(1): e, y(1): h})
    val1 = evaluate(bracket(Var(z(1)), Var(y(1))), L, {z(1): e, y(1): h})
    assert val5 == val1
    assert val1 == e.scale(-2)  # [e, h] = -2e


def test_evaluate_sem1_zero_on_sl2_sample():
    L = sl2(GF5)
    e, f = L.basis_element(1), L.basis_element(2)
    val = evaluate(sem1(5), L, {x(1): e, x(2): f}, graded=False)
    assert val.is_zero()


def test_evaluate_zero_head():
    L = sl2(GF5)
    e = chain(Scale(0, Var(y(1))), AdPower(Var(y(1)), 2))
    assert evaluate(e, L, {y(1): L.basis_element(0)}).is_zero()


def test_chains_are_nested_ad_nodes():
    a, s1, s2 = Var(y(1)), AdPower(Var(z(1)), 2), AdPolyDiff(Var(y(2)), ((1, 3), (-1, 1)))
    assert chain(a) is a
    assert chain(chain(a, s1), s2) == chain(a, s1, s2)
    assert hash(chain(chain(a, s1), s2)) == hash(chain(a, s1, s2))


def test_ad_nodes_need_a_term():
    """An empty operator sum is refused where the node is built, not in the
    first walk of the expression."""
    with pytest.raises(ValueError, match="at least one"):
        chain(Var(y(1)), AdPolyDiff(Var(y(2)), ()))
    with pytest.raises(ValueError, match="at least one"):
        Ad(Var(y(1)), Var(y(2)), ())
    assert expr_variables(chain(Var(y(1)), AdPolyDiff(Var(y(2)), ((1, 0),)))) == [y(1), y(2)]


def test_ad_exponents_are_ints_at_least_0():
    """A negative exponent used to be read as 0 by the evaluators and as a
    negative degree by degree_bound, so [y1, z1^-1] - y1 checked as an
    identity of sl2.  It is refused where the node is built, through
    AdPower, AdPolyDiff and chain too, and so is an exponent that is no int."""
    for k in (-1, -3, 1.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="exponents must be ints >= 0"):
            Ad(Var(y(1)), Var(z(1)), ((1, k),))
    with pytest.raises(ValueError, match="exponents must be ints >= 0"):
        Sum((chain(Var(y(1)), AdPower(Var(z(1)), -1)), Scale(-1, Var(y(1)))))
    with pytest.raises(ValueError, match="exponents must be ints >= 0"):
        chain(Var(y(1)), AdPower(Var(z(1)), 2), AdPolyDiff(Var(y(2)), ((1, 3), (-1, -1))))
    assert chain(Var(y(1)), AdPolyDiff(Var(z(1)), ((1, 0), (2, 5)))).terms == ((1, 0), (2, 5))


def test_chains_share_their_leading_slots(monkeypatch):
    """Two chains of one Sum that share a and s1 ask for [a, s1] once."""
    import numpy as np

    L = sl2(GF5)
    calls = []
    batch_ad_powers = type(L).batch_ad_powers
    monkeypatch.setattr(type(L), "batch_ad_powers", lambda self, u, w, exponents: (
        calls.append(list(exponents)) or batch_ad_powers(self, u, w, exponents)))
    a, s1 = Var(y(1)), AdPower(Var(z(1)), 2)
    e = Sum((chain(a, s1, AdPower(Var(z(2)), 1)), chain(a, s1, AdPower(Var(y(2)), 1))))
    rows = np.array([[1, 0, 0], [0, 1, 2]])
    batch_evaluate(e, L, {y(1): rows, y(2): rows, z(1): rows[::-1], z(2): rows[::-1]})
    assert calls == [[2], [1], [1]]


def test_evaluate_parity_enforced():
    L = sl2(GF5)
    with pytest.raises(ParityError):
        evaluate(yy(), L, {y(1): L.basis_element(1), y(2): L.basis_element(0)})


def test_batch_evaluate_matches_scalar():
    import numpy as np

    L = sl2(GF5)
    rng = random.Random(17)
    exprs = [sem1(5), yy(), zyq_zy(5), sem2(5)]
    for e in exprs:
        from glie.freelie import batch_evaluate, expr_variables

        variables = expr_variables(e)
        els = [
            {v: L.element([rng.randrange(5) for _ in range(3)]) for v in variables}
            for _ in range(8)
        ]
        batch = {
            v: np.stack([a[v].codes() for a in els]) for v in variables
        }
        out = batch_evaluate(e, L, batch)
        for i, assignment in enumerate(els):
            scalar = evaluate(e, L, assignment, graded=False)
            assert list(out[i]) == [c.code for c in scalar.coeffs]


def test_poly_to_expr_carries_extension_field_scalars():
    gf25 = FieldSpec.extension(5, 2)
    for code in (7, 12, 24, 3, 1):
        poly = LiePolynomial.monomial(gf25, (y(1),), gf25.from_code(code))
        assert expr_expand(poly_to_expr(poly), gf25) == poly
    poly = LiePolynomial.monomial(gf25, (y(1), z(1)), gf25.from_code(7)).add(
        LiePolynomial.monomial(gf25, (z(1),), gf25.from_code(13)))
    assert expr_expand(poly_to_expr(poly), gf25) == poly


def test_monomial_reads_an_int_coefficient_as_a_code():
    """At GF(25) the int 7 is code 7, not 7 * 1 (code 2)."""
    gf25 = FieldSpec.extension(5, 2)
    poly = LiePolynomial.monomial(gf25, (y(1), z(1)), 7)
    assert [c.code for _, c in poly.terms] == [7]
    assert poly == LiePolynomial.monomial(gf25, (y(1), z(1)), gf25.from_code(7))


# -- substitution ------------------------------------------------------------------


def test_substitute_even_image():
    e = substitute(yy(), {y(2): bracket(Var(z(1)), Var(z(2)))})
    assert e == bracket(Var(y(1)), bracket(Var(z(1)), Var(z(2))))


def test_substitute_parity_violation():
    with pytest.raises(ParityError):
        substitute(yy(), {y(2): Var(z(1))})


def test_substitute_composition_law():
    L = sl2(GF5)
    rng = random.Random(23)
    f = chain(Var(z(1)), AdPower(Var(y(1)), 2))
    image = bracket(Var(z(2)), Var(z(3)))  # even image for y1
    g = substitute(f, {y(1): image})
    for _ in range(25):
        zvals = {z(i): L.element([0, rng.randrange(5), rng.randrange(5)]) for i in (1, 2, 3)}
        direct = evaluate(g, L, zvals)
        composed = evaluate(f, L, {z(1): zvals[z(1)],
                                   y(1): evaluate(image, L, zvals)})
        assert direct == composed


def test_set_s_contains_graded_substitutions():
    gens = set_s(5)
    assert len(gens) == 4
    from glie.freelie import expr_variables

    for g in gens[:2]:
        vs = expr_variables(g)
        assert all(v.kind in "yz" for v in vs)


def test_builtin_lookup():
    assert builtin("yy", 5) == yy()
    assert builtin("zyq-zy", 5) == zyq_zy(5)
    assert len(builtin("S", 5)) == 4
    assert len(builtin("lema5", 5)) == 3
    with pytest.raises(KeyError):
        builtin("nope", 5)
    # one lookup for every spelling: any case, _ for -
    assert builtin("SEM1_Graded", 5) == builtin("sem1-graded", 5)
    assert builtin("s", 5) == builtin("S", 5) and builtin("LEMA5", 5) == builtin("lema5", 5)
    with pytest.raises(KeyError):
        builtin("S-", 5)


def test_substitute_zero_image():
    inst = substitute(zz(), {z(1): LiePolynomial.zero(GF5)})
    assert inst == bracket(ZERO, Var(z(2)))
    assert expr_expand(inst, GF5).is_zero()
    per, total = degree_bound(inst)
    assert y(1) not in per and (per, total) == ({z(2): 1}, 1)
    assert degree_form(inst, [z(2)]) == ((1,),)


def test_expression_nodes_keep_their_hash_but_do_not_pickle_it():
    """A node keeps its hash after the first use.  Copies and pickles leave
    it out, so each process hashes afresh with its own string salt: a node
    pickled under another hash seed is found again as a dict key here."""
    e = sem2(5)
    h = hash(e)
    assert e.__dict__["_hash"] == h
    for other in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert "_hash" not in other.__dict__
        assert other == e and hash(other) == h
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; from glie.freelie import sem2; e = sem2(5); hash(e); "
         "sys.stdout.write(pickle.dumps(e).hex())"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = pickle.loads(bytes.fromhex(proc.stdout))
    assert {e: 1}.get(loaded) == 1 and hash(loaded) == h
