"""L_box, the free Lie algebra of a box truncated at the box, and the
consequence span that runs in it.

The references share no arithmetic with freelie.TruncatedLieAlgebra:
poly_bracket brackets in the free associative algebra on FieldElement
dicts, reference_ad_maps builds the letter ad maps from it as
consequence_span did before, and reference_span substitutes and expands
every instance with expr_expand and closes the rows through those maps.
"""

import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from glie import identities
from glie.algebra import sl2
from glie.errors import ExpansionTooLarge
from glie.fields import FieldElement, FieldSpec
from glie.freelie import (
    LiePolynomial,
    MultiDegree,
    TruncatedLieAlgebra,
    degree_bound,
    degree_residues,
    expr_expand,
    expr_variables,
    lema5_set,
    lyndon_words,
    poly_bracket,
    set_s,
    substitute,
    word_table,
    y,
    z,
)
from glie.identities import (
    AmbientSpace,
    CheckReport,
    WindowRecord,
    _box_multidegrees,
    basis_check,
    consequence_span,
    default_sl2_windows,
    identity_space,
    total_degree_windows,
    window_box,
)
from glie.linalg import SubspaceBasis, matmul_codes, rref_codes

GF5 = FieldSpec.prime(5)
GF7 = FieldSpec.prime(7)
GF25 = FieldSpec.extension(5, 2)

BOXES = [
    ({y(1): 2, y(2): 2, z(1): 1}, 5),
    ({y(1): 3, z(1): 2}, 4),
    ({y(1): 1, y(2): 1, y(3): 1, y(4): 1}, 4),
    ({y(1): 2, z(1): 1, z(2): 1}, 4),
    ({z(1): 1, y(1): 5}, 6),
]


def box_of(caps, max_total):
    """The box's AmbientSpace: its monomials in the order of its multidegrees."""
    return AmbientSpace("box", caps,
                        [md for md in _box_multidegrees(caps) if md.total <= max_total])


def truncated(spec, caps, max_total):
    return TruncatedLieAlgebra(spec, box_of(caps, max_total).multidegrees)


def poly_of_row(spec, lie, row):
    return LiePolynomial.from_dict(spec, {w: spec.from_code(int(c))
                                          for w, c in zip(lie.monomials, row) if c})


def row_of_poly(lie, poly):
    """The coordinates of poly in L_box: its terms outside the box dropped."""
    index = {w: i for i, w in enumerate(lie.monomials)}
    row = np.zeros(lie.dim, dtype=np.int64)
    for w, c in poly.terms:
        if w in index:
            row[index[w]] = c.code
    return row


@pytest.mark.parametrize("spec", [GF5, GF7, GF25], ids=["q5", "q7", "q25"])
@pytest.mark.parametrize("caps, max_total", BOXES, ids=[str(i) for i in range(len(BOXES))])
def test_bracket_matches_poly_bracket(spec, caps, max_total):
    lie = truncated(spec, caps, max_total)
    assert lie.monomials == box_of(caps, max_total).monomials
    rng = random.Random(f"{spec.q} {caps}")
    rows = np.zeros((2, 12, lie.dim), dtype=np.int64)
    for pair in rows:
        for row in pair:
            picks = rng.sample(range(lie.dim), min(rng.randint(1, 4), lie.dim))
            row[picks] = [rng.randrange(1, spec.q) for _ in picks]
    got = lie.bracket(rows[0], rows[1])
    for a, b, value in zip(rows[0], rows[1], got):
        want = poly_bracket(poly_of_row(spec, lie, a), poly_of_row(spec, lie, b))
        assert value.tolist() == row_of_poly(lie, want).tolist()


def reference_ad_maps(spec, box, caps, max_total):
    """For each variable v of the box, (columns, head, ad) for bracketing
    with v, built from poly_bracket: ad holds [m, v] for each box monomial m
    whose bracket stays in the box; columns lists first, head of them, the
    box monomials whose bracket leaves the box, v itself aside, then those
    whose bracket stays, in the order of ad's rows."""
    index = {w: i for i, w in enumerate(box.monomials)}
    maps = []
    for v in box.variables:
        var = LiePolynomial.monomial(spec, (v,))
        stays, leaves = [], []
        for m in box.monomials:
            if len(m) < max_total and m.count(v) < caps[v]:
                stays.append(m)
            elif m != (v,):
                leaves.append(m)
        ad = np.zeros((len(stays), box.dim), dtype=np.int64)
        for row, m in enumerate(stays):
            for w, c in poly_bracket(LiePolynomial.monomial(spec, m), var).terms:
                ad[row, index[w]] = c.code
        maps.append(([index[m] for m in leaves + stays], len(leaves), ad))
    return maps


@pytest.mark.parametrize("spec", [GF5, GF7, GF25], ids=["q5", "q7", "q25"])
@pytest.mark.parametrize("caps, max_total", BOXES, ids=[str(i) for i in range(len(BOXES))])
def test_letter_ad_maps_match_reference(spec, caps, max_total):
    box = box_of(caps, max_total)
    lie = TruncatedLieAlgebra(spec, box.multidegrees)
    for v, (columns, head, ad) in zip(box.variables, reference_ad_maps(spec, box, caps, max_total)):
        dense = np.zeros((lie.dim, lie.dim), dtype=np.int64)
        for i, k, matrix in lie.letter_ad(v):
            dense[lie.blocks[i], lie.blocks[k]] = matrix
        stays = columns[head:]
        assert dense[stays].tolist() == ad.tolist()
        assert not dense[columns[:head]].any()


def reference_span(spec, gens, ambient):
    """consequence_span as it ran before L_box: every instance of a pool
    image tuple substituted and expanded by expr_expand, with the tuples
    whose degree bound exceeds the box dropped by ExpansionTooLarge, and the
    closure through reference_ad_maps."""
    caps, max_total = ambient.caps(), ambient.max_total
    box = box_of(caps, max_total)
    index = {w: i for i, w in enumerate(box.monomials)}
    rows = []
    for gen in gens:
        gvars = expr_variables(gen)
        if degree_bound(gen)[1] > max_total:
            continue
        pools = [[LiePolynomial.monomial(spec, w, spec.from_code(c))
                  for md in box.multidegrees if v.parity in (None, md.parity)
                  for w in lyndon_words(md)
                  for c in ([1] if len(residues) == 1 else range(1, spec.q))]
                 for v, residues in zip(gvars, degree_residues(gen, gvars, spec))]
        for combo in itertools.product(*pools):
            try:
                poly = expr_expand(substitute(gen, dict(zip(gvars, combo))), spec,
                                   caps=caps, total_cap=max_total)
            except ExpansionTooLarge:
                continue
            row = np.zeros(box.dim, dtype=np.int64)
            for w, c in poly.terms:
                row[index[w]] = c.code
            rows.append(row)
    span = rref_codes(spec, np.array(rows, dtype=np.int64).reshape(len(rows), box.dim))[0]
    ad_maps = reference_ad_maps(spec, box, caps, max_total)
    while True:
        images = [matmul_codes(spec, identities._rows_vanishing_on(spec, span[:, cols], head), ad)
                  for cols, head, ad in ad_maps]
        grown = rref_codes(spec, np.concatenate([span, *images]))[0]
        if len(grown) == len(span):
            break
        span = grown
    inside = [index[w] for w in ambient.monomials]
    outside = sorted(set(range(box.dim)) - set(inside))
    return SubspaceBasis(spec, ambient.dim, identities._rows_vanishing_on(
        spec, span[:, outside + inside], len(outside)))


@pytest.mark.parametrize("q", [5, 7])
def test_span_matches_reference_on_total_degree_windows(q):
    spec = FieldSpec.prime(q)
    for gens in (set_s(q), lema5_set(q)):
        for win in total_degree_windows(4, q):
            assert consequence_span(spec, gens, win) == reference_span(spec, gens, win), win.label


@pytest.mark.parametrize("spec", [GF5, GF25], ids=["q5", "q25"])
def test_span_matches_reference_on_boxes(spec):
    gens = set_s(spec.q)
    for caps, _ in BOXES:
        win = window_box(caps)
        assert consequence_span(spec, gens, win) == reference_span(spec, gens, win), win.label


def full_closure_records(alg, gens, windows):
    """basis_check's window records with the span closed in full on every
    window, and no window skipped."""
    spec = alg.spec
    records = []
    for win in windows:
        ids = identity_space(alg, win)
        cons = consequence_span(spec, gens, win)
        assert ids.contains_space(cons)
        missing = next((r for r in ids.rows if not cons.contains(r)), None)
        records.append(WindowRecord(
            win.label, win.dim, ids.dim, cons.dim,
            "equal" if missing is None else "strict-inclusion",
            None if missing is None else str(win.poly_of(spec, missing))))
    return tuple(records)


@pytest.mark.parametrize("spec, windows", [
    (GF5, default_sl2_windows(5)),
    (GF7, default_sl2_windows(7)),
    (GF25, default_sl2_windows(25)),
    (GF5, total_degree_windows(5, 5)),
], ids=["q5-default", "q7-default", "q25-default", "q5-degree5"])
def test_stopped_span_keeps_the_records(monkeypatch, spec, windows):
    """The span stops at the identity space's dimension and is skipped where
    that is 0; the records are those of the full closure.  The soundness
    checks are replaced by holding reports: they take seconds at GF(25) and
    are tested elsewhere."""
    alg = sl2(spec)
    gens = set_s(spec.q)
    monkeypatch.setattr(identities, "check_identity",
                        lambda *args, **kwargs: CheckReport(True, 0))
    targets = Counter()
    span = identities.consequence_span
    monkeypatch.setattr(identities, "consequence_span",
                        lambda *args: targets.update([len(args) > 3]) or span(*args))
    report = basis_check(alg, gens, windows)
    assert report.windows == full_closure_records(alg, gens, windows)
    assert targets[False] == 0 and targets[True] == sum(r.id_dim > 0 for r in report.windows)
    assert 0 < targets[True] < len(windows)


def test_stop_at_the_target_keeps_the_window_part(monkeypatch):
    """With a target below the full dimension the closure stops early, with
    a window part of at least that dimension inside the full one.  A target
    that the instances reach runs no closure round at all."""
    win = window_box({z(1): 1, y(1): 1, y(2): 1})
    full = consequence_span(GF5, set_s(5), win)
    assert full.dim == 2 and consequence_span(GF5, set_s(5), win, 0).dim == 1
    for target in range(full.dim + 1):
        part = consequence_span(GF5, set_s(5), win, target)
        assert part.dim >= target and full.contains_space(part)
    rounds = Counter()
    image = identities._ad_image
    monkeypatch.setattr(identities, "_ad_image",
                        lambda *args: rounds.update([args[-1][1]]) or image(*args))
    yy_window = window_box({y(1): 1, y(2): 1})
    assert consequence_span(GF5, set_s(5), yy_window, 1).dim == 1
    assert not rounds
    assert consequence_span(GF5, set_s(5), win, full.dim) == full
    assert rounds


COUNTED_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
               "__truediv__", "__pow__", "inverse")


@pytest.mark.parametrize("caps", [{z(1): 1, y(1): 5}, {y(i): 1 for i in range(1, 5)}],
                         ids=["z1-y5", "y1-y4"])
def test_span_makes_no_field_element_operation(monkeypatch, caps):
    """consequence_span runs on code arrays alone, word tables included."""
    word_table.cache_clear()
    gens = set_s(5)
    count = Counter()
    for name in COUNTED_OPS:
        op = getattr(FieldElement, name)
        monkeypatch.setattr(FieldElement, name, lambda *args, op=op, name=name:
                            count.update([name]) or op(*args))
    assert consequence_span(GF5, gens, window_box(caps)).dim > 0
    assert not count


def test_word_tables_of_six_letters_stay_small():
    """Building the tables of the box (y1..y6:1), 63 multidegrees and 415
    Lyndon monomials, peaks at about 1.7 MB of Python allocations."""
    caps = {y(i): 1 for i in range(1, 7)}
    word_table.cache_clear()
    tracemalloc.start()
    try:
        lie = TruncatedLieAlgebra(GF5, list(_box_multidegrees(caps)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lie.dim == 415
    assert peak < 3_500_000


def test_word_table_inverts_the_lyndon_columns():
    md = MultiDegree.of({y(1): 3, y(2): 2, z(1): 1})
    table = word_table(5, md)
    square = table.expand[:, [table.columns[w] for w in table.lyndon]]
    assert table.lyndon == tuple(lyndon_words(md))
    assert (np.triu(square) == square).all() and (np.diag(square) == 1).all()
    assert (square @ table.inverse % 5 == np.eye(len(table.lyndon), dtype=np.int64)).all()


def test_word_table_of_a_long_word():
    """(y1:64, z1:1) has one Lyndon word, y1^64 z1, whose bracketing
    [y1, [y1, ..., [y1, z1]]] expands to the sum of (-1)^k C(64, k)
    y1^(64 - k) z1 y1^k: 65 words of 65 letters, more than an int64 holds
    as binary digits."""
    table = word_table(7, MultiDegree.of({y(1): 64, z(1): 1}))
    assert table.lyndon == ((y(1),) * 64 + (z(1),),)
    for k in range(65):
        word = (y(1),) * (64 - k) + (z(1),) + (y(1),) * k
        assert table.expand[0, table.columns[word]] == (-1) ** k * math.comb(64, k) % 7
