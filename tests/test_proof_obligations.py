"""Proof obligations raise TheoremViolation, also under python -O, which
strips assert statements.

Each scenario breaks one obligation on purpose and restores what it patched.
The same scenarios run in this process and in a `python -O` subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glie.gradings as gradings
import glie.identities as identities
from glie.algebra import GradedLieAlgebra, sl2
from glie.errors import TheoremViolation
from glie.fields import FieldSpec
from glie.freelie import sem1_graded, y, yy, zz
from glie.gradings import GradingDescriptor, natural_characterization, unit_component_check
from glie.identities import basis_check, check_identity, window_box
from glie.linalg import SubspaceBasis

GF5 = FieldSpec.prime(5)
TESTS_DIR = Path(__file__).resolve().parent


def non_identity_consequence():
    """basis_check with a consequence span patched to the whole window, which
    holds non-identities: the cons <= ids check must refuse it.  The window
    (y:1,1) has an identity space of dimension 1 of 3, so basis_check asks
    for the span there (it skips windows whose identity space is 0)."""
    original = identities.consequence_span
    identities.consequence_span = (
        lambda spec, gens, window, *args, **kwargs: SubspaceBasis.full(spec, window.dim))
    try:
        basis_check(sl2(GF5), [yy()], [window_box({y(1): 1, y(2): 1})])
    finally:
        identities.consequence_span = original


def counterexample_not_reproduced():
    """A batch counterexample whose scalar re-evaluation vanishes."""
    original = identities.evaluate
    identities.evaluate = lambda e, alg, assignment, graded=True: alg.zero_element()
    try:
        check_identity(zz(), sl2(GF5))
    finally:
        identities.evaluate = original


def ad_power_kernel_corrupted():
    """batch_ad_powers with one row of its first power corrupted: sem1 holds
    on sl2, so the scalar re-evaluation of the false counterexample, an
    orbit row mapped back to a graded assignment, vanishes."""
    original = GradedLieAlgebra.batch_ad_powers

    def corrupted(self, u, w, exponents):
        powers = original(self, u, w, exponents)
        bad = powers[0].copy()
        bad[5] = (bad[5] + 1) % self.spec.p
        return [bad, *powers[1:]]

    GradedLieAlgebra.batch_ad_powers = corrupted
    try:
        check_identity(sem1_graded(5), sl2(GF5))
    finally:
        GradedLieAlgebra.batch_ad_powers = original


def orbit_representative_dropped():
    """A representative table without (0, 2, 1): the elements of sl2 whose
    companion form it is are covered by no row, so the certification of the
    orbit reduction must refuse the sem1 check."""
    original = identities._orbit_representatives
    identities._orbit_representatives = lambda spec: np.delete(original(spec), 3, axis=0)
    try:
        check_identity(sem1_graded(5), sl2(GF5))
    finally:
        identities._orbit_representatives = original


def centralizer_map_moves_its_representative():
    """A centralizer list with [[1, 1], [0, 1]] added for every
    representative: it commutes with no r = [[0, d], [1, 0]], so the pair
    table built from it must refuse the sem1 check.  The tables are cached
    per field, so the cache is emptied before and after."""
    original = identities._centralizer_maps

    def with_shear(spec, rs):
        maps, owners = original(spec, rs)
        return (np.concatenate([maps, np.tile([1, 1, 0, 1], (len(rs), 1))]),
                np.concatenate([owners, np.arange(len(rs))]))

    identities._centralizer_maps = with_shear
    identities._ORBITS.clear()
    try:
        check_identity(sem1_graded(5), sl2(GF5))
    finally:
        identities._centralizer_maps = original
        identities._ORBITS.clear()


def natural_grading_without_isomorphism():
    """exp(ad e) carries the natural grading to even = span{h - 2e}, odd =
    span{e, f + h}, which meets both recognition hypotheses.  With the
    automorphism list cut down to the identity, no isomorphism is found."""
    original = gradings.sl2_automorphisms
    gradings.sl2_automorphisms = lambda spec: np.eye(3, dtype=np.int64)[None]
    try:
        natural_characterization(GradingDescriptor(
            "sl2", GF5,
            SubspaceBasis.from_vectors(GF5, 3, [[1, -2, 0]]),
            SubspaceBasis.from_vectors(GF5, 3, [[0, 1, 0], [1, 0, 1]]),
            "exp(ad e) of the natural grading"))
    finally:
        gradings.sl2_automorphisms = original


def unit_criterion_disagrees():
    """even = span{1, e12} holds the unit, but with odd = span{e11, e21} the
    product e11 e12 = e12 leaves the odd part, so the two sides of the
    criterion disagree.  The split is no Lie grading ([e12, e11] = -e12), so
    the descriptor is built with its validation switched off."""
    original = GradingDescriptor.__post_init__
    GradingDescriptor.__post_init__ = lambda self: None
    try:
        d = GradingDescriptor("m2", GF5,
                              SubspaceBasis.from_vectors(GF5, 4, [[1, 0, 0, 1], [0, 1, 0, 0]]),
                              SubspaceBasis.from_vectors(GF5, 4, [[1, 0, 0, 0], [0, 0, 1, 0]]),
                              "no Lie grading")
    finally:
        GradingDescriptor.__post_init__ = original
    unit_component_check(d)


def conjugation_scan_repeats_a_scalar_class():
    """M2 candidates with the multiples 2g of the scalar-class
    representatives g added: 2g conjugates as g does, so the maps are no
    longer distinct and the scan must refuse them."""
    original = gradings.projective_codes
    gradings.projective_codes = lambda spec, n: np.concatenate(
        [original(spec, n), 2 * original(spec, n)[1:]])
    try:
        gradings.m2_automorphisms.__wrapped__(GF5)
    finally:
        gradings.projective_codes = original


SCENARIOS = [non_identity_consequence, counterexample_not_reproduced,
             ad_power_kernel_corrupted, orbit_representative_dropped,
             centralizer_map_moves_its_representative,
             natural_grading_without_isomorphism, unit_criterion_disagrees,
             conjugation_scan_repeats_a_scalar_class]


def raises_theorem_violation(scenario) -> bool:
    try:
        scenario()
    except TheoremViolation:
        return True
    return False


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
def test_obligation_raises(scenario):
    assert raises_theorem_violation(scenario)


def test_obligations_raise_under_optimize():
    code = ("import sys, test_proof_obligations as t\n"
            "print(sys.flags.optimize, [t.raises_theorem_violation(s) for s in t.SCENARIOS])\n")
    env = dict(os.environ)
    src = str(TESTS_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(TESTS_DIR), src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"1 {[True] * len(SCENARIOS)}\n"
