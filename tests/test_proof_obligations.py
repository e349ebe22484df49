"""Proof obligations raise TheoremViolation, also under python -O, which
strips assert statements.

Each scenario breaks one obligation on purpose and restores what it patched.
The same scenarios run in this process and in a `python -O` subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import glie.identities as identities
from glie.algebra import sl2
from glie.errors import TheoremViolation
from glie.fields import FieldSpec
from glie.freelie import yy, z, zz
from glie.identities import (
    basis_check,
    check_identity,
    consequence_span,
    window_box,
    window_multilinear,
)
from glie.linalg import SubspaceBasis

GF5 = FieldSpec.prime(5)
TESTS_DIR = Path(__file__).resolve().parent


def non_identity_generator():
    """[z1, z2] is no identity of sl2, so the cross-check refuses its span."""
    consequence_span(GF5, [zz()], window_multilinear([z(1), z(2)]),
                     check_algebra=sl2(GF5))


def non_identity_consequence():
    """basis_check with a consequence span patched to the whole window, which
    holds non-identities: the cons <= ids check must refuse it."""
    original = identities.consequence_span
    identities.consequence_span = (
        lambda spec, gens, window, *args, **kwargs: SubspaceBasis.full(spec, window.dim))
    try:
        basis_check(sl2(GF5), [yy()], [window_box({z(1): 1, z(2): 1})])
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


SCENARIOS = [non_identity_generator, non_identity_consequence, counterexample_not_reproduced]


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
    assert proc.stdout.split() == ["1", "[True,", "True,", "True]"]
