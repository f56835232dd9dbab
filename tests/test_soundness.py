"""Checks that guard certified answers raise real exceptions.

Each test forces one check to fail; the last one reruns such a test under
`python -O`, which strips `assert` statements, so a soundness check written
as an `assert` fails here.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sigmatrop import dynamics, polyhedra, sigma
from sigmatrop.dynamics import Norm, PushMap, check_angle_bound
from sigmatrop.polyhedra import HemisphereCertificate, Polyhedron, in_open_hemisphere
from sigmatrop.rings import QQ, Character, LaurentPoly, SoundnessError
from sigmatrop.sigma import ScalarAction, certificate_search


def test_certificate_search_rejects_an_invalid_certificate(monkeypatch):
    mod, chi = ScalarAction.of(6), Character.of(-1)
    assert certificate_search(mod, chi, 2, 100) is not None
    monkeypatch.setattr(sigma, "certificate_valid", lambda *args: False)
    with pytest.raises(SoundnessError):
        certificate_search(mod, chi, 2, 100)


def test_hemisphere_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(polyhedra, "_solve_system",
                        lambda eqs, rows, n: [Fraction(0)] * n)
    with pytest.raises(SoundnessError):
        in_open_hemisphere([(1, 0), (0, 1)])


def test_hemisphere_alternative_must_produce_a_certificate(monkeypatch):
    monkeypatch.setattr(polyhedra, "_solve_system", lambda *args: None)
    with pytest.raises(SoundnessError):
        in_open_hemisphere([(1,), (-1,)])


def test_hemisphere_combination_is_rechecked(monkeypatch):
    answers = iter([None, [Fraction(1), Fraction(1)]])  # sums to 2, not 1
    monkeypatch.setattr(polyhedra, "_solve_system", lambda *args: next(answers))
    with pytest.raises(SoundnessError):
        in_open_hemisphere([(1,), (-1,)])


def test_hemisphere_certificate_needs_exactly_one_part():
    with pytest.raises(ValueError):
        HemisphereCertificate()
    with pytest.raises(ValueError):
        HemisphereCertificate(witness=Character.of(1), combination=(Fraction(1),))


def test_angle_bound_needs_a_positive_norm(monkeypatch):
    phi = PushMap.multiplication_by(LaurentPoly.monomial((1,)))
    assert check_angle_bound(phi, Character.of(1), []).passed
    monkeypatch.setattr(dynamics, "norm", lambda phi: Norm(Fraction(0), 0.0))
    with pytest.raises(SoundnessError):
        check_angle_bound(phi, Character.of(1), [])


def test_integer_cover_needs_an_integer_generator():
    f = LaurentPoly(1, QQ, {(1,): 1, (0,): -2})
    with pytest.raises(ValueError):
        sigma._cover_multiple_piece(f, Polyhedron.full(1), 1, 10)


def test_soundness_checks_survive_python_O():
    root = Path(__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
    test = f"{Path(__file__).resolve()}::test_hemisphere_witness_is_rechecked"
    out = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q",
                          "-p", "no:cacheprovider", test],
                         cwd=root, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
