"""Checks that guard certified answers raise real exceptions.

Each test forces one check to fail; the last two make sure no check is an
`assert`, which `python -O` strips: one finds no `assert` statement in the
package source, the other reruns such a test under `python -O`.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sigmatrop
from sigmatrop import linalg, polyhedra, sigma
from sigmatrop.dynamics import check_angle_bound
from sigmatrop.polyhedra import HemisphereCertificate, Polyhedron, in_open_hemisphere
from sigmatrop.rings import ZZ, Character, LaurentPoly, SoundnessError
from sigmatrop.sigma import (CyclicModule, ScalarAction, certificate_search,
                             sigma_of_module)


def test_certificate_search_rejects_an_invalid_certificate(monkeypatch):
    mod, chi = ScalarAction.of(6), Character.of(-1)
    assert certificate_search(mod, chi, 2, 100) is not None
    _solve_returns(monkeypatch, lambda ncols: [-1] * ncols)  # 1 - x^-1
    with pytest.raises(SoundnessError, match="annihilate"):
        certificate_search(mod, chi, 2, 100)


def test_hemisphere_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(polyhedra, "_solve_system",
                        lambda eqs, rows, n: ((0,) * n, 1))
    with pytest.raises(SoundnessError):
        in_open_hemisphere([(1, 0), (0, 1)])


def test_hemisphere_alternative_must_produce_a_certificate(monkeypatch):
    monkeypatch.setattr(polyhedra, "_solve_system", lambda *args: None)
    with pytest.raises(SoundnessError):
        in_open_hemisphere([(1,), (-1,)])


def test_hemisphere_combination_is_rechecked(monkeypatch):
    answers = iter([None, ((1, 1), 1)])  # sums to 2, not 1
    monkeypatch.setattr(polyhedra, "_solve_system", lambda *args: next(answers))
    with pytest.raises(SoundnessError):
        in_open_hemisphere([(1,), (-1,)])


def test_hemisphere_certificate_needs_exactly_one_part():
    with pytest.raises(ValueError):
        HemisphereCertificate()
    with pytest.raises(ValueError):
        HemisphereCertificate(witness=Character.of(1), combination=(Fraction(1),))


def test_angle_bound_needs_a_positive_norm():
    assert check_angle_bound(Character.of(1), Fraction(1), Fraction(1), []).passed
    with pytest.raises(SoundnessError):
        check_angle_bound(Character.of(1), Fraction(1), Fraction(0), [])


def _solve_returns(monkeypatch, solution):
    """Make every integer system the search builds return solution(ncols)."""
    monkeypatch.setattr(linalg, "solve_integer",
                        lambda rows, rhs, ncols: solution(ncols))


def test_searched_certificate_must_annihilate(monkeypatch):
    # the one column is x^-1: lam = 1 - x^-1, which is 1 - 1/6 at rho = 6
    _solve_returns(monkeypatch, lambda ncols: [-1] * ncols)
    with pytest.raises(SoundnessError, match="annihilate"):
        sigma_of_module(ScalarAction.of(6))


def test_searched_certificate_needs_constant_term_one():
    # no job path emits lam = 2 - x (a matrix system fixes the constant term
    # to 1, and a unit vertex gives c_g0^2 = 1), so the check is called alone
    lam = LaurentPoly(1, ZZ, {(0,): 2, (1,): -1})
    with pytest.raises(SoundnessError, match="constant term"):
        sigma._check_searched(lam, Polyhedron.cone(1, gt=[(-1,)]))


def test_searched_certificate_must_be_positive_on_its_piece(monkeypatch):
    # every monomial passes the strict-dual test, so the search finds
    # 1 - x^-1, whose monomial x^-1 is negative on the direction +1
    monkeypatch.setattr(sigma, "_strict_dual_test", lambda piece: lambda g: True)
    with pytest.raises(SoundnessError, match="not positive"):
        sigma_of_module(ScalarAction.of(1))


def test_multiple_certificate_needs_constant_term_one():
    # x^-1 (2 - x) = 2x^-1 - 1 and 0: the vertex -x taken without its sign,
    # and no certificate at all
    piece = Polyhedron.cone(1, gt=[(-1,)])
    for lam in (LaurentPoly(1, ZZ, {(-1,): 2, (0,): -1}), LaurentPoly.zero(1)):
        with pytest.raises(SoundnessError, match="constant term"):
            sigma._check_searched(lam, piece)


def test_multiple_certificate_must_be_positive_on_its_piece(monkeypatch):
    # every coefficient of 1 - x - y is +-1, and its region pieces share
    # three certificates, one per vertex; with every difference passing the
    # vertex-cone test, the rule takes the first vertex, 0, on each piece,
    # and lam = 1 - x - y is not positive on the pieces of the other two
    f = LaurentPoly(2, ZZ, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    result = sigma_of_module(CyclicModule(2, ZZ, (f,)))
    assert result.undecided.is_empty
    assert len({lam for _, _, lam in result.certified}) == 3
    monkeypatch.setattr(sigma, "_strict_dual_test", lambda piece: lambda g: True)
    with pytest.raises(SoundnessError, match="not positive"):
        sigma_of_module(CyclicModule(2, ZZ, (f,)))


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


def test_package_source_has_no_assert_statements():
    found = []
    for path in sorted(Path(sigmatrop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_package_source_imports_no_random():
    """Every decided answer rests on a certificate, none on sampled draws."""
    found = []
    for path in sorted(Path(sigmatrop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                               for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "random" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
