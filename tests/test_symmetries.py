"""The invariant's symmetries on seeded modules: relations that need no
reference answer.

GL_n(Z) twist.  For U in GL_n(Z), two twists of a module are compared with
the module itself, each with its own convention:
- a cyclic module DG/(f) goes to DG/(f'), f' = sum c_g x^(Ug).  The minimum
  of chi'.(Ug) over f's monomials is the minimum of (U^T chi').g, so the
  class of chi' for the twist is the class of U^T chi' for the module;
- a scalar action rho goes to rho'_j = prod_i rho_i^(U_ij).  Its p-adic
  value vectors are v' = U^T v, so the class of chi' for the twist is the
  class of U^-T chi' for the module.  The U^T of the cyclic substitution
  does not hold here: on the seeded scalar actions below it reports false
  conflicts, which the last test asserts.

Same radical.  Over Q, DG/(f) has the same invariant as DG/(f^2), DG/(x^g f)
and DG/(-f).

Across commands.  For a certificate lam over Z, the push map "multiply by
1 - lam" has a positivity cone (the dyn command's) that contains lam's
validity cone: the push criterion of Bieri and Geoghegan.

A probe direction that both sides decide must get the same class.  A probe
that only one side decides is counted, not failed: it points at a search
that gave up, not at a wrong answer.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from sigmatrop import cli
from sigmatrop.dynamics import PushMap, sigma_of_push
from sigmatrop.polyhedra import PolyhedralSet
from sigmatrop.rings import QQ, ZZ, Direction, LaurentPoly
from sigmatrop.sigma import CyclicModule, ScalarAction, sigma_of_module

from test_output_digests import JOBS

RATIOS = [Fraction(r) for r in ("2", "3", "5", "1/2", "1/3", "6", "2/3", "3/2",
                                 "10/3", "4/9", "5/2")]


def probes(rank):
    """The primitive directions of [-2, 2]^rank."""
    return sorted({Direction.from_vector(v)
                   for v in itertools.product(range(-2, 3), repeat=rank) if any(v)},
                  key=lambda d: d.vector)


def random_unimodular(rng, rank):
    """U in GL_rank(Z) from a few elementary row operations and a sign."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(rank), 2)
        s = rng.choice((-1, 1))
        u[a] = [x + s * y for x, y in zip(u[a], u[b])]
    if rng.random() < 0.5:
        i = rng.randrange(rank)
        u[i] = [-x for x in u[i]]
    assert abs(sympy.Matrix(u).det()) == 1
    return u


def transpose_apply(m, v):
    """m^T v."""
    return tuple(sum(m[j][i] * v[j] for j in range(len(v))) for i in range(len(m[0])))


def inverse(u):
    return [[int(x) for x in row] for row in sympy.Matrix(u).inv().tolist()]


def compare(original, twisted, rank, relate):
    """(agreements, conflicts, one-sided) over the probes: the twisted
    result's class at chi' against the original's at relate(chi')."""
    counts = [0, 0, 0]
    for d in probes(rank):
        a = twisted.classify(d)
        b = original.classify(Direction.from_vector(relate(d.vector)))
        if "undecided" in (a, b):
            counts[2] += a != b
        else:
            counts[0 if a == b else 1] += 1
    return counts


@pytest.fixture(scope="module")
def scalar_twists():
    """(rank, U, result, twisted result) for 20 seeded scalar actions of
    rank 2-3."""
    rng = random.Random(5)
    out = []
    for _ in range(20):
        rank = rng.randint(2, 3)
        rhos = [rng.choice(RATIOS) for _ in range(rank)]
        u = random_unimodular(rng, rank)
        twisted = [math.prod(rhos[i] ** u[i][j] for i in range(rank))
                   for j in range(rank)]
        out.append((rank, u, sigma_of_module(ScalarAction(tuple(rhos))),
                    sigma_of_module(ScalarAction(tuple(twisted)))))
    return out


def random_poly(rng, rank, terms):
    exps = set()
    while len(exps) < terms:
        exps.add(tuple(rng.randint(-1, 1) for _ in range(rank)))
    return LaurentPoly(rank, QQ, {g: rng.choice((-3, -2, -1, 1, 2, 3, Fraction(1, 2)))
                                  for g in sorted(exps)})


def test_scalar_twist_relates_chi_to_its_inverse_transpose_image(scalar_twists):
    totals = [0, 0, 0]
    for rank, u, result, twisted in scalar_twists:
        inv = inverse(u)
        counts = compare(result, twisted, rank, lambda v: transpose_apply(inv, v))
        assert counts[1] == 0, (result, twisted, u)
        totals = [t + c for t, c in zip(totals, counts)]
    assert totals[0] > 1000, totals


def test_cyclic_twist_relates_chi_to_its_transpose_image():
    rng = random.Random(8)
    totals = [0, 0, 0]
    for _ in range(30):
        f = random_poly(rng, 2, rng.randint(2, 4))
        u = random_unimodular(rng, 2)
        twisted = LaurentPoly(2, QQ, {transpose_apply(list(zip(*u)), g): c
                                      for g, c in f.terms.items()})
        counts = compare(sigma_of_module(CyclicModule(2, QQ, (f,))),
                         sigma_of_module(CyclicModule(2, QQ, (twisted,))), 2,
                         lambda v: transpose_apply(u, v))
        assert counts[1] == 0, (f, u)
        totals = [t + c for t, c in zip(totals, counts)]
    # over a field one generator leaves nothing undecided
    assert totals[2] == 0 and totals[0] == 30 * len(probes(2)), totals


def test_same_radical_gives_the_same_invariant():
    rng = random.Random(21)
    checked = 0
    for rank in (1, 1, 2, 2, 2, 2):
        f = random_poly(rng, rank, rng.randint(2, 3))
        shift = tuple(rng.randint(-2, 2) for _ in range(rank))
        results = [sigma_of_module(CyclicModule(rank, QQ, (g,)))
                   for g in (f, f * f, f.shift(shift), f.scale(-1))]
        for d in probes(rank):
            classes = {r.classify(d) for r in results}
            assert len(classes) == 1 and "undecided" not in classes, (f, d)
            checked += 1
    assert checked == 2 * len(probes(1)) + 4 * len(probes(2))


def test_the_cyclic_convention_does_not_hold_for_scalar_twists(scalar_twists):
    conflicts = sum(compare(result, twisted, rank, lambda v: transpose_apply(u, v))[1]
                    for rank, u, result, twisted in scalar_twists)
    assert conflicts > 0


def test_the_push_of_each_integral_certificate_covers_its_validity_cone():
    checked = 0
    for command, payload in JOBS.values():
        if command not in ("sigma", "group"):
            continue
        module, bounds = cli._read_sigma(payload, ("fpm",))
        for _piece, cone, lam in sigma_of_module(module, **bounds).certified:
            if lam.domain != ZZ:
                continue
            push = PushMap.of([[LaurentPoly.one(lam.rank) - lam]])
            assert PolyhedralSet(cone.rank, [cone]).subset_of(sigma_of_push(push)), lam
            checked += 1
    # the scalar, matrix and cyclic-over-Z digest jobs
    assert checked == 112
