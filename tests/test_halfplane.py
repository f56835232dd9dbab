import math
import random
from fractions import Fraction

import pytest

from sigmatrop import halfplane
from sigmatrop.halfplane import (_in_ball_at_zero, _level_at_zero,
                                 verify_infinity_obstruction_A, verify_push_B,
                                 verify_support_at_zero_A, verify_zero_obstruction_B)
from sigmatrop.rings import Direction, SoundnessError
from sigmatrop.sigma import ScalarAction, sigma_of_module

from reference_halfplane import (BASE_POINT, GroupElement, GroupRingElement,
                                 HoroballSpec, busemann_arg, epsilon,
                                 reference_infinity_obstruction,
                                 reference_zero_obstruction, t_gen)

# the levels q of the oracle grids: below, at and above the identity's
# level 1 at both boundary points, and past p^2 for p = 2
LEVELS = (-2, 0, Fraction(1, 9), Fraction(1, 2), 1, Fraction(10, 9), Fraction(3, 2),
          2, 4, 9)


def a_gen(p):
    """The unipotent generator z -> z + 1."""
    return GroupElement.of(p, 0, 1)


def mat_mul2(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def rand_element(rng, p):
    k = rng.randint(-3, 3)
    j = rng.randint(0, 3)
    m = rng.randint(-8, 8)
    return GroupElement(p, k, Fraction(m, p ** j))


def test_group_element_guards():
    with pytest.raises(ValueError):
        GroupElement(2, 0, Fraction(1, 3))
    with pytest.raises(ValueError):
        GroupElement(1, 0, Fraction(0))
    GroupElement(2, 1, Fraction(5, 8))  # 8 = 2^3 is fine


def test_group_law_matches_matrix_multiplication():
    rng = random.Random(41)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        g, h = rand_element(rng, p), rand_element(rng, p)
        assert (g * h).matrix() == mat_mul2(g.matrix(), h.matrix())
    g = rand_element(rng, 2)
    assert (g * g.inverse()).identity_like


def test_mobius_action_examples():
    p = 2
    assert t_gen(p).act((0, 1)) == (0, 4)
    assert a_gen(p).act((0, 1)) == (1, 1)
    assert t_gen(p).inverse().act((0, 1)) == (0, Fraction(1, 4))
    with pytest.raises(ValueError):
        t_gen(p).act((0, -1))


def test_busemann_examples():
    assert busemann_arg(None, (0, 4)) == 4
    assert busemann_arg(Fraction(0), (0, Fraction(1, 4))) == 4
    for xi in (None, Fraction(0), Fraction(3, 2)):
        assert busemann_arg(xi, BASE_POINT) == 1


def test_busemann_character_at_infinity():
    # for g fixing infinity the Busemann gain is 2k ln p, independent of z
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3])
        g = rand_element(rng, p)
        expected = Fraction(p) ** (2 * g.k)
        for _ in range(5):
            z = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                 Fraction(rng.randint(1, 9), rng.randint(1, 5)))
            assert busemann_arg(None, g.act(z)) / busemann_arg(None, z) == expected


def _boundary_action(g, xi):
    if xi is None:
        return None
    return Fraction(g.p) ** (2 * g.k) * xi + Fraction(g.p) ** g.k * g.b


def test_busemann_equivariance_identity():
    # busemann_arg(g xi, g z) = busemann_arg(xi, z) * busemann_arg(g xi, g i)
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        g = rand_element(rng, p)
        xi = rng.choice([None, Fraction(0), Fraction(rng.randint(-4, 4)),
                         Fraction(rng.randint(-6, 6), 2)])
        z = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
             Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        gxi = _boundary_action(g, xi)
        lhs = busemann_arg(gxi, g.act(z))
        rhs = busemann_arg(xi, z) * busemann_arg(gxi, g.act(BASE_POINT))
        assert lhs == rhs


def test_horoball_membership():
    hb = HoroballSpec(xi=None, level_arg=Fraction(4))
    assert hb.contains((5, 4)) and not hb.contains((0, 3))
    hb0 = HoroballSpec(xi=Fraction(0), level_arg=Fraction(4))
    assert hb0.contains((0, Fraction(1, 4)))
    assert not hb0.contains((0, 1))


def test_epsilon_examples():
    p = 2
    t_inv = GroupRingElement(p, {t_gen(p).inverse(): 1})
    assert epsilon(t_inv, "A", p) == Fraction(1, 4)
    a_el = GroupRingElement(p, {a_gen(p): 1})
    assert epsilon(a_el, "A", p) == 1 and epsilon(a_el, "B", p) == 1
    four_tinv = GroupRingElement(p, {t_gen(p).inverse(): 4})
    assert epsilon(four_tinv, "A", p) == 1
    assert epsilon(t_inv, "B", p) == 4


def test_group_ring_arithmetic():
    p = 2
    t = t_gen(p)
    lam = GroupRingElement(p, {t: 2, t.inverse(): -1})
    mu = GroupRingElement(p, {GroupElement.of(p, 0): 3})
    assert (lam + mu).terms[GroupElement.of(p, 0)] == 3
    prod = lam * mu
    assert prod.terms[t] == 6
    assert lam.right_mul(4, t).terms[t * t] == 8
    assert (lam + lam.scale(-1)).is_zero


def as_triple(g):
    """g as the integer triple (k, n, e) with b = n / p^e and e least."""
    e = 0
    while (g.b * g.p ** e).denominator != 1:
        e += 1
    return g.k, int(g.b * g.p ** e), e


def test_support_at_zero_A():
    rep = verify_support_at_zero_A(2, 0, 5)
    assert rep.passed and rep.strictly_increasing
    assert [row[2] for row in rep.rows] == [4 ** j for j in range(6)]

    rep3 = verify_support_at_zero_A(3, 1, 3)
    assert rep3.passed

    for k, j_max in ((2, 1), (-2, 3)):
        with pytest.raises(ValueError):
            verify_support_at_zero_A(2, k, j_max)


def test_support_rows_match_the_fraction_geometry():
    for p in (2, 3, 5, 6):
        for k in range(0, 4):
            rep = verify_support_at_zero_A(p, k, k + 4)
            want = []
            for j in range(k, k + 5):
                g = GroupElement.of(p, -j)
                image = epsilon(GroupRingElement(p, {g: p ** (2 * (k + j))}), "A", p)
                want.append((j, image == p ** (2 * k),
                             busemann_arg(Fraction(0), g.act(BASE_POINT))))
            assert rep.rows == want and rep.passed


def test_infinity_obstruction_A():
    rep = verify_infinity_obstruction_A(2, 2, coeff_bound=10, k_max=4)
    assert rep.passed and rep.witness is None
    assert rep.candidates_checked == 21 ** 4
    assert rep.symbolic_applies and rep.symbolic_pass

    rep9 = verify_infinity_obstruction_A(3, 9, coeff_bound=3, k_max=2)
    assert rep9.symbolic_applies and rep9.symbolic_pass and rep9.passed

    low = verify_infinity_obstruction_A(2, Fraction(1, 2), coeff_bound=3, k_max=2)
    assert not low.symbolic_applies  # inconclusive threshold, k = 0 is allowed

    # an empty search proves nothing: no coefficient, or no power of t
    for coeff_bound, k_max in ((-1, 2), (0, 2), (3, 0), (3, -2)):
        with pytest.raises(ValueError):
            verify_infinity_obstruction_A(2, 2, coeff_bound=coeff_bound, k_max=k_max)

    # divisibility by p^2 certifies nothing below p = 2: p = 1 "found" the
    # witness {1: -1, 2: 2}, p = 0 divided by zero and p = -3 passed
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            verify_infinity_obstruction_A(p, 2, coeff_bound=2, k_max=2)


@pytest.mark.parametrize("p", [2, 3, 5, 6])
def test_infinity_obstruction_matches_the_enumeration(p):
    """The certificate's count (2 coeff_bound + 1)^k_max and verdict equal
    the search's, at every level, for the search that finds nothing and
    for the identity witness."""
    outcomes = set()
    for q in LEVELS:
        for coeff_bound in range(1, 5):
            for k_max in range(1, 5):
                rep = verify_infinity_obstruction_A(p, q, coeff_bound, k_max)
                want = reference_infinity_obstruction(p, q, coeff_bound, k_max)
                assert (rep.candidates_checked, rep.passed, rep.witness) == want, (
                    q, coeff_bound, k_max)
                outcomes.add(rep.passed)
    assert outcomes == {True, False}


def test_push_B():
    for p in (2, 3, 5):
        rep = verify_push_B(p)
        assert rep.passed
        assert rep.shift_arg_ratio == p * p
        assert abs(rep.shift_value - 2 * math.log(p)) < 1e-12


def test_zero_obstruction_B():
    rep = verify_zero_obstruction_B(2, 4, coeff_bound=5, size_bound=3)
    assert rep.passed and rep.witness is None
    assert rep.qualifying_elements > 0 and rep.combinations_checked > 0

    # an empty search proves nothing: it used to pass after 0 combinations
    for coeff_bound, size_bound, k_max in ((5, 0, 2), (-1, 1, 2), (0, 1, 2), (5, 1, -1)):
        with pytest.raises(ValueError):
            verify_zero_obstruction_B(2, 4, coeff_bound=coeff_bound,
                                      size_bound=size_bound, k_max=k_max)

    # the identity lies in every horoball at 0 of level q <= 1 and maps to 1
    low = verify_zero_obstruction_B(3, 1, coeff_bound=2, size_bound=2)
    assert not low.passed and low.witness == {(0, 0, 0): 1}


def test_zero_obstruction_refuses_an_image_p_squared_does_not_divide(monkeypatch):
    # a ball that admitted t but not the identity would void the certificate
    monkeypatch.setattr(halfplane, "_in_ball_at_zero", lambda p, k, n, e, q: k > 0)
    with pytest.raises(SoundnessError):
        verify_zero_obstruction_B(2, 4, coeff_bound=2, size_bound=1)


@pytest.mark.parametrize("p", [2, 3, 5, 6])
def test_zero_obstruction_matches_the_fraction_enumeration(p):
    """The closed-form counts, the verdict and the witness equal those of
    the search over Fraction images, for witnesses found and not found."""
    outcomes = set()
    for q in LEVELS:
        for coeff_bound in range(1, 5):
            for size_bound in (1, 2):
                for k_max in range(0, 5):
                    rep = verify_zero_obstruction_B(p, q, coeff_bound, size_bound,
                                                    k_max=k_max)
                    n, checked, passed, witness = reference_zero_obstruction(
                        p, q, coeff_bound, size_bound, k_max)
                    if witness is not None:
                        witness = {as_triple(g): c for g, c in witness.items()}
                    assert (rep.qualifying_elements, rep.combinations_checked,
                            rep.passed, rep.witness) == (n, checked, passed, witness), (
                        q, coeff_bound, size_bound, k_max)
                    outcomes.add(passed)
    assert outcomes == {True, False}


def test_infinity_obstruction_fails_at_q_at_most_one():
    # Im i = 1 >= q: the identity lies over the horoball and maps to 1 in A
    for p, q in ((3, "1/3"), (2, 1), (5, 0), (6, -2), (2, Fraction(1, 2))):
        rep = verify_infinity_obstruction_A(p, q, coeff_bound=2, k_max=2)
        assert not rep.passed and not rep.symbolic_applies
        assert rep.witness == {0: 1} and rep.candidates_checked == 1
        assert epsilon(GroupRingElement(p, {GroupElement.of(p, 0): 1}), "A", p) == 1
        assert HoroballSpec(None, Fraction(q)).contains(BASE_POINT)
    assert verify_infinity_obstruction_A(3, Fraction(10, 9), 2, 2).passed


@pytest.mark.parametrize("p", [2, 3, 5, 6])
def test_h2_verdicts_are_sigma_classes_of_the_scalar_modules(p):
    """Module A of the half-plane lab is the scalar module rho = p^2 and
    module B is rho = p^-2; the boundary points 0 and infinity are the
    directions -1 and +1.  A point is in the horospherical limit set exactly
    when its direction is in sigma, and the divisibility by p^2 that
    obstructs a point is the p-adic witness of the complement direction."""
    infinity_a = verify_infinity_obstruction_A(p, 2, coeff_bound=2, k_max=2)
    in_limit_set = {
        ("A", 0): verify_support_at_zero_A(p, 0, 3).passed,
        ("A", None): not infinity_a.passed,
        ("B", 0): not verify_zero_obstruction_B(p, 4, coeff_bound=3, size_bound=2).passed,
        ("B", None): verify_push_B(p).passed,
    }
    assert in_limit_set == {("A", 0): True, ("A", None): False,
                            ("B", 0): False, ("B", None): True}
    modules = {"A": sigma_of_module(ScalarAction.of(p * p)),
               "B": sigma_of_module(ScalarAction.of(Fraction(1, p * p)))}
    direction = {0: Direction.of(-1), None: Direction.of(1)}
    for (module, xi), inside in in_limit_set.items():
        assert modules[module].classify(direction[xi]) == (
            "sigma" if inside else "complement"), (module, xi)
    assert infinity_a.symbolic_pass
    for module, obstructed in (("A", direction[None]), ("B", direction[0])):
        witnesses = modules[module].witnesses
        assert witnesses and all(w.kind == "p-adic" and p % w.prime == 0
                                 and w.direction == obstructed for w in witnesses)


def test_ball_membership_matches_the_fraction_geometry():
    outcomes = set()
    for p in (2, 3, 4, 6):
        for k in range(-3, 4):
            for j in range(0, 4):
                for m in range(-6, 7):
                    g = GroupElement(p, k, Fraction(m, p ** j))
                    point = g.act(BASE_POINT)
                    # the level of g.i itself lies on the boundary, where a
                    # rounded power of p would decide wrongly
                    level = busemann_arg(Fraction(0), point)
                    assert Fraction(*_level_at_zero(p, k, m, j)) == level
                    for q in (-1, 0, Fraction(1, 9), Fraction(1, 3), 1, 2, 4,
                              Fraction(25, 4), 9, 100, level,
                              level * Fraction(10 ** 9 + 1, 10 ** 9)):
                        ball = HoroballSpec(xi=Fraction(0), level_arg=Fraction(q))
                        inside = _in_ball_at_zero(p, k, m, j, Fraction(q))
                        assert inside == ball.contains(point), (p, q, k, j, m)
                        outcomes.add(inside)
    assert outcomes == {True, False}


def reference_push_B(p, trials=20, seed=0):
    """The push check as a seeded sampler: `trials` random ring elements of
    GroupElements, pushed by p^2 t, their images by epsilon and their
    control points by the Moebius action, all in Fractions."""
    rng = random.Random(seed)
    shift_el = t_gen(p)
    preserved = ratio_ok = True
    for _ in range(trials):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            k = rng.randint(-3, 3)
            j = rng.randint(0, 2)
            m = rng.randint(-4, 4)
            g = GroupElement(p, k, Fraction(m, p ** j))
            c = rng.randint(-5, 5)
            if c:
                terms[g] = terms.get(g, 0) + c
        lam = GroupRingElement(p, terms)
        pushed = lam.right_mul(p * p, shift_el)
        preserved = preserved and epsilon(pushed, "B", p) == epsilon(lam, "B", p)
        for g in lam.support():
            ratio = (g * shift_el).act(BASE_POINT)[1] / g.act(BASE_POINT)[1]
            ratio_ok = ratio_ok and ratio == p * p
    return preserved, ratio_ok


def test_push_matches_the_fraction_check():
    """The proof on t gives the answer of the seeded sampler over
    GroupElements, and the ratio p^2, i.e. a shift of 2 ln p."""
    for p in (2, 3, 4, 5, 6, 10):
        rep = verify_push_B(p)
        for seed in range(5):
            want = reference_push_B(p, seed=seed)
            assert (rep.epsilon_preserved, rep.shift_is_two_log_p) == want == (True, True)
        assert rep.passed and rep.shift_arg_ratio == p * p
        assert rep.shift_value == 2 * math.log(p)
