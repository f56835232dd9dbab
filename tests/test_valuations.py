import math
import random
from fractions import Fraction

import pytest

from sigmatrop.valuations import (INF, NewtonPolygon, PAdicValuation,
                                  TableValuation, TrivialValuation,
                                  UnknownCoefficientError, newton_polygon,
                                  padic_valuation, prime_support)


def test_value_examples():
    assert PAdicValuation(2).value(6) == 1
    assert PAdicValuation(3).value(Fraction(1, 9)) == -2
    assert TrivialValuation().value(0) == INF
    assert TrivialValuation().value(Fraction(-7, 3)) == 0
    assert PAdicValuation(5).value(0) == INF


def test_padic_prime_checked():
    with pytest.raises(ValueError):
        PAdicValuation(4)


def test_table_valuation():
    t = TableValuation(((Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)),
                        (Fraction(3), Fraction(0))))
    assert t.value(2) == 1
    assert t.value(12) == 2          # 2^2 * 3, extended multiplicatively
    assert t.value(Fraction(1, 2)) == -1
    assert t.value(0) == INF
    with pytest.raises(UnknownCoefficientError):
        t.value(5)
    with pytest.raises(ValueError):
        # not multiplicative
        TableValuation(((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3))))
    with pytest.raises(ValueError):
        TableValuation(((Fraction(3), INF),))


def test_newton_polygon_examples():
    np1 = newton_polygon([-6, 1], PAdicValuation(2))
    assert np1.slopes == ((-1, 1),)
    assert np1.root_valuations() == [(1, 1)]

    np2 = newton_polygon([8, -6, 1], PAdicValuation(2))
    assert [(int(s), l) for s, l in np2.slopes] == [(-2, 1), (-1, 1)]
    assert np2.root_valuations() == [(2, 1), (1, 1)]

    np3 = newton_polygon([1, 0, 1], TrivialValuation())
    assert np3.slopes == ((0, 2),)
    assert np3.root_valuations() == [(0, 2)]


def test_newton_polygon_guards():
    with pytest.raises(ValueError):
        newton_polygon([0, 0], PAdicValuation(2))
    with pytest.raises(ValueError):
        newton_polygon([0, 1], PAdicValuation(2))
    with pytest.raises(ValueError):
        newton_polygon([1, 0], PAdicValuation(2))


def test_newton_polygon_against_factored_products():
    # polygon slopes, negated, are the root valuations with multiplicity
    rng = random.Random(5)
    primes = [2, 3, 5]
    for _ in range(50):
        p = rng.choice(primes)
        roots = []
        for _ in range(rng.randint(1, 4)):
            e = rng.randint(-3, 3)
            u = rng.choice([1, 3, 5, 7])
            while u % p == 0:
                u += 2
            roots.append(Fraction(u) * Fraction(p) ** e)
        coeffs = [Fraction(1)]
        for r in roots:
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] += -r * c
            coeffs = nxt
        np_ = newton_polygon(coeffs, PAdicValuation(p))
        expanded = []
        for val, mult in np_.root_valuations():
            expanded.extend([val] * mult)
        assert sorted(expanded) == sorted(padic_valuation(r.numerator, p)
                                          - padic_valuation(r.denominator, p)
                                          for r in roots)


def test_prime_support_examples():
    assert prime_support([6]) == {2, 3}
    assert prime_support([2, Fraction(1, 3)]) == {2, 3}
    assert prime_support([1, -1]) == set()
    with pytest.raises(ValueError):
        prime_support([0])


def test_prime_support_outside_primes_vanish():
    entries = [6, Fraction(10, 7), -45]
    support = prime_support(entries)
    for p in [11, 13, 17]:
        assert p not in support
        assert all(PAdicValuation(p).value(a) == 0 for a in entries)


def test_newton_polygon_total_length_is_degree_span():
    rng = random.Random(19)
    for _ in range(20):
        deg = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(1, 40))] + \
                 [Fraction(rng.randint(-30, 30)) for _ in range(deg - 1)] + \
                 [Fraction(rng.choice([1, 2, 3, 6]))]
        np_ = newton_polygon(coeffs, PAdicValuation(2))
        assert sum(l for _, l in np_.slopes) == deg
        assert all(v != INF for _, v in np_.hull)
        slopes = [s for s, _ in np_.slopes]
        assert slopes == sorted(set(slopes))


def test_trivial_and_padic_values_are_ints():
    """v_p of a rational is an integer, so trivial and p-adic values are
    ints (polyhedron rows built from them stay on integer arithmetic);
    table values stay Fractions.  Newton polygons get the same hull and
    slopes as from the same values given as Fractions."""
    class AsFraction:
        def __init__(self, v):
            self.v = v

        def value(self, a):
            val = self.v.value(a)
            return val if val == INF else Fraction(val)

    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 500), rng.randint(1, 500))
        for v in (TrivialValuation(), PAdicValuation(2), PAdicValuation(3),
                  PAdicValuation(7)):
            assert type(v.value(a)) is int
            assert v.value(a) == AsFraction(v).value(a)
        coeffs = [Fraction(rng.randint(-60, 60), rng.randint(1, 60)) or 1
                  for _ in range(rng.randint(2, 6))]
        for v in (TrivialValuation(), PAdicValuation(2), PAdicValuation(5)):
            got = newton_polygon(coeffs, v)
            want = newton_polygon(coeffs, AsFraction(v))
            assert got.slopes == want.slopes and got.hull == want.hull
            assert all(type(s) is Fraction for s, _ in got.slopes)
    table = TableValuation(((Fraction(2), Fraction(1)), (Fraction(3), Fraction(0))))
    assert type(table.value(6)) is Fraction
