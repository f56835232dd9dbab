import math
import random
from fractions import Fraction

import pytest

from sigmatrop.rings import (GF, QQ, ZZ, Character, DimensionError, Direction,
                             LaurentPoly, _primitive, chi_value, initial_part,
                             v_chi)

X = LaurentPoly.monomial


def grading(chi, f):
    """f as its chi-homogeneous components: (value, component) pairs with
    strictly increasing values, which sum to f."""
    buckets = {}
    for g, c in f.terms.items():
        buckets.setdefault(chi_value(chi, g), {})[g] = c
    return [(r, LaurentPoly(f.rank, f.domain, buckets[r])) for r in sorted(buckets)]


def rand_poly(rng, rank, nterms=5, deg=6, domain=ZZ):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        g = tuple(rng.randint(-deg, deg) for _ in range(rank))
        c = rng.randint(-9, 9)
        if c:
            terms[g] = terms.get(g, 0) + c
    return LaurentPoly(rank, domain, {g: c for g, c in terms.items() if c})


def rand_char(rng, rank):
    return Character(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(rank)))


def test_zero_coefficients_dropped():
    f = LaurentPoly(1, ZZ, {(0,): 0, (2,): 3})
    assert f.terms == {(2,): 3}
    assert LaurentPoly.zero(3).is_zero


def test_monomial_length_checked():
    with pytest.raises(DimensionError):
        LaurentPoly(2, ZZ, {(1,): 1})


def test_domain_normalization():
    f = LaurentPoly(1, GF(5), {(0,): 7})
    assert f.terms == {(0,): 2}
    with pytest.raises(ValueError):
        LaurentPoly(1, ZZ, {(0,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        GF(6)


def test_chi_value_examples():
    assert chi_value(Character.of(1, -1), (2, 3)) == -1
    assert chi_value(Character.of(0, 0), (5, 7)) == 0
    assert chi_value(Character.of(Fraction(1, 2), Fraction(1, 3)), (2, -3)) == 0
    with pytest.raises(DimensionError):
        chi_value(Character.of(1), (1, 2))


def test_v_chi_examples():
    f = X((1,)) - X((0,), 6)
    assert v_chi(Character.of(-1), f) == -1
    assert v_chi(Character.of(1), LaurentPoly.zero(1)) == math.inf
    g = X((1, 0)) + X((0, 1)) + X((0, 0))
    assert v_chi(Character.of(2, 3), g) == 0


def test_initial_part_examples():
    f = X((1,)) - X((0,), 6)
    assert initial_part(Character.of(1), f) == X((0,), -6)
    assert initial_part(Character.of(-1), f) == X((1,))
    # for 1 - 36/x^2: chi=(1) makes the x^-2 term minimal, chi=(-1) the constant
    h = X((0,)) - X((-2,), 36)
    assert initial_part(Character.of(1), h) == X((-2,), -36)
    assert initial_part(Character.of(-1), h) == X((0,))
    assert initial_part(Character.of(1), LaurentPoly.zero(1)).is_zero


def test_grading_examples():
    f = X((1, 0)) + X((0, 1)) + X((0, 0))
    parts = grading(Character.of(1, 2), f)
    assert [(v, p.terms) for v, p in parts] == [
        (0, {(0, 0): 1}), (1, {(1, 0): 1}), (2, {(0, 1): 1})]
    g = X((1, 0)) + X((0, 1))
    assert grading(Character.of(1, 1), g) == [(1, g)]
    assert grading(Character.of(1), LaurentPoly.zero(1)) == []


def test_grading_reassembles_and_is_homogeneous():
    rng = random.Random(7)
    for _ in range(1000):
        rank = rng.randint(1, 4)
        f = rand_poly(rng, rank)
        chi = rand_char(rng, rank)
        parts = grading(chi, f)
        total = LaurentPoly.zero(rank)
        prev = None
        for val, comp in parts:
            assert not comp.is_zero
            assert {chi_value(chi, g) for g in comp.terms} == {val}
            if prev is not None:
                assert val > prev
            prev = val
            total = total + comp
        assert total == f


@pytest.mark.parametrize("domain", [ZZ, QQ, GF(5)])
def test_v_chi_multiplicative_and_initial_multiplicative(domain):
    rng = random.Random(11)
    for _ in range(200):
        rank = rng.randint(1, 3)
        f = rand_poly(rng, rank, domain=domain)
        h = rand_poly(rng, rank, domain=domain)
        if f.is_zero or h.is_zero:
            continue
        chi = rand_char(rng, rank)
        assert v_chi(chi, f * h) == v_chi(chi, f) + v_chi(chi, h)
        assert initial_part(chi, f * h) == initial_part(chi, f) * initial_part(chi, h)


def test_v_chi_superadditive_on_sums():
    rng = random.Random(13)
    for _ in range(300):
        rank = rng.randint(1, 3)
        f, h = rand_poly(rng, rank), rand_poly(rng, rank)
        chi = rand_char(rng, rank)
        assert v_chi(chi, f + h) >= min(v_chi(chi, f), v_chi(chi, h))


def test_ring_arithmetic_basics():
    f = X((1,)) - X((0,), 6)
    g = X((0,)) + X((-1,), 6)
    assert f * g == X((1,)) - X((-1,), 36)
    assert (f - f).is_zero
    assert f.shift((-1,)) == X((0,)) - X((-1,), 6)
    assert (f ** 2) == X((2,)) - X((1,), 12) + X((0,), 36)
    assert f.scale(0).is_zero
    two = LaurentPoly(1, GF(2), {(0,): 1}) + LaurentPoly(1, GF(2), {(0,): 1})
    assert two.is_zero


@pytest.mark.parametrize("vec", [(3, -6, 9), (-2, 4, 0, 6), (0, -5, 7), (0, 0, 0),
                                 (7,), (-7,), (1, 0, -1, 2)])
def test_primitive_keeps_sign_and_ignores_scale(vec):
    # int and Fraction copies, and positive rational multiples, agree
    got = _primitive(vec)
    for scale in (1, 2, Fraction(1, 3), Fraction(10, 4)):
        assert _primitive([Fraction(x) * scale for x in vec]) == got
    assert all(type(x) is int for x in got)
    if any(vec):
        assert math.gcd(*got) == 1
        ratio = next(Fraction(x, y) for x, y in zip(vec, got) if y)
        assert ratio > 0 and tuple(ratio * y for y in got) == vec
    else:
        assert got == vec


def test_direction_primitivity():
    assert Direction.from_vector((4, -6)).vector == (2, -3)
    assert Direction.from_vector((Fraction(1, 2), Fraction(1, 3))).vector == (3, 2)
    with pytest.raises(ValueError):
        Direction.from_vector((0, 0))
    assert (-Direction.of(1, 0)).vector == (-1, 0)
