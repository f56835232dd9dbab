"""Primes, coprime bases, characteristic polynomials and rational roots in
stdlib integers (`sigmatrop.integers`), against sympy as the oracle."""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from sigmatrop.integers import (FactorizationBudgetError, charpoly, coprime_base,
                                factorize, is_prime, ratio_base, rational_roots, split)
from sigmatrop.linalg import invert, mat_mul
from sigmatrop.rings import GF
from sigmatrop.valuations import PAdicValuation, TableValuation, padic_valuation, prime_support

SEMIPRIME = (10 ** 24 + 7) * (3 * 10 ** 24 + 7)
# a prime past rho's reach within the budget
BIG_PRIME = 10 ** 12 + 39


# ---------------------------------------------------------------------------
# Primes.


def test_is_prime_matches_sympy_below_2e5():
    assert [n for n in range(-5, 200_000) if is_prime(n) != sympy.isprime(n)] == []


# strong pseudoprimes to base 2, then the smallest ones to the first k prime
# bases for k = 2, 3, 4, 5, 6, 7, 9 and 12, and psi_13, the smallest to all
# 13 bases up to 41, which Baillie-PSW decides; then Carmichael numbers
PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 3215031751,
                2152302898747, 3474749660383, 341550071728321,
                3825123056546413051, 318665857834031151167461,
                3317044064679887385961981)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161, 1436697831295441,
              60977817398996785, 7156857700403137441, 1791562810662585767521)


def test_is_prime_on_pseudoprimes_carmichael_numbers_and_mersenne_primes():
    for n in PSEUDOPRIMES + CARMICHAEL:
        assert is_prime(n) is False is sympy.isprime(n), n
    for e in (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607):
        assert is_prime(2 ** e - 1) and is_prime(2 ** e + 1) == sympy.isprime(2 ** e + 1)
    for e in (11, 23, 29, 37, 67, 101):
        assert not is_prime(2 ** e - 1)


def test_is_prime_on_products_of_two_large_primes():
    rng = random.Random(5)
    for _ in range(60):
        p = sympy.nextprime(rng.randint(10 ** 12, 10 ** 15))
        q = sympy.nextprime(rng.randint(10 ** 12, 10 ** 30))
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q) and not is_prime(p * p)
    # on both sides of psi_13
    for n in range(3317044064679887385961981 - 200, 3317044064679887385961981 + 200):
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_round_trips():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.choice((-1, 1)) * sympy.nextprime(rng.randint(10 ** 5, 10 ** 8))
        for _ in range(rng.randint(0, 4)):
            n *= rng.choice((rng.randint(2, 10 ** 4), sympy.prime(rng.randint(1, 3000))))
        f = factorize(n)
        assert f == sympy.factorint(abs(n)), n
        assert math.prod(p ** e for p, e in f.items()) == abs(n)
    assert factorize(1) == {} and factorize(-12) == {2: 2, 3: 1}


def test_split_reports_what_rho_cannot_split():
    start = time.perf_counter()
    assert split(SEMIPRIME) == ({}, {SEMIPRIME: 1})
    assert split(12 * SEMIPRIME ** 2) == ({2: 2, 3: 1}, {SEMIPRIME: 2})
    assert time.perf_counter() - start < 1.0
    with pytest.raises(FactorizationBudgetError) as err:
        factorize(SEMIPRIME)
    assert not isinstance(err.value, ValueError)
    with pytest.raises(FactorizationBudgetError):
        prime_support([Fraction(7, SEMIPRIME)])
    with pytest.raises(FactorizationBudgetError):
        TableValuation(((Fraction(2), Fraction(1)),)).value(2 * SEMIPRIME)


def test_split_takes_exact_powers_before_rho():
    start = time.perf_counter()
    assert split(BIG_PRIME ** 2) == ({BIG_PRIME: 2}, {})
    assert split(6 * BIG_PRIME ** 3) == ({2: 1, 3: 1, BIG_PRIME: 3}, {})
    assert split((BIG_PRIME * (10 ** 9 + 7) ** 3) ** 4) == (
        {10 ** 9 + 7: 12, BIG_PRIME: 4}, {})
    assert split((2 ** 61 - 1) ** 7) == ({2 ** 61 - 1: 7}, {})
    assert split(SEMIPRIME ** 3) == ({}, {SEMIPRIME: 3})
    assert time.perf_counter() - start < 2.0
    assert factorize(-BIG_PRIME ** 2) == sympy.factorint(BIG_PRIME ** 2)
    assert prime_support([Fraction(5, BIG_PRIME ** 2)]) == {5, BIG_PRIME}
    assert TableValuation(((Fraction(BIG_PRIME), Fraction(1, 3)),)).value(
        BIG_PRIME ** 2) == Fraction(2, 3)


def test_split_finds_primes_to_about_1e9_and_gives_up_past_1e11():
    rng = random.Random(39)
    for e, splits in ((7, True), (8, True), (11, False), (12, False)):
        for _ in range(3):
            p = sympy.nextprime(rng.randint(10 ** e, 10 ** (e + 1)))
            q = sympy.nextprime(rng.randint(10 ** 20, 10 ** 21))
            assert split(p * q) == (({p: 1, q: 1}, {}) if splits else ({}, {p * q: 1}))


def test_coprime_base_is_pairwise_coprime_and_rebuilds_every_input():
    rng = random.Random(9)
    primes = [2, 3, 5, 7, 11, 13, 10 ** 9 + 7, 10 ** 24 + 7, 3 * 10 ** 24 + 7]
    for _ in range(200):
        nums = [math.prod(rng.choice(primes) ** rng.randint(0, 3) for _ in range(3))
                for _ in range(rng.randint(1, 5))]
        base = coprime_base(nums)
        assert base == sorted(base) and all(b > 1 for b in base)
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
        for n in nums:
            assert math.prod(b ** padic_valuation(n, b) for b in base) == n
        for b in base:
            assert any(n % b == 0 for n in nums)


def test_ratio_base_keeps_the_semiprime_as_one_composite_base():
    start = time.perf_counter()
    primes, composites = ratio_base([Fraction(SEMIPRIME * 10, 3), Fraction(9, 14)])
    assert time.perf_counter() - start < 1.0
    assert (primes, composites) == ([2, 3, 5, 7], [SEMIPRIME])
    with pytest.raises(ValueError):
        ratio_base([0])


def test_prime_moduli_use_the_stdlib_test():
    assert PAdicValuation(10 ** 24 + 7).p == 10 ** 24 + 7
    assert GF(2 ** 89 - 1).p == 2 ** 89 - 1
    for bad in (1, 561, 3215031751, SEMIPRIME):
        with pytest.raises(ValueError):
            PAdicValuation(bad)
        with pytest.raises(ValueError):
            GF(bad)


# ---------------------------------------------------------------------------
# Characteristic polynomials and rational roots.


def sympy_roots(coeffs):
    x = sympy.Symbol("x")
    return sorted(Fraction(int(r.p), int(r.q))
                  for r in sympy.Poly(coeffs, x, domain="ZZ").ground_roots())


def seeded_rational_matrix(rng, d):
    """P diag-or-triangular(roots) P^-1 over Q, roots from a pool with
    repeats, zero, 10^24-sized and non-integer values; or a plain random
    matrix, whose roots are mostly irrational."""
    if rng.random() < 0.3:
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
                for _ in range(d)]
    pool = [0, 1, -1, Fraction(2, 3), 10 ** 24 + 7, Fraction(-1, 10 ** 24), 5]
    t = [[Fraction(rng.choice(pool)) if i == j else
          Fraction(rng.randint(-2, 2)) if j == i + 1 else Fraction(0)
          for j in range(d)] for i in range(d)]
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        p_inv = invert(p)
        if p_inv is not None:
            return mat_mul(mat_mul(p, t), p_inv)


def test_charpoly_and_rational_roots_match_sympy():
    rng = random.Random(23)
    for _ in range(150):
        d = rng.randint(1, 5)
        mat = seeded_rational_matrix(rng, d)
        den = math.lcm(*(x.denominator for row in mat for x in row))
        ints = [[int(x * den) for x in row] for row in mat]
        got = charpoly(ints)
        assert got == [int(c) for c in sympy.Matrix(ints).charpoly().all_coeffs()]
        roots = rational_roots(got)
        assert roots == sympy_roots(got), mat
        want = sorted({Fraction(int(r.p), int(r.q))
                       for r in sympy.Matrix(mat).charpoly().ground_roots()})
        assert [r / den for r in roots] == want


def times(f, g):
    """The product of two polynomials, coefficient lists from the top down."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_rational_roots_of_seeded_polynomials():
    rng = random.Random(29)
    for _ in range(300):
        # rational linear factors qx - p, repeated and zero ones among them,
        # and maybe an irreducible quadratic
        f = [rng.randint(1, 3) * 10 ** rng.choice((0, 0, 24))]
        for _ in range(rng.randint(0, 4)):
            p, q = rng.choice((0, 1, -2, 7, 10 ** 24 + 7)), rng.randint(1, 6)
            f = times(f, [q, -p])
        if rng.random() < 0.5:
            f = times(f, [1, 0, -rng.choice((2, 3, 5, 10 ** 24 + 7))])
        assert rational_roots(f) == sympy_roots(f), f


def test_rational_roots_edges():
    assert rational_roots([5]) == []
    assert rational_roots([1, 0, 0]) == [0]
    assert rational_roots([2, -1]) == [Fraction(1, 2)]
    assert rational_roots([1, 0, -2]) == []
    n = 12252240
    assert rational_roots(charpoly([[n * n, 0], [0, 1]])) == [1, n * n]
    assert rational_roots([4, -4, 1]) == [Fraction(1, 2)]  # (2x - 1)^2
