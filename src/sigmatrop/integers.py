"""Primes, coprime bases and rational roots in stdlib integers.

`is_prime` is deterministic Miller-Rabin on the first 13 prime bases below
3.3*10^24 (Sorenson and Webster, Math. Comp. 2017) and Baillie-PSW above.
`coprime_base` refines numbers into a pairwise coprime base by gcds only
(Bach, Driscoll and Shallit, J. Algorithms 1993), and `split` breaks a
number into primes by trial division, an exact-power test and
Pollard-Brent rho within FACTOR_BUDGET steps per cofactor; a factor left
composite is reported, and `factorize` raises FactorizationBudgetError on
it.  `charpoly` and `rational_roots` give a rational matrix's rational
eigenvalues with no factoring.

The functions that need this module import it when they run (p-adic and
table valuations, GF domains, prime supports, scalar and matrix actions),
so `import sigmatrop.cli` does not compile it and a job that needs no
primes or eigenvalues never loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import mat_mul
from .rings import _primitive
from .valuations import padic_valuation


class FactorizationBudgetError(ArithmeticError):
    """A composite factor stayed unsplit within FACTOR_BUDGET.  Not a
    ValueError: the input is valid, the tool only cannot factor it."""


# Pollard-Brent steps (one modular squaring each) that `split` spends on one
# composite cofactor before it reports it unsplit: about 0.2 s on a
# 49-digit number.  Rho finds a prime p in about 1.3 sqrt(p) steps, and
# Brent's doubling spends up to four times that, so the budget finds
# primes up to about 10^9.
FACTOR_BUDGET = 1 << 17
# `split` divides out the primes below this bound before anything else.
TRIAL_BOUND = 1000
# Miller-Rabin on the first 13 primes decides every n below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """n - 1 = d * 2^s with d odd: whether n is a strong probable prime to base a."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters, for odd n > 1
    that is not a square: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4."""
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    # (U_k, V_k, Q^k) for k from 1 up along the bits of the odd part of n + 1
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n is prime: trial division by the 13 bases,
    then deterministic Miller-Rabin below psi_13 and Baillie-PSW (a strong
    base-2 test and a strong Lucas test) above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _PSI_13:
        return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES)
    return (_strong_probable_prime(n, 2, d, s) and math.isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def _brent(n: int):
    """A nontrivial factor of the odd composite n, or None: Pollard-Brent
    rho on x -> x^2 + c from x = 2, for c = 1, 2, ..., with the products of
    |x - y| taken 128 at a time between gcds, until FACTOR_BUDGET steps
    are spent."""
    budget, spent, c = FACTOR_BUDGET, 0, 0
    while spent < budget:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            spent += 2 * r
            r *= 2
        if g == n:
            # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1: Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _power_root(n: int):
    """The root r of n = r^k for the least k >= 2, or None, for n whose prime
    factors are all at least TRIAL_BOUND, so that k <= log_TRIAL_BOUND(n)."""
    k = 2
    while TRIAL_BOUND ** k <= n:
        r = _iroot(n, k)
        if r ** k == n:
            return r
        k += 1
    return None


def coprime_base(numbers) -> list[int]:
    """The pairwise coprime base of the integers' absolute values, sorted:
    every number is a product of powers of its elements, each of which
    divides one of the numbers.  Factor refinement: a number that shares g
    with an element b gives way to b/g, g and itself over g, until no two
    share a factor."""
    base: list[int] = []
    pending = [abs(n) for n in numbers]
    while pending:
        a = pending.pop()
        if a <= 1:
            continue
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                pending += [b // g, g, a // g]
                break
        else:
            base.append(a)
    return sorted(base)


def split(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """n > 0 as (primes, composites), each {factor: exponent}, with n the
    product of every factor's power and the factors pairwise coprime: trial
    division below TRIAL_BOUND, then on each cofactor is_prime, an exact
    k-th root and Pollard-Brent rho, FACTOR_BUDGET steps each.  A composite
    is one that is no power and that rho did not split in that budget."""
    primes: dict[int, int] = {}
    for p in range(2, TRIAL_BOUND):
        if p * p > n:
            break
        if n % p == 0:
            primes[p] = padic_valuation(n, p)
            n //= p ** primes[p]
    # every prime factor of n is now at least TRIAL_BOUND
    parts, found = [n] if n > 1 else [], []
    while parts:
        a = parts.pop()
        if a < TRIAL_BOUND ** 2 or is_prime(a):
            found.append(a)
            continue
        root = _power_root(a)
        if root is not None:
            parts.append(root)
            continue
        d = _brent(a)
        if d is None:
            found.append(a)
        else:
            parts += [d, a // d]
    # rho's pieces of one prime may repeat, and an unsplit piece may hold a
    # prime found elsewhere: refine them, and count each power in n
    composites = {}
    for b in coprime_base(found):
        if is_prime(b):
            primes[b] = padic_valuation(n, b)
        else:
            composites[b] = padic_valuation(n, b)
    return primes, composites


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n != 0 (of |n|); raises
    FactorizationBudgetError when a composite factor stays unsplit."""
    primes, composites = split(abs(n))
    if composites:
        raise unsplit_error(composites)
    return primes


def unsplit_error(composites) -> FactorizationBudgetError:
    """The error for the smallest factor left composite."""
    c = min(composites)
    return FactorizationBudgetError(f"the {len(str(c))}-digit factor {c} stayed "
                                    f"unsplit after {FACTOR_BUDGET} Pollard-Brent steps")


def ratio_base(rationals) -> tuple[list[int], list[int]]:
    """(primes, composites), sorted: the coprime base of the (nonzero)
    inputs' numerators and denominators, each element broken up by
    `split`.  All of them are pairwise coprime, and each input is +- a
    product of their powers."""
    numbers = []
    for a in rationals:
        a = Fraction(a)
        if a == 0:
            raise ValueError("prime support is undefined for 0")
        numbers += [a.numerator, a.denominator]
    primes, composites = [], []
    for b in coprime_base(numbers):
        ps, cs = split(b)
        primes += ps
        composites += cs
    return sorted(primes), sorted(composites)


def charpoly(mat) -> list[int]:
    """The characteristic polynomial det(xI - A) of a square integer matrix
    A, as its coefficients from x^d down.  Faddeev-LeVerrier: with M_0 = 0,
    M_k = A M_(k-1) + c_(k-1) I and c_k = -tr(A M_k) / k, where c_0 = 1;
    each division is exact, since every c_k is an integer."""
    d = len(mat)
    coeffs = [1]
    am = [[0] * d for _ in range(d)]  # A M_(k-1)
    for k in range(1, d + 1):
        c = coeffs[-1]
        am = mat_mul(mat, [[x + c if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(am)])
        coeffs.append(-sum(am[i][i] for i in range(d)) // k)
    return coeffs


def _rem(a, b):
    """A positive multiple of the remainder of a by b, made primitive:
    integer polynomials as coefficient lists from the top degree down, b's
    first coefficient nonzero; [] for zero."""
    lead, sign = abs(b[0]), 1 if b[0] > 0 else -1
    while len(a) >= len(b):
        q = sign * a[0]
        a = [lead * x - q * y for x, y in zip(a[1:], b[1:])] + [lead * x for x in a[len(b):]]
        while a and a[0] == 0:
            del a[0]
    return list(_primitive(a))


def _quo(a, b):
    """The quotient of a by a primitive factor b of it, integer polynomials
    as coefficient lists from the top degree down: each division is exact
    by Gauss's lemma."""
    out = []
    while len(a) >= len(b):
        q = a[0] // b[0]
        out.append(q)
        a = [x - q * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    return out


def _horner(coeffs, x):
    v = 0
    for c in coeffs:
        v = v * x + c
    return v


def rational_roots(coeffs) -> list[Fraction]:
    """The distinct rational roots, sorted, of the integer polynomial with
    these coefficients from the top degree down (the first nonzero).

    No factoring.  After the root 0, the square-free part g = f / gcd(f, f')
    with leading coefficient a > 0 is scaled as h(y) = 2^(Km) g(y / 2^K),
    2^K >= 2a, and Sturm counts on integer points bisect its real roots
    into intervals (y0, y0 + 1], of width at most 1 / (2a) in x.  A rational
    root p/q in lowest terms has q | a, so a*x is then the one integer in
    a's multiple of the interval, and each such candidate is tested exactly.
    """
    f = list(coeffs)
    roots = []
    if f[-1] == 0:
        roots.append(Fraction(0))
        while f[-1] == 0:
            f.pop()
    if len(f) == 1:
        return roots
    m = len(f) - 1
    df = [c * (m - i) for i, c in enumerate(f[:-1])]
    gcd, b = f, df
    while b:
        gcd, b = b, _rem(gcd, b)
    g = list(_primitive(_quo(f, list(_primitive(gcd)))))
    if g[0] < 0:
        g = [-c for c in g]
    a, m = g[0], len(g) - 1
    k = (2 * a - 1).bit_length()
    sturm = [g, [c * (m - i) for i, c in enumerate(g[:-1])]]
    while len(sturm[-1]) > 1:
        sturm.append([-c for c in _rem(sturm[-2], sturm[-1])])
    scaled = [[c << (k * j) for j, c in enumerate(s)] for s in sturm]

    def variations(y):
        signs = [v > 0 for v in (_horner(s, y) for s in scaled) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    # every real root lies in (-bound, bound), Cauchy's bound; an interval
    # (lo, hi] holds variations(lo) - variations(hi) distinct roots
    bound = (1 + -(-max(map(abs, g)) // a)) << k
    todo = [(-bound, variations(-bound), bound, variations(bound))]
    while todo:
        lo, vlo, hi, vhi = todo.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            n = (a * hi) >> k
            if n << k > a * lo and _horner([c * a ** j for j, c in enumerate(g)], n) == 0:
                roots.append(Fraction(n, a))
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        todo += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return sorted(roots)
