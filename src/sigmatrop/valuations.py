"""Valuations on Z and Q, Newton polygons, and prime-support detection.

A valuation v satisfies v(0) = inf, v(1) = 0, v(ab) = v(a) + v(b), and
v(a+b) >= min(v(a), v(b)).  The p-adic valuation counts the exponent of p;
negative values occur on denominators.  Trivial and p-adic values are ints,
table values Fractions.  Prime tests and factorizations come from
`integers`, in stdlib integers, which each function imports when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

INF = math.inf


class UnknownCoefficientError(ValueError):
    """A table valuation was queried outside its multiplicative closure."""


def padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("0 has no finite p-adic valuation")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@dataclass(frozen=True)
class TrivialValuation:
    kind: str = field(default="trivial", init=False)

    def value(self, a):
        return INF if Fraction(a) == 0 else 0


@dataclass(frozen=True)
class PAdicValuation:
    p: int

    kind = "p-adic"

    def __post_init__(self):
        from .integers import is_prime

        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def value(self, a):
        a = Fraction(a)
        if a == 0:
            return INF
        return (padic_valuation(a.numerator, self.p)
                - padic_valuation(a.denominator, self.p))


@dataclass(frozen=True)
class TableValuation:
    """Valuation given by a finite table, extended multiplicatively.

    The table maps coefficients to rational values (0 may map to inf and
    nothing else may).  Queries outside the table fall back to `factorize`
    and the table's values on primes.  Consistency is checked by sampling,
    not proved.
    """

    table: tuple[tuple[Fraction, Fraction], ...]

    kind = "table"

    def __post_init__(self):
        d = dict(self.table)
        if len(d) != len(self.table):
            twice = next(a for a in d if sum(b == a for b, _ in self.table) > 1)
            raise ValueError(f"the table lists {twice} twice")
        for a, v in d.items():
            if v == INF and a != 0:
                raise ValueError("only 0 may have value +inf")
        if Fraction(1) in d and d[Fraction(1)] != 0:
            raise ValueError("v(1) must be 0")
        entries = [(a, v) for a, v in d.items() if a != 0][:20]
        for (a, va), (b, vb) in combinations_with_replacement(entries, 2):
            if a * b in d and d[a * b] != va + vb:
                raise ValueError(f"table is not multiplicative at {a}*{b}")

    def value(self, a):
        a = Fraction(a)
        d = dict(self.table)
        if a in d:
            return d[a]
        if a == 0:
            return INF
        from .integers import factorize

        total = Fraction(0)
        for n, sign in ((a.numerator, 1), (a.denominator, -1)):
            for p, e in factorize(n).items():
                vp = d.get(Fraction(p))
                if vp is None:
                    raise UnknownCoefficientError(
                        f"no table value for {a} (prime {p} missing)")
                total += sign * e * vp
        return total


ValuationSpec = TrivialValuation | PAdicValuation | TableValuation


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (degree, v(coefficient)) points.

    Slopes are strictly increasing; a slope-s segment of horizontal length l
    corresponds to l roots of valuation -s (in a valued algebraic closure).
    """

    points: tuple[tuple[int, object], ...]
    hull: tuple[tuple[int, int | Fraction], ...]
    slopes: tuple[tuple[Fraction, int], ...]

    def root_valuations(self) -> list[tuple[Fraction, int]]:
        """(valuation, multiplicity) pairs, valuations strictly decreasing."""
        return [(-s, l) for s, l in self.slopes]


def newton_polygon(coeffs, v: ValuationSpec) -> NewtonPolygon:
    """Newton polygon of sum coeffs[i] X^i with respect to the valuation v."""
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs or all(c == 0 for c in coeffs):
        raise ValueError("invalid polynomial: all coefficients zero")
    if coeffs[0] == 0 or coeffs[-1] == 0:
        raise ValueError("leading and trailing coefficients must be nonzero")
    points = tuple((i, v.value(c)) for i, c in enumerate(coeffs))
    finite = [(i, val) for i, val in points if val != INF]

    hull: list[tuple[int, int | Fraction]] = []
    for pt in finite:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop the middle point unless it makes the slope strictly increase
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)

    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(points, tuple(hull), tuple(slopes))


def prime_support(rationals) -> set[int]:
    """Primes dividing any numerator or denominator of the (nonzero) inputs;
    raises FactorizationBudgetError when a base stays composite."""
    from .integers import ratio_base, unsplit_error

    primes, composites = ratio_base(rationals)
    if composites:
        raise unsplit_error(composites)
    return set(primes)
