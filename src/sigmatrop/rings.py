"""Exact Laurent-polynomial arithmetic over Z, Q, and prime fields.

Monomials are integer exponent tuples (group elements of Z^n); a polynomial
is a finite map from monomials to nonzero coefficients.  Characters are
exact rational vectors.  The minimum convention is used throughout: the
initial part of f at chi collects the terms of minimal chi-value.  All
values are immutable; every operation is a pure function.

_primitive is the one place where a rational vector becomes integer: it
scales by the lcm of the denominators and divides by the gcd, keeping the
sign.  Directions, polyhedron rows, rays and points under test, the rows
that linalg eliminates and sigma's action matrices over their common
denominator are all made primitive by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

INF = math.inf

Monomial = tuple  # integer exponent tuple of length rank


class DimensionError(ValueError):
    """Operands live over different ranks or domains."""


class SoundnessError(RuntimeError):
    """A check that guards a certified answer failed; the answer is withheld."""


@dataclass(frozen=True)
class Domain:
    """Coefficient domain tag: IntegerRing, RationalField, or PrimeField(p)."""

    kind: str  # "ZZ" | "QQ" | "GF"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "GF":
            from .integers import is_prime  # here, so that jobs over Z and Q never load it

            if self.p is None or not is_prime(self.p):
                raise ValueError(f"prime field modulus must be prime, got {self.p!r}")
        elif self.kind in ("ZZ", "QQ"):
            if self.p is not None:
                raise ValueError(f"{self.kind} takes no modulus")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    def normalize(self, c):
        """Coerce c into the domain; raises on non-integral values over ZZ/GF."""
        if self.kind == "QQ":
            return Fraction(c)
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"{c} is not integral over {self.kind}")
            c = c.numerator
        c = int(c)
        return c % self.p if self.kind == "GF" else c

    def __str__(self):
        return {"ZZ": "Z", "QQ": "Q"}.get(self.kind) or f"GF({self.p})"


ZZ = Domain("ZZ")
QQ = Domain("QQ")


def GF(p: int) -> Domain:
    return Domain("GF", p)


def _primitive(vec) -> tuple:
    """The rational vector as coprime integers with the same signs, a tuple.

    An all-int vector is told apart by one math.gcd call, which raises
    TypeError on a Fraction entry; only then is it scaled by the lcm of its
    denominators, read off its int and Fraction entries with no Fraction
    built.  The zero vector stays zero."""
    try:
        g = math.gcd(*vec)
    except TypeError:
        den = math.lcm(*(x.denominator for x in vec))
        vec = [x.numerator * (den // x.denominator) for x in vec]
        g = math.gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


_VAR_NAMES = ("x", "y", "z", "w")


def _var(i: int, rank: int) -> str:
    return _VAR_NAMES[i] if rank <= len(_VAR_NAMES) else f"x{i}"


# Term maps: dicts from exponent tuples to nonzero coefficients.  ``p`` is the
# prime modulus over GF(p), where coefficients are kept in range(p), else None.
def _term_add(a, b, p):
    out = dict(a)
    for g, c in b.items():
        s = out.get(g, 0) + c
        if p is not None:
            s %= p
        if s:
            out[g] = s
        else:
            out.pop(g, None)
    return out


def _term_mul(a, b, p):
    out = {}
    for ga, ca in a.items():
        for gb, cb in b.items():
            g = tuple(map(add, ga, gb))
            s = out.get(g, 0) + ca * cb
            if p is not None:
                s %= p
            if s:
                out[g] = s
            else:
                out.pop(g, None)
    return out


def _term_scale(a, c, p):
    if p is not None:
        c %= p
    if not c:
        return {}
    out = {}
    for g, ca in a.items():
        s = ca * c
        if p is not None:
            s %= p
        if s:
            out[g] = s
    return out


class LaurentPoly:
    """Finite map from exponent tuples to nonzero coefficients, with a domain."""

    __slots__ = ("rank", "domain", "terms")

    def __init__(self, rank: int, domain: Domain, terms):
        clean = {}
        for g, c in dict(terms).items():
            g = tuple(int(e) for e in g)
            if len(g) != rank:
                raise DimensionError(f"monomial {g} has length {len(g)}, expected {rank}")
            c = domain.normalize(c)
            if c:
                clean[g] = c
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, rank: int, domain: Domain = ZZ) -> "LaurentPoly":
        return cls(rank, domain, {})

    @classmethod
    def one(cls, rank: int, domain: Domain = ZZ) -> "LaurentPoly":
        return cls(rank, domain, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, g, c=1, domain: Domain = ZZ) -> "LaurentPoly":
        g = tuple(int(e) for e in g)
        return cls(len(g), domain, {g: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {(0,) * self.rank: self.domain.normalize(1)}

    def support(self):
        """Monomials with nonzero coefficient, sorted lexicographically."""
        return sorted(self.terms)

    def _compat(self, other: "LaurentPoly"):
        if self.rank != other.rank:
            raise DimensionError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.domain != other.domain:
            raise DimensionError(f"domain mismatch: {self.domain} vs {other.domain}")

    @property
    def _mod(self):
        return self.domain.p if self.domain.kind == "GF" else None

    def _with_terms(self, terms) -> "LaurentPoly":
        """A polynomial of this rank and domain holding a clean term map
        (normalized coefficients, no zeros) as it is."""
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "rank", self.rank)
        object.__setattr__(out, "domain", self.domain)
        object.__setattr__(out, "terms", terms)
        return out

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._compat(other)
        return self._with_terms(_term_add(self.terms, other.terms, self._mod))

    def __neg__(self) -> "LaurentPoly":
        return self.scale(-1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._compat(other)
        return self._with_terms(_term_mul(self.terms, other.terms, self._mod))

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers only for single monomials; use shift")
        out = LaurentPoly.one(self.rank, self.domain)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c) -> "LaurentPoly":
        c = self.domain.normalize(c)
        return self._with_terms(_term_scale(self.terms, c, self._mod))

    def shift(self, g) -> "LaurentPoly":
        """Multiply by the monomial x^g (g may have negative entries)."""
        g = tuple(int(e) for e in g)
        if len(g) != self.rank:
            raise DimensionError(f"shift vector has length {len(g)}, expected {self.rank}")
        return LaurentPoly(
            self.rank, self.domain,
            {tuple(a + b for a, b in zip(h, g)): c for h, c in self.terms.items()},
        )

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.rank == other.rank
                and self.domain == other.domain and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rank, self.domain, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for g in self.support():
            c = self.terms[g]
            mono = "*".join(
                f"{_var(i, self.rank)}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(g) if e != 0
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        s = " + ".join(bits).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"LaurentPoly({self.rank}, {self.domain}, {self.terms!r})"


@dataclass(frozen=True)
class Character:
    """Homomorphism Z^n -> R with exact rational values on the standard basis."""

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, *values) -> "Character":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def rank(self) -> int:
        return len(self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __neg__(self) -> "Character":
        return Character(tuple(-v for v in self.values))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


@dataclass(frozen=True)
class Direction:
    """Primitive integer representative of a ray class [chi] on the sphere."""

    vector: tuple[int, ...]

    @classmethod
    def of(cls, *vector) -> "Direction":
        return cls.from_vector(vector)

    @classmethod
    def from_vector(cls, v) -> "Direction":
        vector = _primitive(v)
        if not any(vector):
            raise ValueError("a direction must be nonzero")
        return cls(vector)

    @property
    def rank(self) -> int:
        return len(self.vector)

    def __neg__(self) -> "Direction":
        return Direction(tuple(-e for e in self.vector))

    def __str__(self):
        return "[" + ", ".join(str(e) for e in self.vector) + "]"


def chi_value(chi: Character, g) -> Fraction:
    """Evaluate chi(g) = sum chi_i g_i exactly."""
    g = tuple(g)
    if len(g) != chi.rank:
        raise DimensionError(f"chi has rank {chi.rank}, monomial has length {len(g)}")
    return sum((v * e for v, e in zip(chi.values, g)), Fraction(0))


def v_chi(chi: Character, f: LaurentPoly):
    """min over supp(f) of chi(g); +inf for the zero polynomial."""
    if f.is_zero:
        return INF
    return min(chi_value(chi, g) for g in f.terms)


def initial_part(chi: Character, f: LaurentPoly) -> LaurentPoly:
    """Sum of the terms of f whose monomials minimize chi (zero maps to zero)."""
    if f.is_zero:
        return f
    vals = {g: chi_value(chi, g) for g in f.terms}
    m = min(vals.values())
    return LaurentPoly(f.rank, f.domain, {g: c for g, c in f.terms.items() if vals[g] == m})


def poly_matrix_det(rows) -> LaurentPoly:
    """Determinant of a square LaurentPoly matrix by cofactor expansion."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("determinant needs a square matrix")
    if k == 1:
        return rows[0][0]
    first = rows[0][0]
    acc = LaurentPoly.zero(first.rank, first.domain)
    for j in range(k):
        minor = [[rows[i][t] for t in range(k) if t != j] for i in range(1, k)]
        term = rows[0][j] * poly_matrix_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc
