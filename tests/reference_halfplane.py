"""The Fraction layer of the half-plane lab, kept as test oracles.

`GroupElement` is the matrix [[p^k, b], [0, p^-k]] with b a Fraction,
`GroupRingElement` a finite integer combination of them, `busemann_arg`
and `HoroballSpec` the Busemann geometry in "log arguments" (a Busemann
value is stored as the rational whose natural log it is) and `epsilon` the
module images.  `sigmatrop.halfplane` now runs in integer pairs and
triples, answers both obstructions by their divisibility certificate and
proves the push on t; the tests compare it against these, against the
seeded push sampler `test_halfplane.reference_push_B` and the enumerations
`reference_infinity_obstruction` and `reference_zero_obstruction`, which
search for a witness over the same bounded families.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _strip_power(den: int, p: int) -> int:
    """den with every prime factor of p divided out: 1 exactly when den
    divides a power of p, also for composite p."""
    g = math.gcd(den, p)
    while g != 1:
        den //= g
        g = math.gcd(den, p)
    return den


@dataclass(frozen=True)
class GroupElement:
    """The matrix [[p^k, b], [0, p^-k]] with b in Z[1/p]."""

    p: int
    k: int
    b: Fraction

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("the scale parameter must be at least 2")
        if _strip_power(self.b.denominator, self.p) != 1:
            raise ValueError(f"{self.b} is not a p-power denominator rational")

    @classmethod
    def of(cls, p: int, k: int, b=0) -> "GroupElement":
        return cls(p, k, Fraction(b))

    def matrix(self):
        pk = Fraction(self.p) ** self.k
        return ((pk, self.b), (Fraction(0), 1 / pk))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.p != other.p:
            raise ValueError("elements of different groups")
        k = self.k + other.k
        b = Fraction(self.p) ** self.k * other.b + Fraction(self.p) ** (-other.k) * self.b
        return GroupElement(self.p, k, b)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.p, -self.k, -self.b)

    @property
    def identity_like(self) -> bool:
        return self.k == 0 and self.b == 0

    def act(self, z):
        """Moebius action z -> p^(2k) z + p^k b on the open upper half-plane."""
        re, im = Fraction(z[0]), Fraction(z[1])
        if im <= 0:
            raise ValueError("the action is defined on positive imaginary parts")
        scale = Fraction(self.p) ** (2 * self.k)
        return (scale * re + Fraction(self.p) ** self.k * self.b, scale * im)


BASE_POINT = (Fraction(0), Fraction(1))  # the point i


def t_gen(p: int) -> GroupElement:
    return GroupElement.of(p, 1)


class GroupRingElement:
    """Finite integer combination of group elements."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=()):
        clean = {}
        for g, c in dict(terms).items():
            if g.p != p:
                raise ValueError("mixed groups in one ring element")
            c = int(c)
            if c:
                clean[g] = c
        self.p = p
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms, key=lambda g: (g.k, g.b))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElement(self.p, out)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        out: dict = {}
        for g, c in self.terms.items():
            for h, d in other.terms.items():
                gh = g * h
                out[gh] = out.get(gh, 0) + c * d
        return GroupRingElement(self.p, out)

    def scale(self, c: int) -> "GroupRingElement":
        return GroupRingElement(self.p, {g: v * c for g, v in self.terms.items()})

    def right_mul(self, c: int, g: GroupElement) -> "GroupRingElement":
        return GroupRingElement(self.p, {h * g: v * c for h, v in self.terms.items()})

    def control_image(self):
        """The finite set of points g.i for g in the support."""
        return [g.act(BASE_POINT) for g in self.support()]

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement) and self.p == other.p
                and self.terms == other.terms)

    def __repr__(self):
        return f"GroupRingElement(p={self.p}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# Busemann functions, normalized to vanish at the base point i.


def busemann_arg(xi, z) -> Fraction:
    """exp of the Busemann value at z for the boundary point xi (None = inf).

    xi = inf: Im z; real xi: (1 + xi^2) Im z / |z - xi|^2.  Both equal 1 at
    the base point i, matching the chosen normalization.
    """
    re, im = Fraction(z[0]), Fraction(z[1])
    if im <= 0:
        raise ValueError("Busemann functions live on the open half-plane")
    if xi is None:
        return im
    xi = Fraction(xi)
    return (1 + xi * xi) * im / ((re - xi) ** 2 + im * im)


@dataclass(frozen=True)
class HoroballSpec:
    """Horoball at xi of Busemann level ln(level_arg); membership is the
    exact comparison busemann_arg(xi, z) >= level_arg."""

    xi: object  # Fraction or None for infinity
    level_arg: Fraction

    def contains(self, z) -> bool:
        return busemann_arg(self.xi, z) >= self.level_arg


def epsilon(c: GroupRingElement, module: str, p: int) -> Fraction:
    """Augmentation onto the module: unipotents map to 1 and t to p^2 on
    module "A", to p^-2 on module "B"."""
    if module not in ("A", "B"):
        raise ValueError("module must be 'A' or 'B'")
    sign = 2 if module == "A" else -2
    total = Fraction(0)
    for g, m in c.terms.items():
        total += m * Fraction(p) ** (sign * g.k)
    return total


def reference_infinity_obstruction(p, q, coeff_bound, k_max):
    """(candidates checked, passed, witness) of the search for sum m_k t^k
    over the horoball at infinity of level q that maps to 1 in module A: the
    identity when its point i lies in the ball, else a search over
    sum m_k p^(2k) = 1 with k = 1..k_max and |m_k| <= coeff_bound."""
    if HoroballSpec(None, Fraction(q)).contains(BASE_POINT):
        return 1, False, {0: 1}
    weights = [p ** (2 * k) for k in range(1, k_max + 1)]
    checked = 0
    span = range(-coeff_bound, coeff_bound + 1)
    for coeffs in itertools.product(span, repeat=k_max):
        checked += 1
        if sum(m * w for m, w in zip(coeffs, weights)) == 1:
            return checked, False, {k: m for k, m in enumerate(coeffs, 1) if m}
    return checked, True, None


@functools.lru_cache(maxsize=None)
def _ball_at_zero(p, q, k_max, b_num_bound):
    """The elements [[p^k, m / p^j], [0, p^-k]], |k| <= k_max, 0 <= j <=
    k_max, |m| <= b_num_bound, whose point g.i lies in the horoball at 0
    of level q, in (k, b) order, and their module-B images."""
    ball = HoroballSpec(xi=Fraction(0), level_arg=q)
    elements = {GroupElement(p, k, Fraction(m, p ** j))
                for k in range(-k_max, k_max + 1) for j in range(0, k_max + 1)
                for m in range(-b_num_bound, b_num_bound + 1)}
    candidates = sorted((g for g in elements if ball.contains(g.act(BASE_POINT))),
                        key=lambda g: (g.k, g.b))
    return candidates, [epsilon(GroupRingElement(p, {g: 1}), "B", p) for g in candidates]


def reference_zero_obstruction(p, q, coeff_bound, size_bound, k_max, b_num_bound=4):
    """(qualifying elements, combinations checked, passed, witness) of the
    search for a combination of at most size_bound elements over the
    horoball at 0 of level q, coefficients 0 < |c| <= coeff_bound, whose
    module-B image is 1.

    The combinations of one size are summed at once, in the order of the
    loop `for subset in combinations: for coeffs in product:`; the images
    are cleared of their common denominator, so a sum is the denominator
    exactly when the Fraction sum is 1."""
    candidates, images = _ball_at_zero(p, Fraction(q), k_max, b_num_bound)
    den = math.lcm(*(e.denominator for e in images))
    scaled = [int(e * den) for e in images]
    assert max(scaled, default=0) * coeff_bound * size_bound < 2 ** 62  # no int64 overflow
    weights = np.array(scaled, dtype=np.int64)
    nonzero = [c for c in range(-coeff_bound, coeff_bound + 1) if c]
    checked = 0
    for size in range(1, size_bound + 1):
        subsets = np.array(list(itertools.combinations(range(len(candidates)), size)),
                           dtype=np.intp).reshape(-1, size)
        coeffs = np.array(list(itertools.product(nonzero, repeat=size)), dtype=np.int64)
        hits = np.flatnonzero(weights[subsets] @ coeffs.T == den)
        if hits.size:
            i, j = divmod(int(hits[0]), len(coeffs))
            witness = {candidates[g]: int(c) for g, c in zip(subsets[i], coeffs[j])}
            return len(candidates), checked + int(hits[0]) + 1, False, witness
        checked += len(subsets) * len(coeffs)
    return len(candidates), checked, True, None
