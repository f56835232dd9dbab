"""Exact verifier for the upper half-plane examples: the solvable matrix
group generated by t = diag(p, 1/p) and the unipotents over Z[1/p], the two
rank-one modules on which t acts by p^2 and p^-2, and the membership and
obstruction checks for the boundary points 0 and infinity.

The geometry API (`GroupElement`, `busemann_arg`, `HoroballSpec`) keeps
exact rationals via "log arguments": a Busemann value is stored as the
rational whose natural log it is, and comparisons of sums of logs are
comparisons of products of rationals.  The search loops of
`verify_zero_obstruction_B` and `verify_push_B` run in plain integers: an
element of Z[1/p] is the canonical pair (n, e) meaning n / p^e, a group
element the triple (k, n, e), and each rational comparison is the same
inequality cleared of its powers of p.  Floats appear only for display.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction


def _strip_power(den: int, p: int) -> int:
    """den with every prime factor of p divided out: 1 exactly when den
    divides a power of p, also for composite p."""
    g = math.gcd(den, p)
    while g != 1:
        den //= g
        g = math.gcd(den, p)
    return den


def _canonical(p: int, n: int, e: int) -> tuple:
    """The pair (n', e') with n' / p^e' = n / p^e and e' >= 0 least; p
    divides no n' with e' > 0, so equal numbers get equal pairs."""
    if e < 0:
        return n * p ** -e, 0
    while e and n % p == 0:
        n //= p
        e -= 1
    return n, e


def _triple_mul(p: int, g: tuple, h: tuple) -> tuple:
    """The group law on triples (k, n, e), the matrix [[p^k, n/p^e], [0, p^-k]]:
    (k1, b1)(k2, b2) = (k1 + k2, p^k1 b2 + p^-k2 b1)."""
    (k1, n1, e1), (k2, n2, e2) = g, h
    e_left, e_right = e2 - k1, e1 + k2  # p^k1 b2 = n2 / p^e_left, p^-k2 b1 = n1 / p^e_right
    top = max(e_left, e_right)
    return (k1 + k2, *_canonical(p, n2 * p ** (top - e_left) + n1 * p ** (top - e_right), top))


def _in_ball_at_zero(p: int, k: int, n: int, e: int, q) -> bool:
    """Whether g.i = (p^k b, p^(2k)) lies in the horoball at 0 of level q,
    for g = [[p^k, b], [0, p^-k]] and b = n / p^e.  busemann_arg(0, g.i) is
    1 / (b^2 + p^(2k)), so this is q (b^2 + p^(2k)) <= 1 times the
    denominators q.denominator p^(2e + 2 max(0, -k))."""
    s = max(0, -k)
    return (q.numerator * (n * n * p ** (2 * s) + p ** (2 * (e + k + s)))
            <= q.denominator * p ** (2 * (e + s)))


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


# ---------------------------------------------------------------------------
# Reports.


@dataclass
class SupportAtZeroReport:
    p: int
    k: int
    rows: list  # (j, epsilon_ok, busemann_arg)
    strictly_increasing: bool
    passed: bool


def verify_support_at_zero_A(p: int, k: int, j_max: int) -> SupportAtZeroReport:
    """The elements p^(2(k+j)) t^(-j) all map to p^(2k) in module A while
    their control points climb arbitrarily high in every horoball at 0."""
    if p < 2:
        raise ValueError("need p >= 2")
    if k < 0:
        raise ValueError("need k >= 0")
    if j_max < k:
        raise ValueError("need j_max >= k: the residues start at j = k")
    rows = []
    prev = None
    increasing = True
    target = Fraction(p) ** (2 * k)
    for j in range(k, j_max + 1):
        cj = GroupRingElement(p, {GroupElement.of(p, -j): p ** (2 * (k + j))})
        eps_ok = epsilon(cj, "A", p) == target
        (point,) = cj.control_image()
        barg = busemann_arg(Fraction(0), point)
        if prev is not None and barg <= prev:
            increasing = False
        prev = barg
        rows.append((j, eps_ok, barg))
    passed = increasing and all(ok for _, ok, _ in rows)
    return SupportAtZeroReport(p=p, k=k, rows=rows,
                               strictly_increasing=increasing, passed=passed)


@dataclass
class InfinityObstructionReport:
    p: int
    q: Fraction
    symbolic_applies: bool
    symbolic_pass: bool
    candidates_checked: int
    witness: object
    passed: bool
    note: str = ""


def verify_infinity_obstruction_A(p: int, q, coeff_bound: int,
                                  k_max: int) -> InfinityObstructionReport:
    """No ring element supported over {Im >= q} maps to 1 in module A.

    Symbolic part: for q > 1 any reduced element sum m_k t^k over the
    horoball has all k >= 1, so its image lies in p^2 Z and cannot be 1.
    Brute-force part: exhaustive search over bounded coefficients confirms
    sum m_k p^(2k) = 1 has no solution.  For q <= 1 the identity (k = 0,
    Im i = 1 >= q) lies over the horoball and maps to 1: the witness
    {0: 1}, the coefficient of each power of t, and the check fails.
    """
    if coeff_bound < 1 or k_max < 1:
        raise ValueError("need coeff_bound >= 1 and k_max >= 1: an empty search")
    q = Fraction(q)
    if q <= 1:
        return InfinityObstructionReport(
            p=p, q=q, symbolic_applies=False, symbolic_pass=False,
            candidates_checked=1, witness={0: 1}, passed=False,
            note="threshold q <= 1 admits k = 0: the identity lies over the "
                 "horoball and maps to 1")
    # Im(t^k . i) = p^(2k) >= q > 1 forces k >= 1; each summand m_k p^(2k)
    # is then divisible by p^2, so the total is never 1
    symbolic_pass = all((p ** (2 * k)) % (p * p) == 0 for k in range(1, k_max + 1))
    weights = [p ** (2 * k) for k in range(1, k_max + 1)]
    witness = None
    checked = 0
    span = range(-coeff_bound, coeff_bound + 1)
    for coeffs in itertools.product(span, repeat=k_max):
        checked += 1
        if sum(m * w for m, w in zip(coeffs, weights)) == 1:
            witness = {k: m for k, m in enumerate(coeffs, 1) if m}
            break
    return InfinityObstructionReport(
        p=p, q=q, symbolic_applies=True, symbolic_pass=symbolic_pass,
        candidates_checked=checked, witness=witness,
        passed=symbolic_pass and witness is None,
        note="divisibility convention: each admissible term m_k p^(2k) with "
             "k >= 1 is divisible by p^2, so the total cannot be 1")


@dataclass
class PushBReport:
    p: int
    epsilon_preserved: bool
    shift_arg_ratio: Fraction
    shift_value: float
    shift_is_two_log_p: bool
    passed: bool


def _epsilon_B(p: int, terms: dict) -> tuple:
    """Image in module B of sum c g over triples g = (k, n, e), t acting by
    p^-2: the canonical pair of sum c p^(-2k)."""
    top = max((k for k, _, _ in terms), default=0)
    return _canonical(p, sum(c * p ** (2 * (top - k)) for (k, _, _), c in terms.items()),
                      2 * top)


def verify_push_B(p: int, trials: int = 20, seed: int = 0) -> PushBReport:
    """Right multiplication by p^2 t fixes the module-B image of every ring
    element and raises every control point's imaginary part by the factor
    p^2, i.e. it shifts by exactly 2 ln p towards infinity.

    Each random element g = [[p^k, m/p^j], [0, p^-k]] is the integer triple
    of `_triple_mul`, and every number compared is a canonical pair.
    """
    if p < 2:
        raise ValueError("the scale parameter must be at least 2")
    rng = random.Random(seed)
    shift_el = (1, 0, 0)  # t
    preserved = True
    ratio_ok = True
    for _ in range(trials):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            k = rng.randint(-3, 3)
            j = rng.randint(0, 2)
            m = rng.randint(-4, 4)
            g = (k, *_canonical(p, m, j))
            c = rng.randint(-5, 5)
            if c:
                terms[g] = terms.get(g, 0) + c
        lam = {g: c for g, c in terms.items() if c}
        pushed = {_triple_mul(p, g, shift_el): c * p * p for g, c in lam.items()}
        if _epsilon_B(p, pushed) != _epsilon_B(p, lam):
            preserved = False
        for g in lam:
            # Im(g.i) = p^(2k) = 1 / p^(-2k); the push multiplies it by p^2
            before = _canonical(p, 1, -2 * g[0])
            after = _canonical(p, 1, -2 * _triple_mul(p, g, shift_el)[0])
            if after != _canonical(p, before[0], before[1] - 2):
                ratio_ok = False
    return PushBReport(p=p, epsilon_preserved=preserved,
                       shift_arg_ratio=Fraction(p * p),
                       shift_value=2 * math.log(p),
                       shift_is_two_log_p=ratio_ok,
                       passed=preserved and ratio_ok)


@dataclass
class ZeroObstructionReport:
    p: int
    q: Fraction
    module: str
    qualifying_elements: int
    combinations_checked: int
    witness: object
    passed: bool


def verify_zero_obstruction_B(p: int, q, coeff_bound: int, size_bound: int,
                              k_max: int = 2, b_num_bound: int = 4,
                              module: str = "B") -> ZeroObstructionReport:
    """Brute-force check that no bounded ring element supported inside the
    horoball at 0 of level ln(q) maps to 1 in module B.

    The same enumeration with module="A" is the sanity inversion: module A
    is supported at 0, so a witness is expected there once the coefficient
    bound admits it.

    The sums are exact in integers: every candidate has |k| <= k_max, so
    its image p^(-2k) (p^(2k) on module A) times the scale p^(2 k_max) is
    an integer, and a combination maps to 1 exactly when its scaled sum is
    the scale.  Candidates are integer keys, and ball membership is the
    integer test of `_in_ball_at_zero`; only a witness is built as
    `GroupElement`s.
    """
    if p < 2:
        raise ValueError("the scale parameter must be at least 2")
    if coeff_bound < 1 or size_bound < 1 or k_max < 0:
        raise ValueError("need coeff_bound, size_bound >= 1 and k_max >= 0")
    if module not in ("A", "B"):
        raise ValueError("module must be 'A' or 'B'")
    q = Fraction(q)
    # candidate (k, n) is [[p^k, n / p^k_max], [0, p^-k]]; n = m p^(k_max - j)
    # for b = m / p^j, so equal b give equal keys
    candidates = set()
    for k in range(-k_max, k_max + 1):
        for j in range(0, k_max + 1):
            for m in range(-b_num_bound, b_num_bound + 1):
                key = (k, m * p ** (k_max - j))
                if key not in candidates and _in_ball_at_zero(p, *key, k_max, q):
                    candidates.add(key)
    candidates = sorted(candidates)
    sign = 2 if module == "A" else -2
    scale = p ** (2 * k_max)
    scaled = {g: p ** (2 * k_max + sign * g[0]) for g in candidates}
    checked = 0
    witness = None
    nonzero = [c for c in range(-coeff_bound, coeff_bound + 1) if c]
    for size in range(1, size_bound + 1):
        for subset in itertools.combinations(candidates, size):
            weights = [scaled[g] for g in subset]
            for coeffs in itertools.product(nonzero, repeat=size):
                checked += 1
                if sum(map(operator.mul, coeffs, weights)) == scale:
                    witness = {GroupElement(p, k, Fraction(n, p ** k_max)): c
                               for (k, n), c in zip(subset, coeffs)}
                    break
            if witness:
                break
        if witness:
            break
    passed = witness is None if module == "B" else witness is not None
    return ZeroObstructionReport(p=p, q=q, module=module,
                                 qualifying_elements=len(candidates),
                                 combinations_checked=checked,
                                 witness=witness, passed=passed)
