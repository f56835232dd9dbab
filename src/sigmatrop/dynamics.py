"""Push calculus for controlled free modules over Z^n.

A push map is a square matrix over the integral Laurent ring, read as an
equivariant endomorphism of the free module in its canonical basis with the
canonical control map at the origin (so a basis element g*x_j sits at the
lattice point g).  Norms, guaranteed shifts, and the positivity cone are all
exact; the far-direction estimate iterates the map exactly and only its
angular comparison uses floats, backed by an exact squared-cosine test.

Two statements about the shift are theorems, and nothing here recomputes
them.  The guaranteed shift is a minimum of chi over support monomials,
and supports add under products: each monomial of (phi psi)_ij is a sum
g + h with g in the support of some phi_il and h in that of psi_lj.  So
gsh(phi psi) >= gsh(phi) + gsh(psi) and gsh(phi^k) >= k gsh(phi) for every
push map and character (a zero map shifts by +inf).  From a start
supported at the origin, a monomial g of the k-th iterate is a sum of k
support monomials, so chi(g) >= k gsh and |g| <= k |phi|: when gsh > 0 the
angle bound cos angle(chi, g) >= gsh / (|chi| |phi|) holds, and
`check_angle_bound` cannot fail.  From any other start it is a claim that
the check decides.

The orbit runs on integer term maps over a `Frame`: a box fixed before the
loop that holds every monomial the loop can reach, whose points are
numbered in mixed radix.  Multiplying by a monomial is then one integer
addition per term, each image entry is accumulated in one dict, and
exponent tuples are decoded only for the answer: the directions of the
last iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .polyhedra import Polyhedron, PolyhedralSet
from .rings import ZZ, Character, DimensionError, Direction, SoundnessError

INF = math.inf


@dataclass(frozen=True)
class PushMap:
    rank: int
    entries: tuple  # k x k tuple of LaurentPoly over Z

    @classmethod
    def of(cls, entries) -> "PushMap":
        rows = tuple(tuple(row) for row in entries)
        k = len(rows)
        if k < 1 or any(len(r) != k for r in rows):
            raise ValueError("a push map is a nonempty square matrix")
        rank = rows[0][0].rank
        for row in rows:
            for e in row:
                if e.rank != rank or e.domain != ZZ:
                    raise DimensionError("entries must share one rank over Z")
        return cls(rank, rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    @cached_property
    def support(self) -> tuple:
        """The sorted support monomials of all entries, formed once."""
        return tuple(sorted({g for row in self.entries for f in row for g in f.terms}))


class Frame:
    """A box [lo, hi] of Z^n with its points numbered in mixed radix.

    key(g) = offset(g - lo), where offset(h) = sum h_i * stride_i with
    stride_0 = 1 and stride_(i+1) = stride_i * (hi_i - lo_i + 1).  Keys are
    one-to-one on the box, and for g and g + h both in it, key(g + h) =
    key(g) + offset(h): a shift by the monomial x^h is one addition.  Keys
    of points outside the box alias, so a frame must hold every monomial
    its loop can reach."""

    __slots__ = ("lo", "widths", "strides", "origin")

    def __init__(self, lo, hi):
        self.lo = tuple(lo)
        self.widths = tuple(b - a + 1 for a, b in zip(lo, hi))
        strides = [1]
        for w in self.widths[:-1]:
            strides.append(strides[-1] * w)
        self.strides = tuple(strides)
        self.origin = self.offset(self.lo)

    @classmethod
    def reach(cls, phi: "PushMap", start, steps: int) -> "Frame":
        """The box that holds the orbit: the start monomials moved by up to
        `steps` steps of the box of phi's support, coordinatewise:
        lo + steps * min(0, lo(phi)) and hi + steps * max(0, hi(phi)).  No
        start monomial gives the origin's box."""
        lo, hi = _box(phi.rank, start)
        step_lo, step_hi = _box(phi.rank, phi.support)
        return cls([a + steps * min(0, b) for a, b in zip(lo, step_lo)],
                   [a + steps * max(0, b) for a, b in zip(hi, step_hi)])

    def offset(self, h) -> int:
        return sum(map(mul, h, self.strides))

    def keyed(self, f) -> dict:
        """The term map of a LaurentPoly inside the box, keyed by its points."""
        origin = self.origin
        return {self.offset(g) - origin: c for g, c in f.terms.items()}

    def shifts(self, phi: "PushMap") -> list:
        """phi's entries as term maps keyed by offsets, row by row: the
        multiplier whose terms are added to keys."""
        return [[{self.offset(g): c for g, c in f.terms.items()} for f in row]
                for row in phi.entries]

    def points(self, keys):
        """The monomials of the keys, decoded one coordinate at a time."""
        keys = list(keys)
        cols = []
        for a, w in zip(self.lo, self.widths):
            cols.append([a + k % w for k in keys])
            keys = [k // w for k in keys]
        return zip(*cols)


def _box(rank: int, monomials):
    """Coordinatewise minima and maxima of the monomials; the origin for none."""
    cols = list(zip(*monomials)) or [(0,)] * rank
    return [min(c) for c in cols], [max(c) for c in cols]


def _image(shifts, column) -> list:
    """The image of a column of keyed term maps under a matrix of offset
    term maps: each entry is accumulated in place in one dict, and the
    terms that cancel are dropped once, at the end."""
    out = []
    for row in shifts:
        acc = {}
        get = acc.get
        for f, v in zip(row, column):
            for h, c in f.items():
                for k, a in v.items():
                    k += h
                    acc[k] = get(k, 0) + c * a
        out.append({k: a for k, a in acc.items() if a})
    return out


class Norm(NamedTuple):
    squared: Fraction
    value: float


def norm(phi: PushMap) -> Norm:
    """Largest displacement of a basis point: max Euclidean length over the
    support monomials (exact square plus a float companion)."""
    best = max((sum(e * e for e in g) for g in phi.support), default=0)
    return Norm(Fraction(best), math.sqrt(best))


def gsh(phi: PushMap, chi: Character):
    """Guaranteed shift towards chi, reduced to the finite basis.

    Equivariance and the ultrametric rules make the infimum over the whole
    free module equal the minimum over basis images; a zero column shifts by
    +inf.  The value is for chi as given (not unit-normalized)."""
    if chi.rank != phi.rank:
        raise DimensionError("direction rank does not match the map")
    return _least_value(chi, (g for row in phi.entries for f in row for g in f.terms))


def _integral(chi: Character):
    """chi scaled by the common denominator of its values, as the integer
    vector den chi and den: chi(g) = (den chi)(g) / den."""
    den = math.lcm(*(v.denominator for v in chi.values))
    return [v.numerator * (den // v.denominator) for v in chi.values], den


def _least_value(chi: Character, monomials):
    """The minimum of chi over the monomials, +inf for none, taken over
    integers as the minimum of den chi divided by den."""
    scaled, den = _integral(chi)
    best = min((sum(map(mul, scaled, g)) for g in monomials), default=None)
    return INF if best is None else Fraction(best, den)


def sigma_of_push(phi: PushMap) -> PolyhedralSet:
    """The open cone of directions with positive guaranteed shift."""
    piece = Polyhedron.cone(phi.rank, gt=phi.support)
    return PolyhedralSet(phi.rank, [] if piece.is_empty else [piece])


@dataclass
class PushOrbitReport:
    directions: list[Direction]
    died_out: bool
    steps: int


def lambda_of_push_estimate(phi: PushMap, start, iters: int) -> PushOrbitReport:
    """Far-direction estimate: iterate phi on the start vector exactly and
    cluster the nonzero support monomials of the last three iterates into
    primitive directions, each distinct monomial once.  The iterates are
    keyed term maps over the frame of the start moved by iters steps."""
    start = tuple(start)
    if len(start) != phi.size or any(v.rank != phi.rank for v in start):
        raise DimensionError("the start vector must match the map's size and rank")
    frame = Frame.reach(phi, [g for v in start for g in v.terms], iters)
    shifts = frame.shifts(phi)
    vec = [frame.keyed(v) for v in start]
    history = []  # the last three iterates
    died_out = False
    steps = 0
    for _ in range(iters):
        vec = _image(shifts, vec)
        steps += 1
        if not any(vec):
            died_out = True
            break
        history = history[-2:] + [vec]
    keys = set().union(*(e for vec in history for e in vec))
    dirs = {Direction.from_vector(g).vector for g in frame.points(keys) if any(g)}
    return PushOrbitReport(directions=[Direction(v) for v in sorted(dirs)],
                           died_out=died_out, steps=steps)


@dataclass
class AngleCheck:
    direction: Direction
    cos_ok_exact: bool
    within_slack: bool


@dataclass
class AngleBoundReport:
    gsh_value: Fraction
    norm_squared: Fraction
    bound_degrees: float
    checks: list[AngleCheck]
    passed: bool


ANGLE_SLACK = 1e-6


def check_angle_bound(chi: Character, g, nsq: Fraction, dirs) -> AngleBoundReport:
    """Verify every estimated far direction lies within the shift/norm angle
    bound of chi: angle(chi, e) <= arccos(gsh_unit / norm), for a map's
    shift g = gsh(phi, chi) and squared norm nsq.  A direction passes by the
    exact test on squared cosines alone; its float angle within 1e-6 of the
    bound is reported as within_slack and decides nothing.

    For the directions of an orbit from a start supported at the origin the
    bound is a theorem (see the module docstring); from any other start it
    can fail, so the test runs for every start."""
    if g == INF or g <= 0:
        raise ValueError("the angle bound needs a strictly positive shift")
    if nsq <= 0:
        raise SoundnessError("a positive shift forces a positive norm")
    scaled, den = _integral(chi)
    chin = sum(v * v for v in scaled)
    # unit-normalized shift g/|chi| gives the bound arccos(g / (|chi| |phi|));
    # in cos(angle(chi, e)) >= g/(|chi| |phi|) the |chi| factors cancel, so the
    # exact test is a*|phi| >= g*|e| with a = chi*e, squared once signs allow;
    # over den chi, a = (den chi)*e is an integer and g becomes den g
    gd2 = (g * den) ** 2
    bound = math.acos(min(1.0, math.sqrt(float(gd2 / (chin * nsq)))))
    checks = []
    for d in dirs:
        vec = d.vector if isinstance(d, Direction) else tuple(d)
        a = sum(map(mul, scaled, vec))
        esq = sum(e * e for e in vec)
        exact = a > 0 and a * a * nsq >= gd2 * esq
        # the float cosine, correctly rounded from the integer ratio
        # a^2 / (|den chi|^2 |e|^2) <= 1: no float of |chi|^2 is built
        angle = math.acos(math.copysign(math.sqrt(a * a / (chin * esq)), a))
        within = angle <= bound + ANGLE_SLACK
        checks.append(AngleCheck(direction=Direction(tuple(vec)),
                                 cos_ok_exact=bool(exact),
                                 within_slack=bool(within)))
    return AngleBoundReport(gsh_value=g, norm_squared=nsq,
                            bound_degrees=math.degrees(bound), checks=checks,
                            passed=all(c.cos_ok_exact for c in checks))
