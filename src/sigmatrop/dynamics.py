"""Push calculus for controlled free modules over Z^n.

A push map is a square matrix over the integral Laurent ring, read as an
equivariant endomorphism of the free module in its canonical basis with the
canonical control map at the origin (so a basis element g*x_j sits at the
lattice point g).  Norms, guaranteed shifts, and the positivity cone are all
exact; the far-direction estimate iterates the map exactly and only its
angular comparison uses floats, backed by an exact squared-cosine test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .polyhedra import Polyhedron, PolyhedralSet
from .rings import (ZZ, Character, DimensionError, Direction, SoundnessError,
                    poly_matrix_mul)

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

    def compose(self, other: "PushMap") -> "PushMap":
        if self.size != other.size or self.rank != other.rank:
            raise DimensionError("size mismatch in composition")
        return PushMap(self.rank, tuple(
            tuple(row) for row in poly_matrix_mul(self.entries, other.entries)))

    def apply(self, vec):
        """Image of a column vector of ring elements."""
        if len(vec) != self.size:
            raise DimensionError("vector length must match the matrix size")
        return tuple(row[0] for row in poly_matrix_mul(self.entries, [[v] for v in vec]))


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
    +inf.  The value is for chi as given (not unit-normalized); the minimum is
    taken over integers, chi scaled by the common denominator of its values.
    """
    if chi.rank != phi.rank:
        raise DimensionError("direction rank does not match the map")
    # chi(g) = (den chi)(g) / den, an integer dot product over one denominator
    den = math.lcm(*(v.denominator for v in chi.values))
    scaled = [v.numerator * (den // v.denominator) for v in chi.values]
    best = min((sum(map(mul, scaled, g))
                for row in phi.entries for f in row for g in f.terms), default=None)
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
    primitive directions, each distinct monomial once."""
    vec = tuple(start)
    history = []
    died_out = False
    steps = 0
    for _ in range(iters):
        vec = phi.apply(vec)
        steps += 1
        supp = set()
        for entry in vec:
            supp.update(entry.terms)
        if not supp:
            died_out = True
            break
        history.append(supp)
    dirs = {Direction.from_vector(g).vector
            for g in set().union(*history[-3:]) if any(g)}
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
    bound is reported as within_slack and decides nothing."""
    if g == INF or g <= 0:
        raise ValueError("the angle bound needs a strictly positive shift")
    if nsq <= 0:
        raise SoundnessError("a positive shift forces a positive norm")
    chin = sum(v * v for v in chi.values)
    # unit-normalized shift g/|chi| gives the bound arccos(g / (|chi| |phi|));
    # in cos(angle(chi, e)) >= g/(|chi| |phi|) the |chi| factors cancel, so the
    # exact test is a*|phi| >= g*|e| with a = chi*e, squared once signs allow
    bound = math.acos(min(1.0, math.sqrt(float((g * g) / (chin * nsq)))))
    checks = []
    for d in dirs:
        vec = d.vector if isinstance(d, Direction) else tuple(d)
        a = sum(Fraction(v) * e for v, e in zip(chi.values, vec))
        esq = sum(e * e for e in vec)
        exact = a > 0 and (a * a) * nsq >= (g * g) * esq
        angle = math.acos(max(-1.0, min(1.0, float(a) / math.sqrt(float(chin) * esq))))
        within = angle <= bound + ANGLE_SLACK
        checks.append(AngleCheck(direction=Direction(tuple(vec)),
                                 cos_ok_exact=bool(exact),
                                 within_slack=bool(within)))
    return AngleBoundReport(gsh_value=g, norm_squared=nsq,
                            bound_degrees=math.degrees(bound), checks=checks,
                            passed=all(c.cos_ok_exact for c in checks))


@dataclass
class ComposeShiftReport:
    gsh_first: object
    gsh_second: object
    gsh_composed: object
    additive_ok: bool
    power_ok: bool
    passed: bool


def compose_gsh_check(phi: PushMap, psi: PushMap, chi: Character,
                      max_power: int = 5) -> ComposeShiftReport:
    """Exact superadditivity of the shift under composition and powers:
    gsh(phi psi) >= gsh(phi) + gsh(psi), and gsh(phi^k) >= k gsh(phi) for
    k = 2, ..., max_power unless gsh(phi) is +inf.  Each power is built once,
    as phi times the one before, up to the first that fails.  When psi is
    phi, gsh(psi) is gsh(phi) and phi psi is phi^2, so max_power powers take
    max(1, max_power - 1) products and one shift per distinct map."""
    g_phi = gsh(phi, chi)
    g_psi = g_phi if psi is phi else gsh(psi, chi)
    composed = phi.compose(psi)
    g_comp = gsh(composed, chi)
    additive_ok = g_comp >= g_phi + g_psi
    power_ok = True
    if g_phi != INF:
        acc = phi
        for k in range(2, max_power + 1):
            acc = composed if k == 2 and psi is phi else phi.compose(acc)
            if (g_comp if acc is composed else gsh(acc, chi)) < k * g_phi:
                power_ok = False
                break
    return ComposeShiftReport(gsh_first=g_phi, gsh_second=g_psi,
                              gsh_composed=g_comp, additive_ok=additive_ok,
                              power_ok=power_ok,
                              passed=additive_ok and power_ok)
