"""The zero-dimensional sigma invariant of modules over Z^n, with certificates.

Architecture: membership of a ray class in the invariant is only ever claimed
with a checkable certificate (an annihilator whose initial part at the
direction is exactly 1); complement membership only with an explicit
valuation vector; everything else stays "undecided".  This keeps every
answer sound without a general Groebner-fan computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub

from . import linalg
from .polyhedra import (Polyhedron, PolyhedralSet, SphericalSet,
                        has_antipodal_pair, in_open_hemisphere, ray_cone)
from .rings import (ZZ, Character, DimensionError, Direction, Domain,
                    LaurentPoly, SoundnessError, _primitive, chi_value,
                    initial_part, v_chi)
from .tropical import global_tropical_Z, trop_hypersurface, trop_prevariety
from .valuations import TrivialValuation, padic_valuation


class UnsupportedModeError(ValueError):
    """The requested operation is not available for this presentation mode."""


# ---------------------------------------------------------------------------
# Module presentations.


@dataclass(frozen=True)
class ScalarAction:
    """Z^n acting on a rank-one rational lattice: generator i scales by rhos[i]."""

    rhos: tuple[Fraction, ...]

    @classmethod
    def of(cls, *rhos) -> "ScalarAction":
        return cls(tuple(Fraction(r) for r in rhos))

    def __post_init__(self):
        if not self.rhos or any(r == 0 for r in self.rhos):
            raise ValueError("scalar actions need nonzero ratios")

    @property
    def rank(self) -> int:
        return len(self.rhos)

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class MatrixAction:
    """Z^n acting on Q^d by pairwise-commuting invertible rational matrices."""

    mats: tuple  # n matrices, each a d-tuple of d-tuples of Fractions
    generators: tuple  # module generators, each a d-tuple of Fractions

    @classmethod
    def of(cls, mats, generators) -> "MatrixAction":
        mats = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in mats)
        generators = tuple(tuple(Fraction(x) for x in g) for g in generators)
        return cls(mats, generators)

    def __post_init__(self):
        if not self.mats:
            raise ValueError("need at least one acting matrix")
        d = len(self.mats[0])
        if d < 1:
            raise ValueError("acting matrices must have a size of at least 1")
        for m in self.mats:
            if len(m) != d or any(len(row) != d for row in m):
                raise ValueError("matrices must be square of one size")
            if linalg.invert([list(r) for r in m]) is None:
                raise ValueError("acting matrices must be invertible")
        for a, b in itertools.combinations(self.mats, 2):
            ab = linalg.mat_mul([list(r) for r in a], [list(r) for r in b])
            ba = linalg.mat_mul([list(r) for r in b], [list(r) for r in a])
            if ab != ba:
                raise ValueError("acting matrices must commute pairwise")
        if not self.generators:
            raise ValueError("need module generators")
        if any(len(g) != d for g in self.generators):
            raise ValueError(f"generators must have length {d}")
        if linalg.rank([list(g) for g in self.generators]) != d:
            raise ValueError("generators must span Q^d")

    @property
    def rank(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return len(self.mats[0])


@dataclass(frozen=True)
class CyclicModule:
    """Cyclic presentation DG/(gens) over D in {Z, Q, GF(p)}."""

    rank: int
    domain: Domain
    gens: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("cyclic presentations need rank >= 1")
        for g in self.gens:
            if g.rank != self.rank or g.domain != self.domain:
                raise DimensionError("generators must live in the stated ring")


ModulePresentation = ScalarAction | MatrixAction | CyclicModule


def as_matrix_action(mod: ModulePresentation) -> MatrixAction:
    if isinstance(mod, MatrixAction):
        return mod
    if isinstance(mod, ScalarAction):
        return MatrixAction.of([[[r]] for r in mod.rhos], [[1]])
    raise UnsupportedModeError("cyclic presentations have no action matrices")


def direct_sum_module(a: ModulePresentation, b: ModulePresentation) -> MatrixAction:
    """Block-diagonal direct sum of two matrix-action presentations."""
    ma, mb = as_matrix_action(a), as_matrix_action(b)
    if ma.rank != mb.rank:
        raise DimensionError("direct summands must share the acting rank")
    da, db = ma.dim, mb.dim
    mats = []
    for i in range(ma.rank):
        block = [[Fraction(0)] * (da + db) for _ in range(da + db)]
        for r in range(da):
            for c in range(da):
                block[r][c] = ma.mats[i][r][c]
        for r in range(db):
            for c in range(db):
                block[da + r][da + c] = mb.mats[i][r][c]
        mats.append(block)
    gens = [tuple(g) + (Fraction(0),) * db for g in ma.generators]
    gens += [(Fraction(0),) * da + tuple(g) for g in mb.generators]
    return MatrixAction.of(mats, gens)


# ---------------------------------------------------------------------------
# Action evaluation.


class _ActionCache:
    """Monomial-to-matrix evaluation for one MatrixAction, scoped to one call.

    Each matrix is kept as a pair (integer matrix, den), the rational matrix
    times den, with den > 0 and the gcd of den and the entries 1.  The cache
    starts with (I, 1) at 0.  A new monomial g costs one integer product:
    the cached pair of the monomial one step nearer 0 in g's last nonzero
    coordinate i, times the pair of matrix i or its inverse, reduced by the
    gcd."""

    def __init__(self, mod: MatrixAction):
        self.mod = mod
        self.d = mod.dim
        # steps[i] = (matrix i, its inverse), each an (integer matrix, den) pair
        self.steps = [(_integer_pair(m), _integer_pair(linalg.invert(m)))
                      for m in mod.mats]
        self.cache: dict[tuple, tuple] = {
            (0,) * mod.rank: ([[int(i == j) for j in range(self.d)]
                               for i in range(self.d)], 1)}

    def monomial_matrix(self, g):
        """action(g) as its (integer matrix, den) pair."""
        g = tuple(g)
        path = []  # the monomials from g down to the first cached one
        while g not in self.cache:
            i = max(i for i, e in enumerate(g) if e)
            path.append((g, i))
            g = g[:i] + (g[i] - 1 if g[i] > 0 else g[i] + 1,) + g[i + 1:]
        mat, den = self.cache[g]
        for h, i in reversed(path):
            step, sden = self.steps[i][h[i] < 0]
            mat, den = self.cache[h] = _integer_pair(linalg.mat_mul(mat, step),
                                                    den * sden)
        return mat, den

    def evaluate(self, lam: LaurentPoly):
        """lam at the action, exactly, as a pair (matrix, den) over the lcm
        of its monomials' dens; the matrix is integer when lam is."""
        d = self.d
        pairs = [(c, *self.monomial_matrix(g)) for g, c in lam.terms.items()]
        den = math.lcm(*(mden for _, _, mden in pairs))
        out = [[0] * d for _ in range(d)]
        for c, mg, mden in pairs:
            c *= den // mden
            for i in range(d):
                for j in range(d):
                    out[i][j] += c * mg[i][j]
        return out, den


def _integer_pair(mat, den=1):
    """The square matrix mat / den as (integer matrix, den), den > 0 and the
    gcd of den and the entries 1, made by rings._primitive."""
    *flat, den = _primitive((*itertools.chain(*mat), den))
    d = len(mat)
    return [list(flat[i * d:(i + 1) * d]) for i in range(d)], den


def annihilates(lam: LaurentPoly, mod: ModulePresentation) -> bool:
    """True iff lam evaluated at the action matrices is the zero matrix."""
    if isinstance(mod, CyclicModule):
        raise UnsupportedModeError("use ideal_membership for cyclic presentations")
    m = as_matrix_action(mod)
    if lam.rank != m.rank:
        raise DimensionError(f"lam has rank {lam.rank}, module has rank {m.rank}")
    return _is_zero_matrix(_ActionCache(m).evaluate(lam)[0])


def _is_zero_matrix(mat) -> bool:
    return all(x == 0 for row in mat for x in row)


# ---------------------------------------------------------------------------
# Ideal membership in the Laurent ring (field coefficients or one generator
# over Z, desk scale).

MEMBERSHIP_RANK_LIMIT = 4
MEMBERSHIP_DEGREE_LIMIT = 12


def _to_sympy_poly(f: LaurentPoly, syms):
    """Clear monomial units: shift exponents to be nonnegative."""
    import sympy

    shifts = [min((g[i] for g in f.terms), default=0) for i in range(f.rank)]
    shifts = [min(s, 0) for s in shifts]
    expr = 0
    for g, c in f.terms.items():
        term = sympy.Integer(c) if isinstance(c, int) else sympy.Rational(c)
        for i, e in enumerate(g):
            term *= syms[i] ** (e - shifts[i])
        expr += term
    return expr


def ideal_membership(lam: LaurentPoly, gens, domain: Domain) -> bool:
    """Decide lam in (gens) inside the Laurent ring over a field, or over Z
    for one generator.

    Clears monomial units and reduces against a Groebner basis of the ideal
    saturated at the product of the variables.  Over Z, Gauss's lemma
    decides a principal ideal: lam is in (f) exactly when f divides lam over
    Q and the content of f divides the content of lam.  Several generators
    over Z raise UnsupportedModeError.
    """
    if lam.rank > MEMBERSHIP_RANK_LIMIT:
        raise ValueError(f"rank limited to {MEMBERSHIP_RANK_LIMIT}")
    gens = [g for g in gens if not g.is_zero]
    if domain.kind == "ZZ":
        if len(gens) > 1:
            raise UnsupportedModeError(
                "ideal membership over Z decides principal ideals only")
        if gens and _content(lam) % _content(gens[0]):
            return False
    if lam.is_zero:
        return True
    if not gens:
        return False
    span = max(max(abs(e) for g in f.terms for e in g) for f in gens + [lam])
    if span * lam.rank > MEMBERSHIP_DEGREE_LIMIT * 2:
        raise ValueError("degree exceeds the desk-scale membership guard")
    import sympy

    n = lam.rank
    syms = sympy.symbols(f"v0:{n}") if n > 1 else (sympy.Symbol("v0"),)
    t = sympy.Symbol("t_sat")
    prod = t
    for s in syms:
        prod *= s
    basis_polys = [_to_sympy_poly(g, syms) for g in gens] + [prod - 1]
    # both over one field: over QQ (for Z coefficients too), not the ZZ sympy
    # infers from integer input
    opts = {"modulus": domain.p} if domain.kind == "GF" else {"domain": "QQ"}
    gb = sympy.groebner(basis_polys, *syms, t, order="grevlex", **opts)
    target = sympy.Poly(_to_sympy_poly(lam, syms), *syms, t, **opts)
    return gb.reduce(target)[1] == 0


# ---------------------------------------------------------------------------
# Certificates.


def certificate_valid(lam: LaurentPoly, chi: Character,
                      mod: ModulePresentation) -> bool:
    """Eq-style certificate check: lam annihilates the module and the initial
    part of lam at chi is exactly the constant 1."""
    if chi.is_zero:
        raise ValueError("certificates are defined for nonzero directions")
    if isinstance(mod, CyclicModule):
        kills = ideal_membership(lam, mod.gens, mod.domain)
    else:
        kills = annihilates(lam, mod)
    return kills and initial_part(chi, lam).is_one


def matrix_certificate_valid(theta, chi: Character, mod: ModulePresentation) -> bool:
    """Matrix certificate: theta * generators = 0 and the least chi-grade of
    theta is the identity matrix."""
    k = len(theta)
    if any(len(row) != k for row in theta):
        raise ValueError("theta must be square")
    m = as_matrix_action(mod)
    if k != len(m.generators):
        raise ValueError(f"theta is {k}x{k} but the module has "
                         f"{len(m.generators)} generators")
    cache = _ActionCache(m)
    d = m.dim
    for i in range(k):
        acc = [Fraction(0)] * d
        for j in range(k):
            mat, den = cache.evaluate(theta[i][j])
            vec = m.generators[j]
            for r in range(d):
                acc[r] += Fraction(sum(mat[r][c] * vec[c] for c in range(d)), den)
        if any(x != 0 for x in acc):
            return False
    vals = [v_chi(chi, e) for row in theta for e in row if not e.is_zero]
    if not vals:
        return False
    rstar = min(vals)
    if rstar != 0:
        return False
    for i in range(k):
        for j in range(k):
            comp = LaurentPoly(
                theta[i][j].rank, theta[i][j].domain,
                {g: c for g, c in theta[i][j].terms.items()
                 if chi_value(chi, g) == rstar})
            if i == j and not comp.is_one:
                return False
            if i != j and not comp.is_zero:
                return False
    return True


def determinant_reduction(theta) -> LaurentPoly:
    """Determinant of a matrix certificate; if theta is a valid matrix
    certificate at chi then det(theta) is a valid scalar certificate there."""
    from .rings import poly_matrix_det

    return poly_matrix_det(theta)


# -- search ------------------------------------------------------------------


def _box_rows(cache: _ActionCache, in_strict_dual, k: int):
    """The certificate system of a matrix action on the box [-k, k]^n: lam =
    1 + sum c_g x^g over the strict-dual monomials g != 0 of the box, with
    sum c_g action(g) = -I as one integer row per matrix entry: the entry's
    values over all g, scaled by the lcm of their reduced denominators, read
    off the (integer matrix, den) pairs.  Returns (monos, rows, rhs), the
    sparse rows {column: int} with one column per monomial of monos."""
    # product() runs through the box in lexicographic order
    monos = [g for g in itertools.product(range(-k, k + 1), repeat=cache.mod.rank)
             if any(g) and in_strict_dual(g)]
    cols = [cache.monomial_matrix(g) for g in monos]
    rows, rhs = [], []
    for i, j in itertools.product(range(cache.d), repeat=2):
        row = [(mat[i][j], den) for mat, den in cols]
        scale = math.lcm(*(den // math.gcd(x, den) for x, den in row))
        rows.append({t: x * scale // den for t, (x, den) in enumerate(row) if x})
        rhs.append(-scale if i == j else 0)
    return monos, rows, rhs


def certificate_search(mod: ModulePresentation, chi: Character, box: int,
                       coeff_bound: int):
    """Search for an integer certificate at chi: `_cover` on chi's open
    ray, unsplit.  On a ray the strict dual is {g : chi * g > 0}, so supports
    are {0} union {g in [-box, box]^n : chi * g > 0}, by increasing box size
    then lexicographic order, with the constant coefficient fixed to 1.
    Returns the first re-checked solution within coeff_bound, else None.
    """
    if chi.is_zero:
        raise ValueError("search needs a nonzero direction")
    if isinstance(mod, CyclicModule):
        raise UnsupportedModeError(
            "cyclic mode: supply certificates and use certificate_valid")
    m = as_matrix_action(mod)
    if chi.rank != m.rank:
        raise DimensionError("direction rank does not match the module")
    ray = ray_cone(Direction.from_vector(chi.values))
    certified, _ = _cover(_ActionCache(m), [ray], coeff_bound, box, 0)
    return certified[0][2] if certified else None


# ---------------------------------------------------------------------------
# SigmaResult assembly.


@dataclass(frozen=True)
class ComplementWitness:
    """A valuation vector realizing a proved complement direction.  A
    "coprime-base" witness names in `prime` a base b that stayed composite:
    its vector is the exponent vector of b in the ratios, and the p-adic
    vector of each prime p of b is that vector times v_p(b)."""

    direction: Direction
    kind: str  # "p-adic" | "coprime-base" | "tropical"
    prime: int | None = None
    vector: tuple = ()


@dataclass
class SigmaResult:
    """The invariant as a partition of the sphere.  Each proved sigma piece
    is the piece of a record (piece, validity cone, lam), checkable alone:
    the cone contains the piece, and lam's initial part on the cone is 1."""

    rank: int
    proved_complement: SphericalSet
    undecided: SphericalSet
    certified: tuple = ()  # (piece, validity cone, LaurentPoly) records
    witnesses: tuple = ()  # ComplementWitness
    complement_outer_bound: PolyhedralSet | None = None
    notes: tuple = ()

    @cached_property
    def proved_sigma(self) -> SphericalSet:
        return SphericalSet(self.rank, [piece for piece, _, _ in self.certified])

    @cached_property
    def finitely_presented(self):
        """metabelian_fp's answer, by at most two antipodal scans."""
        lower = not has_antipodal_pair(self.proved_complement.union(self.undecided))
        if self.undecided.is_empty:
            return lower
        upper = not has_antipodal_pair(self.proved_complement)
        return lower if lower == upper else None

    @cached_property
    def complement_in_hemisphere(self):
        """Whether the proved complement is finitely many directions in one
        open hemisphere (true when it is empty), by one hemisphere test;
        None when a proved piece is more than a ray."""
        dirs = self.proved_complement.finite_directions
        if dirs is None:
            return None
        return not dirs or in_open_hemisphere(dirs).in_hemisphere

    def certificate_for(self, direction: Direction):
        for piece, _, lam in self.certified:
            if piece.contains(direction.vector):
                return lam
        return None

    def classify(self, direction: Direction) -> str:
        if self.proved_sigma.contains(direction):
            return "sigma"
        if self.proved_complement.contains(direction):
            return "complement"
        return "undecided"


COVER_BOX_LIMIT = 6
COVER_SPLIT_DEPTH = 4


def _strict_dual_test(piece: Polyhedron):
    """Test, for this piece only, whether a monomial g's open halfspace
    {chi*g > 0} contains every direction of the piece (the origin is
    immaterial on the sphere).

    The test reads the generators R of the piece's closure (its extreme
    rays and +/- a lineality basis), computed once; an empty piece has none.
    g > 0 on every direction of the piece exactly when
      (a) g*r >= 0 for every r in R, so g >= 0 on the closure, and
      (b) the face F = {g = 0} of the closure, spanned by the r in R with
          g*r = 0, meets the piece only at the origin.
    For (b): the piece is the closure cut by its strict rows h > 0, and each
    h is >= 0 on the closure.  If every h is positive at one relative
    interior point of F, that point is a direction of the piece; if some h
    vanishes there, h vanishes on all of F, since h >= 0 on F.  So (b) holds
    iff F = {0} (no r with g*r = 0) or one strict row annihilates every r
    with g*r = 0.  This is the predicate `_check_searched` decides by one
    Fourier-Motzkin solve per monomial, here at a few integer dot products
    per g.  Each g is answered once per piece (`_in_strict_dual`) and its
    answer kept, so the boxes [-k, k]^n of the search, each holding the
    last, test each monomial once across all box sizes.  Ray enumeration
    raises ValueError above RAY_RANK_LIMIT (6).
    """
    gens = piece.rays()
    strict = [h for h, _ in piece.gt]
    answers = {}

    def in_strict_dual(g):
        answer = answers.get(g)
        if answer is None:
            answer = answers[g] = _in_strict_dual(g, gens, strict)
        return answer

    return in_strict_dual


def _in_strict_dual(g, gens, strict) -> bool:
    """`_strict_dual_test`'s predicate at g, for closure generators gens and
    strict row normals strict."""
    on_face = []
    for r in gens:
        s = sum(map(mul, g, r))
        if s < 0:
            return False
        if s == 0:
            on_face.append(r)
    return not on_face or any(
        all(sum(map(mul, h, r)) == 0 for r in on_face) for h in strict)


def _check_searched(lam: LaurentPoly, piece: Polyhedron):
    """Re-check a certificate on its piece, apart from the box search or the
    unit vertex that found it: its constant term is 1 and every other
    support monomial is positive on the piece, each by its own
    Fourier-Motzkin solve, so its initial part is 1 at every direction of
    the piece."""
    if lam.terms.get((0,) * lam.rank) != 1:
        raise SoundnessError("searched certificate does not have constant term 1")
    for g in lam.terms:
        if not any(g):
            continue
        bad = piece.intersect(Polyhedron.cone(piece.rank, ge=[tuple(-x for x in g)]))
        if bad.has_direction():
            raise SoundnessError(f"searched certificate has support monomial {g} "
                                 "that is not positive on its piece")


def _record(lam: LaurentPoly, piece: Polyhedron):
    """(piece, validity cone, lam) for a lam `_check_searched` passes; the
    cone, where lam's non-constant monomials are positive, takes its point."""
    _check_searched(lam, piece)
    cone = Polyhedron.cone(piece.rank, gt=[g for g in lam.terms if any(g)])
    cone._take_point(piece._point)
    return piece, cone, lam


def _cover(cache: _ActionCache, pieces, coeff_bound: int, box_limit: int, depth: int):
    """Certify region pieces of a matrix action, splitting a piece on
    coordinate signs when its search fails, at most depth times.

    At each box size k, `_box_rows` gives the integer system of lam = 1 +
    sum c_g x^g; its first solution within coeff_bound is re-checked to
    annihilate the module and by `_check_searched`.  Returns (certified,
    failed): certified is a list of (sub-piece, validity cone, certificate)
    records, failed the pieces left uncertified."""
    certified, failed = [], []
    for piece in pieces:
        in_strict_dual = _strict_dual_test(piece)
        for k in range(1, box_limit + 1):
            monos, rows, rhs = _box_rows(cache, in_strict_dual, k)
            if not monos:
                continue
            sol = linalg.solve_integer(rows, rhs, len(monos))
            if sol is None or any(abs(c) > coeff_bound for c in sol):
                continue
            terms = {(0,) * piece.rank: 1}
            terms.update((g, c) for g, c in zip(monos, sol) if c)
            lam = LaurentPoly(piece.rank, ZZ, terms)
            if not _is_zero_matrix(cache.evaluate(lam)[0]):
                raise SoundnessError("searched certificate does not annihilate "
                                     "the module")
            certified.append(_record(lam, piece))
            break
        else:
            parts = _sign_split(piece) if depth > 0 else []
            c, f = (_cover(cache, parts, coeff_bound, box_limit, depth - 1)
                    if parts else ([], [piece]))
            certified += c
            failed += f
    return certified, failed


def _sign_split(piece: Polyhedron):
    """The positive, negative and zero parts, those with a direction, of the
    first coordinate that takes both signs on the piece; [] if none does."""
    rank = piece.rank
    for i in range(rank):
        axis = tuple(int(j == i) for j in range(rank))
        pos = piece.intersect(Polyhedron.cone(rank, gt=[axis]))
        neg = piece.intersect(Polyhedron.cone(rank, gt=[tuple(-x for x in axis)]))
        if pos.has_direction() and neg.has_direction():
            zero = piece.intersect(Polyhedron.cone(rank, eq=[axis]))
            return [part for part in (pos, neg, zero) if part.has_direction()]
    return []


def sigma_scalar_action_exact(mod: ModulePresentation, box_limit: int = COVER_BOX_LIMIT,
                              coeff_bound: int = 10 ** 6) -> SigmaResult:
    """Sigma invariant for scalar or matrix actions over Q.

    Scalar actions are exact: the complement is the radial projection of the
    finite set of p-adic value vectors of the ratios, that is the directions
    of their exponent vectors over the ratios' coprime base
    (`integers.ratio_base`), and the rest of the sphere is covered by
    searched certificates.  Matrix actions reduce to scalar ones when
    simultaneously diagonalizable over Q; otherwise only the certificate
    side is attempted and the complement side stays undecided.
    """
    if isinstance(mod, CyclicModule):
        raise UnsupportedModeError("use sigma_cyclic_field for cyclic presentations")
    m = as_matrix_action(mod)
    notes = []
    if m.dim > 1:
        tuples = _rational_eigentuples(m)
        if tuples is not None:
            result = None
            for rhos in tuples:
                part = sigma_scalar_action_exact(ScalarAction(rhos), box_limit,
                                                 coeff_bound)
                result = part if result is None else sigma_direct_sum(result, part)
            result.notes = tuple(result.notes) + (
                "matrix action diagonalized over Q into scalar actions",)
            return result
        notes.append("matrix action not simultaneously diagonalizable over Q: "
                     "complement side undecided, sigma side by certificates only")
        complement = SphericalSet.empty(m.rank)
        witnesses: list[ComplementWitness] = []
    else:
        rhos = tuple(m.mats[i][0][0] for i in range(m.rank))
        from .integers import ratio_base

        witnesses = []
        dirs = []
        primes, composites = ratio_base(rhos)
        for q in sorted(primes + composites):
            # q divides a reduced ratio and is coprime to the rest of the
            # base, so vec is the nonzero exponent vector of q in the ratios
            vec = tuple(padic_valuation(r.numerator, q) - padic_valuation(r.denominator, q)
                        for r in rhos)
            d = Direction.from_vector(vec)
            if all(w.direction != d for w in witnesses):
                dirs.append(d)
            witnesses.append(ComplementWitness(
                direction=d, kind="p-adic" if q in primes else "coprime-base",
                prime=q, vector=vec))
        if composites:
            noun = "base stays" if len(composites) == 1 else "bases stay"
            notes.append(f"{len(composites)} coprime {noun} composite within the "
                         "factorization budget: the witness of a base b has the "
                         "exponent vector of b in the ratios, and each prime p of b "
                         "has that vector times v_p(b)")
        complement = SphericalSet.from_directions(dirs, rank=m.rank)

    certified, failed = _cover(_ActionCache(m), complement.complement().pieces,
                               coeff_bound, box_limit, COVER_SPLIT_DEPTH)
    if failed:
        noun = "piece" if len(failed) == 1 else "pieces"
        notes.append(f"{len(failed)} region {noun} exhausted the search bounds "
                     f"(box {box_limit}, coefficients {coeff_bound})")
    return SigmaResult(
        rank=m.rank,
        proved_complement=complement,
        undecided=SphericalSet(m.rank, failed),
        certified=tuple(certified),
        witnesses=tuple(witnesses),
        notes=tuple(notes),
    )


def _rational_eigentuples(m: MatrixAction):
    """Joint eigenvalue tuples when simultaneously diagonalizable over Q, else None.

    A tuple (rho_1, ..., rho_i) lives while the stacked rows
    (A_1 - rho_1; ...; A_i - rho_i) have a nonzero kernel, its joint
    eigenspace.  The matrices commute, so joint eigenspaces of distinct
    tuples are independent, and their dimensions add up to d exactly when
    the action is simultaneously diagonalizable over Q.  Each matrix A's
    sorted distinct rational eigenvalues are those of the integer matrix
    den*A over den, from its characteristic polynomial and that
    polynomial's rational roots (`integers.charpoly`,
    `integers.rational_roots`).  Tuples come out sorted, since each level
    extends them by sorted roots.
    """
    from .integers import charpoly, rational_roots

    live = [((), [], m.dim)]  # (tuple, stacked rows, kernel dimension)
    for mat in m.mats:
        den = math.lcm(*(x.denominator for row in mat for x in row))
        ints = [[x.numerator * (den // x.denominator) for x in row] for row in mat]
        roots = [r / den for r in rational_roots(charpoly(ints))]
        grown = []
        for eigs, rows, _ in live:
            for rho in roots:
                stacked = rows + [[x - rho if i == j else x for j, x in enumerate(row)]
                                  for i, row in enumerate(mat)]
                kern = len(linalg.nullspace(stacked, m.dim))
                if kern:
                    grown.append((eigs + (rho,), stacked, kern))
        live = grown
    if sum(kern for _, _, kern in live) != m.dim:
        return None
    return [eigs for eigs, _, _ in live]


def sigma_cyclic_field(mod: CyclicModule) -> SigmaResult:
    """Sigma invariant for cyclic presentations.

    Exact for principal ideals over a field: the complement is the radial
    projection of the trivial-valuation hypersurface.  Over Z it is the
    projection of the global tropical variety, and each piece of the rest
    is certified by its unit vertex (`_vertex_certificates`) or left
    undecided.  The zero ideal is the free module: the complement is the
    whole sphere.  A unit generator, one term whose coefficient is a unit
    of the domain (so +-x^g over Z), makes the module zero: sigma is the
    whole sphere.  Over a field no set complement is taken.  At a direction
    either one monomial of a generator is minimal, and the direction lies
    in its open vertex cone, which carries a certificate, or several are,
    and it lies on the hypersurface (the normal fan of the Newton polytope
    is complete).  So one generator leaves nothing undecided; for several,
    what is left is the prevariety (the intersection of the hypersurfaces),
    an outer candidate for the complement, reported as undecided.
    """
    rank = mod.rank
    gens = [g for g in mod.gens if not g.is_zero]
    if not gens:
        return SigmaResult(
            rank=rank,
            proved_complement=SphericalSet.full(rank),
            undecided=SphericalSet.empty(rank),
            witnesses=(ComplementWitness(
                direction=Direction.of(*([1] + [0] * (rank - 1))),
                kind="tropical",
                vector=()),),
            notes=("zero ideal: the module is the free module of rank one; "
                   "every nonzero direction admits a valuation witness",),
        )
    units = [g for g in gens if len(g.terms) == 1 and (
        mod.domain.kind != "ZZ" or abs(next(iter(g.terms.values()))) == 1)]
    if units:
        return SigmaResult(
            rank=rank,
            proved_complement=SphericalSet.empty(rank),
            undecided=SphericalSet.empty(rank),
            certified=tuple(_monomial_certificates(units[0])),
            notes=("a generator is a unit: the module is zero and the "
                   "invariant is the whole sphere",),
        )
    if len(gens) == 1:
        f = gens[0]
        notes = []
        if mod.domain.kind == "ZZ":
            complement = global_tropical_Z(f).radial()
            certified, failed = _vertex_certificates(
                f, complement.complement().pieces)
            if failed:
                verb = "piece lies" if len(failed) == 1 else "pieces lie"
                notes.append(f"{len(failed)} {verb} in no open vertex cone of a "
                             "monomial with coefficient +-1, so no multiple of the "
                             "generator has initial part 1 on a whole piece")
        else:
            complement = trop_hypersurface(f, TrivialValuation()).radial()
            certified, failed = _monomial_certificates(f), []
        witnesses = tuple(ComplementWitness(direction=d, kind="tropical",
                                            vector=tuple(d.vector))
                          for d in complement.finite_directions or ())
        return SigmaResult(
            rank=rank,
            proved_complement=complement,
            undecided=SphericalSet(rank, failed),
            certified=tuple(certified),
            witnesses=witnesses,
            notes=tuple(notes) + (
                "complement realized by the valuations behind each "
                "hypersurface piece",),
        )
    # multiple generators: prevariety outer bound only
    if mod.domain.kind == "ZZ":
        raise UnsupportedModeError(
            "cyclic mode over Z supports principal ideals only")
    prevariety = trop_prevariety(gens, TrivialValuation())
    return SigmaResult(
        rank=rank,
        proved_complement=SphericalSet.empty(rank),
        undecided=prevariety.radial(),
        certified=tuple(r for f in gens for r in _monomial_certificates(f)),
        complement_outer_bound=prevariety,
        notes=("multiple generators: complement bounded by the prevariety "
               "(outer candidate), sigma side by per-generator certificates; "
               "the remainder is undecided",),
    )


def _monomial_certificates(f: LaurentPoly):
    """A record (cone, cone, certificate) for each monomial g0 of f, in
    sorted order, whose open vertex cone {chi*(g - g0) > 0 for the other
    monomials g} has a direction: there f*x^(-g0)/c_g0 has initial part
    exactly 1.  c_g0 must be a unit: a unit +-x^g0 over Z gives (full, full, 1)."""
    out = []
    for g0 in sorted(f.terms):
        cone = Polyhedron.cone(f.rank, gt=[tuple(a - b for a, b in zip(g, g0))
                                           for g in f.terms if g != g0])
        if cone.has_direction():
            lam = f.shift(tuple(-e for e in g0)).scale(
                _field_inverse(f.terms[g0], f.domain))
            out.append((cone, cone, lam))
    return out


def _vertex_certificates(f: LaurentPoly, pieces):
    """Certify each region piece of ZG/(f) over Z by its unit vertex: a
    monomial g0 of f with coefficient c = +-1 whose open vertex cone
    {chi*(g - g0) > 0 for the other monomials g} holds the whole piece, as
    `_strict_dual_test` finds on the differences g - g0.  Its certificate
    c x^(-g0) f goes through `_check_searched`.  A multiple f*h certifies a
    piece P only then: in_chi(f*h) = in_chi(f) in_chi(h) = 1 on P forces
    in_chi(f) = +-x^g0, and the open, disjoint vertex cones meet P minus 0,
    connected as P is no line, in one g0.  With no coefficient +-1 (every
    content c > 1 among them) no ray is enumerated.  Returns (certified,
    failed) as `_cover` does."""
    units = [(g0, c) for g0, c in sorted(f.terms.items()) if abs(c) == 1]
    if not units:
        return [], list(pieces)
    certified, failed = [], []
    for piece in pieces:
        in_strict_dual = _strict_dual_test(piece)
        for g0, c in units:
            if all(in_strict_dual(tuple(map(sub, g, g0))) for g in f.terms if g != g0):
                certified.append(_record(f.shift(tuple(-e for e in g0)).scale(c), piece))
                break
        else:
            failed.append(piece)
    return certified, failed


def _field_inverse(c, domain: Domain):
    if domain.kind == "GF":
        return pow(int(c), domain.p - 2, domain.p)
    return 1 / Fraction(c)


def _content(f: LaurentPoly) -> int:
    """The gcd of the coefficients of f, a polynomial over ZZ."""
    return math.gcd(*(int(c) for c in f.terms.values()))


def sigma_direct_sum(r1: SigmaResult, r2: SigmaResult) -> SigmaResult:
    """Invariant of a direct sum: sigma intersects, complements unite, and,
    as each (S, C, U) partitions the sphere, the undecided set is
    (S1 n U2) u (U1 n S2) u (U1 n U2), which takes no set complement.
    Each meet of two certified pieces that has a direction is certified by
    the product of their certificates, on the meet of their cones."""
    if r1.rank != r2.rank:
        raise DimensionError("direct summands must share the rank")
    if len({lam.domain for _, _, lam in r1.certified + r2.certified}) > 1:
        raise UnsupportedModeError("direct summands certified over different domains")
    certified = []
    for p1, c1, l1 in r1.certified:
        for p2, c2, l2 in r2.certified:
            meet = p1.intersect(p2)
            if meet.has_direction():
                certified.append((meet, c1.intersect(c2), l1 * l2))
    complement = r1.proved_complement.union(r2.proved_complement)
    undecided = (r1.proved_sigma.intersect(r2.undecided)
                 .union(r1.undecided.intersect(r2.proved_sigma))
                 .union(r1.undecided.intersect(r2.undecided)))
    return SigmaResult(
        rank=r1.rank,
        proved_complement=complement,
        undecided=undecided,
        certified=tuple(certified),
        witnesses=tuple(r1.witnesses) + tuple(r2.witnesses),
        notes=tuple(r1.notes) + tuple(r2.notes),
    )


def sigma_of_module(mod: ModulePresentation, box_limit: int = COVER_BOX_LIMIT,
                    coeff_bound: int = 10 ** 6) -> SigmaResult:
    if isinstance(mod, CyclicModule):
        return sigma_cyclic_field(mod)
    return sigma_scalar_action_exact(mod, box_limit, coeff_bound)


# ---------------------------------------------------------------------------
# Metabelian finiteness predicates.


def metabelian_fp(r: SigmaResult):
    """Finite presentability of the metabelian extension: the invariant and
    its antipodal set must cover the sphere: no direction outside it has its
    antipode outside too.  None when undecided regions could change the
    answer.  Relies on proved_sigma, proved_complement and undecided
    partitioning the sphere, as every SigmaResult built here does, so the
    outside is read off the partition and no set complement is taken."""
    return r.finitely_presented


def metabelian_fp_infinity(r: SigmaResult):
    """FP-infinity: the complement must be finite and inside an open hemisphere."""
    if not r.complement_in_hemisphere:
        return False  # infinite (a proved piece wider than a ray) or in no hemisphere
    return True if r.undecided.is_empty else None


def fpm_test(r: SigmaResult, m: int):
    """Conjectural FP_m criterion: every m-point subset of the complement
    lies in an open hemisphere (theorem-backed for m in {1, 2}).  m = 2 is
    metabelian_fp's answer: two directions share an open hemisphere unless
    they are antipodal.  Else None while a piece is undecided or a proved
    piece is more than a ray; true for m = 1; and for m > rank, or m at least
    the complement's size, the hemisphere test of the whole complement (by
    Caratheodory, when finitely many directions share no open hemisphere,
    some rank + 1 of them already share none).  Only for 3 <= m <= rank are
    the m-subsets tried, of at most 12 directions."""
    if m == 2:
        return r.finitely_presented
    if not r.undecided.is_empty:
        return None
    dirs = r.proved_complement.finite_directions
    if dirs is None:
        return None
    if m == 1:
        return True
    if m > r.rank or len(dirs) <= m:
        return r.complement_in_hemisphere
    if len(dirs) > 12:
        raise ValueError("combinatorial guard: complement size <= 12")
    return all(in_open_hemisphere(sub).in_hemisphere
               for sub in itertools.combinations(dirs, m))


def fpm_basis(m: int) -> str:
    return "theorem" if m in (1, 2) else "conjecture"
