"""Tropical hypersurfaces of valued Laurent polynomials, prevariety bounds,
the global variety over Z, and a numeric amoeba sampler.

The exact operations follow the min convention: the hypersurface of f is the
locus where min over terms g of (v(c_g) + chi*g) is attained at least twice.
Pieces come from monomial pairs (tie + minimality rows); no face-lattice
normalization is attempted.  Amoeba sampling is floating point by design and
documented as approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .polyhedra import Polyhedron, PolyhedralSet, _norm_row
from .rings import DimensionError, LaurentPoly
from .valuations import PAdicValuation, TrivialValuation, ValuationSpec, prime_support

if TYPE_CHECKING:
    import numpy as np


def trop_hypersurface(f: LaurentPoly, v: ValuationSpec) -> PolyhedralSet:
    """Exact tropical hypersurface of f with respect to v.

    A single-monomial f is a unit: its hypersurface is empty.  The result is
    the union over monomial pairs (g, h) of
    {chi : v(c_g) + chi*g = v(c_h) + chi*h <= v(c_k) + chi*k for all k}.
    A point where several monomials are minimal lies in the piece of every
    pair of them, so a pair first tries the points of the earlier pieces
    and is solved only when none of them has g and h both minimal.

    The primitive row (k - g | v(c_g) - v(c_k)) of each ordered pair is
    made once and shared by the pieces that use it, which are stored as
    the constructor would store them: no row is constant, as the monomials
    differ, and the tie of g < h is row (g, h), whose first nonzero entry,
    that of h - g, is already positive.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no tropical hypersurface")
    vals = {g: v.value(_coeff_as_rational(f, g)) for g in f.terms}
    monos = sorted(vals)
    if len(monos) == 1:
        return PolyhedralSet.empty(f.rank)
    rows = {(g, k): _norm_row(tuple(a - b for a, b in zip(k, g)), vals[g] - vals[k])
            for g in monos for k in monos if k != g}
    pieces, known = [], []
    for i, g in enumerate(monos):
        for h in monos[i + 1:]:
            eq, ge = rows[g, h], {rows[g, k] for k in monos if k != g and k != h}
            piece = Polyhedron.__new__(Polyhedron)
            piece._store(f.rank, [eq], ge, (), not eq[1] and not any(r for _, r in ge))
            if not any(map(piece._take_point, known)) and not piece.is_empty:
                known.append(piece.feasible_point())
            pieces.append(piece)
    return PolyhedralSet(f.rank, [p for p in pieces if not p.is_empty])


def _coeff_as_rational(f: LaurentPoly, g) -> Fraction:
    c = f.terms[g]
    if f.domain.kind == "GF":
        # over a prime field every nonzero coefficient is a unit
        return Fraction(1) if c % f.domain.p else Fraction(0)
    return Fraction(c)


def trop_prevariety(gens: list[LaurentPoly], v: ValuationSpec) -> PolyhedralSet:
    """Intersection of the generators' hypersurfaces with respect to v (a
    sound outer bound: it contains the tropical variety and may strictly
    contain it)."""
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.rank != gens[0].rank for g in gens):
        raise DimensionError("generators must share one rank")
    out = trop_hypersurface(gens[0], v)
    for g in gens[1:]:
        out = out.intersect(trop_hypersurface(g, v))
    return out


def global_tropical_Z(f: LaurentPoly) -> PolyhedralSet:
    """Union of the trivial-valuation hypersurface and the p-adic ones over
    the primes of the coefficient support (all other primes repeat the
    trivial one).  A coefficient with a factor that `prime_support` cannot
    split raises FactorizationBudgetError."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no tropical variety")
    if f.domain.kind != "ZZ":
        raise ValueError("global tropical variety is defined over Z coefficients")
    out = trop_hypersurface(f, TrivialValuation())
    for p in sorted(prime_support(f.terms.values())):
        out = out.union(trop_hypersurface(f, PAdicValuation(p)))
    return out


# ---------------------------------------------------------------------------
# Amoeba sampling (numeric, rank 2).


@dataclass(eq=False)
class AmoebaCloud:
    """Sampled points (ln|x|, ln|y|) of a plane curve, each standing for one
    or two points of the grid, plus the drop count.

    `points` is one (n, 2) float64 array, a row per kept root of the solved
    rows (s, phi_k), s-major and k = 0 ... angles // 2, and `row_sizes` the
    number of kept roots of each solved row.  Row k stands for itself and,
    unless k = 0 or k = angles / 2, for row angles - k as well: `weights`
    gives each point the weight 1 or 2 of its row, and `count` is their sum,
    the points of the whole grid.  `dropped` counts the roots of the whole
    grid too.  A cloud given only its points has one row per point, each of
    weight 1.  `radii` holds the norm of each point and `max_radius` the
    largest, or 0.0 for an empty cloud."""

    points: np.ndarray
    dropped: int = 0
    row_sizes: np.ndarray | None = None
    angles: int = 1
    weights: np.ndarray = field(init=False, repr=False)
    count: int = field(init=False, default=0)
    radii: np.ndarray = field(init=False, repr=False)
    max_radius: float = field(init=False, default=0.0)

    def __post_init__(self):
        import numpy as np

        if self.row_sizes is None:
            self.row_sizes = np.ones(len(self.points), dtype=np.int64)
        half = _row_weights(np, self.angles)
        self.weights = np.repeat(np.tile(half, len(self.row_sizes) // len(half)),
                                 self.row_sizes)
        self.count = int(self.weights.sum())
        self.radii = np.hypot(self.points[:, 0], self.points[:, 1])
        if len(self.radii):
            self.max_radius = float(self.radii.max())

    def grid_points(self) -> np.ndarray:
        """The `count` points of the whole grid in grid order: s-major, then
        k = 0 ... angles - 1, where row k > angles / 2 repeats the points of
        row angles - k, and a row's points in the order they were solved."""
        import numpy as np

        half = self.angles // 2 + 1
        k = np.arange(self.angles)
        rows = (np.arange(len(self.row_sizes) // half)[:, None] * half
                + np.minimum(k, self.angles - k)).ravel()
        sizes = self.row_sizes[rows]
        firsts = np.cumsum(self.row_sizes) - self.row_sizes
        ends = np.cumsum(sizes)
        return self.points[np.repeat(firsts[rows] - ends + sizes, sizes)
                           + np.arange(self.count)]


def _row_weights(np, angles: int):
    """The weight of the solved rows k = 0 ... angles // 2: 2, as row k also
    stands for row angles - k, except 1 at k = 0 and at k = angles / 2."""
    k = np.arange(angles // 2 + 1)
    return np.where((k == 0) | (2 * k == angles), 1, 2)


RESIDUAL_TOL = 1e-9
# Solved (s, phi) rows per batch of companion matrices: a block takes
# max(1, AMOEBA_ROWS // (angles // 2 + 1)) s-values, the angles of [0, pi]
# solved for each, and its (rows, span) arrays stay small next to the cloud.
AMOEBA_ROWS = 2048


def amoeba_sample(f: LaurentPoly, s_grid, angles: int) -> AmoebaCloud:
    """Sample the amoeba of a rank-2 curve: for each s in s_grid and each of
    `angles` arguments phi_k = 2 pi k / angles, set x = e^(s+i phi_k) and
    record (s, ln|y|) for the roots y of f(x, -).

    f has real coefficients, so the roots at the conjugate x-bar are the
    conjugates of the roots at x, with the same ln|y|: only the rows
    k = 0 ... angles // 2 (phi in [0, pi]) are solved, and the cloud holds
    their kept points, weighted 2 where row k also stands for row
    angles - k (see AmoebaCloud).  A row's roots come in the order
    _companion_roots gives them: r1 then r2 at degree 2, eigvals order from
    degree 3.

    The grid is solved in blocks of max(1, AMOEBA_ROWS // (angles // 2 + 1))
    s-values; see _sample_block for the roots and the drop rules.  Every s
    must be finite, and no finite grid raises.
    """
    if f.rank != 2:
        raise DimensionError("amoeba sampling needs a polynomial in two variables")
    if f.is_zero:
        raise ValueError("zero polynomial")
    if not all(math.isfinite(s) for s in s_grid):
        raise ValueError("the s grid must be finite")
    ydegs = [g[1] for g in f.terms]
    ymin, ymax = min(ydegs), max(ydegs)
    if ymax == ymin:
        raise ValueError("polynomial has y-degree zero; no roots to follow")
    import numpy as np  # only amoeba jobs pay for its import

    terms = [(a, ymax - b, float(c)) for (a, b), c in f.terms.items()]
    grid = np.array(s_grid, dtype=float)
    span, half = ymax - ymin, angles // 2 + 1
    phis = 2.0 * math.pi * np.arange(half) / angles
    step = max(1, AMOEBA_ROWS // half)
    n = len(grid) * half
    lny, kept = np.empty((n, span)), np.empty((n, span), dtype=bool)
    dropped = np.empty(n, dtype=np.int64)
    for i in range(0, len(grid), step):
        block = grid[i:i + step]
        rows = slice(i * half, (i + len(block)) * half)
        lny[rows], kept[rows], dropped[rows] = _sample_block(
            np, terms, ymax, span, block, phis)
    s = grid[np.nonzero(kept)[0] // half]
    dropped = int((dropped.reshape(-1, half) @ _row_weights(np, angles)).sum())
    return AmoebaCloud(points=np.column_stack((s, lny[kept])), dropped=dropped,
                       row_sizes=kept.sum(axis=1), angles=angles)


def _sample_block(np, terms, ymax: int, span: int, s, phi):
    """Solve the rows (s, phi) of s-values s and angles phi, s-major.  Per
    row: ln|y| of each root slot, the mask of kept roots (both of shape
    (rows, span)), and the number of dropped roots, or 1 for a row dropped
    whole.

    The coefficient rows [sum of c * x ** a] are complex arrays; trailing
    zero coefficients are stripped (each is a root y = 0, dropped and
    counted), and the rows are grouped by the degree left and solved by
    _companion_roots.  A row whose leading coefficient is 0, or whose
    companion entries are not all finite, is dropped and counted once.  A
    root is dropped and counted when |y| is 0 or not finite, or when its
    relative residual |f(x, y)| / sum |c| |x|^a |y|^b is not at most
    RESIDUAL_TOL (a NaN residual included).  Both sums are evaluated at the
    polynomial's own y-exponents b, by Horner in y over b >= 0 and in 1/y
    over b < 0, so that no power of y is taken past the largest |b| of f;
    the weight's columns |c| e^(a s) are formed once per s-value.  A term
    whose |c| e^(a s) underflows below the normal floats adds its rounding
    error |c| 2^-1074 |y|^b to the residual."""
    n = len(s) * len(phi)
    y = np.zeros((n, span), dtype=complex)
    with np.errstate(all="ignore"):
        x = np.exp(np.add.outer(s, 1j * phi).ravel())
        c = np.zeros((n, span + 1), dtype=complex)
        for a, col, fc in terms:
            # x ** 1 and x ** 0 are x and 1, which numpy's complex power
            # returns only through its general loop
            c[:, col] += fc * (x if a == 1 else x ** a if a else 1.0)
        live = c[:, 0] != 0
        deg = np.full(n, span)  # less the trailing zero coefficients
        for j in range(span, 0, -1):
            deg[(deg == j) & (c[:, j] == 0)] = j - 1
        # the companion matrices' first rows; a row of degree d uses d entries
        top = -c[:, 1:] / c[:, :1]
        for j in range(span):
            live &= np.isfinite(top[:, j]) | (deg <= j)
        valid = live[:, None] & (np.arange(span) < deg[:, None])
        for d in range(1, span + 1):
            sel = np.flatnonzero(live & (deg == d))
            if len(sel):
                y[sel, :d] = _companion_roots(np, top[sel, :d])
        ay = np.abs(y)
        cand = valid & (ay != 0.0) & np.isfinite(ay)
        w, lost, tiny = np.zeros((len(s), span + 1)), [], np.finfo(float).tiny
        for a, col, fc in terms:
            m = abs(fc) * np.exp(a * s)
            w[:, col] += m
            if (m < tiny).any():
                lost.append((ymax - col, abs(fc), np.repeat(m < tiny, len(phi))))
        ay1 = np.where(cand, ay, 1.0)
        resid = np.abs(_at_own_exponents(c, np.where(cand, y, 1.0), ymax))
        # a term c x^a whose |c| e^(a s) is below the normal floats is known
        # to |c| 2^-1074 only: that error times |y|^b joins the residual, as
        # e^(ln(|c| 2^-1074) + b ln|y|), which no power of y can overflow
        for b, fc, rows in lost:
            resid[rows] += np.exp(np.log(fc) - 1074 * np.log(2.0) + b * np.log(ay1[rows]))
        weight = _at_own_exponents(np.repeat(w, len(phi), axis=0), ay1, ymax)
        # NaN compares False, so a zero weight or a residual lost to
        # overflow drops the root
        kept = cand & (resid / weight <= RESIDUAL_TOL)
        lny = np.log(np.where(kept, ay, 1.0))
    return lny, kept, np.where(live, span - deg, 1) + (valid & ~kept).sum(axis=1)


def _at_own_exponents(coef, y, ymax: int):
    """sum over j of coef[:, j] * y ** (ymax - j) for each column of y: by
    Horner in y over the exponents ymax ... 0 and in 1/y over the exponents
    -1 ... ymin = ymax - span, never through a power y ** (ymax - ymin)."""
    ymin = ymax - coef.shape[1] + 1

    def col(e):
        return coef[:, ymax - e, None]

    out = 0.0
    if ymax >= 0:
        out = col(ymax)
        for e in range(ymax - 1, -1, -1):
            out = out * y + col(e) if e >= ymin else out * y
    if ymin < 0:
        z = 1.0 / y
        low = col(ymin)
        for e in range(ymin + 1, 0):
            low = low * z + col(e) if e <= ymax else low * z
        out = out + low * z
    return out


def _companion_roots(np, top):
    """The roots of each row y^d - top[0] y^(d-1) - ... - top[d-1], whose
    last entry is nonzero, that is the eigenvalues of its companion matrix.
    Degree 1 is the row's entry, -c1/c0 for c0 y + c1.  Degree 2, y^2 + b y + c, takes the quadratic
    formula scaled by m = max(|b|, sqrt|c|), so that b^2 and 4c cannot
    overflow, with the sign of the square root that avoids cancellation for
    r1 and r2 = c / r1: the roots in the order r1, r2.  Higher degrees go to
    one stacked numpy.linalg.eigvals call on the companion matrices, built
    as numpy.roots builds them."""
    n, d = top.shape
    if d == 1:
        return top
    if d == 2:
        b, c = -top[:, 0], -top[:, 1]
        m = np.maximum(np.abs(b), np.sqrt(np.abs(c)))
        bs = b / m
        root = np.sqrt(bs * bs - 4.0 * (c / m / m))
        root[bs.real * root.real + bs.imag * root.imag < 0] *= -1
        r1 = -0.5 * m * (bs + root)
        return np.column_stack((r1, c / r1))
    comp = np.zeros((n, d, d), dtype=complex)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, 0, :] = top
    return np.linalg.eigvals(comp)


@dataclass
class LimitDirections:
    """Clustered far directions of a cloud, in the valuation sign convention
    (the cloud is reflected through the origin before binning, so directions
    are comparable with min-convention tropical rays)."""

    directions: list[tuple[tuple[float, float], int]]
    no_far_points: bool = False


def log_limit_directions(cloud: AmoebaCloud, min_radius: float,
                         angle_bins: int) -> LimitDirections:
    """Bin the reflected far points (norm >= min_radius) into angular bins;
    each populated bin, in bin order, reports the normalized mean direction
    and the count, both weighted by the cloud's weights: a bin's count is
    the sum of its points' weights, and its mean the weighted mean of their
    unit directions.  A point at the origin has no direction and is
    skipped; an empty cloud has no far points.

    Bin k holds the angles within half a bin width w = 2 pi / angle_bins of
    k w, so its edges lie at (k + 1/2) w and an angle just below 2 pi falls
    in bin 0.  When 8 divides angle_bins, every multiple of 45 degrees (where
    the rays of small tropical curves point) is a bin centre, half a bin from
    an edge."""
    import numpy as np

    r = cloud.radii
    far = (r >= min_radius) & (r != 0)
    if not far.any():
        return LimitDirections(directions=[], no_far_points=True)
    u = -cloud.points[far] / r[far, None]
    cells = np.floor(np.arctan2(u[:, 1], u[:, 0]) / (2.0 * math.pi / angle_bins)
                     + 0.5) % angle_bins
    order = np.argsort(cells, kind="stable")
    cells, u, w = cells[order], u[order], cloud.weights[far][order]
    starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    counts = np.add.reduceat(w, starts)
    means = np.add.reduceat(u * w[:, None], starts) / counts[:, None]
    norms = np.hypot(means[:, 0], means[:, 1])
    if not norms.all():  # only a single bin, the whole circle, can hold opposites
        raise ValueError("the far directions of a bin cancel out")
    dirs = means / norms[:, None]
    return LimitDirections(directions=[(tuple(d), count) for d, count
                                       in zip(dirs.tolist(), counts.tolist())])
