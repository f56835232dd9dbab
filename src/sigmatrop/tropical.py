"""Tropical hypersurfaces of valued Laurent polynomials, prevariety bounds,
the global variety over Z, and a numeric amoeba sampler.

The exact operations follow the min convention: the hypersurface of f is the
locus where min over terms g of (v(c_g) + chi*g) is attained at least twice.
Pieces come from monomial pairs (tie + minimality rows); no face-lattice
normalization is attempted.  Amoeba sampling is floating point by design and
documented as approximate.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .polyhedra import Polyhedron, PolyhedralSet
from .rings import DimensionError, LaurentPoly
from .valuations import PAdicValuation, TrivialValuation, ValuationSpec, prime_support

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ValuedPoly:
    poly: LaurentPoly
    valuation: ValuationSpec


def trop_hypersurface(f: LaurentPoly, v: ValuationSpec) -> PolyhedralSet:
    """Exact tropical hypersurface of f with respect to v.

    A single-monomial f is a unit: its hypersurface is empty.  The result is
    the union over monomial pairs (g, h) of
    {chi : v(c_g) + chi*g = v(c_h) + chi*h <= v(c_k) + chi*k for all k}.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no tropical hypersurface")
    vals = {g: v.value(_coeff_as_rational(f, g)) for g in f.terms}
    monos = sorted(vals)
    if len(monos) == 1:
        return PolyhedralSet.empty(f.rank)
    pieces = []
    for i, g in enumerate(monos):
        for h in monos[i + 1:]:
            eq = [(tuple(a - b for a, b in zip(g, h)), vals[h] - vals[g])]
            ge = [(tuple(a - b for a, b in zip(k, g)), vals[g] - vals[k])
                  for k in monos if k != g and k != h]
            pieces.append(Polyhedron(f.rank, eq=eq, ge=ge))
    return PolyhedralSet(f.rank, [p for p in pieces if not p.is_empty])


def _coeff_as_rational(f: LaurentPoly, g) -> Fraction:
    c = f.terms[g]
    if f.domain.kind == "GF":
        # over a prime field every nonzero coefficient is a unit
        return Fraction(1) if c % f.domain.p else Fraction(0)
    return Fraction(c)


def trop_prevariety(gens: list[ValuedPoly]) -> PolyhedralSet:
    """Intersection of the generators' hypersurfaces (a sound outer bound:
    it contains the tropical variety and may strictly contain it)."""
    if not gens:
        raise ValueError("need at least one generator")
    rank = gens[0].poly.rank
    v = gens[0].valuation
    for g in gens[1:]:
        if g.poly.rank != rank:
            raise DimensionError("generators must share one rank")
        if g.valuation != v:
            raise ValueError("generators must share one valuation")
    out = trop_hypersurface(gens[0].poly, v)
    for g in gens[1:]:
        out = out.intersect(trop_hypersurface(g.poly, v))
    return out


def global_tropical_Z(f: LaurentPoly) -> PolyhedralSet:
    """Union of the trivial-valuation hypersurface and the p-adic ones over
    the primes of the coefficient support (all other primes repeat the
    trivial one)."""
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
    """Sampled points (ln|x|, ln|y|) of a plane curve, plus drop counters.

    `points` is one (n, 2) float64 array, a row per kept root in grid order.
    The radius of each point is computed once, by math.hypot point by point
    (numpy's hypot differs from it in the last bits), and kept as `radii`;
    `max_radius` is the largest, or 0.0 for an empty cloud."""

    points: np.ndarray
    dropped: int = 0
    radii: np.ndarray = field(init=False, repr=False)
    max_radius: float = field(init=False, default=0.0)

    def __post_init__(self):
        import numpy as np

        n = len(self.points)
        self.radii = np.fromiter(map(math.hypot, self.points[:, 0].tolist(),
                                     self.points[:, 1].tolist()), float, count=n)
        if n:
            self.max_radius = float(self.radii.max())


RESIDUAL_TOL = 1e-9
# (s, phi) rows per batch of companion matrices: a block takes
# max(1, AMOEBA_ROWS // angles) s-values, and its stacked arrays stay small
# next to the output cloud.
AMOEBA_ROWS = 2048
# ln of a bound below which every intermediate of a root's residual is a
# finite, normal float (ln of the largest float is 709.8).
_LN_SAFE = 600.0


def amoeba_sample(f: LaurentPoly, s_grid, angles: int) -> AmoebaCloud:
    """Sample the amoeba of a rank-2 curve: for each s in s_grid and each of
    `angles` arguments phi, set x = e^(s+i phi) and record (s, ln|y|) for the
    roots y of f(x, -).

    The grid is solved in blocks of about AMOEBA_ROWS (s, phi) rows, that
    is max(1, AMOEBA_ROWS // angles) s-values each.  For a block, the
    coefficient rows of all its (s, phi) are built at once, trailing zero
    coefficients are stripped (each is a root y = 0, dropped and counted),
    and the rows are grouped by the degree left.  Each group's companion
    matrices, built as numpy.roots builds them (ones on the subdiagonal,
    -p[1:]/p[0] as the first row), go to one stacked numpy.linalg.eigvals
    call, and each row of roots is sorted by (real, imaginary) part.  A row
    whose leading coefficient is 0 is dropped and counted; a root is dropped
    and counted when |y| is 0 or not finite, or when its relative residual
    is not at most RESIDUAL_TOL (a NaN residual, from terms whose product
    overflowed, included).  The kept points of the blocks are concatenated
    once into the cloud's (n, 2) array; no per-point tuple is built.

    The values that reach the output are computed as a scalar walk of the
    grid computes them, so the cloud is the same, float for float, as with
    one numpy.roots call per (s, phi), |y| from numpy.hypot and ln|y| from
    math.log mapped over the kept |y| values (numpy's power, abs and log
    differ in the last bits).  The coefficient rows are float64 arrays that
    repeat CPython's complex operations one at a time, so each coefficient
    has the bits of the scalar row [sum of c * x ** a]: x = cmath.exp(s +
    i phi) from the math module's exp, cos and sin (e^(s - 1) times e above
    ln(DBL_MAX / 4), as cmath.exp does), x ** a by binary powering with
    Python's complex product, 1 / x^|a| by Smith's division for a <= 0, and
    c * z with the 0.0 * z cross terms of (c + 0j) * z; a term with
    |a| > 100, where CPython switches to a polar formula, takes Python's own
    power.  These are CPython 3.11's operations (3.14 changes mixed float
    and complex arithmetic); tests
    compare the rows bit for bit with the running interpreter's scalar rows,
    so an interpreter that computes them differently fails those tests
    instead of changing the output.  Residuals and weights only meet the
    threshold and are numpy arrays, except for a root whose residual terms
    may leave the float range: it takes the scalar expression, which raises
    OverflowError or ZeroDivisionError where floats run out.  The first
    failing (s, phi) in grid order sets the exception: the rows before it
    are solved, and then the scalar expression of that (s, phi) raises it.
    Every s must be finite.
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

    phis = [2.0 * math.pi * k / angles for k in range(angles)]
    step = max(1, AMOEBA_ROWS // angles)
    parts = [np.empty((0, 2))]
    dropped = 0
    for i in range(0, len(s_grid), step):
        kept, d = _sample_block(np, f, ymax, ymax - ymin, s_grid[i:i + step], phis)
        parts.append(kept)
        dropped += d
    return AmoebaCloud(points=np.concatenate(parts), dropped=dropped)


def _sample_block(np, f: LaurentPoly, ymax: int, span: int, block, phis):
    """The kept points (s, ln|y|) of one block of s-values, as a float64
    array of two columns, and the number of dropped rows and roots."""
    terms = [(a, ymax - b, float(c)) for (a, b), c in f.terms.items()]
    xr, xi, c = _coefficient_rows(np, terms, span, block, phis)
    n = len(c)
    s_arr = np.repeat(np.array(block, dtype=float), len(phis))[:n]
    with np.errstate(all="ignore"):
        lead = c[:, 0]
        # abs() of a finite complex raises when its modulus overflows
        lead_raises = (np.isfinite(lead.real) & np.isfinite(lead.imag)
                       & ~np.isfinite(np.hypot(lead.real, lead.imag)))
        fails = lead_raises.copy()
        live = lead != 0
        deg = span - np.argmax(c[:, ::-1] != 0, axis=1)
        companions = {}
        for d in range(1, span + 1):
            sel = np.flatnonzero(live & (deg == d))
            if not len(sel):
                continue
            comp = np.zeros((len(sel), d, d), dtype=complex)
            comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            comp[:, 0, :] = -c[sel, 1:d + 1] / c[sel, :1]
            companions[d] = sel, comp
            # eigvals refuses a matrix with an inf or a nan
            fails[sel] |= ~np.isfinite(comp).all(axis=(1, 2))
    # rows from the first failing one on are not solved
    cut = int(np.argmax(fails)) if fails.any() else n
    y = np.zeros((n, span), dtype=complex)
    valid = np.zeros((n, span), dtype=bool)
    for d, (sel, comp) in companions.items():
        sel, comp = sel[sel < cut], comp[sel < cut]
        if len(sel):
            y[sel, :d] = np.sort(np.linalg.eigvals(comp), axis=1)
            valid[sel, :d] = True
    with np.errstate(all="ignore"):
        ay = np.hypot(y.real, y.imag)
        ay_raises = valid & np.isfinite(y.real) & np.isfinite(y.imag) & ~np.isfinite(ay)
        cand = valid & (ay != 0.0) & np.isfinite(ay)
        # residual |sum_j c_j y^(ymax-j)|, weight sum_t |c_t| |x|^a_t |y|^b_t
        yc = np.where(cand, y, 1.0)[:, :, None]
        exps = ymax - np.arange(span + 1)
        resid = np.abs((c[:, None, :] * yc ** exps).sum(axis=2))
        w = np.zeros((n, span + 1))
        for a, col, fc in terms:
            w[:, col] += abs(fc) * np.exp(a * s_arr)
        weight = (w[:, None, :] * np.abs(yc) ** exps).sum(axis=2)
        # NaN compares False, so a zero weight or a residual lost to
        # overflow drops the root
        keep = resid / weight <= RESIDUAL_TOL
        # a bound on ln|v| for every intermediate v of a root's residual
        bound = (np.abs(s_arr)[:, None] * (1 + max(abs(a) for a, _, _ in terms))
                 + max(abs(math.log(abs(fc))) if fc else math.inf for _, _, fc in terms)
                 + math.log(len(terms))
                 + int(np.abs(exps).max()) * np.abs(np.log(ay)))
        scalar = cand & ~(bound < _LN_SAFE)
    for r, k in zip(*np.nonzero(scalar | ay_raises)):
        yk = complex(y[r, k])
        ay_k = abs(yk)  # raises OverflowError where ay_raises
        keep[r, k] = not _residual_exceeds(f, complex(xr[r], xi[r]), yk, ay_k)
    if cut < n:  # the rows before it raised nothing
        if lead_raises[cut]:
            abs(complex(c[cut, 0]))  # raises OverflowError
        sel, comp = companions[int(deg[cut])]
        np.linalg.eigvals(comp[sel == cut])  # raises LinAlgError
    if n < len(block) * len(phis):  # the next scalar row raises
        s, phi = block[n // len(phis)], phis[n % len(phis)]
        x = cmath.exp(complex(s, phi))
        for a, _, _ in terms:
            x ** a  # raises OverflowError or ZeroDivisionError
        raise AssertionError(f"no arithmetic error at s = {s}, phi = {phi}")
    kept = cand & keep
    rows = np.nonzero(kept)[0]
    lny = np.fromiter(map(math.log, ay[kept].tolist()), float, count=len(rows))
    return (np.column_stack((s_arr[rows], lny)),
            int((~live).sum() + (span - deg[live]).sum() + (valid & ~kept).sum()))


def _coefficient_rows(np, terms, span: int, block, phis):
    """The coefficient rows of the block's (s, phi) in grid order, up to the
    first where Python raises, as (real parts of x, imaginary parts of x,
    rows): each row is Python's [complex(0)] * (span + 1) with
    row[col] += fc * x ** a for the terms (a, col, fc) in order, and
    fc * z is (fc + 0j) * z, cross terms 0.0 * z included."""
    with np.errstate(all="ignore"):
        xr, xi, raises = _exp_rows(np, block, phis)
        powers = {}
        for a, _, _ in terms:
            if a not in powers:
                powers[a] = _power(np, xr, xi, a)
                raises |= powers[a][2]
        n = int(np.argmax(raises)) if raises.any() else len(raises)
        c = np.zeros((n, span + 1), dtype=complex)
        for a, col, fc in terms:
            pr, pi = powers[a][0][:n], powers[a][1][:n]
            c.real[:, col] += fc * pr - 0.0 * pi
            c.imag[:, col] += fc * pi + 0.0 * pr
    return xr[:n], xi[:n], c


# CPython's cmath.exp(z) multiplies e^(re - 1) by e above ln(DBL_MAX / 4),
# so that e^re cos(im) stays finite where e^re alone is not
_LN_LARGE = math.log(sys.float_info.max / 4)
# CPython raises a complex to an integer power of at most this size by
# binary powering; past it, by a polar formula
_POWI_LIMIT = 100


def _exp_rows(np, block, phis):
    """cmath.exp(complex(s, phi)) for each s of the block and each phi, in
    grid order, as (real parts, imaginary parts, raises): the libm exp, cos
    and sin of the math module and the products cmath.exp forms from them.
    cmath.exp raises OverflowError where a part is infinite."""
    ls, ms = [], []
    for s in block:
        big = s > _LN_LARGE
        try:
            ls.append(math.exp(s - 1.0 if big else s))
        except OverflowError:
            ls.append(math.inf)
        ms.append(math.e if big else 1.0)  # x * 1.0 is x, bit for bit
    l, m = np.array(ls)[:, None], np.array(ms)[:, None]
    xr = (l * np.array([math.cos(phi) for phi in phis]) * m).ravel()
    xi = (l * np.array([math.sin(phi) for phi in phis]) * m).ravel()
    return xr, xi, np.isinf(xr) | np.isinf(xi)


def _power(np, xr, xi, a: int):
    """Python's x ** a on float arrays of x, as (real parts, imaginary
    parts, raises).  For |a| <= 100 CPython multiplies by binary powering
    with its complex product (ac - bd, ad + bc), and for a <= 0 takes
    1 / x ** -a by Smith's division of 1 + 0j.  A zero divisor raises
    ZeroDivisionError, an infinite part OverflowError."""
    if abs(a) > _POWI_LIMIT:
        return _python_power(np, xr, xi, a)
    rr, ri = np.ones_like(xr), np.zeros_like(xr)
    pr, pi = xr, xi
    k = abs(a)
    while k:
        if k & 1:
            rr, ri = rr * pr - ri * pi, rr * pi + ri * pr
        k >>= 1
        if k:
            pr, pi = pr * pr - pi * pi, pr * pi + pi * pr
    if a <= 0:
        by_re = np.abs(rr) >= np.abs(ri)
        # neither comparison holds for a NaN part: CPython returns Py_NAN
        nan = ~by_re & ~(np.abs(ri) >= np.abs(rr))
        zero = by_re & (rr == 0.0)
        ratio = np.where(by_re, ri / rr, rr / ri)
        denom = np.where(by_re, rr + ri * ratio, rr * ratio + ri)
        rr, ri = (np.where(by_re, 1.0 + 0.0 * ratio, 1.0 * ratio + 0.0) / denom,
                  np.where(by_re, 0.0 - 1.0 * ratio, 0.0 * ratio - 1.0) / denom)
        rr[nan] = ri[nan] = np.nan
        return rr, ri, zero | np.isinf(rr) | np.isinf(ri)
    return rr, ri, np.isinf(rr) | np.isinf(ri)


def _python_power(np, xr, xi, a: int):
    """Python's own x ** a, one x at a time, for |a| > 100: CPython's polar
    formula through libm's hypot, pow, atan2, cos and sin is not repeated
    bit for bit by numpy."""
    out = np.zeros(len(xr), dtype=complex)
    raises = np.zeros(len(xr), dtype=bool)
    for i, (re, im) in enumerate(zip(xr.tolist(), xi.tolist())):
        try:
            out[i] = complex(re, im) ** a
        except ArithmeticError:
            raises[i] = True
            break  # no row from here on is built
    return out.real, out.imag, raises


def _residual_exceeds(f: LaurentPoly, x: complex, y: complex, ay: float) -> bool:
    """The drop test of one root in scalar arithmetic, for roots whose
    residual terms may overflow or underflow."""
    resid = abs(sum(float(c) * x ** a * y ** b for (a, b), c in f.terms.items()))
    weight = sum(abs(float(c)) * abs(x) ** a * ay ** b
                 for (a, b), c in f.terms.items())
    return weight == 0.0 or not resid / weight <= RESIDUAL_TOL


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
    each populated bin reports the normalized mean direction and the count.
    A point at the origin has no direction and is skipped.

    The far points and their reflected unit vectors u = -p / |p| come from
    array operations on the cloud's radii.  Each angle is math.atan2 of u,
    point by point (numpy's arctan2 differs in the last bits), taken mod 2 pi
    by numpy's %, which gives the float of Python's %.  The bin is
    min(int(angle / (2 pi / angle_bins)), angle_bins - 1), as in a scalar
    loop.  A bin's mean is its left-to-right float sum from 0.0, by
    numpy.add.accumulate, over its count: the bits of CPython 3.11's sum(),
    signed zeros included, whatever the running interpreter's sum() does
    (from Python 3.12 on it is compensated)."""
    import numpy as np

    if not len(cloud.points):
        raise ValueError("empty cloud")
    r = cloud.radii
    far = ~_less(np, r, min_radius) & (r != 0)
    if not far.any():
        return LimitDirections(directions=[], no_far_points=True)
    p, rf = cloud.points[far], r[far]
    ux, uy = -p[:, 0] / rf, -p[:, 1] / rf
    angle = np.fromiter(map(math.atan2, uy.tolist(), ux.tolist()), float,
                        count=len(ux)) % (2.0 * math.pi)
    cells = np.trunc(angle / (2.0 * math.pi / angle_bins))
    rest = np.ones(len(cells), dtype=bool)
    out = []
    while rest.any():  # one bin per pass, in bin order
        cell = float(cells[rest].min())
        # every cell from int(cell) = angle_bins - 1 on is the last bin
        in_bin = rest if cell >= angle_bins - 1 else rest & (cells == cell)
        rest = rest & ~in_bin
        count = int(in_bin.sum())
        mx = _sum_from_zero(np, ux[in_bin]) / count
        my = _sum_from_zero(np, uy[in_bin]) / count
        norm = math.hypot(mx, my)
        out.append(((mx / norm, my / norm), count))
    return LimitDirections(directions=out)


def _less(np, values, bound):
    """values < bound as Python compares a float with an int or a float: an
    int bound need not be a float, nor fit in one."""
    try:
        b = float(bound)
    except OverflowError:
        return np.full(len(values), bound > 0)
    return (values < b) | ((values == b) & (b < bound))


def _sum_from_zero(np, values) -> float:
    """0.0 + v0 + v1 + ..., added left to right."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])
