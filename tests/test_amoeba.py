"""The numpy amoeba sampler against the scalar sampler it replaced.

`reference_sample` is the earlier implementation, kept here as the oracle:
one numpy.roots call per (s, phi), each root's residual evaluated term by
term in Python's complex arithmetic.  For k > angles / 2 it takes x as the
conjugate of e^(s + i 2 pi (angles - k) / angles), as the sampler mirrors
those rows from the upper half-circle; where a coefficient of y cancels to
rounding error the float rows at phi and 2 pi - phi are not conjugates, so
only on well-conditioned curves does the sampler match the reference that
solves every angle (mirror=False).  The sampler's cloud holds the solved
rows only, each point weighted by the rows it stands for; expanded to the
whole grid (`grid_points`), it must keep and drop the same number of roots,
and its points, sorted by (s, ln|y|), and its max radius agree with the
oracle's within POINT_TOL.  `reference_limit_directions` bins the expanded
far points one at a time with the math module, the oracle of the weighted
array binning: the same counts, directions within DIRECTION_TOL.
`power_form_block` keeps the earlier residual and weight, every root raised
to every y-exponent, as the oracle of the Horner sums.  Grids whose terms
leave the float range are refused when the job is read.  The roots of
y-degree 1 and 2, found in closed form, are checked against chosen roots.
The work-count and memory tests pin the batching itself.
"""

import cmath
import math
import random
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from sigmatrop.cli import SchemaError, run
from sigmatrop.rings import QQ, LaurentPoly
from sigmatrop import tropical
from sigmatrop.tropical import (AMOEBA_ROWS, RESIDUAL_TOL, AmoebaCloud,
                                LimitDirections, _companion_roots, amoeba_sample,
                                log_limit_directions)

# The roots of both samplers are eigenvalues of companion matrices whose
# entries differ in the last bits (numpy's and Python's complex power and
# exp); on these grids ln|y| moves by far less than this.
POINT_TOL = 1e-9
DIRECTION_TOL = 1e-12


def reference_coeffs(f, x):
    """The coefficients [sum of c * x ** a] of f(x, -), highest power of y
    first."""
    ydegs = [g[1] for g in f.terms]
    ymin, ymax = min(ydegs), max(ydegs)
    coeffs = [complex(0)] * (ymax - ymin + 1)
    for (a, b), c in f.terms.items():
        coeffs[ymax - b] += float(c) * x ** a
    return coeffs


def reference_row(f, x):
    """The kept ln|y| of the row x and its number of drops: one numpy.roots
    call, each root's residual evaluated in Python's complex arithmetic."""
    coeffs = reference_coeffs(f, x)
    if abs(coeffs[0]) == 0.0:
        return [], 1
    lny, dropped = [], 0
    for y in sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag)):
        y = complex(y)
        ay = abs(y)
        if ay == 0.0 or not math.isfinite(ay):
            dropped += 1
            continue
        resid = abs(sum(float(c) * x ** a * y ** b for (a, b), c in f.terms.items()))
        weight = sum(abs(float(c)) * abs(x) ** a * ay ** b
                     for (a, b), c in f.terms.items())
        if weight == 0.0 or not resid / weight <= RESIDUAL_TOL:
            dropped += 1
            continue
        lny.append(math.log(ay))
    return lny, dropped


def reference_x(s, k, angles, mirror=True):
    """x = e^(s + i 2 pi k / angles); with mirror, for k > angles / 2 the
    conjugate of x at angles - k, as the sampler solves that row."""
    if mirror and 2 * k > angles:
        return cmath.exp(complex(s, 2.0 * math.pi * (angles - k) / angles)).conjugate()
    return cmath.exp(complex(s, 2.0 * math.pi * k / angles))


def reference_sample(f, s_grid, angles, mirror=True):
    points = []
    dropped = 0
    for s in s_grid:
        for k in range(angles):
            lny, d = reference_row(f, reference_x(s, k, angles, mirror))
            points += [(float(s), v) for v in lny]
            dropped += d
    return AmoebaCloud(points=np.array(points, dtype=float).reshape(-1, 2),
                       dropped=dropped)


def assert_matches(got, want, context=None):
    """Equal point and drop counts; the points of the whole grid sorted by
    (s, ln|y|) and the max radius within POINT_TOL."""
    assert got.points.dtype == np.float64 and got.points.shape == (len(got.points), 2)
    assert (got.count, got.dropped) == (want.count, want.dropped), context
    g = np.array(sorted(map(tuple, got.grid_points().tolist()))).reshape(-1, 2)
    w = np.array(sorted(map(tuple, want.grid_points().tolist()))).reshape(-1, 2)
    assert len(g) == got.count, context
    assert np.abs(g - w).max(initial=0.0) <= POINT_TOL, context
    assert abs(got.max_radius - want.max_radius) <= POINT_TOL, context


def laurent(terms):
    return LaurentPoly(2, QQ, terms)


def random_curves(seed, count):
    """Seeded Laurent polynomials with exponents in [-2, 2], 2-5 terms,
    coefficients +-1, 2, 3, 5 and a nonzero y-degree span."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = rng.choice((1, -1, 2, 3, 5))
        ydegs = [b for _, b in terms]
        if len(terms) >= 2 and max(ydegs) > min(ydegs):
            out.append(laurent(terms))
    return out


def amoeba_job(f, s_grid, angles, **far):
    terms = [{"exp": list(e), "coef": int(c)} for e, c in f.terms.items()]
    return {"version": 1, "command": "amoeba", "payload": {
        "poly": {"terms": terms}, "s_grid": s_grid, "angles": angles, **far}}


def span_of(f):
    ydegs = [b for _, b in f.terms]
    return max(ydegs) - min(ydegs)


GRID = [x / 2 for x in range(-6, 7)]  # 13 values through s = 0


def test_matches_the_scalar_reference_on_random_curves():
    rng = random.Random(8)
    for f in random_curves(8, 300):
        angles = rng.choice((1, 4, 7, 16))
        assert_matches(amoeba_sample(f, GRID, angles),
                       reference_sample(f, GRID, angles), f)


def well_conditioned(f, s_grid, angles):
    """Whether on every row (s, phi) the coefficients of the highest and the
    lowest power of y are at least 1e-6 times sum |c| |x|^a, and the roots
    lie at least 1e-6 |y| apart.  A coefficient cancelled to rounding error,
    or a double root, moves the roots by far more than the rounding of x."""
    for s in s_grid:
        for k in range(angles):
            x = reference_x(s, k, angles, mirror=False)
            total = sum(abs(float(c)) * abs(x) ** a for (a, _), c in f.terms.items())
            coeffs = reference_coeffs(f, x)
            if min(abs(coeffs[0]), abs(coeffs[-1])) < 1e-6 * total:
                return False
            roots = np.roots(coeffs)
            if any(abs(u - v) < 1e-6 * max(abs(u), abs(v))
                   for i, u in enumerate(roots) for v in roots[:i]):
                return False
    return True


def test_matches_the_per_angle_reference_on_well_conditioned_curves():
    """Where no row is ill-conditioned, the rows phi and 2 pi - phi agree as
    floats, and the sampler matches the reference that solves every angle."""
    rng = random.Random(8)
    checked = 0
    for f in random_curves(8, 300):
        angles = rng.choice((1, 4, 7, 16))
        if well_conditioned(f, GRID, angles):
            assert_matches(amoeba_sample(f, GRID, angles),
                           reference_sample(f, GRID, angles, mirror=False), f)
            checked += 1
    assert checked >= 250


def test_the_row_at_two_pi_minus_phi_is_the_row_at_phi():
    """At x = i the y^2 coefficient 3x^-2 + 3 of this curve cancels to
    rounding error, and the float rows at pi / 2 and 3 pi / 2 are not
    conjugates: their largest ln|y| are 12.115 and 11.749.  The sampler
    solves pi / 2 only and gives 3 pi / 2 the same points."""
    f = laurent({(-2, -2): 5, (-2, -1): 2, (-2, 2): 3, (-1, -1): 1, (0, 2): 3})
    up, _ = reference_row(f, reference_x(0.0, 1, 4))
    down, _ = reference_row(f, reference_x(0.0, 3, 4, mirror=False))
    assert round(max(up), 3) == 12.115 and round(max(down), 3) == 11.749
    cloud = amoeba_sample(f, [0.0], 4)
    assert (cloud.count, cloud.dropped) == (4 * 4, 0)
    rows = cloud.grid_points()[:, 1].reshape(4, 4)
    assert np.array_equal(rows[1], rows[3])
    assert np.abs(np.sort(rows[1]) - np.sort(up)).max() <= POINT_TOL


@pytest.mark.parametrize("terms, angles, dropped", [
    # the trailing coefficient x - 1 vanishes at x = 1: a root y = 0, dropped
    ({(0, 2): 1, (0, 1): 2, (1, 0): 1, (0, 0): -1}, 4, 1),
    # the leading coefficient x - 1 vanishes at x = 1: the row is dropped
    ({(1, 2): 1, (0, 2): -1, (0, 1): 1, (0, 0): 1}, 4, 1),
    # y-degree span 4, with exponents of both signs
    ({(0, 2): 1, (1, -2): -3, (-1, 1): 2, (2, 0): 5, (0, -1): -1}, 7, None),
])
def test_fixed_curves_match_the_reference(terms, angles, dropped):
    f = laurent(terms)
    want = reference_sample(f, GRID, angles)
    assert_matches(amoeba_sample(f, GRID, angles), want)
    if dropped is not None:
        assert want.dropped == dropped


def test_a_root_with_a_nan_residual_is_dropped_and_counted():
    """At s = -300 the root y ~ -2e130 i of this curve is finite, but the
    products c x^a y^b of its residual overflow inside Python's complex
    multiplication, which raises nothing: the residual is NaN and the weight
    inf.  NaN > tol is False, so a `ratio > tol` drop rule kept the root."""
    f = laurent({(2, 0): 2, (0, 2): 3, (-2, 1): 5, (-1, 2): 5})
    s, angles = -300.0, 4
    nan_roots = 0
    for k in range(angles):
        x = cmath.exp(complex(s, 2.0 * math.pi * k / angles))
        coeffs = [complex(0)] * 3
        for (a, b), c in f.terms.items():
            coeffs[2 - b] += c * x ** a
        for y in np.roots(coeffs):
            y = complex(y)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                resid = abs(sum(c * x ** a * y ** b for (a, b), c in f.terms.items()))
            if math.isnan(resid):
                nan_roots += 1
    assert nan_roots >= 1
    cloud = amoeba_sample(f, [s], angles)
    assert_matches(cloud, reference_sample(f, [s], angles))
    assert cloud.dropped >= nan_roots
    assert cloud.count + cloud.dropped == angles * 2


def test_a_root_whose_residual_overflows_is_dropped_not_raised():
    """At s = 300 the root y ~ x^2 = e^600 of this curve is finite, but its
    square is not: Python's complex power raised OverflowError there, and
    numpy's gives inf, a NaN residual that drops the root.  The rest of the
    grid is sampled as the reference samples it."""
    f = laurent({(0, 2): 1, (2, 1): -1, (0, 0): 1})
    with pytest.raises(OverflowError, match="complex exponentiation"):
        reference_sample(f, [300.0], 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloud = amoeba_sample(f, [0.0, 1.0, 300.0, 2.0], 4)
    assert cloud.count + cloud.dropped == 4 * 4 * 2
    points = cloud.grid_points()
    near = points[points[:, 0] != 300.0]
    dropped = cloud.dropped - (4 * 2 - (len(points) - len(near)))
    assert_matches(AmoebaCloud(points=near, dropped=dropped),
                   reference_sample(f, [0.0, 1.0, 2.0], 4))


FAR_GRIDS = ([300.0], [-300.0], [-800.0], [0.0, 320.0, -250.0],
             [100.0, 200.0, 250.0, 320.0], [-40.0, 40.0, 350.0], [710.0, 800.0])


def test_far_grids_exit_3_or_answer():
    """A grid on which x = e^s or some term |c| e^(a s) overflows is refused
    when the job is read (exit 3); any other grid is answered, and no row or
    root is lost uncounted.  With a constant leading coefficient in y no row
    is dropped whole, so every row accounts for span roots exactly; a row
    whose leading coefficient vanishes counts once."""
    rng = random.Random(3)
    kinds = set()
    for f in random_curves(3, 60):
        ymax = max(b for _, b in f.terms)
        constant_lead = laurent({**{g: c for g, c in f.terms.items() if g[1] < ymax},
                                 (0, ymax): rng.choice((1, -2, 3))})
        for g in (f, constant_lead):
            for grid in FAR_GRIDS:
                angles = rng.choice((1, 4, 7))
                try:
                    result = run(amoeba_job(g, grid, angles, min_radius=10.0))["result"]
                except SchemaError as exc:
                    assert "leaves the float range" in str(exc)
                    kinds.add("refused")
                    continue
                kinds.add("answered")
                rows, total = len(grid) * angles, result["points"] + result["dropped"]
                if g is constant_lead:
                    assert total == rows * span_of(g), (g, grid)
                else:
                    assert rows <= total <= rows * span_of(g), (g, grid)
    assert kinds == {"refused", "answered"}


def test_grids_near_the_float_range_match_the_reference_or_exit_3():
    """Up to ln(DBL_MAX) = 709.78, x = e^(s + i phi) is finite.  A grid on
    which a term overflows is refused when the job is read.  Elsewhere each
    s-value is sampled as the reference samples it, or, where the reference
    raises (a companion entry past the float range), its rows are dropped."""
    grid = [708.5, 709.0, 709.5, 709.78]
    kinds = set()
    for terms in ({(0, 1): 1, (1, 0): -1},            # y = x, |y| = e^s
                  {(-1, 1): 1, (0, 0): -3},           # y = 3x, through 1/x
                  {(0, 2): 1, (1, 1): 2, (1, 0): -1},
                  {(0, 1): 1, (2, 0): 1}):            # x^2 overflows
        f = laurent(terms)
        for angles in (1, 4, 7):
            try:
                run(amoeba_job(f, grid, angles))
            except SchemaError:
                kinds.add("refused")
                continue
            for s in grid:
                got = amoeba_sample(f, [s], angles)
                try:
                    with np.errstate(over="ignore"):
                        want = reference_sample(f, [s], angles)
                except (ArithmeticError, np.linalg.LinAlgError):
                    assert got.dropped == angles and not got.count
                    kinds.add("dropped")
                    continue
                assert_matches(got, want, (terms, angles, s))
                kinds.add("cloud" if want.count else "empty")
    assert {"cloud", "dropped", "refused"} <= kinds


@pytest.mark.parametrize("s", [-400.0, -360.0])
def test_a_negative_exponent_past_the_float_range_exits_3(s):
    """x^-2 is e^800 at s = -400 and e^720 at s = -360: the reference raised
    ZeroDivisionError and OverflowError; the job is now refused when read.
    At s = -350, e^700 is a float, and the grid matches the reference."""
    f = laurent({(0, 1): 1, (-2, 0): 1, (1, 0): -2})
    with pytest.raises(SchemaError, match=r"the term 1\*x\^-2 leaves the float range"):
        run(amoeba_job(f, [0.0, 0.5, s, 1.0], 4))
    grid = [0.0, 0.5, -350.0, 1.0]
    run(amoeba_job(f, grid, 4))
    assert_matches(amoeba_sample(f, grid, 4), reference_sample(f, grid, 4))


def test_exponents_past_100_match_the_reference():
    """numpy raises to a power |a| >= 100 through its complex pow, not by
    binary powering.  x^101 at s = 8 is e^808: that grid is refused."""
    for terms in ({(0, 1): 1, (101, 0): -1}, {(0, 2): 3, (-120, 1): 1, (1, 0): 2}):
        f = laurent(terms)
        for grid in ([-0.5, -0.25, 0.0, 0.125, 0.5], [0.0, 8.0]):
            try:
                run(amoeba_job(f, grid, 7))
            except SchemaError:
                assert 101 in (a for a, _ in terms) and 8.0 in grid
                continue
            assert_matches(amoeba_sample(f, grid, 7), reference_sample(f, grid, 7),
                           (terms, grid))


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_a_grid_value_that_is_not_finite_is_refused(s):
    with pytest.raises(ValueError, match="finite"):
        amoeba_sample(laurent({(0, 1): 1, (1, 0): -1}), [0.0, s], 4)


def test_sampling_and_binning_call_no_scalar_math(monkeypatch):
    """The cloud and its directions are array code: no cmath.exp and no
    math.log, math.hypot or math.atan2 point by point."""
    def refuse(*args):
        raise AssertionError("a scalar math call")

    for module, name in ((cmath, "exp"), (math, "log"), (math, "hypot"),
                         (math, "atan2"), (math, "exp")):
        monkeypatch.setattr(module, name, refuse)
    cloud = amoeba_sample(laurent(BIG_TERMS), GRID, 16)
    assert len(cloud.points)
    assert log_limit_directions(cloud, 2.0, 72).directions


def test_seeded_curves_let_no_runtime_warning_escape():
    rng = random.Random(4)
    answered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in random_curves(4, 60):
            for grid in (GRID, [-300.0, 0.0, 300.0], [-800.0], [-700.0, 0.0, 700.0]):
                try:
                    doc = run(amoeba_job(f, grid, rng.choice((1, 4, 7)), min_radius=2.0))
                except SchemaError:
                    continue
                assert doc["result"]["points"] + doc["result"]["dropped"] > 0
                answered += 1
    assert answered > 60


# Rows y^2 + b y + c built from chosen roots, b = -(r1 + r2) and c = r1 r2,
# each root returned within ROOT_TOL of its chosen value (relative).
ROOT_TOL = 1e-13
ROOT_PAIRS = [
    (1.0, 2.0), (3 - 4j, 0.5j), (1e150, 1e-150), (1e-150, 1e-140),
    (2.5e10, -1.0), (1e12 + 1j, 3e-3), (7.0, -7.0), (1e100j, -1e100j),
    (2 + 3j, 2 - 3j), (-1e-120 + 1e-120j, -1e-120 - 1e-120j),
    # b^2 overflows without scaling; then 4c too
    (1e200, 1e-200), (-3e180j, 2e-150), (1e250 + 1e250j, 1.0),
    (3e154, 3e153), (-1e154 + 1e154j, 5e153 + 5e153j),
]


def root_pair_rows(pairs):
    """The first companion rows [-b, -c] of y^2 + b y + c with these roots."""
    return np.array([[r1 + r2, -(r1 * r2)] for r1, r2 in pairs], dtype=complex)


def assert_roots_near(got, pairs, tol):
    for (u, v), (r1, r2) in zip(got.tolist(), pairs):
        if abs(u - r1) > abs(u - r2):
            u, v = v, u
        assert abs(u - r1) <= tol * abs(r1) and abs(v - r2) <= tol * abs(r2), \
            ((r1, r2), (u, v))


def test_quadratic_roots_are_the_chosen_roots():
    """Magnitudes from 1e-150 to 1e250, |r1| >> |r2| (where the other sign of
    the square root cancels), r1 = -r2 (b = 0), complex and conjugate pairs,
    and rows whose b^2 or 4c leave the float range unless scaled."""
    assert_roots_near(_companion_roots(np, root_pair_rows(ROOT_PAIRS)), ROOT_PAIRS,
                      ROOT_TOL)


def test_quadratic_roots_of_random_separated_pairs():
    rng = random.Random(5)
    pairs = []
    while len(pairs) < 2000:
        r1, r2 = (cmath.rect(10.0 ** rng.uniform(-150, 150), rng.uniform(-math.pi, math.pi))
                  for _ in range(2))
        # a root moves by about eps |r1 + r2| / |r1 - r2| of itself
        if abs(r1 - r2) >= 1e-2 * max(abs(r1), abs(r2)):
            pairs.append((r1, r2))
    assert_roots_near(_companion_roots(np, root_pair_rows(pairs)), pairs, ROOT_TOL)


def test_a_double_root_is_found_to_about_the_square_root_of_eps():
    """A double root r is a zero discriminant; the rounding of c = r^2 makes
    it about eps |r|^2, which moves each root by about sqrt(eps) |r|.  The
    bound is 8 sqrt(eps) = 1.2e-7 of |r|."""
    pairs = [(r, r) for r in (1.0, -3.0, 1e150j, 1e-140 + 1e-140j, 0.1 + 0.7j, 1e154)]
    assert_roots_near(_companion_roots(np, root_pair_rows(pairs)), pairs,
                      8 * math.sqrt(np.finfo(float).eps))


def test_a_linear_root_is_minus_c1_over_c0_exactly():
    c = np.array([[2 + 1j, 3 - 5j], [1e-300, 7.0], [-4.0, 1e300j]])
    top = -c[:, 1:] / c[:, :1]
    assert np.array_equal(_companion_roots(np, top), top)


def test_a_span_4_job_solves_rows_of_degree_1_and_2_in_closed_form(monkeypatch):
    """f = y^4 + y^3 + (x - 2) y^2 + (x - 1)(x - 2) (y + 1): at x = 1 the two
    lowest coefficients vanish (degree 2, two roots y = 0 dropped), at x = 2
    the three lowest (degree 1, three dropped), and e^(ln 2) is 2.0 exactly.
    Every degree meets the reference's numpy.roots."""
    f = laurent({(0, 4): 1, (0, 3): 1, (1, 2): 1, (0, 2): -2, (2, 1): 1, (1, 1): -3,
                 (0, 1): 2, (2, 0): 1, (1, 0): -3, (0, 0): 2})
    degrees = []
    solve = tropical._companion_roots

    def recording(np_, top):
        degrees.append(top.shape[1])
        return solve(np_, top)

    monkeypatch.setattr(tropical, "_companion_roots", recording)
    grid = [-1.0, 0.0, 0.5, math.log(2.0), 1.5]
    cloud = amoeba_sample(f, grid, 4)
    assert sorted(degrees) == [1, 2, 4]
    assert_matches(cloud, reference_sample(f, grid, 4))


def test_the_small_root_of_a_far_row_is_kept():
    """f = -y - x / y + 2 x^-3, that is y^2 - 2 x^-3 y + x = 0: the roots are
    y1 ~ 2 x^-3 and y2 = x / y1 ~ x^4 / 2.  At s = -173.33, ln|y2| = -694.03.
    Stacked eigvals lost y2 on such rows (the residual test dropped it, on
    27 solved rows of the 31-value grid over [-200, 200]); the closed form
    keeps both roots of every row, y1 y2 = x, and for s <= -100 |y1| is
    2 |x|^-3 to the last digits."""
    f = laurent({(0, 1): -1, (1, -1): -1, (-3, 0): 2})
    # the 31-value grid less s = -200 and -186.7, where |y2| underflows
    grid = [-200.0 + 400.0 * i / 30 for i in range(2, 31)]
    angles = 16
    cloud = amoeba_sample(f, grid, angles)
    assert cloud.dropped == 0 and cloud.count == len(grid) * angles * 2
    s, lny = cloud.grid_points().reshape(len(grid), angles, 2, 2).transpose(3, 0, 1, 2)
    large, small = lny.max(axis=2), lny.min(axis=2)
    assert np.abs(small - (s[:, :, 0] - large)).max() <= 1e-9
    far = s[:, 0, 0] <= -100.0
    assert np.abs(large[far] - (math.log(2.0) - 3.0 * s[far, :, 0])).max() <= 1e-9
    assert np.round(small[0], 2).tolist() == [-694.03] * angles


def block_terms(f):
    """The terms (a, ymax - b, c), ymax and the y-degree span, as
    amoeba_sample hands them to _sample_block."""
    ydegs = [b for _, b in f.terms]
    ymax = max(ydegs)
    return ([(a, ymax - b, float(c)) for (a, b), c in f.terms.items()], ymax,
            ymax - min(ydegs))


def power_form_block(terms, ymax, span, s, phi):
    """_sample_block's drop rules with the residual and weight of the earlier
    sampler: every root raised to every y-exponent of f over a (rows, span,
    span + 1) array, and the columns |c| e^(a s) formed row by row.  Per row
    (s, phi), s-major: x, the roots y (shape (rows, span)), the mask of kept
    roots and the number dropped."""
    n = len(s) * len(phi)
    s, phi = np.repeat(s, len(phi)), np.tile(phi, len(s))
    y = np.zeros((n, span), dtype=complex)
    valid = np.zeros((n, span), dtype=bool)
    with np.errstate(all="ignore"):
        x = np.exp(s + 1j * phi)
        c = np.zeros((n, span + 1), dtype=complex)
        for a, col, fc in terms:
            c[:, col] += fc * x ** a
        live = c[:, 0] != 0
        deg = span - np.argmax(c[:, ::-1] != 0, axis=1)
        for d in range(1, span + 1):
            sel = np.flatnonzero(live & (deg == d))
            top = -c[sel, 1:d + 1] / c[sel, :1]
            finite = np.isfinite(top).all(axis=1)
            live[sel[~finite]] = False
            sel = sel[finite]
            if len(sel):
                y[sel, :d] = _companion_roots(np, top[finite])
                valid[sel, :d] = True
        ay = np.abs(y)
        cand = valid & (ay != 0.0) & np.isfinite(ay)
        yc = np.where(cand, y, 1.0)[:, :, None]
        exps = ymax - np.arange(span + 1)
        resid = np.abs((c[:, None, :] * yc ** exps).sum(axis=2))
        w = np.zeros((n, span + 1))
        for a, col, fc in terms:
            w[:, col] += abs(fc) * np.exp(a * s)
        weight = (w[:, None, :] * np.abs(yc) ** exps).sum(axis=2)
        kept = cand & (resid / weight <= RESIDUAL_TOL)
    return x, y, kept, np.where(live, span - deg, 1) + (valid & ~kept).sum(axis=1)


def exact_relative_residual(f, x, y):
    """|f(x, y)| / sum |c| |x|^a |y|^b at these floats, in mpmath at 50
    digits, whose exponent range no power of y leaves."""
    with mpmath.workdps(50):
        x, y = mpmath.mpc(x), mpmath.mpc(y)
        terms = [(mpmath.mpf(float(c)), x ** a * y ** b) for (a, b), c in f.terms.items()]
        return (abs(mpmath.fsum(c * t for c, t in terms))
                / mpmath.fsum(abs(c) * abs(t) for c, t in terms))


def times_y(f, e):
    """f * y^e: the same roots, other y-exponents."""
    return laurent({(a, b + e): c for (a, b), c in f.terms.items()})


@pytest.mark.parametrize("grid", [GRID, [-300.0, 0.0, 300.0], [-700.0, 0.0, 700.0],
                                  [-800.0]])
def test_horner_at_own_exponents_keeps_what_the_power_form_keeps(grid):
    """Residual and weight by Horner in y over the y-exponents >= 0 and in
    1/y over those < 0 keep every root the power form keeps, on y-exponents
    of both signs, all >= 1 and all <= -1.  On GRID they keep and drop the
    same roots, row by row.  Far out a power y^b of the power form can leave
    the float range while the terms c x^a y^b do not: there the power form
    drops true roots, which the Horner sums keep.  Each such root has an
    exact relative residual within RESIDUAL_TOL, and its row counts it as
    kept instead of dropped."""
    phi = 2.0 * math.pi * np.arange(5) / 8
    signs, kept_total, extra_total = set(), 0, 0
    for i, f in enumerate(random_curves(12, 40)):
        ydegs = [b for _, b in f.terms]
        # the lowest exponent 1 or 2, the highest -1 or -2: Horner steps
        # over the missing exponent 0, or -1, too
        low, high = 1 + i % 2, -1 - i % 2
        for g in (f, times_y(f, low - min(ydegs)), times_y(f, high - max(ydegs))):
            terms, ymax, span = block_terms(g)
            ymin = ymax - span
            signs.add(1 if ymin > 0 else -1 if ymax < 0 else 0 if ymin < 0 < ymax else None)
            _, kept, dropped = tropical._sample_block(np, terms, ymax, span,
                                                      np.array(grid), phi)
            x, y, want_kept, want_dropped = power_form_block(terms, ymax, span,
                                                             np.array(grid), phi)
            assert not (want_kept & ~kept).any(), (g, grid)
            extra = kept & ~want_kept
            assert np.array_equal(dropped, want_dropped - extra.sum(axis=1)), (g, grid)
            for row, slot in zip(*np.nonzero(extra)):
                assert exact_relative_residual(g, x[row], y[row, slot]) <= RESIDUAL_TOL
            kept_total += int(kept.sum())
            extra_total += int(extra.sum())
    assert {-1, 0, 1} <= signs  # all >= 1, all <= -1, and both signs
    assert kept_total > 0
    assert extra_total == 0 if grid in (GRID, [-800.0]) else extra_total > 100


def test_a_term_lost_to_underflow_drops_the_root_it_dominates():
    """f = 2/y + x/y^2 + 5x^2/y^4 + x^2/y^5 at s = -400: x^2 = e^-800
    underflows to 0, so the coefficient rows are those of 2/y + x/y^2.  Their
    root y = -x/2 is no root of f, whose terms in x^2 are e^800 and e^1200
    times the others there, and Horner over those rows alone finds it exact.
    The lost terms join the residual at |c| 2^-1074 |y|^b and drop it: the
    job is read and answered with every root dropped, as the power form
    answered it."""
    f = laurent({(0, -1): 2, (1, -2): 1, (2, -4): 5, (2, -5): 1})
    result = run(amoeba_job(f, [-400.0], 8))["result"]
    assert (result["points"], result["dropped"]) == (0, 8 * 4)
    x = cmath.exp(-400.0)
    root = -x / 2
    assert exact_relative_residual(f, x, root) > 0.5
    rows = np.array([[2.0, x, 0.0, 0.0, 0.0]], dtype=complex)  # y^-1 ... y^-5
    assert abs(tropical._at_own_exponents(rows, np.array([[root]]), -1)[0, 0]) \
        <= RESIDUAL_TOL * 4 / abs(root)


def reference_limit_directions(cloud, min_radius, angle_bins):
    """The per-point binning of the points of the whole grid: bin k holds the
    angles within half a bin width of k * 2 pi / angle_bins."""
    bins = {}
    for px, py in cloud.grid_points().tolist():
        r = math.hypot(px, py)
        if r < float(min_radius) or r == 0:
            continue
        ux, uy = -px / r, -py / r
        width = 2.0 * math.pi / angle_bins
        idx = math.floor(math.atan2(uy, ux) / width + 0.5) % angle_bins
        bins.setdefault(idx, []).append((ux, uy))
    if not bins:
        return LimitDirections(directions=[], no_far_points=True)
    out = []
    for idx in sorted(bins):
        vecs = bins[idx]
        mx = sum(vx for vx, _ in vecs) / len(vecs)
        my = sum(vy for _, vy in vecs) / len(vecs)
        norm = math.hypot(mx, my)
        out.append(((mx / norm, my / norm), len(vecs)))
    return LimitDirections(directions=out)


def assert_same_directions(got, want, context=None):
    assert got.no_far_points == want.no_far_points, context
    assert [c for _, c in got.directions] == [c for _, c in want.directions], context
    for (g, _), (w, _) in zip(got.directions, want.directions):
        assert math.dist(g, w) <= DIRECTION_TOL, context


def test_limit_directions_match_the_per_point_binning_on_random_curves():
    rng = random.Random(11)
    grid = [x / 4 for x in range(-80, 81, 3)]
    far_seen = set()
    for f in random_curves(11, 60):
        cloud = amoeba_sample(f, grid, rng.choice((4, 7, 16)))
        for min_radius in (0, 5.0, 12, 19.5, 40.0):
            # bin counts that 8 divides: no multiple of 45 degrees, where
            # far points of these curves lie, is a bin edge
            for angle_bins in (8, 16, 72, 360):
                want = reference_limit_directions(cloud, min_radius, angle_bins)
                got = log_limit_directions(cloud, min_radius, angle_bins)
                assert_same_directions(got, want, (f, min_radius, angle_bins))
                far_seen.add(want.no_far_points)
    assert far_seen == {True, False}


@pytest.mark.parametrize("angles", [1, 2, 3, 4, 7, 64])
def test_the_weighted_half_cloud_stands_for_the_whole_grid(angles):
    """The cloud holds the rows k = 0 ... angles // 2, weight 1 at k = 0 and
    k = angles / 2 and 2 elsewhere.  Expanded to the whole grid it matches
    the reference; its far directions and counts are those of the per-point
    binning of the expanded points; a job's `points` is the sum of the
    weights."""
    grid = [x / 4 for x in range(-60, 61, 5)]
    half = angles // 2 + 1
    k = np.arange(half)
    row_weight = np.where((k == 0) | (2 * k == angles), 1, 2)
    for f in random_curves(13, 6 if angles == 64 else 12):
        cloud = amoeba_sample(f, grid, angles)
        assert len(cloud.row_sizes) == len(grid) * half
        assert len(cloud.points) == cloud.row_sizes.sum()
        assert np.array_equal(cloud.weights,
                              np.repeat(np.tile(row_weight, len(grid)), cloud.row_sizes))
        expanded = AmoebaCloud(points=cloud.grid_points(), dropped=cloud.dropped)
        assert_matches(expanded, reference_sample(f, grid, angles), f)
        assert sorted(map(tuple, np.repeat(cloud.points, cloud.weights, axis=0).tolist())) \
            == sorted(map(tuple, expanded.points.tolist()))
        for min_radius, angle_bins in ((0, 8), (5.0, 72), (12, 360)):
            want = reference_limit_directions(expanded, min_radius, angle_bins)
            got = log_limit_directions(cloud, min_radius, angle_bins)
            assert_same_directions(got, want, (f, min_radius, angle_bins))
        result = run(amoeba_job(f, grid, angles, min_radius=5.0))["result"]
        assert result["points"] == cloud.weights.sum() == cloud.count
        assert result["dropped"] == cloud.dropped


def cloud_of(points):
    return AmoebaCloud(points=np.array(points, dtype=float).reshape(-1, 2))


@pytest.mark.parametrize("points, min_radius, angle_bins", [
    # a point at exactly min_radius is far
    ([(3.0, 4.0), (1.0, 1.0)], 5.0, 8),
    ([(3.0, 4.0), (1.0, 1.0)], 5, 8),
    # px == 0 reflects to ux = -0.0
    ([(0.0, 7.0)], 1.0, 8),
    ([(0.0, 7.0), (0.0, 9.0), (-0.0, 8.0)], 1.0, 8),
    ([(-0.0, -7.0), (0.0, -9.0)], 1.0, 4),
    # angles that were bin edges, pi / 2 with 4 bins and pi with 2 bins,
    # are bin centres
    ([(0.0, -5.0), (5.0, 0.0), (-5.0, -5.0)], 1.0, 4),
    ([(5.0, 0.0), (-5.0, 1e-300)], 1.0, 2),
    # atan2 of (1, -1e-20) is -1e-20, just below 2 pi: bin 0, with the
    # angles on either side of 0
    ([(-1e3, 1e-17), (-1e3, 1.0), (-1e3, -1.0)], 1.0, 72),
    ([(-1e3, 1e-17)], 1.0, 1),
    # no far points, the origin alone, a single point
    ([(1.0, 2.0), (-2.0, 0.5)], 10.0, 72),
    ([(0.0, 0.0)], 0, 72),
    ([(0.0, 0.0), (0.0, 0.0), (-3.0, 2.0)], 0, 72),
    ([(-20.0, 12.5)], 16.0, 72),
    # an int bound is compared as the float it rounds to: 2^53 + 1 is 2^53
    ([(2.0 ** 53, 0.0), (0.0, 2.0 ** 53 + 2)], 2 ** 53 + 1, 72),
    # 2^53 bins, the most a job may ask for, and more: each direction its
    # own bin
    ([(-1e3, 1e-17), (-1e3, -1e-3), (1.0, 1e3)], 1.0, 2 ** 53),
    ([(-1e3, 1e-17), (-1e3, -1e-3), (1.0, 1e3)], 1.0, 2 ** 60 + 1),
])
def test_limit_directions_edge_cases_match_the_per_point_binning(points, min_radius,
                                                                  angle_bins):
    cloud = cloud_of(points)
    want = reference_limit_directions(cloud, min_radius, angle_bins)
    assert_same_directions(log_limit_directions(cloud, min_radius, angle_bins), want)


def test_a_bin_whose_directions_cancel_out_is_refused():
    with pytest.raises(ValueError, match="cancel out"):
        log_limit_directions(cloud_of([(3.0, 4.0), (-3.0, -4.0)]), 1.0, 1)


def far_point(degrees):
    """A point whose reflected direction has this angle."""
    t = math.radians(degrees)
    return (-1e3 * math.cos(t), -1e3 * math.sin(t))


@pytest.mark.parametrize("angle_bins", [8, 72, 360])
def test_multiples_of_45_degrees_lie_half_a_bin_from_an_edge(angle_bins):
    """A direction at m * 45 degrees shares its bin with directions up to
    almost half a bin width away on either side, and not with one just past
    half a bin width."""
    half = 180.0 / angle_bins
    for m in range(8):
        centre = 45.0 * m
        near = [far_point(centre + t) for t in (-0.999 * half, 0.0, 0.999 * half)]
        res = log_limit_directions(cloud_of(near), 1.0, angle_bins)
        assert [c for _, c in res.directions] == [3], (m, angle_bins)
        t = math.radians(centre)
        assert math.dist(res.directions[0][0], (math.cos(t), math.sin(t))) < 1e-2
        for t in (-1.001 * half, 1.001 * half):
            res = log_limit_directions(cloud_of([far_point(centre), far_point(centre + t)]),
                                       1.0, angle_bins)
            assert [c for _, c in res.directions] == [1, 1], (m, t, angle_bins)


def test_an_angle_just_below_two_pi_falls_in_bin_0():
    # reflected angles -1e-20, -1e-3 and 1e-3: one bin, the first, next to
    # a direction just past half a bin at 180 / 72 + 0.1 degrees
    points = [(-1e3, 1e-17), (-1e3, 1.0), (-1e3, -1.0), far_point(2.6)]
    res = log_limit_directions(cloud_of(points), 1.0, 72)
    assert [c for _, c in res.directions] == [3, 1]
    (dx, dy), _ = res.directions[0]
    assert dx == 1.0 and abs(dy) < 1e-15


# The largest light-mix amoeba shape: 161 s-values, 64 angles, 4 terms of
# y-degree span 2.
BIG_TERMS = {(0, 0): 1, (1, 0): -2, (2, 1): 1, (1, 2): 2}
BIG_SPAN = 2
BIG_TERMS_SPAN_4 = {**BIG_TERMS, (0, 4): -1, (-1, 3): 3}
BIG_JOB = {"version": 1, "command": "amoeba", "payload": {
    "poly": {"terms": [{"exp": list(e), "coef": c} for e, c in BIG_TERMS.items()]},
    "s_grid": [round(-20.0 + 40.0 * i / 160, 6) for i in range(161)],
    "angles": 64, "min_radius": 16.0, "angle_bins": 72}}


def count_solver_calls(monkeypatch, terms, span):
    """Sample the big grid of BIG_JOB for this curve, counting numpy.roots
    and numpy.linalg.eigvals calls and the sizes of the matrices passed."""
    calls = {"eigvals": 0, "matrices": 0, "sizes": set(), "roots": 0}
    eigvals, roots = np.linalg.eigvals, np.roots

    def counting_eigvals(a):
        calls["eigvals"] += 1
        calls["matrices"] += len(a)
        calls["sizes"].add(a.shape[-1])
        return eigvals(a)

    def counting_roots(p):
        calls["roots"] += 1
        return roots(p)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(np, "roots", counting_roots)
    cloud = amoeba_sample(laurent(terms), BIG_JOB["payload"]["s_grid"], 64)
    # one np.roots call per (s, phi) was 161 * 64 = 10,304 calls
    assert calls["roots"] == 0
    # the weighted count: every root of the 161 * 64 rows is kept or dropped
    assert cloud.count + cloud.dropped == 161 * 64 * span
    assert cloud.points.dtype == np.float64 and cloud.points.shape == (len(cloud.points), 2)
    return calls


def test_big_grid_of_span_2_makes_no_eigvals_call(monkeypatch):
    """Rows of y-degree 1 and 2, all that light-mix samples, are solved in
    closed form."""
    assert count_solver_calls(monkeypatch, BIG_TERMS, BIG_SPAN)["eigvals"] == 0


def test_big_grid_solves_one_stacked_eigvals_per_block_and_degree(monkeypatch):
    """At y-degree span 4, rows of degree 3 and 4 go to numpy.linalg.eigvals:
    the angles of [0, pi] are 64 // 2 + 1 = 33 rows per s-value, and a block
    of AMOEBA_ROWS rows holds 2048 // 33 = 62 s-values, so 3 blocks, each
    with at most one stacked call per degree >= 3."""
    calls = count_solver_calls(monkeypatch, BIG_TERMS_SPAN_4, 4)
    assert 0 < calls["eigvals"] <= math.ceil(161 / (AMOEBA_ROWS // 33)) * (4 - 2)
    assert calls["sizes"] <= {3, 4}
    assert calls["matrices"] <= 161 * 33


def test_big_grid_memory_and_wall_budget():
    run(BIG_JOB)  # imports numpy and makes its first calls
    tracemalloc.start()
    try:
        run(BIG_JOB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000, f"{peak / 1e6:.1f} MB"
    start = time.perf_counter()
    doc = run(BIG_JOB)
    elapsed = time.perf_counter() - start
    assert doc["result"]["points"] > 0
    assert elapsed < 0.5, f"{elapsed:.2f}s"
