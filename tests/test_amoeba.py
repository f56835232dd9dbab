"""The batched amoeba sampler against the scalar sampler it replaced.

`reference_sample` is the earlier implementation, kept here as the oracle:
one numpy.roots call per (s, phi), each root's residual evaluated term by
term.  The batched sampler must give the same points, drop count and max
radius float for float, and raise the same exception where the reference
raises.  `scalar_rows` builds the coefficient rows as the reference does;
the array-built rows must have the same bits.  `reference_limit_directions`
is the earlier per-point binning of far directions, the oracle of the
array binning.  The work-count and memory tests pin the batching itself.
"""

import cmath
import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sigmatrop.cli import run
from sigmatrop.rings import QQ, LaurentPoly
from sigmatrop.tropical import (AMOEBA_ROWS, RESIDUAL_TOL, AmoebaCloud,
                                LimitDirections, _coefficient_rows, _residual_exceeds,
                                amoeba_sample, log_limit_directions)


def reference_sample(f, s_grid, angles):
    ydegs = [g[1] for g in f.terms]
    ymin, ymax = min(ydegs), max(ydegs)
    points = []
    dropped = 0
    for s in s_grid:
        for k in range(angles):
            phi = 2.0 * math.pi * k / angles
            x = cmath.exp(complex(s, phi))
            coeffs = [complex(0)] * (ymax - ymin + 1)
            for (a, b), c in f.terms.items():
                coeffs[ymax - b] += float(c) * x ** a
            if abs(coeffs[0]) == 0.0:
                dropped += 1
                continue
            roots = sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
            for y in roots:
                y = complex(y)
                ay = abs(y)
                if ay == 0.0 or not math.isfinite(ay):
                    dropped += 1
                    continue
                resid = abs(sum(float(c) * x ** a * y ** b
                                for (a, b), c in f.terms.items()))
                weight = sum(abs(float(c)) * abs(x) ** a * ay ** b
                             for (a, b), c in f.terms.items())
                if weight == 0.0 or not resid / weight <= RESIDUAL_TOL:
                    dropped += 1
                    continue
                points.append((float(s), math.log(ay)))
    return AmoebaCloud(points=np.array(points, dtype=float).reshape(-1, 2),
                       dropped=dropped)


def outcome(sample, f, s_grid, angles):
    """The cloud's fields, its points as Python floats, or the exception's
    type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            cloud = sample(f, s_grid, angles)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return type(exc).__name__, str(exc)
    return cloud.points.tolist(), cloud.dropped, cloud.max_radius


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


GRID = [x / 2 for x in range(-6, 7)]  # 13 values through s = 0


def test_matches_the_scalar_reference_on_random_curves():
    rng = random.Random(8)
    for f in random_curves(8, 300):
        angles = rng.choice((1, 4, 7, 16))
        want = reference_sample(f, GRID, angles)
        got = amoeba_sample(f, GRID, angles)
        assert got.points.dtype == np.float64 and got.points.shape == (len(got.points), 2)
        assert got.points.tolist() == want.points.tolist(), f
        assert got.dropped == want.dropped, f
        assert got.max_radius == want.max_radius, f


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
    assert outcome(amoeba_sample, f, GRID, angles) == (
        want.points.tolist(), want.dropped, want.max_radius)
    if dropped is not None:
        assert want.dropped == dropped


@pytest.mark.parametrize("terms, s, message", [
    # cmath.exp(800 + i phi) overflows for every curve
    ({(0, 1): 1, (1, 0): -1}, 800.0, "math range error"),
    # at s = 300 the root y ~ x^2 = e^600 is finite, but its square is not
    ({(0, 2): 1, (2, 1): -1, (0, 0): 1}, 300.0, "complex exponentiation"),
])
def test_overflow_still_raises(terms, s, message):
    f = laurent(terms)
    for grid in ([s], [0.0, 1.0, s, 2.0]):
        with pytest.raises(OverflowError, match=message):
            amoeba_sample(f, grid, 4)
        assert outcome(reference_sample, f, grid, 4) == ("OverflowError", message)


def test_far_grids_fail_or_answer_as_the_reference():
    """Grids that leave the float range: the first (s, phi) that fails in
    grid order sets the exception (OverflowError, ZeroDivisionError or
    numpy's LinAlgError), and grids that do not fail give the same cloud."""
    rng = random.Random(3)
    grids = ([300.0], [-300.0], [-800.0], [0.0, 320.0, -250.0],
             [100.0, 200.0, 250.0, 320.0], [-40.0, 40.0, 350.0])
    kinds = set()
    for f in random_curves(3, 60):
        for grid in grids:
            angles = rng.choice((1, 4, 7))
            want = outcome(reference_sample, f, grid, angles)
            assert outcome(amoeba_sample, f, grid, angles) == want, (f, grid)
            kinds.add(want[0] if isinstance(want[0], str) else "cloud")
    assert kinds == {"cloud", "OverflowError", "ZeroDivisionError", "LinAlgError"}


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
                assert _residual_exceeds(f, x, y, abs(y))
    assert nan_roots >= 1
    cloud = amoeba_sample(f, [s], angles)
    want = reference_sample(f, [s], angles)
    assert (cloud.points.tolist(), cloud.dropped) == (want.points.tolist(), want.dropped)
    assert cloud.dropped >= nan_roots
    assert len(cloud.points) + cloud.dropped == angles * 2


def scalar_rows(terms, span, block, phis):
    """x and the coefficient row of each (s, phi) as Python builds them, up
    to the first that raises."""
    xs, rows = [], []
    try:
        for s in block:
            for phi in phis:
                x = cmath.exp(complex(s, phi))
                row = [complex(0)] * (span + 1)
                for a, col, fc in terms:
                    row[col] += fc * x ** a
                xs.append(x)
                rows.append(row)
    except ArithmeticError:
        pass
    return xs, rows


def test_coefficient_rows_are_pythons_bit_for_bit():
    """The array rows repeat Python's complex arithmetic: every x and every
    coefficient has the same 64-bit pattern (NaNs included), and the rows
    stop where Python raises."""
    blocks = [GRID, [708.5, 709.0, 709.5, 709.78],
              [-300.0, -20.0, 40.0, 300.0], [0.0, -400.0, 1.0], [0.5, 710.0, 1.0],
              [-745.0, -700.0, 0.0]]
    rng = random.Random(5)
    stops = set()
    for f in random_curves(5, 80) + [laurent({(0, 1): 1, (101, 0): -1, (-2, 2): 3})]:
        ydegs = [b for _, b in f.terms]
        span = max(ydegs) - min(ydegs)
        terms = [(a, max(ydegs) - b, float(c)) for (a, b), c in f.terms.items()]
        angles = rng.choice((1, 4, 7))
        phis = [2.0 * math.pi * k / angles for k in range(angles)]
        for block in blocks:
            xs, rows = scalar_rows(terms, span, block, phis)
            xr, xi, c = _coefficient_rows(np, terms, span, block, phis)
            stops.add(len(rows) < len(block) * angles)
            want_x = np.array(xs, dtype=complex)
            assert np.array_equal(xr.view(np.uint64), want_x.real.view(np.uint64))
            assert np.array_equal(xi.view(np.uint64), want_x.imag.view(np.uint64))
            want = np.array(rows, dtype=complex).reshape(len(rows), span + 1)
            assert np.array_equal(c.view(np.uint64), want.view(np.uint64)), (f, block)
    assert stops == {True, False}


def test_grids_where_cmath_exp_scales_by_e_match_the_reference():
    """Above ln(DBL_MAX / 4) = 708.40, cmath.exp(s + i phi) is
    e^(s - 1) cos(phi) e, which differs in the last bits from e^s cos(phi);
    up to ln(DBL_MAX) = 709.78 x stays finite."""
    grid = [708.5, 709.0, 709.5, 709.78]
    assert math.log(1.7976931348623157e308 / 4) < grid[0]
    differs = [cmath.exp(complex(s, phi)).real != math.exp(s) * math.cos(phi)
               for s in grid for phi in (0.5, 1.0, 2.0, 3.0)]
    assert any(differs)
    kinds = set()
    for terms in ({(0, 1): 1, (1, 0): -1},            # y = x, |y| = e^s
                  {(-1, 1): 1, (0, 0): -3},           # y = 3x, through 1/x
                  {(0, 2): 1, (1, 1): 2, (1, 0): -1},
                  {(0, 1): 1, (2, 0): 1}):            # x^2 overflows
        f = laurent(terms)
        for angles in (1, 4, 7):
            want = outcome(reference_sample, f, grid, angles)
            assert outcome(amoeba_sample, f, grid, angles) == want, (terms, angles)
            if isinstance(want[0], str):
                kinds.add(want[0])
            elif want[0]:
                kinds.add("cloud")
                assert min(s for s, _ in want[0]) > 708.4
    assert {"cloud", "OverflowError"} <= kinds


@pytest.mark.parametrize("grid, error", [
    # x^2 underflows to 0 at s = -400: 1 / x^2 divides by zero
    ([0.0, 0.5, -400.0, 1.0], "ZeroDivisionError"),
    # x^2 = e^-720 is subnormal at s = -360: 1 / x^2 overflows
    ([0.0, 0.5, -360.0, 1.0], "OverflowError"),
])
def test_a_negative_exponent_fails_inside_a_block_as_the_reference(grid, error):
    """Finite rows come before the failing row in the same block: they are
    solved as the reference solves them before it raises."""
    f = laurent({(0, 1): 1, (-2, 0): 1, (1, 0): -2})
    want = outcome(reference_sample, f, grid, 4)
    assert want[0] == error
    assert outcome(amoeba_sample, f, grid, 4) == want


def test_exponents_past_100_take_pythons_power():
    """CPython raises to a power |a| > 100 by a polar formula, not by binary
    powering; those columns come from Python's own complex power."""
    for terms in ({(0, 1): 1, (101, 0): -1}, {(0, 2): 3, (-120, 1): 1, (1, 0): 2}):
        f = laurent(terms)
        for grid in ([-0.5, -0.25, 0.0, 0.125, 0.5], [0.0, 8.0]):
            want = outcome(reference_sample, f, grid, 7)
            assert outcome(amoeba_sample, f, grid, 7) == want, (terms, grid)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_a_grid_value_that_is_not_finite_is_refused(s):
    with pytest.raises(ValueError, match="finite"):
        amoeba_sample(laurent({(0, 1): 1, (1, 0): -1}), [0.0, s], 4)


def test_only_a_failing_row_calls_cmath_exp(monkeypatch):
    """The rows are built on arrays; a scalar cmath.exp runs once, at the
    first (s, phi) where Python raises, to raise its exception."""
    calls = []
    exp = cmath.exp

    def counting_exp(z):
        calls.append(z)
        return exp(z)

    f = laurent(BIG_TERMS)
    monkeypatch.setattr(cmath, "exp", counting_exp)
    cloud = amoeba_sample(f, GRID, 16)
    assert calls == [] and len(cloud.points)
    with pytest.raises(OverflowError, match="complex exponentiation"):
        amoeba_sample(f, GRID + [400.0, 500.0], 16)
    assert calls == [complex(400.0, 0.0)]


def reference_limit_directions(cloud, min_radius, angle_bins):
    """The per-point binning, with each bin's sums written as the left-to-right
    float loop from 0.0 that CPython 3.11's sum() runs."""
    points = cloud.points.tolist()
    if not points:
        raise ValueError("empty cloud")
    bins = {}
    for px, py in points:
        r = math.hypot(px, py)
        if r < min_radius or r == 0:
            continue
        ux, uy = -px / r, -py / r
        angle = math.atan2(uy, ux) % (2.0 * math.pi)
        idx = min(int(angle / (2.0 * math.pi / angle_bins)), angle_bins - 1)
        bins.setdefault(idx, []).append((ux, uy))
    if not bins:
        return LimitDirections(directions=[], no_far_points=True)
    out = []
    for idx in sorted(bins):
        vecs = bins[idx]
        sx = sy = 0.0
        for vx, vy in vecs:
            sx += vx
            sy += vy
        mx, my = sx / len(vecs), sy / len(vecs)
        norm = math.hypot(mx, my)
        out.append(((mx / norm, my / norm), len(vecs)))
    return LimitDirections(directions=out)


def direction_bits(res):
    """The directions' 64-bit patterns, the counts and the no-far flag."""
    dirs = np.array([d for d, _ in res.directions], dtype=float).reshape(-1, 2)
    return (dirs.view(np.uint64).tolist(), [c for _, c in res.directions],
            res.no_far_points)


def test_limit_directions_match_the_per_point_binning_on_random_curves():
    rng = random.Random(11)
    grid = [x / 4 for x in range(-80, 81, 3)]
    far_seen = set()
    for f in random_curves(11, 60):
        cloud = amoeba_sample(f, grid, rng.choice((4, 7, 16)))
        for min_radius in (0, 5.0, 12, 19.5, 40.0):
            for angle_bins in (1, 4, 7, 72, 360):
                want = reference_limit_directions(cloud, min_radius, angle_bins)
                got = log_limit_directions(cloud, min_radius, angle_bins)
                assert direction_bits(got) == direction_bits(want), (f, min_radius)
                far_seen.add(want.no_far_points)
    assert far_seen == {True, False}


def cloud_of(points):
    return AmoebaCloud(points=np.array(points, dtype=float).reshape(-1, 2))


@pytest.mark.parametrize("points, min_radius, angle_bins", [
    # a point at exactly min_radius is far
    ([(3.0, 4.0), (1.0, 1.0)], 5.0, 8),
    ([(3.0, 4.0), (1.0, 1.0)], 5, 8),
    # px == 0 reflects to ux = -0.0: the sum from 0.0 is 0.0, not -0.0
    ([(0.0, 7.0)], 1.0, 8),
    ([(0.0, 7.0), (0.0, 9.0), (-0.0, 8.0)], 1.0, 8),
    ([(-0.0, -7.0), (0.0, -9.0)], 1.0, 4),
    # angles on bin edges: pi / 2 with 4 bins, pi with 2 bins
    ([(0.0, -5.0), (5.0, 0.0), (-5.0, -5.0)], 1.0, 4),
    ([(5.0, 0.0), (-5.0, 1e-300)], 1.0, 2),
    # atan2 of (1, -1e-20) is -1e-20, and -1e-20 mod 2 pi rounds to 2 pi:
    # the last bin, next to the angles just below it
    ([(-1e3, 1e-17), (-1e3, 1.0), (-1e3, -1.0)], 1.0, 72),
    ([(-1e3, 1e-17)], 1.0, 1),
    # no far points, the origin alone, a single point
    ([(1.0, 2.0), (-2.0, 0.5)], 10.0, 72),
    ([(0.0, 0.0)], 0, 72),
    ([(0.0, 0.0), (0.0, 0.0), (-3.0, 2.0)], 0, 72),
    ([(-20.0, 12.5)], 16.0, 72),
    # an int bound that is no float: 2^53 + 1 > 2^53 = float(2^53 + 1)
    ([(2.0 ** 53, 0.0), (0.0, 2.0 ** 53 + 2)], 2 ** 53 + 1, 72),
    ([(2.0 ** 53, 0.0)], 10 ** 400, 72),
    # bins past 2^53, where the top bin's index is no float either
    ([(-1e3, 1e-17), (-1e3, -1e-3), (1.0, 1e3)], 1.0, 2 ** 60 + 1),
])
def test_limit_directions_edge_cases_match_the_per_point_binning(points, min_radius,
                                                                  angle_bins):
    cloud = cloud_of(points)
    want = reference_limit_directions(cloud, min_radius, angle_bins)
    got = log_limit_directions(cloud, min_radius, angle_bins)
    assert direction_bits(got) == direction_bits(want)


# The largest light-mix amoeba shape: 161 s-values, 64 angles, 4 terms of
# y-degree span 2.
BIG_TERMS = {(0, 0): 1, (1, 0): -2, (2, 1): 1, (1, 2): 2}
BIG_SPAN = 2
BIG_JOB = {"version": 1, "command": "amoeba", "payload": {
    "poly": {"terms": [{"exp": list(e), "coef": c} for e, c in BIG_TERMS.items()]},
    "s_grid": [round(-20.0 + 40.0 * i / 160, 6) for i in range(161)],
    "angles": 64, "min_radius": 16.0, "angle_bins": 72}}


def test_big_grid_solves_one_stacked_eigvals_per_block_and_degree(monkeypatch):
    calls = {"eigvals": 0, "roots": 0}
    eigvals, roots = np.linalg.eigvals, np.roots

    def counting_eigvals(a):
        calls["eigvals"] += 1
        return eigvals(a)

    def counting_roots(p):
        calls["roots"] += 1
        return roots(p)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(np, "roots", counting_roots)
    f = laurent(BIG_TERMS)
    cloud = amoeba_sample(f, BIG_JOB["payload"]["s_grid"], 64)
    # one np.roots call per (s, phi) was 161 * 64 = 10,304 calls; a block
    # of AMOEBA_ROWS rows holds 2048 // 64 = 32 s-values, so 6 blocks
    assert calls["roots"] == 0
    assert 0 < calls["eigvals"] <= math.ceil(161 / (AMOEBA_ROWS // 64)) * BIG_SPAN
    assert len(cloud.points) + cloud.dropped == 161 * 64 * BIG_SPAN
    assert cloud.points.dtype == np.float64 and cloud.points.shape == (len(cloud.points), 2)


def test_big_grid_memory_and_wall_budget():
    run(BIG_JOB)  # compiles the schema validator
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
