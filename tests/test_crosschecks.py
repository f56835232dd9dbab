"""Randomized cross-validation of the polyhedral engine against independent
oracles, plus an end-to-end pipeline check on a classical rank-2 module."""

import random
from fractions import Fraction

from sigmatrop.cli import run as run_job
from sigmatrop.linalg import rank as mat_rank
from sigmatrop.polyhedra import Polyhedron, PolyhedralSet, _solve_system
from sigmatrop.rings import Direction
from sigmatrop.tropical import (amoeba_sample, log_limit_directions,
                                trop_hypersurface)
from sigmatrop.valuations import TrivialValuation
from sigmatrop.rings import LaurentPoly

from test_cone_kernels import as_fractions

X = LaurentPoly.monomial

EPS = Fraction(1, 2 ** 14)  # below every slack/derivative ratio at this scale


def rand_polyhedron(rng, rank, affine=True):
    def rows(k):
        out = []
        for _ in range(k):
            vec = tuple(rng.randint(-3, 3) for _ in range(rank))
            out.append((vec, rng.randint(-2, 2) if affine else 0))
        return out
    return Polyhedron(rank, eq=rows(rng.randint(0, 1)),
                      ge=rows(rng.randint(0, 3)), gt=rows(rng.randint(0, 2)))


def rand_point(rng, rank):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(rank))


def test_complement_partitions_space():
    rng = random.Random(101)
    for _ in range(25):
        rank = rng.randint(1, 3)
        s = PolyhedralSet(rank, [rand_polyhedron(rng, rank)
                                 for _ in range(rng.randint(1, 2))])
        comp = s.complement()
        for _ in range(20):
            x = rand_point(rng, rank)
            assert s.contains(x) != comp.contains(x)


def test_germ_cone_matches_small_step_oracle():
    rng = random.Random(103)
    checked = 0
    while checked < 40:
        rank = rng.randint(1, 3)
        p = rand_polyhedron(rng, rank)
        base = Polyhedron(p.rank, eq=p.eq, ge=p.ge + p.gt).feasible_point()
        if base is None:
            continue
        base = as_fractions(base)
        germ = p.germ_cone_at(base)
        for _ in range(10):
            d = tuple(rng.randint(-3, 3) for _ in range(rank))
            if not any(d):
                continue
            stepped = tuple(b + EPS * e for b, e in zip(base, d))
            oracle = p.contains(stepped)
            claimed = germ is not None and germ.contains(d)
            assert claimed == oracle, (p, base, d)
        checked += 1


def test_rays_reconstruct_pointed_cones():
    rng = random.Random(107)
    done = 0
    while done < 30:
        rank = rng.randint(1, 3)
        p = rand_polyhedron(rng, rank, affine=False)
        cone = Polyhedron(rank, eq=p.eq, ge=p.ge + p.gt)
        if cone.is_empty or cone.lineality_basis():
            continue
        done += 1
        rays = cone.rays()
        # soundness: each ray lies in the cone and is extreme
        for r in rays:
            assert cone.contains(r)
            active = [list(v) for v, _ in cone.eq]
            active += [list(v) for v, _ in cone.ge
                       if sum(a * b for a, b in zip(v, r)) == 0]
            assert mat_rank(active) == rank - 1, (cone, r)
        # completeness: sampled cone points are nonnegative ray combinations
        if not rays:
            continue
        for _ in range(5):
            coeffs = [rng.randint(0, 3) for _ in rays]
            point = tuple(sum(c * r[i] for c, r in zip(coeffs, rays))
                          for i in range(rank))
            assert cone.contains(point)
        sample = as_fractions(cone.feasible_point())
        k = len(rays)
        eqs = [(tuple(Fraction(rays[j][i]) for j in range(k)),
                Fraction(sample[i])) for i in range(rank)]
        nonneg = [(tuple(Fraction(int(j == i)) for j in range(k)), Fraction(0),
                   False) for i in range(k)]
        assert _solve_system(eqs, nonneg, k) is not None, (cone, rays, sample)


def test_positive_hull_matches_scaling_oracle():
    rng = random.Random(109)
    done = 0
    while done < 30:
        rank = rng.randint(1, 3)
        p = rand_polyhedron(rng, rank)
        if p.is_empty:
            continue
        done += 1
        hull = p.positive_hull()
        for _ in range(12):
            d = tuple(rng.randint(-3, 3) for _ in range(rank))
            if not any(d):
                continue
            assert hull.contains(d) == _scaling_oracle(p, d), (p, d)


def _scaling_oracle(p, d):
    """Exact 1-variable check: is lambda*d in p for some lambda > 0?"""
    lo, lo_strict = Fraction(0), True
    hi, hi_strict = None, False
    for group, strict in ((p.eq, None), (p.ge, False), (p.gt, True)):
        for vec, rhs in group:
            a = sum(v * e for v, e in zip(vec, d))
            if strict is None:
                if a == 0:
                    if rhs != 0:
                        return False
                    continue
                lam = Fraction(rhs, a)
                if lam <= 0:
                    return False
                if (lo, lo_strict) < (lam, False):
                    lo, lo_strict = lam, False
                if hi is None or (lam, False) < (hi, hi_strict):
                    hi, hi_strict = lam, False
                continue
            if a == 0:
                if rhs > 0 or (rhs == 0 and strict):
                    return False
                continue
            lam = Fraction(rhs, a)
            if a > 0:
                if (lo, lo_strict) < (lam, strict):
                    lo, lo_strict = lam, strict
            else:
                if hi is None or (lam, strict) < (hi, hi_strict):
                    hi, hi_strict = lam, strict
    if hi is None:
        return True
    if lo < hi:
        return True
    return lo == hi and not lo_strict and not hi_strict


def test_recession_directions_stay_inside():
    rng = random.Random(113)
    done = 0
    while done < 25:
        rank = rng.randint(1, 3)
        p = rand_polyhedron(rng, rank)
        base = Polyhedron(p.rank, eq=p.eq, ge=p.ge + p.gt).feasible_point()
        if base is None:
            continue
        base = as_fractions(base)
        done += 1
        rec = p.recession()
        closure = Polyhedron(p.rank, eq=p.eq, ge=p.ge + p.gt)
        for _ in range(8):
            d = tuple(rng.randint(-2, 2) for _ in range(rank))
            if rec.contains(d):
                far = tuple(b + 10 ** 6 * e for b, e in zip(base, d))
                assert closure.contains(far), (p, base, d)


def test_curve_with_quadratic_fiber_amoeba():
    # y^2 = x: tropical line 2*chi_y = chi_x, recession rays +-(2, 1)
    import math

    f = X((0, 2)) - X((1, 0))
    fan = trop_hypersurface(f, TrivialValuation())
    rays = [d.vector for d in fan.radial().rays()]
    assert rays == [(-2, -1), (2, 1)]
    cloud = amoeba_sample(f, [x / 2.0 for x in range(-50, 51, 2)], 8)
    assert cloud.dropped == 0
    res = log_limit_directions(cloud, min_radius=15.0, angle_bins=72)
    assert res.directions
    for (ux, uy), _ in res.directions:
        best = min(
            math.degrees(math.acos(max(-1.0, min(1.0,
                (ux * r[0] + uy * r[1]) / math.hypot(*r)))))
            for r in rays)
        assert best <= 5.0


def test_plane_curve_module_pipeline():
    # the rank-2 cyclic module on x + y + 1: finitely presented, not FP3
    job = {
        "version": 1,
        "command": "group",
        "payload": {
            "module": {"mode": "cyclic", "rank": 2, "domain": "Q",
                       "generators": [{"terms": [
                           {"exp": [1, 0], "coef": 1},
                           {"exp": [0, 1], "coef": 1},
                           {"exp": [0, 0], "coef": 1}]}]},
            "fpm": [2, 3],
        },
    }
    doc = run_job(job)
    res = doc["result"]
    assert res["sigma"]["proved_complement"]["directions"] == [
        [-1, -1], [0, 1], [1, 0]]
    assert res["finitely_presented"] is True
    assert res["fp_infinity"] is False
    assert res["fpm"]["2"] == {"value": True, "basis": "theorem"}
    assert res["fpm"]["3"] == {"value": False, "basis": "conjecture"}
    assert not doc["undecided"]
