"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance and bound is pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from sigmatrop.cli import canonical_json, run as run_job
from sigmatrop.dynamics import (INF, PushMap, check_angle_bound, gsh,
                                lambda_of_push_estimate, norm, sigma_of_push)
from sigmatrop.polyhedra import (balanceable_at, local_cone_at_infinity,
                                 local_cone_at_origin, pure_dimension)
from sigmatrop.rings import (GF, QQ, ZZ, Character, Direction, LaurentPoly,
                             chi_value)
from sigmatrop.sigma import (CyclicModule, ScalarAction, certificate_search,
                             certificate_valid, determinant_reduction,
                             direct_sum_module, matrix_certificate_valid,
                             metabelian_fp, metabelian_fp_infinity,
                             sigma_of_module)
from sigmatrop.tropical import (amoeba_sample, log_limit_directions,
                                trop_hypersurface)
from sigmatrop.valuations import PAdicValuation, TrivialValuation

from reference_dynamics import reference_compose_gsh_check

X = LaurentPoly.monomial
TRIV = TrivialValuation()


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def timed(budget):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
        return elapsed

    return check


def test_criterion_1_tropical_line():
    done = timed(1.0)
    f = X((1, 0)) + X((0, 1)) + X((0, 0))
    fan = trop_hypersurface(f, TRIV)
    rays = [d.vector for d in fan.radial().rays()]
    assert rays == [(-1, -1), (0, 1), (1, 0)]

    scalars = sorted({Fraction(a, b) for a in range(-8, 9) for b in range(1, 9)})
    mismatches = 0
    for vx in scalars:
        for vy in scalars:
            chi = Character((vx, vy))
            vals = [chi_value(chi, g) for g in f.terms]
            m = min(vals)
            oracle = sum(1 for v in vals if v == m) >= 2
            if fan.contains(chi.values) != oracle:
                mismatches += 1
    assert mismatches == 0
    assert pure_dimension(fan) == 1
    assert balanceable_at(fan, (0, 0))
    elapsed = done()
    report(1, True, f"rays {rays}, oracle grid {len(scalars) ** 2} points, "
                    f"pure dim 1, balanced at 0 ({elapsed:.2f}s < 1s)")


def test_criterion_2_scalar_action_6():
    done = timed(10.0)
    m6 = ScalarAction.of(6)
    result = sigma_of_module(m6)
    assert result.undecided.is_empty
    comp = result.proved_complement.finite_directions
    assert [d.vector for d in comp] == [(1,)]
    assert result.proved_sigma.contains(Direction.of(-1))
    assert not result.proved_sigma.contains(Direction.of(1))

    lam = result.certificate_for(Direction.of(-1))
    assert lam is not None and certificate_valid(lam, Character.of(-1), m6)
    assert lam.terms[(0,)] == 1
    (neg,) = [g for g in lam.terms if g != (0,)]
    j = -neg[0] - 1
    assert j >= 0 and lam.terms[neg] == -(6 ** (j + 1)), \
        "certificate must have the telescoped shape 1 - 6^(j+1) x^-(j+1)"

    assert metabelian_fp(result) is True
    assert metabelian_fp_infinity(result) is True
    assert certificate_search(m6, Character.of(1), box=6,
                              coeff_bound=10 ** 6) is None
    elapsed = done()
    report(2, True, f"complement [[1]], sigma [[-1]] with certificate {lam}, "
                    f"fp and fp-infinity true, positive side exhausted "
                    f"({elapsed:.2f}s < 10s)")


def test_criterion_3_lamplighter():
    done = timed(1.0)
    mod = CyclicModule(1, GF(2), ())
    result = sigma_of_module(mod)
    assert result.proved_complement.contains(Direction.of(1))
    assert result.proved_complement.contains(Direction.of(-1))
    assert result.proved_sigma.is_empty
    assert metabelian_fp(result) is False
    assert metabelian_fp_infinity(result) is False
    elapsed = done()
    report(3, True, f"complement is the whole 0-sphere, fp false, "
                    f"fp-infinity false ({elapsed:.2f}s < 1s)")


def test_criterion_4_local_cone_consistency():
    done = timed(1.0)
    for m, p in ((2, 2), (3, 3), (4, 2), (5, 5), (8, 2), (9, 3)):
        f = X((1,)) - X((0,), m)
        padic = trop_hypersurface(f, PAdicValuation(p))
        triv = trop_hypersurface(f, TRIV)
        assert local_cone_at_infinity(padic).set_eq(triv), f"m={m}"
        assert local_cone_at_origin(padic).is_empty, f"m={m}"
    elapsed = done()
    report(4, True, f"recession of each p-adic fan equals the trivial fan and "
                    f"the germ at 0 is empty for m in 2,3,4,5,8,9 "
                    f"({elapsed:.2f}s < 1s)")


def test_criterion_5_determinant_reduction():
    rng = random.Random(2024)
    m6 = ScalarAction.of(6)
    m66 = direct_sum_module(m6, m6)
    chi = Character.of(-1)
    failures = 0
    for i in range(30):
        j1, j2 = rng.randint(1, 3), rng.randint(1, 3)
        lam1 = LaurentPoly(1, ZZ, {(0,): 1, (-j1,): -(6 ** j1)})
        lam2 = LaurentPoly(1, ZZ, {(0,): 1, (-j2,): -(6 ** j2)})
        mu = lam1.shift((-rng.randint(1, 3),)).scale(rng.choice([-2, -1, 1, 2]))
        theta = ([[lam1, LaurentPoly.zero(1)], [mu, lam2]] if i % 2 == 0
                 else [[lam1, mu], [LaurentPoly.zero(1), lam2]])
        assert matrix_certificate_valid(theta, chi, m66)
        det = determinant_reduction(theta)
        if not certificate_valid(det, chi, m66):
            failures += 1
    report(5, failures == 0,
           f"30 matrix certificates reduced by determinant, {failures} failures")


def test_criterion_6_dynamics():
    rng = random.Random(777)

    def rand_entry(rank, monos):
        terms = {}
        while len(terms) < monos:
            g = tuple(rng.randint(-3, 3) for _ in range(rank))
            c = rng.randint(-4, 4)
            if c:
                terms[g] = c
        return LaurentPoly(rank, ZZ, terms)

    checked = 0
    while checked < 200:
        rank = rng.randint(1, 3)
        size = rng.choice([1, 1, 2])
        phi = PushMap.of([[rand_entry(rank, rng.randint(1, 4))
                           for _ in range(size)] for _ in range(size)])
        chi = Character(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(rank)))
        if chi.is_zero:
            continue
        checked += 1
        val = gsh(phi, chi)
        assert sigma_of_push(phi).contains(chi.values) == (val > 0), \
            (phi.entries, chi.values, val)

    for _ in range(30):
        rank = rng.randint(1, 2)
        phi = PushMap.of([[rand_entry(rank, rng.randint(1, 3))]])
        psi = PushMap.of([[rand_entry(rank, rng.randint(1, 3))]])
        chi = Character(tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank)))
        if chi.is_zero:
            chi = Character.of(*([1] * rank))
        assert reference_compose_gsh_check(phi, psi, chi, max_power=5).passed

    angle_cases = 0
    while angle_cases < 20:
        rank = rng.randint(1, 3)
        chi = Character(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(rank)))
        if chi.is_zero:
            continue
        terms = {}
        while len(terms) < rng.randint(1, 4):
            g = tuple(rng.randint(-3, 3) for _ in range(rank))
            if chi_value(chi, g) > 0:
                terms[g] = rng.choice([-2, -1, 1, 2])
        phi = PushMap.of([[LaurentPoly(rank, ZZ, terms)]])
        assert gsh(phi, chi) > 0
        orbit = lambda_of_push_estimate(phi, [LaurentPoly.one(rank)], 7)
        if orbit.died_out or not orbit.directions:
            continue
        angle_cases += 1
        rep = check_angle_bound(chi, gsh(phi, chi), norm(phi).squared,
                                orbit.directions)
        assert rep.passed, (terms, chi.values,
                            [c for c in rep.checks if not c.cos_ok_exact])
    # multiplication by x: shift 1 and norm 1 towards chi = 1
    neg = check_angle_bound(Character.of(1), Fraction(1), Fraction(1),
                            [Direction.of(-1)])
    assert not neg.passed
    report(6, True, "200 membership/shift agreements, 30 composition checks, "
                    "20 angle-bound cases plus a negative control")


def test_criterion_7_halfplane():
    from sigmatrop.halfplane import (verify_infinity_obstruction_A,
                                     verify_push_B, verify_support_at_zero_A)

    done = timed(30.0)
    sup = verify_support_at_zero_A(2, 0, 8)
    assert sup.passed and sup.strictly_increasing
    assert [row[2] for row in sup.rows] == [4 ** j for j in range(9)]

    obstruction = verify_infinity_obstruction_A(2, 2, coeff_bound=10, k_max=4)
    assert obstruction.passed and obstruction.witness is None
    assert obstruction.candidates_checked == 21 ** 4

    ratios = {}
    for p in (2, 3, 5):
        rep = verify_push_B(p)
        assert rep.passed and rep.shift_arg_ratio == p * p
        ratios[p] = rep.shift_arg_ratio
    elapsed = done()
    report(7, True, f"support rows increase to 4^8, 21^4 obstruction candidates "
                    f"rejected, push ratios {ratios} ({elapsed:.2f}s < 30s)")


def _angle_deg(u, v):
    dot = u[0] * v[0] + u[1] * v[1]
    return math.degrees(math.acos(max(-1.0, min(1.0, dot /
                                                (math.hypot(*u) * math.hypot(*v))))))


def test_criterion_8_amoeba_agreement():
    done = timed(60.0)
    curves = {
        "x+y+1": (X((1, 0)) + X((0, 1)) + X((0, 0)), {(-1, -1), (1, 0)}),
        "y-6x": (X((0, 1)) - X((1, 0), 6), {(1, 1), (-1, -1)}),
        "2x-y": (X((1, 0), 2) - X((0, 1)), {(1, 1), (-1, -1)}),
    }
    s_grid = [x / 2.0 for x in range(-44, 45)]
    for name, (f, must_detect) in curves.items():
        fan = trop_hypersurface(f, TRIV)
        rays = [d.vector for d in local_cone_at_infinity(fan).radial().rays()]
        cloud = amoeba_sample(f, s_grid, 16)
        res = log_limit_directions(cloud, min_radius=15.0, angle_bins=72)
        assert res.directions, name
        near, total = 0, 0
        for (ux, uy), count in res.directions:
            best = min(_angle_deg((ux, uy), r) for r in rays)
            assert best <= 5.0, f"{name}: bin direction {best:.2f} deg off"
            near += 1
            total += 1
        assert near / total >= 0.95
        for target in must_detect:
            assert any(_angle_deg((ux, uy), target) <= 5.0
                       for (ux, uy), _ in res.directions), \
                f"{name}: expected ray {target} not detected"
    elapsed = done()
    report(8, True, f"all binned directions within 5 deg of recession rays, "
                    f"every reachable ray detected ({elapsed:.2f}s < 60s)")


def test_criterion_9_determinism():
    jobs = [
        {"version": 1, "command": "trop", "payload": {
            "rank": 2,
            "generators": [{"terms": [{"exp": [1, 0], "coef": 1},
                                      {"exp": [0, 1], "coef": 1},
                                      {"exp": [0, 0], "coef": 1}]}],
            "valuation": {"kind": "trivial"}}},
        {"version": 1, "command": "sigma", "payload": {
            "module": {"mode": "scalar", "rhos": ["6"]}}},
        {"version": 1, "command": "group", "payload": {
            "module": {"mode": "scalar", "rhos": ["2", "3"]}, "fpm": [2]}},
        {"version": 1, "command": "dyn", "payload": {
            "rank": 2, "matrix": [[{"terms": [{"exp": [1, 0], "coef": 1},
                                              {"exp": [0, 1], "coef": 1}]}]],
            "chi": ["1", "1"]}},
        {"version": 1, "command": "h2", "payload": {
            "p": 2, "support_at_zero": {"k": 0, "j_max": 4}, "push": {}}},
        {"version": 1, "command": "amoeba", "payload": {
            "poly": {"terms": [{"exp": [0, 1], "coef": 1},
                               {"exp": [1, 0], "coef": -6}]},
            "s_grid": [-18.0, -9.0, 0.0, 9.0, 18.0], "angles": 8,
            "min_radius": 12.0, "angle_bins": 36}},
    ]
    single = [canonical_json(run_job(j)) for j in jobs]
    rerun = [canonical_json(run_job(j)) for j in jobs]
    assert single == rerun, "reruns must be byte-identical"
    report(9, True, f"{len(jobs)} job documents byte-identical across reruns")
