import math
import random
from fractions import Fraction

import pytest

from sigmatrop import cli
from sigmatrop.dynamics import (INF, PushMap, check_angle_bound, gsh,
                                lambda_of_push_estimate, norm, sigma_of_push)
from sigmatrop.rings import (ZZ, Character, DimensionError, Direction, LaurentPoly,
                             chi_value)

from reference_dynamics import (poly_matrix_mul, reference_compose_gsh_check,
                                reference_orbit)

X = LaurentPoly.monomial


def mult_by(terms, rank=1):
    return PushMap.of([[LaurentPoly(rank, ZZ, terms)]])


def rand_push(rng, rank, size=1, max_terms=4):
    entries = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(rng.randint(0, max_terms)):
                g = tuple(rng.randint(-3, 3) for _ in range(rank))
                c = rng.randint(-4, 4)
                if c:
                    terms[g] = c
            row.append(LaurentPoly(rank, ZZ, terms))
        entries.append(row)
    return PushMap.of(entries)


def test_norm_examples():
    assert norm(mult_by({(1,): 1})) == (1, 1.0)
    phi = mult_by({(1, 0): 1, (0, 2): 1}, rank=2)
    assert norm(phi).squared == 4 and norm(phi).value == 2.0
    ident = PushMap.of([[LaurentPoly.one(1)]])
    assert norm(ident).squared == 0
    assert norm(PushMap.of([[LaurentPoly.zero(1)]])).squared == 0


def test_gsh_examples():
    assert gsh(mult_by({(1,): 1}), Character.of(1)) == 1
    assert gsh(mult_by({(1,): 1, (3,): 1}), Character.of(1)) == 1
    assert gsh(mult_by({(0,): 1, (-2,): -36}), Character.of(-1)) == 0
    assert gsh(PushMap.of([[LaurentPoly.zero(1)]]), Character.of(1)) == INF


def reference_gsh(phi, chi):
    """The guaranteed shift as the Fraction minimum of chi_value over the
    support monomials, as gsh computed it before its dot products became
    integers."""
    values = [chi_value(chi, g) for g in phi.support]
    return min(values) if values else INF


def test_gsh_matches_the_fraction_minimum():
    rng = random.Random(61)
    kinds = set()
    for _ in range(200):
        rank, size = rng.randint(1, 3), rng.randint(1, 3)
        phi = rand_push(rng, rank, size)
        if rng.random() < 0.25:  # zero columns, sometimes all of them
            zero = LaurentPoly.zero(rank)
            cols = {j for j in range(size) if rng.random() < 0.6}
            phi = PushMap.of([[zero if j in cols else e for j, e in enumerate(row)]
                              for row in phi.entries])
        chi = Character.of(*(Fraction(rng.randint(-6, 6), rng.randint(1, 12))
                             for _ in range(rank)))
        got, want = gsh(phi, chi), reference_gsh(phi, chi)
        assert got == want and type(got) is type(want), (phi, chi)
        kinds.add("inf" if want == INF else "int" if want.denominator == 1 else "frac")
    assert kinds == {"inf", "int", "frac"}


def test_sigma_of_push_examples():
    ray = sigma_of_push(mult_by({(1,): 1}))
    assert ray.contains((1,)) and not ray.contains((0,)) and not ray.contains((-1,))

    quad = sigma_of_push(mult_by({(1, 0): 1, (0, 1): 1}, rank=2))
    assert quad.contains((1, 1)) and not quad.contains((1, 0))

    blocked = sigma_of_push(mult_by({(0,): 1, (1,): 1}))
    assert blocked.is_empty


def test_sigma_of_push_matches_gsh_sign():
    rng = random.Random(97)
    pairs = 0
    while pairs < 200:
        rank = rng.randint(1, 3)
        phi = rand_push(rng, rank, size=rng.choice([1, 1, 2]))
        chi = Character(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(rank)))
        if chi.is_zero:
            continue
        pairs += 1
        cone = sigma_of_push(phi)
        val = gsh(phi, chi)
        assert cone.contains(chi.values) == (val != INF and val > 0 or val == INF
                                             and _total_empty(phi))


def _total_empty(phi):
    return not phi.support


def test_sigma_of_push_is_open():
    rng = random.Random(5)
    for _ in range(20):
        phi = rand_push(rng, 2)
        cone = sigma_of_push(phi)
        for piece in cone.pieces:
            assert not piece.ge and not piece.eq  # strict rows only


def test_lambda_estimate_examples():
    rep = lambda_of_push_estimate(mult_by({(1,): 1}), [LaurentPoly.one(1)], 6)
    assert not rep.died_out
    assert [d.vector for d in rep.directions] == [(1,)]

    rep2 = lambda_of_push_estimate(mult_by({(1, 0): 1, (0, 1): 1}, rank=2),
                                   [LaurentPoly.one(2)], 8)
    vecs = {d.vector for d in rep2.directions}
    assert (1, 0) in vecs and (0, 1) in vecs and (1, 1) in vecs

    rep3 = lambda_of_push_estimate(PushMap.of([[LaurentPoly.zero(1)]]),
                                   [LaurentPoly.one(1)], 4)
    assert rep3.died_out and rep3.steps == 1 and rep3.directions == []


def angle_bound(phi, chi, dirs):
    return check_angle_bound(chi, gsh(phi, chi), norm(phi).squared, dirs)


def test_angle_bound_examples():
    phi = mult_by({(1,): 1})
    rep = lambda_of_push_estimate(phi, [LaurentPoly.one(1)], 5)
    out = angle_bound(phi, Character.of(1), rep.directions)
    assert out.passed and out.bound_degrees == 0.0

    phi2 = mult_by({(1, 0): 1, (0, 1): 1}, rank=2)
    rep2 = lambda_of_push_estimate(phi2, [LaurentPoly.one(2)], 8)
    out2 = angle_bound(phi2, Character.of(1, 1), rep2.directions)
    assert out2.passed
    assert all(c.cos_ok_exact for c in out2.checks)

    fake = angle_bound(phi, Character.of(1), [Direction.of(-1)])
    assert not fake.passed

    with pytest.raises(ValueError):
        angle_bound(mult_by({(-1,): 1}), Character.of(1), [])


def test_angle_bound_passes_on_the_exact_test_alone():
    # x + xy towards chi = (1, 0): shift 1, norm sqrt 2, a 45 degree bound;
    # (10^6, 10^6 + 1) lies just outside it, within the float slack
    phi = mult_by({(1, 0): 1, (1, 1): 1}, rank=2)
    out = angle_bound(phi, Character.of(1, 0), [(10 ** 6, 10 ** 6 + 1)])
    (check,) = out.checks
    assert check.within_slack and not check.cos_ok_exact
    assert not out.passed
    assert angle_bound(phi, Character.of(1, 0), [(1, 1), (2, 1)]).passed


def test_compose_examples():
    x = mult_by({(1,): 1})
    xinv = mult_by({(-1,): 1})
    chi = Character.of(1)
    rep = reference_compose_gsh_check(x, x, chi)
    assert rep.passed and rep.gsh_composed == 2

    rep2 = reference_compose_gsh_check(mult_by({(1,): 1, (3,): 1}),
                                       mult_by({(1,): 1, (3,): 1}), chi)
    assert rep2.passed

    rep3 = reference_compose_gsh_check(x, xinv, chi)
    assert rep3.passed and rep3.gsh_composed == 0 and rep3.gsh_second == -1


def test_compose_superadditive_random():
    rng = random.Random(12)
    done = 0
    while done < 60:
        rank = rng.randint(1, 2)
        phi = rand_push(rng, rank)
        psi = rand_push(rng, rank)
        chi = Character(tuple(Fraction(rng.randint(-4, 4)) for _ in range(rank)))
        if chi.is_zero:
            continue
        done += 1
        assert reference_compose_gsh_check(phi, psi, chi, max_power=5).passed


def test_push_respects_module_sigma():
    from sigmatrop.sigma import ScalarAction, annihilates, sigma_of_module

    corpus = [ScalarAction.of(6), ScalarAction.of(2, 3)]
    for mod in corpus:
        result = sigma_of_module(mod)
        checked = 0
        for _piece, _cone, lam in result.certified:
            theta_plus = LaurentPoly.one(lam.rank) - lam
            # the push lifts the identity exactly when lam annihilates
            assert annihilates(LaurentPoly.one(lam.rank) - theta_plus, mod)
            cone = sigma_of_push(PushMap.of([[theta_plus]]))
            assert cone.radial().subset_of(result.proved_sigma)
            checked += 1
        assert checked >= 1


def test_poly_matrix_mul_checks_shapes():
    one, t = X((0,)), X((1,))
    assert poly_matrix_mul([[one, t]], [[t], [one]]) == [[t + t]]
    with pytest.raises(DimensionError):
        poly_matrix_mul([[one, t]], [[t, one]])


# exponent sets of the seeded maps; the large one keeps a small lattice of
# sums, so that supports grow as for small exponents while the frame is
# 10^6 wide
EXPONENTS = {"mixed": (-2, -1, 0, 1, 2), "negative": (-3, -2, -1),
             "positive": (1, 2, 3),
             "large": (-10 ** 6 - 1, -10 ** 6, -1, 0, 1, 10 ** 6, 10 ** 6 + 1)}


def seeded_entry(rng, rank, exps):
    terms = {}
    for _ in range(rng.randint(0, 2)):
        terms[tuple(rng.choice(exps) for _ in range(rank))] = rng.choice((-2, -1, 1, 3))
    return LaurentPoly(rank, ZZ, terms)


def seeded_map(rng, rank, size, exps, shape):
    """A push map of the given shape: "free" entries, "nilpotent" (zero on
    and below the diagonal, so every orbit dies out within size steps) or
    "cancel" (a row whose second entry is minus its first)."""
    rows = [[seeded_entry(rng, rank, exps) for _ in range(size)] for _ in range(size)]
    if shape == "nilpotent":
        rows = [[f if j > i else LaurentPoly.zero(rank) for j, f in enumerate(row)]
                for i, row in enumerate(rows)]
    elif shape == "cancel" and size > 1:
        row = rows[rng.randrange(size)]
        row[1] = -row[0]
    return PushMap.of(rows)


def seeded_start(rng, phi, exps, shape):
    """A start vector: the unit vector, random entries with zeros among
    them, or (for "cancel") equal first entries, whose images cancel."""
    if rng.random() < 0.3:
        return [LaurentPoly.one(phi.rank)] + [LaurentPoly.zero(phi.rank)] * (phi.size - 1)
    start = [seeded_entry(rng, phi.rank, exps) for _ in range(phi.size)]
    if shape == "cancel" and phi.size > 1:
        start[1] = start[0]
    return start


# the most iterations and powers the oracle takes fast, by rank
ITERS = {1: 32, 2: 12, 3: 6}
POWERS = {1: 20, 2: 10, 3: 5}


def seeded_cases(seed, count):
    rng = random.Random(seed)
    for n in range(count):
        rank, size = n % 3 + 1, n // 3 % 3 + 1
        kind = rng.choice(sorted(EXPONENTS))
        exps = EXPONENTS[kind]
        shape = ("free", "nilpotent", "cancel")[n // 9 % 3]
        yield rng, rank, size, exps, shape, (rank, size, kind, shape)


def test_orbit_matches_the_laurent_oracle():
    """Ranks and sizes 1-3, exponents of one sign, of both and near +-10^6,
    rows that cancel, orbits that die out, zero start entries and iters
    1-32: the framed orbit reports what the LaurentPoly orbit does."""
    seen = set()
    for rng, rank, size, exps, shape, case in seeded_cases(29, 270):
        phi = seeded_map(rng, rank, size, exps, shape)
        start = seeded_start(rng, phi, exps, shape)
        top = ITERS[rank] if exps is not EXPONENTS["large"] else 6
        for iters in {1, rng.randint(2, top), top}:
            want = reference_orbit(phi, start, iters)
            assert lambda_of_push_estimate(phi, start, iters) == want, (case, iters)
            seen.add("died" if want.died_out else "lived")
            seen.add(iters)
    assert {"died", "lived", 1, 32} <= seen


def test_orbit_iterates_32_times_on_a_wide_map():
    # x + y^-1 and a size-2 map: supports of hundreds of monomials at step 32
    phi = PushMap.of([[LaurentPoly(2, ZZ, {(1, 0): 1, (0, -1): -1}),
                       LaurentPoly(2, ZZ, {(-1, 1): 2})],
                      [LaurentPoly(2, ZZ, {(0, 0): 1}),
                       LaurentPoly(2, ZZ, {(1, 1): 1, (-1, 0): 1})]])
    start = [LaurentPoly(2, ZZ, {(10 ** 6, -3): 1}), LaurentPoly.zero(2)]
    got = lambda_of_push_estimate(phi, start, 32)
    assert got == reference_orbit(phi, start, 32) and len(got.directions) > 100


def dyn_job(phi, chi, **keys):
    matrix = [[{"terms": [{"exp": list(g), "coef": c} for g, c in sorted(f.terms.items())]}
               for f in row] for row in phi.entries]
    return cli.run({"version": 1, "command": "dyn", "payload": {
        "rank": phi.rank, "matrix": matrix, "chi": [str(v) for v in chi.values],
        **keys}})["result"]


def test_compose_theorem_holds_on_the_laurent_oracle():
    """The same maps against a second map psi or phi itself, chi of any
    sign, powers 1-20 and zero maps, whose shift is +inf: the LaurentPoly
    products are superadditive, as `dyn` states without building them, and
    `dyn` prints phi's shift and the three true flags."""
    seen = set()
    for rng, rank, size, exps, shape, case in seeded_cases(31, 270):
        phi = seeded_map(rng, rank, size, exps, shape)
        psi = phi if rng.random() < 0.4 else seeded_map(rng, rank, size, exps, shape)
        if rng.random() < 0.1:
            phi = PushMap.of([[LaurentPoly.zero(rank)] * size] * size)
        chi = Character(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(rank)))
        top = POWERS[rank] if exps is not EXPONENTS["large"] else 4
        for powers in {1, 2, rng.randint(3, top), top}:
            rep = reference_compose_gsh_check(phi, psi, chi, powers)
            assert rep.passed and rep.gsh_first == gsh(phi, chi), (case, powers)
            seen.add("inf" if rep.gsh_first == INF else "psi" if psi is phi else "phi")
            seen.add(powers)
        res = dyn_job(phi, chi, iters=1, powers=rng.randint(1, 20))
        g = gsh(phi, chi)
        assert res["gsh"] == ("inf" if g == INF else cli.frac_str(g)), case
        assert res["compose_check"] == {"additive_ok": True, "power_ok": True,
                                        "passed": True}, case
    assert {"inf", "psi", "phi", 1, 20} <= seen


def test_angle_bound_is_a_theorem_from_the_origin():
    """From the unit start, supported at the origin, every seeded map of
    rank and size 1-3 with a positive shift passes the angle bound: a
    monomial g of the k-th iterate has chi(g) >= k gsh and |g| <= k |phi|.
    From an offset start the bound can fail, so the check stays."""
    passed, failed, shapes = 0, 0, set()
    for rng, rank, size, exps, shape, case in seeded_cases(37, 540):
        phi = seeded_map(rng, rank, size, exps, shape)
        for _ in range(8):  # a chi with a positive shift, if one is drawn
            chi = Character(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in range(rank)))
            g = gsh(phi, chi)
            if g != INF and g > 0:
                break
        else:
            continue
        iters = rng.randint(1, ITERS[rank] if exps is not EXPONENTS["large"] else 6)
        unit = [LaurentPoly.one(rank)] + [LaurentPoly.zero(rank)] * (size - 1)
        offset = [seeded_entry(rng, rank, exps) for _ in range(size)]
        for start in (unit, offset):
            dirs = lambda_of_push_estimate(phi, start, iters).directions
            if not dirs:
                continue
            rep = angle_bound(phi, chi, dirs)
            if start is unit:
                assert rep.passed, (case, chi, iters)
                passed += 1
                shapes.add((rank, size))
            else:
                failed += not rep.passed
    assert passed >= 100 and len(shapes) == 9 and failed >= 1, (passed, failed)
