import math
import random
from fractions import Fraction
from itertools import product

import pytest

from sigmatrop.polyhedra import (balanceable_at, local_cone_at_infinity,
                                 local_cone_at_origin, pure_dimension)
from sigmatrop.rings import (GF, QQ, ZZ, Character, DimensionError, Direction, LaurentPoly,
                             chi_value)
from sigmatrop.tropical import (amoeba_sample, global_tropical_Z,
                                log_limit_directions, trop_hypersurface,
                                trop_prevariety)
from sigmatrop.valuations import PAdicValuation, TrivialValuation

from test_cone_kernels import as_fractions

X = LaurentPoly.monomial
TRIV = TrivialValuation()


def min_attained_twice(f, v, chi):
    """Independent oracle: does the valuated minimum tie at chi?"""
    vals = [v.value(Fraction(c)) + chi_value(chi, g) for g, c in f.terms.items()]
    m = min(vals)
    return sum(1 for x in vals if x == m) >= 2


def rational_grid(rank, height):
    """All rational characters with |numerator|, denominator <= height."""
    scalars = sorted({Fraction(a, b) for a in range(-height, height + 1)
                      for b in range(1, height + 1)})
    return [Character(vals) for vals in product(scalars, repeat=rank)]


def tropical_line():
    return X((1, 0)) + X((0, 1)) + X((0, 0))


def test_tropical_line_rays():
    fan = trop_hypersurface(tropical_line(), TRIV)
    rays = fan.radial().rays()
    assert [d.vector for d in rays] == [(-1, -1), (0, 1), (1, 0)]


def test_tropical_line_against_grid_oracle():
    f = tropical_line()
    fan = trop_hypersurface(f, TRIV)
    for chi in rational_grid(2, 3):
        assert fan.contains(chi.values) == min_attained_twice(f, TRIV, chi)


def test_hypersurface_examples_padic():
    f = X((1,)) - X((0,), 6)
    fan2 = trop_hypersurface(f, PAdicValuation(2))
    assert fan2.contains((1,)) and not fan2.contains((0,)) and not fan2.contains((2,))
    fan0 = trop_hypersurface(f, TRIV)
    assert fan0.contains((0,)) and not fan0.contains((1,))


def test_hypersurface_units_and_errors():
    assert trop_hypersurface(X((3, -2), 5), TRIV).is_empty
    with pytest.raises(ValueError):
        trop_hypersurface(LaurentPoly.zero(2), TRIV)


def test_random_hypersurfaces_against_oracle():
    rng = random.Random(17)
    vals = [TRIV, PAdicValuation(2), PAdicValuation(3)]
    grid = rational_grid(2, 2)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(2, 6)):
            g = (rng.randint(-2, 2), rng.randint(-2, 2))
            c = rng.choice([-6, -4, -1, 1, 2, 3, 9, 12])
            terms[g] = c
        f = LaurentPoly(2, ZZ, terms)
        if len(f.terms) < 2:
            continue
        v = rng.choice(vals)
        fan = trop_hypersurface(f, v)
        for chi in grid:
            assert fan.contains(chi.values) == min_attained_twice(f, v, chi)


def test_hypersurface_pure_dimension_and_balancing():
    f = tropical_line()
    fan = trop_hypersurface(f, TRIV)
    assert pure_dimension(fan) == 1
    assert balanceable_at(fan, (0, 0))
    # a face point in the interior of a ray
    assert balanceable_at(fan, (2, 0))

    g = X((2, 0)) + X((0, 3)) + X((1, 1)) + X((0, 0))
    fan_g = trop_hypersurface(g, TRIV)
    assert pure_dimension(fan_g) == 1
    for piece in fan_g.pieces:
        pt = as_fractions(piece.feasible_point())
        assert balanceable_at(fan_g, pt)


def test_prevariety_examples():
    f = tropical_line()
    g = X((1, 0)) - X((0, 1))
    single = trop_prevariety([X((1,)) - X((0,), 6)], TRIV)
    assert single.set_eq(trop_hypersurface(X((1,)) - X((0,), 6), TRIV))

    both = trop_prevariety([f, g], TRIV)
    # the diagonal ray towards (-1,-1), including the origin
    assert both.contains((0, 0)) and both.contains((-2, -2))
    assert not both.contains((1, 1)) and not both.contains((-1, 0))

    with_unit = trop_prevariety([f, X((1, 1), 3)], TRIV)
    assert with_unit.is_empty


def test_prevariety_guards():
    f = tropical_line()
    h = X((1,)) - X((0,), 6)
    with pytest.raises(DimensionError):
        trop_prevariety([f, h], TRIV)
    with pytest.raises(ValueError):
        trop_prevariety([], TRIV)


def test_global_tropical_examples():
    f = X((1,)) - X((0,), 6)
    fan = global_tropical_Z(f)
    assert fan.contains((0,)) and fan.contains((1,))
    assert not fan.contains((2,)) and not fan.contains((-1,))

    g = X((1, 0), 2) - X((0, 1))
    fan_g = global_tropical_Z(g)
    assert fan_g.contains((0, 0)) and fan_g.contains((3, 3))      # trivial line
    assert fan_g.contains((0, 1)) and fan_g.contains((2, 3))      # shifted 2-adic line
    assert not fan_g.contains((0, 2)) and not fan_g.contains((1, 0))

    unit = global_tropical_Z(X((1,)) - X((0,)))
    assert unit.contains((0,)) and not unit.contains((1,)) and not unit.contains((-1,))


def test_padic_recession_matches_trivial_fan():
    # LC_infty(Delta^{v_p}) = Delta^0 and LC_0(Delta^{v_p}) empty for x - m
    for m, p in ((2, 2), (3, 3), (4, 2), (5, 5), (8, 2), (9, 3)):
        f = X((1,)) - X((0,), m)
        padic = trop_hypersurface(f, PAdicValuation(p))
        triv = trop_hypersurface(f, TRIV)
        assert local_cone_at_infinity(padic).set_eq(triv)
        assert local_cone_at_origin(padic).is_empty


def test_amoeba_diagonal():
    f = X((0, 1)) - X((1, 0))  # y = x
    cloud = amoeba_sample(f, [-3.0, 0.0, 3.0], 8)
    assert cloud.dropped == 0
    for s, lny in cloud.points:
        assert abs(lny - s) < 1e-9


def test_amoeba_constant_root():
    f = X((0, 1)) - X((0, 0), 6)  # y = 6 regardless of x
    cloud = amoeba_sample(f, [1.0, 2.0], 4)
    for _, lny in cloud.points:
        assert abs(lny - math.log(6)) < 1e-9


def test_amoeba_line_large_s():
    # x + y + 1 is linear in y: one root, |y| ~ |x| for large |x|
    f = tropical_line()
    cloud = amoeba_sample(f, [10.0], 8)
    assert all(abs(lny - 10.0) < 1e-3 for _, lny in cloud.points)
    cloud = amoeba_sample(f, [-10.0], 8)
    assert all(abs(lny) < 1e-3 for _, lny in cloud.points)


def test_amoeba_guards():
    with pytest.raises(ValueError):
        amoeba_sample(X((1, 0)) - X((0, 0), 2), [1.0], 4)  # y-degree 0
    with pytest.raises(Exception):
        amoeba_sample(X((1,)) - X((0,)), [1.0], 4)         # rank 1


def _angle(u, v):
    dot = u[0] * v[0] + u[1] * v[1]
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    return math.degrees(math.acos(max(-1.0, min(1.0, dot / (nu * nv)))))


def test_log_limit_directions_against_recession_rays():
    cases = [
        tropical_line(),
        X((0, 1)) - X((1, 0), 6),
        X((1, 0), 2) - X((0, 1)),
    ]
    for f in cases:
        fan = trop_hypersurface(f, TRIV)
        rays = [d.vector for d in local_cone_at_infinity(fan).radial().rays()]
        s_grid = [x / 2.0 for x in range(-40, 41)]
        cloud = amoeba_sample(f, s_grid, 16)
        res = log_limit_directions(cloud, min_radius=15.0, angle_bins=72)
        assert res.directions, f"no far directions for {f}"
        for (ux, uy), _count in res.directions:
            best = min(_angle((ux, uy), r) for r in rays)
            assert best <= 5.0, f"direction ({ux},{uy}) is {best} deg from rays of {f}"


def test_log_limit_empty_far_set():
    f = X((0, 1)) - X((1, 0))
    cloud = amoeba_sample(f, [0.5], 4)
    res = log_limit_directions(cloud, min_radius=10.0, angle_bins=16)
    assert res.no_far_points and res.directions == []
    # an empty cloud has no far points
    res = log_limit_directions(amoeba_sample(f, [], 4), 1.0, 4)
    assert res.no_far_points and res.directions == []


def test_padic_hypersurface_full_height_grid():
    # exhaustive oracle agreement on the full height-8 rational grid
    f = X((0, 1)) - X((1, 0), 6)
    v = PAdicValuation(2)
    fan = trop_hypersurface(f, v)
    for chi in rational_grid(2, 8):
        assert fan.contains(chi.values) == min_attained_twice(f, v, chi)
