import itertools
import random
from fractions import Fraction

import pytest

from sigmatrop import linalg
from sigmatrop.rings import Character, DimensionError, Direction
from sigmatrop.polyhedra import (Polyhedron, PolyhedralSet, SphericalSet,
                                 _project_out_last,
                                 balanceable_at, has_antipodal_pair,
                                 in_open_hemisphere, local_cone_at_infinity,
                                 local_cone_at_origin, pure_dimension, ray_cone)

from test_cone_kernels import as_fractions


def halfplane(rank, normal, strict=False):
    return (Polyhedron.cone(rank, gt=[normal]) if strict
            else Polyhedron.cone(rank, ge=[normal]))


def test_cone_membership_examples():
    c1 = halfplane(2, (1, 0))
    assert c1.contains(Character.of(1, 5).values)
    c2 = halfplane(2, (1, 0), strict=True)
    assert not c2.contains(Character.of(0, 1).values)
    c3 = Polyhedron.cone(2, eq=[(1, -1)])
    assert c3.contains(Character.of(2, 2).values)


def test_feasibility_with_strict_rows():
    p = Polyhedron(1, ge=[((1,), 0)], gt=[((-1,), 0)])  # u >= 0 and u < 0
    assert p.is_empty
    q = Polyhedron(1, gt=[((1,), 0), ((-1,), -1)])      # 0 < u < 1
    pt = as_fractions(q.feasible_point())
    assert 0 < pt[0] < 1
    r = Polyhedron(2, eq=[((1, 1), 1)], gt=[((1, -1), 0)])
    pt = as_fractions(r.feasible_point())
    assert pt[0] + pt[1] == 1 and pt[0] > pt[1]


def test_dim_and_has_direction():
    assert Polyhedron.full(3).dim() == 3
    line = Polyhedron.cone(2, eq=[(0, 1)])
    assert line.dim() == 1
    origin = Polyhedron.cone(2, eq=[(1, 0), (0, 1)])
    assert origin.dim() == 0
    assert not origin.has_direction()
    assert line.has_direction()
    # implicit equality: u1 >= 0, -u1 >= 0 collapses a dimension
    implicit = Polyhedron.cone(2, ge=[(1, 0), (-1, 0)])
    assert implicit.dim() == 1


def test_rays_examples():
    quad = Polyhedron.cone(2, ge=[(1, 0), (0, 1)])
    assert quad.rays() == [(0, 1), (1, 0)]
    halfdiag = Polyhedron(2, eq=[((1, -1), 0)], ge=[((-1, 0), 0)])
    assert halfdiag.rays() == [(-1, -1)]
    full = Polyhedron.full(2)
    assert full.rays() == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_rays_guard():
    with pytest.raises(ValueError):
        Polyhedron.full(7).rays()
    with pytest.raises(ValueError):
        Polyhedron(1, ge=[((1,), 1)]).rays()


def test_ray_cone_membership():
    r = ray_cone(Direction.of(2, 3))
    assert r.contains((2, 3)) and r.contains((4, 6))
    assert not r.contains((-2, -3)) and not r.contains((0, 0))
    assert not r.contains((2, 4))


def test_ray_cone_is_the_parallel_test():
    # u is on the ray iff every 2x2 minor of (u ; d) vanishes and u * d > 0
    rng = random.Random(3)
    for rank in (3, 4):
        for _ in range(12):
            d = [rng.randint(-2, 2) for _ in range(rank)]
            d[rng.randrange(rank)] = 0
            if not any(d):
                continue
            cone = ray_cone(Direction.from_vector(d))
            assert len(cone.eq) == rank - 1
            for u in itertools.chain(itertools.product(range(-2, 3), repeat=rank),
                                     [tuple(3 * x for x in d)]):
                parallel = all(u[i] * d[j] == u[j] * d[i]
                               for i, j in itertools.combinations(range(rank), 2))
                on_ray = parallel and sum(a * b for a, b in zip(u, d)) > 0
                assert cone.contains(u) == on_ray, (d, u)


def test_local_cone_at_origin_examples():
    point = PolyhedralSet(1, [Polyhedron(1, eq=[((1,), 1)])])
    assert local_cone_at_origin(point).is_empty

    ray = PolyhedralSet(1, [Polyhedron(1, ge=[((1,), 0)])])
    lc = local_cone_at_origin(ray)
    assert lc.set_eq(ray)

    seg = PolyhedralSet(2, [Polyhedron(2, eq=[((0, 1), 0)],
                                       ge=[((1, 0), 1), ((-1, 0), -2)])])
    assert local_cone_at_origin(seg).is_empty


def test_local_cone_at_origin_fixes_conical_sets():
    rng = random.Random(3)
    for _ in range(20):
        rank = rng.randint(1, 3)
        pieces = []
        for _ in range(rng.randint(1, 3)):
            normals = [tuple(rng.randint(-2, 2) for _ in range(rank))
                       for _ in range(rng.randint(0, 3))]
            pieces.append(Polyhedron.cone(rank, ge=normals))
        fan = PolyhedralSet(rank, pieces).pruned()
        assert local_cone_at_origin(fan).set_eq(fan)


def test_local_cone_at_infinity_examples():
    point = PolyhedralSet(1, [Polyhedron(1, eq=[((1,), 1)])])
    rec = local_cone_at_infinity(point)
    assert not rec.is_empty
    assert rec.contains((0,)) and not rec.contains((1,)) and not rec.contains((-1,))

    halfline = PolyhedralSet(1, [Polyhedron(1, ge=[((1,), 1)])])
    rec = local_cone_at_infinity(halfline)
    assert rec.set_eq(PolyhedralSet(1, [Polyhedron.cone(1, ge=[(1,)])]))

    affine_line = PolyhedralSet(2, [Polyhedron(2, eq=[((0, 1), 1)])])
    rec = local_cone_at_infinity(affine_line)
    assert rec.set_eq(PolyhedralSet(2, [Polyhedron.cone(2, eq=[(0, 1)])]))


def test_recession_idempotent():
    rng = random.Random(9)
    for _ in range(20):
        rank = rng.randint(1, 3)
        pieces = []
        for _ in range(rng.randint(1, 3)):
            rows = [(tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))]
            pieces.append(Polyhedron(rank, ge=rows))
        fan = PolyhedralSet(rank, pieces).pruned()
        once = local_cone_at_infinity(fan)
        assert local_cone_at_infinity(once).set_eq(once)


def test_in_open_hemisphere_examples():
    res = in_open_hemisphere([Direction.of(1, 0), Direction.of(0, 1)])
    assert res.in_hemisphere

    res = in_open_hemisphere([Direction.of(1, 0), Direction.of(-1, 0)])
    assert not res.in_hemisphere
    assert res.combination == (Fraction(1, 2), Fraction(1, 2))

    res = in_open_hemisphere([Direction.of(1, 0), Direction.of(0, 1),
                              Direction.of(-1, -1)])
    assert not res.in_hemisphere
    assert res.combination == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_in_open_hemisphere_refuses_directions_of_mixed_length():
    for dirs in ([(1, 0), (-1,)], [(1,), (-1, 5)]):
        with pytest.raises(DimensionError):
            in_open_hemisphere(dirs)


def test_antipodal_pair_examples():
    two_points = SphericalSet.from_directions([Direction.of(1, 0), Direction.of(0, 1)])
    assert not has_antipodal_pair(two_points)
    assert has_antipodal_pair(SphericalSet.full(1))
    assert not has_antipodal_pair(SphericalSet.empty(2))
    pair = SphericalSet.from_directions([Direction.of(1,), Direction.of(-1,)])
    assert has_antipodal_pair(pair)

    # emptied by the row 0 > 0, which Polyhedron drops; its antipode stays empty
    assert Polyhedron.cone(1, gt=[(0,)]).negate().is_empty

    def ordered_pairs_reference(s):
        return any(p.intersect(q.negate()).has_direction()
                   for p in s.pieces for q in s.pieces)

    def rows(rng, rank, k):
        return [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(k)]

    rng = random.Random(229)
    answers = []
    for _ in range(60):
        rank = rng.randint(1, 3)
        s = SphericalSet(rank, [
            Polyhedron.cone(rank, eq=rows(rng, rank, rng.randint(0, 1)),
                            ge=rows(rng, rank, rng.randint(0, 2)),
                            gt=rows(rng, rank, rng.randint(0, 2)))
            for _ in range(rng.randint(1, 4))])
        answers.append(has_antipodal_pair(s))
        assert answers[-1] == ordered_pairs_reference(s)
    assert 10 < sum(answers) < 50


def test_balanceable_examples():
    tropical_line = PolyhedralSet(2, [
        Polyhedron(2, eq=[((1, -1), 0)], ge=[((-1, 0), 0)]),
        Polyhedron(2, eq=[((1, 0), 0)], ge=[((0, 1), 0)]),
        Polyhedron(2, eq=[((0, 1), 0)], ge=[((1, 0), 0)]),
    ])
    assert balanceable_at(tropical_line, (0, 0))

    single_ray = PolyhedralSet(2, [Polyhedron.cone(2, eq=[(0, 1)], ge=[(1, 0)])])
    assert not balanceable_at(single_ray, (0, 0))

    line = PolyhedralSet(2, [Polyhedron.cone(2, eq=[(0, 1)])])
    assert balanceable_at(line, (0, 0))

    with pytest.raises(ValueError):
        balanceable_at(line, (0, 5))


def test_pure_dimension_examples():
    tropical_line = PolyhedralSet(2, [
        Polyhedron(2, eq=[((1, -1), 0)], ge=[((-1, 0), 0)]),
        Polyhedron(2, eq=[((1, 0), 0)], ge=[((0, 1), 0)]),
        Polyhedron(2, eq=[((0, 1), 0)], ge=[((1, 0), 0)]),
    ])
    assert pure_dimension(tropical_line) == 1

    mixed = PolyhedralSet(2, [
        Polyhedron.cone(2, ge=[(1, 0), (0, 1)]),
        Polyhedron.cone(2, eq=[(1, 1)], ge=[(1, -1)]),
    ])
    assert pure_dimension(mixed) is None

    origin = PolyhedralSet(2, [Polyhedron.cone(2, eq=[(1, 0), (0, 1)])])
    assert pure_dimension(origin) == 0
    assert pure_dimension(PolyhedralSet.empty(2)) is None
    # faces contained in larger pieces do not break purity
    with_face = PolyhedralSet(2, [
        Polyhedron.cone(2, ge=[(1, 0), (0, 1)]),
        Polyhedron.cone(2, eq=[(0, 1)], ge=[(1, 0)]),
    ])
    assert pure_dimension(with_face) == 2


def test_boolean_ops_and_radial():
    quad = PolyhedralSet(2, [Polyhedron.cone(2, ge=[(1, 0), (0, 1)])])
    comp = quad.complement()
    for pt in [(1, 1), (1, 0), (0, 0)]:
        assert quad.contains(pt) and not comp.contains(pt)
    for pt in [(-1, 1), (1, -1), (-2, -3)]:
        assert comp.contains(pt) and not quad.contains(pt)
    assert quad.union(comp).set_eq(PolyhedralSet.full(2))
    assert quad.intersect(comp).is_empty

    shifted = PolyhedralSet(2, [Polyhedron(2, ge=[((1, 0), 1)], eq=[((0, 1), 2)])])
    sph = shifted.radial()
    assert sph.contains(Direction.of(1, 2))
    assert sph.contains(Direction.of(2, 1))
    assert not sph.contains(Direction.of(-1, 2))
    assert not sph.contains(Direction.of(0, -1))
    # u2 = 2 with u1 >= 1: direction (0,1) only as a limit, never attained
    assert not sph.contains(Direction.of(0, 1))


def test_spherical_scale_invariance():
    rng = random.Random(21)
    quad = SphericalSet(2, [Polyhedron.cone(2, ge=[(1, 2), (2, -1)], gt=[(1, 0)])])
    for _ in range(50):
        vec = (rng.randint(-5, 5), rng.randint(-5, 5))
        if vec == (0, 0):
            continue
        d = Direction.of(*vec)
        for k in (1, 2, 5):
            scaled = Direction.from_vector(tuple(k * x for x in d.vector))
            assert quad.contains(d) == quad.contains(scaled)


def test_finite_directions():
    s = SphericalSet.from_directions([Direction.of(1, 0), Direction.of(0, 1)])
    assert [d.vector for d in s.finite_directions] == [(0, 1), (1, 0)]
    assert SphericalSet.full(2).finite_directions is None
    line = SphericalSet(1, [Polyhedron.full(1)])
    assert [d.vector for d in line.finite_directions] == [(-1,), (1,)]


def test_finite_directions_of_rays_half_lines_and_lines():
    """Every ray of a piece's closure is in the piece: an open ray holds d,
    a closed half-line d, a line d and -d, and {0} has no ray."""
    rng = random.Random(29)
    kinds = set()
    for _ in range(120):
        rank = rng.randint(1, 4)
        pieces, want = [], set()
        for _ in range(rng.randint(1, 4)):
            vec = [rng.randint(-3, 3) for _ in range(rank)]
            if not any(vec):
                vec[rng.randrange(rank)] = rng.choice((-1, 1))
            d = Direction.from_vector(vec)
            kernel = linalg.nullspace([d.vector], rank)
            kind = rng.choice(("ray", "half-line", "line", "origin"))
            if kind == "ray":
                piece, rays = ray_cone(d), {d}
            elif kind == "half-line":
                piece, rays = Polyhedron.cone(rank, eq=kernel, ge=[d.vector]), {d}
            elif kind == "line":
                piece, rays = Polyhedron.cone(rank, eq=kernel), {d, -d}
            else:
                piece, rays = Polyhedron.cone(rank, eq=kernel + [d.vector]), set()
            assert {Direction(r) for r in piece.rays()} == rays, kind
            assert all(piece.contains(r.vector) for r in rays), kind
            pieces.append(piece)
            want |= rays
            kinds.add(kind)
        s = SphericalSet(rank, pieces)
        assert s.finite_directions == tuple(sorted(want, key=lambda d: d.vector))
        assert all(s.contains(d) for d in s.finite_directions)
    assert kinds == {"ray", "half-line", "line", "origin"}


def test_feasible_point_prefers_strict_bounds():
    # y >= 0, y <= 1 - x, y < 2 - 2x: feasible, but the extracted point must
    # honor the strict row even when two upper bounds evaluate equally
    p = Polyhedron(2, ge=[((0, 1), 0), ((-1, -1), -1)], gt=[((-2, -1), -2)])
    pt = p.feasible_point()
    assert pt is not None
    assert p.contains(as_fractions(pt))
    # the same with the strict row rewritten to tie exactly at x = 1
    q = Polyhedron(2, ge=[((0, 1), 0), ((-1, -1), -1)], gt=[((-1, -1), -1)])
    pt_q = q.feasible_point()
    assert pt_q is not None and q.contains(as_fractions(pt_q))


def test_feasible_points_always_contained():
    rng = random.Random(77)
    found = 0
    for _ in range(300):
        rank = rng.randint(1, 4)
        rows = lambda k: [
            (tuple(rng.randint(-3, 3) for _ in range(rank)), rng.randint(-2, 2))
            for _ in range(k)]
        p = Polyhedron(rank, eq=rows(rng.randint(0, 1)),
                       ge=rows(rng.randint(0, 3)), gt=rows(rng.randint(0, 2)))
        pt = p.feasible_point()
        if pt is not None:
            found += 1
            assert p.contains(as_fractions(pt))
    assert found > 50


def emptied_polyhedra():
    # emptied by a constant row no point meets: 0 > 0, then 0 = 1
    return (Polyhedron(2, ge=[((1, 0), 0)], gt=[((0, 0), 0)]),
            Polyhedron(3, eq=[((0, 0, 0), 1)], ge=[((0, 1, 1), 2)]))


@pytest.mark.parametrize("transform", [
    lambda p: Polyhedron(p.rank, eq=p.eq, ge=p.ge + p.gt),
    lambda p: _project_out_last(list(p.eq), p._ineq_rows(), p.rank),
    Polyhedron.negate,
    Polyhedron.positive_hull, Polyhedron.recession,
    lambda p: p.intersect(Polyhedron.full(p.rank)),
    lambda p: Polyhedron.full(p.rank).intersect(p),
], ids=["closure", "project_out_last", "negate", "positive_hull", "recession",
        "intersect_full", "full_intersect"])
def test_transforms_keep_a_forced_empty_polyhedron_empty(transform):
    for p in emptied_polyhedra():
        assert p.is_empty
        assert transform(p).is_empty


def test_an_emptied_polyhedron_has_no_direction_germ_or_complement():
    for p in emptied_polyhedra():
        assert not p.has_direction()
        assert p.germ_cone_at([0] * p.rank) is None
        full = PolyhedralSet.full(p.rank)
        assert PolyhedralSet(p.rank, [p]).complement().set_eq(full)


def test_constant_rows_empty_to_one_canonical_polyhedron():
    emptied = [Polyhedron(2, gt=[((0, 0), 0)]),
               Polyhedron(2, ge=[((1, 0), 0), ((0, 0), 3)]),
               Polyhedron(2, eq=[((0, 0), -1), ((1, 1), 2)]),
               Polyhedron.cone(2, ge=[(1, 0)], gt=[(0, 0)])]
    for p in emptied:
        assert p == Polyhedron.empty(2) and hash(p) == hash(Polyhedron.empty(2))
        assert p.is_empty and p.feasible_point() is None
    assert len(PolyhedralSet(2, emptied).pieces) == 1
