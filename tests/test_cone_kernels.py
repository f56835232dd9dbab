"""The integer cone kernels against the Fraction kernels they replaced.

The reference functions below are the earlier implementations, kept as the
oracle: `rref` (from reference_linalg), `ref_rank` and `ref_nullspace`
eliminate over Fractions, `ref_dim` probes every weak row, and `ref_rays`
tries every subset of weak normals of each size up to the one that can give
a line, one Fraction nullspace per subset.  The kernels must agree with them
exactly (kernels up to positive scaling), on random cones that include the
shapes where `rays()` prunes its depth-first walk: up to 2 rank weak
normals, dependent equalities, strict rows and a lineality space.  The
work-count tests pin how much less work the fan path does: `rays()` runs no
elimination unless the lineality space is nonzero, and `trop_hypersurface`
makes each row primitive once per ordered monomial pair, its pieces equal
to the per-pair constructor's.  `positive_hull()` is checked against the
projection of the lifted rank-(n + 1) cone it replaced, and the row
normalizers against themselves on the same row given as ints and as
Fractions.  The tests at the end check that a closed cone's origin point
is the point FM returns, and that the fan output's `spherical_rays()`
equals the `radial().rays()` it replaced.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from sigmatrop import linalg, polyhedra, tropical
from sigmatrop.cli import run
from sigmatrop.polyhedra import (RAY_RANK_LIMIT, PolyhedralSet, Polyhedron,
                                _project_out_last)
from sigmatrop.rings import GF, QQ, ZZ, LaurentPoly
from sigmatrop.tropical import global_tropical_Z, trop_hypersurface, trop_prevariety
from sigmatrop.valuations import PAdicValuation, TrivialValuation

from reference_linalg import rref


def ref_rank(mat):
    return len(rref(mat)[1]) if mat else 0


def ref_nullspace(mat):
    if not mat:
        return []
    n = len(mat[0])
    rows, pivots = rref(mat)
    basis = []
    for fc in [c for c in range(n) if c not in pivots]:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def ref_primitive(v):
    den = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def ref_dim(p):
    if p.is_empty:
        return None
    eqs = [list(v) for v, _ in p.eq]
    for vec, rhs in p.ge:
        probe = Polyhedron(p.rank, eq=p.eq, ge=p.ge, gt=p.gt + ((vec, rhs),))
        if probe.is_empty:
            eqs.append(list(vec))
    return p.rank - ref_rank(eqs)


def ref_rays(p):
    if p.is_empty:
        return []
    closure = Polyhedron(p.rank, eq=p.eq, ge=p.ge + p.gt)
    normals = [list(v) for v, _ in closure.eq + closure.ge]
    lin = ([ref_primitive(b) for b in ref_nullspace(normals)] if normals else
           [tuple(int(i == j) for j in range(p.rank)) for i in range(p.rank)])
    result = set()
    if lin:
        for l in lin:
            result.add(l)
            result.add(tuple(-x for x in l))
        pointed = Polyhedron(p.rank, eq=closure.eq + tuple((l, 0) for l in lin),
                             ge=closure.ge)
    else:
        pointed = closure
    eqs = [list(v) for v, _ in pointed.eq]
    normals = sorted({v for v, _ in pointed.ge})
    need = p.rank - 1 - ref_rank(eqs)
    for size in range(0, max(need, -1) + 1):
        for combo in combinations(normals, size):
            mat = eqs + [list(v) for v in combo]
            ns = (ref_nullspace(mat) if mat else
                  [[Fraction(int(i == j)) for j in range(p.rank)] for i in range(p.rank)])
            if len(ns) != 1:
                continue
            d = ref_primitive(ns[0])
            for cand in (d, tuple(-x for x in d)):
                if all(sum(a * b for a, b in zip(v, cand)) >= 0 for v in normals):
                    result.add(cand)
    return sorted(result)


def rand_vec(rng, rank, lo=-2, hi=2):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(rank))
        if any(v):
            return v


def rand_cone(rng, rank, n_eq, n_ge, n_gt=0, dependent=False):
    eq = [rand_vec(rng, rank) for _ in range(n_eq)]
    if dependent and len(eq) >= 2:
        eq.append(tuple(2 * a - b for a, b in zip(eq[0], eq[1])))
    return Polyhedron.cone(rank, eq=eq, ge=[rand_vec(rng, rank) for _ in range(n_ge)],
                           gt=[rand_vec(rng, rank) for _ in range(n_gt)])


def fresh(p):
    """The same rows with nothing cached."""
    return Polyhedron(p.rank, eq=p.eq, ge=p.ge, gt=p.gt)


def as_fractions(point):
    """The Fractions of an (integers, den) point, checking its form: den > 0
    and the gcd of den and the integers 1."""
    nums, den = point
    assert den > 0 and math.gcd(den, *nums) == 1, point
    return [Fraction(x, den) for x in nums]


def check_cone(p):
    want_dim = ref_dim(fresh(p))
    assert fresh(p).dim() == want_dim, p
    assert fresh(p).has_direction() == (want_dim is not None and want_dim >= 1), p
    assert fresh(p).rays() == ref_rays(fresh(p)), p
    return want_dim


def random_cones():
    rng = random.Random(9)
    for rank in range(2, RAY_RANK_LIMIT + 1):
        for _ in range(60):
            n_eq = rng.choice((0, 0, 1, 2))
            yield rand_cone(rng, rank, n_eq, rng.randint(0, rank + 1),
                            rng.choice((0, 0, 0, 1)), dependent=rng.random() < 0.3)
    # where rays() prunes: up to 2 rank weak normals, so that many subset
    # prefixes are dependent, with dependent equalities, strict rows, and a
    # lineality space from normals that all miss the last coordinate
    rng = random.Random(37)
    for rank in range(3, RAY_RANK_LIMIT + 1):
        for _ in range(6):
            yield rand_cone(rng, rank, rng.choice((0, 0, 1, 2)),
                            rng.randint(rank + 2, 2 * rank), rng.choice((0, 1)),
                            dependent=rng.random() < 0.5)
        for _ in range(3):
            n_eq, n_gt = rng.choice((0, 1)), rng.choice((0, 1))
            flat = [(*rand_vec(rng, rank - 1), 0)
                    for _ in range(n_eq + n_gt + rng.randint(rank, 2 * rank))]
            yield Polyhedron.cone(rank, eq=flat[:n_eq], gt=flat[n_eq:n_eq + n_gt],
                                  ge=flat[n_eq + n_gt:])


def test_kernels_match_the_references_on_random_cones():
    dims = set()
    for p in random_cones():
        dims.add((p.rank, check_cone(p)))
    # {0} cones, proper cones and whole spaces all came up in every rank
    for rank in range(2, RAY_RANK_LIMIT + 1):
        assert {(rank, 0), (rank, rank)} <= dims, rank


@pytest.mark.parametrize("p, dim, rays", [
    # {0}: the weak rows meet only at the origin (no lineality, one probe)
    (Polyhedron.cone(3, ge=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]), 0, []),
    # {0} from equalities alone
    (Polyhedron.cone(2, eq=[(1, 0), (0, 1)]), 0, []),
    # no weak rows: a line
    (Polyhedron.cone(3, eq=[(1, 0, 0), (0, 1, 1)]), 1, [(0, -1, 1), (0, 1, -1)]),
    # lineality: a half-space of rank 3 has a 2-dimensional lineality space
    (Polyhedron.cone(3, ge=[(1, 1, 0)]), 3,
     [(-1, 1, 0), (0, 0, -1), (0, 0, 1), (1, -1, 0), (1, 1, 0)]),
    # dependent equality rows: the third is the sum of the first two
    (Polyhedron.cone(4, eq=[(1, 0, 0, 1), (0, 1, 0, -1), (1, 1, 0, 0)],
                     ge=[(0, 0, 1, 0), (1, 0, 0, 0)]), 2,
     [(0, 0, 1, 0), (1, -1, 0, -1)]),
    # an implicit equality: u1 >= 0 and -u1 >= 0
    (Polyhedron.cone(2, ge=[(1, 0), (-1, 0), (0, 1)]), 1, [(0, 1)]),
    # rank 6 (RAY_RANK_LIMIT): the positive orthant
    (Polyhedron.cone(6, ge=[tuple(int(i == j) for j in range(6)) for i in range(6)]), 6,
     [tuple(int(i == j) for j in range(6)) for i in reversed(range(6))]),
])
def test_fixed_cones(p, dim, rays):
    assert check_cone(p) == dim
    assert p.rays() == rays


def test_rank_and_kernels_match_the_references():
    rng = random.Random(4)
    for _ in range(3000):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        den = rng.choice((1, 1, 6))
        mat = [[Fraction(rng.randint(-3, 3), rng.randint(1, den)) if rng.random() < 0.7
                else 0 for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            mat[-1] = [2 * a - b for a, b in zip(mat[0], mat[1])]
        assert linalg.rank(mat) == ref_rank(mat), mat
        got, want = linalg.nullspace(mat, n), ref_nullspace(mat)
        assert len(got) == len(want), mat
        for v, w in zip(got, want):
            assert all(type(x) is int for x in v) and math.gcd(*v) == 1, v
            # a positive multiple of the reference vector
            scale = next(Fraction(x) / y for x, y in zip(v, w) if y)
            assert scale > 0 and [scale * y for y in w] == list(v), (mat, v, w)


def test_echelon_is_the_scaled_rref():
    rng = random.Random(5)
    for _ in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        rows, pivots, den = linalg.echelon(mat)
        want, want_pivots = rref(mat)
        assert pivots == want_pivots
        for r in range(len(pivots)):
            assert [Fraction(x, den) for x in rows[r]] == want[r]


def test_positive_hull_keeps_a_point_of_the_piece():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        rank = rng.randint(1, 4)
        p = Polyhedron(rank, eq=[(rand_vec(rng, rank), rng.randint(-2, 2))
                                 for _ in range(rng.choice((0, 0, 1)))],
                       ge=[(rand_vec(rng, rank), rng.randint(-2, 2))
                           for _ in range(rng.randint(0, 4))],
                       gt=[(rand_vec(rng, rank), rng.randint(-2, 2))
                           for _ in range(rng.choice((0, 1)))])
        if p.is_empty or p.is_homogeneous:
            continue
        hull = p.positive_hull()
        assert hull.contains(as_fractions(hull.feasible_point()))
        want = fresh(hull).has_direction()
        assert hull.has_direction() == want
        seen.add(want)
    assert seen == {True, False}


def lifted_hull(p):
    """The construction positive_hull() replaced: the rank-(n + 1) cone over
    P, rows (a, -b) and mu > 0, with _project_out_last dropping mu."""
    def lift(rows):
        return [(tuple(v) + (-r,), 0) for v, r in rows]
    lifted = Polyhedron(p.rank + 1, eq=lift(p.eq), ge=lift(p.ge),
                        gt=lift(p.gt) + [((0,) * p.rank + (1,), 0)])
    return _project_out_last(list(lifted.eq), lifted._ineq_rows(), lifted.rank)


def test_positive_hull_is_the_projected_lifted_cone():
    rng = random.Random(19)
    seen = set()
    for _ in range(600):
        rank = rng.randint(1, 4)

        def rows(counts, affine=True):
            return [(rand_vec(rng, rank), rng.randint(-2, 2) if affine else 0)
                    for _ in range(rng.choice(counts))]
        eq = rows((0, 0, 1, 2), affine=rng.random() < 0.5)
        p = Polyhedron(rank, eq=eq, ge=rows((0, 1, 2, 3, 4)), gt=rows((0, 0, 1)))
        if p.is_empty or p.is_homogeneous:
            continue
        hull = p.positive_hull()
        assert hull == lifted_hull(p), p
        assert fresh(hull).rays() == ref_rays(fresh(hull)), p
        # an equality with b != 0 involves mu and is the pivot; otherwise
        # mu is eliminated by FM
        seen.add(("pivot" if any(r for _, r in p.eq) else
                  "fm, equalities" if p.eq else "fm", bool(p.gt),
                  fresh(hull).has_direction()))
    assert {kind for kind, _, _ in seen} == {"pivot", "fm, equalities", "fm"}
    assert {strict for _, strict, _ in seen} == {True, False}
    # some hulls were {0}: P was the origin cut out by affine rows
    assert {direction for _, _, direction in seen} == {True, False}


ROWS = [
    (3, -6, 9),       # a common factor
    (-2, 4, 0, 6),    # a negative lead with a common factor
    (0, -5, 7),       # a negative lead after a zero
    (0, 0, 0),        # the zero row
    (7,),             # one entry
    (1, 0, -1, 2),    # already primitive
]


@pytest.mark.parametrize("row", ROWS + [
    # rational entries, against their lcm-scaled int row
    (Fraction(1, 2), Fraction(-1, 3), 0),
    (Fraction(-4, 6), 2, Fraction(2, 9)),
])
def test_int_and_fraction_rows_normalize_alike(row):
    den = math.lcm(*(Fraction(x).denominator for x in row))
    ints = tuple(int(Fraction(x) * den) for x in row)
    fracs = tuple(Fraction(x) for x in row)
    for orient in (False, True):
        want = polyhedra._norm_row(ints[:-1], ints[-1], orient)
        for same in (row, fracs):
            got = polyhedra._norm_row(same[:-1], same[-1], orient)
            assert got == want and all(type(x) is int for x in got[0] + (got[1],))
    assert linalg.echelon([row]) == linalg.echelon([fracs]) == linalg.echelon([ints])


def test_int_and_fraction_matrices_echelon_alike():
    rng = random.Random(23)
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            mat[0] = [0] * n
        want = linalg.echelon([[Fraction(x) for x in row] for row in mat])
        got = linalg.echelon(mat)
        assert got == want, mat
        assert all(type(x) is int for row in got[0] for x in row)


def counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_rays_and_has_direction_call_no_fraction_kernel(monkeypatch):
    echelons = counting(monkeypatch, linalg, "echelon")
    dims = counting(monkeypatch, Polyhedron, "dim")
    seen = set()
    for p in list(random_cones())[::7]:
        lineal = not fresh(p).is_empty and bool(fresh(p).lineality_basis())
        before = len(echelons)
        fresh(p).rays()
        # every kernel is cut row by row with no elimination; only a nonzero
        # lineality space is asked of linalg, for its rref basis
        assert len(echelons) - before == lineal, p
        seen.add(lineal)
        fresh(p).has_direction()
    assert seen == {True, False}
    assert not dims
    assert not hasattr(linalg, "rref") and not hasattr(linalg, "det")


def poly(terms):
    return {"terms": [{"exp": list(e), "coef": c} for e, c in terms]}


# f = 1 + x1 - x2 + 2 x3 + 3 x4 + x1 x2 x3 x4; the Fraction kernels made 75
# FM solves on it
WORK_JOB = {"version": 1, "command": "trop", "payload": {
    "rank": 4, "valuation": {"kind": "trivial"},
    "generators": [poly([((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1), ((0, 1, 0, 0), -1),
                         ((0, 0, 1, 0), 2), ((0, 0, 0, 1), 3), ((1, 1, 1, 1), 1)])]}}


def test_trop_job_work_counts(monkeypatch):
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    doc = run(WORK_JOB)
    assert len(doc["result"]["fan"]["spherical_rays"]) == 8
    # every piece of a trivial-valuation fan is a closed cone
    assert not solves


def test_hypersurface_makes_each_row_primitive_once(monkeypatch):
    f = LaurentPoly(4, ZZ, {tuple(t["exp"]): t["coef"]
                            for t in WORK_JOB["payload"]["generators"][0]["terms"]})
    rows = counting(monkeypatch, polyhedra, "_norm_row")
    shared = counting(monkeypatch, tropical, "_norm_row")
    trop_hypersurface(f, TrivialValuation())
    # one row per ordered pair of the 6 monomials; one per pair and other
    # monomial, C(6, 2) * 5 = 75, when each piece normalized its own rows
    assert len(rows) + len(shared) == 30


def pair_pieces(f, v):
    """The nonempty pieces as the per-pair constructor builds them, in a
    PolyhedralSet, which keeps the first of equal pieces."""
    vals = {g: v.value(tropical._coeff_as_rational(f, g)) for g in f.terms}
    monos = sorted(vals)
    pieces = [Polyhedron(f.rank, eq=[(tuple(a - b for a, b in zip(g, h)), vals[h] - vals[g])],
                         ge=[(tuple(a - b for a, b in zip(k, g)), vals[g] - vals[k])
                             for k in monos if k != g and k != h])
              for i, g in enumerate(monos) for h in monos[i + 1:]]
    return PolyhedralSet(f.rank, [p for p in pieces if not p.is_empty]).pieces


def test_shared_row_pieces_are_the_per_pair_pieces():
    rng = random.Random(41)
    seen = set()
    for domain in (ZZ, QQ, GF(5)):
        for _ in range(12):
            rank = rng.randint(1, 4)
            terms = {}
            while len(terms) < rng.randint(2, 6):
                c = rng.choice((1, -1, 2, 3, 4, 6, 9, -12))  # none is 0 mod 5
                terms[tuple(rng.randint(-1, 2) for _ in range(rank))] = (
                    Fraction(c, rng.choice((1, 2, 3, 4))) if domain is QQ else c)
            f = LaurentPoly(rank, domain, terms)
            for v in (TrivialValuation(), PAdicValuation(2), PAdicValuation(3)):
                got = trop_hypersurface(f, v).pieces
                want = pair_pieces(f, v)
                assert [p._key() for p in got] == [p._key() for p in want], (f, v)
                assert [p.is_homogeneous for p in got] == [p.is_homogeneous for p in want]
                seen.update(p.is_homogeneous for p in got)
    assert seen == {True, False}




# f = 1 + 2 x1 + 3 x2 + 6 x3 + 4 x1 x2 x3: 10 monomial pairs, and the 2-adic
# and 3-adic valuations of its coefficients are both non-trivial
VALUED = [((0, 0, 0), 1), ((1, 0, 0), 2), ((0, 1, 0), 3), ((0, 0, 1), 6),
          ((1, 1, 1), 4)]


@pytest.mark.parametrize("valuation, want", [
    # the first pair's point is (-1, 0, -1), where all 5 monomials are
    # minimal, so it lies in every other pair's piece
    ({"kind": "p-adic", "p": 2}, 1),
    # the trivial hypersurface is free; one solve for 2 and three for 3
    ({"kind": "global-z"}, 4),
])
def test_valued_trop_job_solves_only_pairs_no_earlier_point_lies_in(
        monkeypatch, valuation, want):
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    doc = run({"version": 1, "command": "trop", "payload": {
        "rank": 3, "valuation": valuation, "generators": [poly(VALUED)]}})
    assert doc["result"]["fan"]["spherical_rays"]
    assert len(solves) == want


# ---------------------------------------------------------------------------
# A closed cone's feasible point is the origin, with no FM solve.


def closed_cones():
    rng = random.Random(11)
    for rank in range(1, 7):
        for _ in range(40):
            yield rand_cone(rng, rank, rng.choice((0, 0, 1, 2)), rng.randint(0, rank + 1),
                            dependent=rng.random() < 0.3)
        # a lineality space: fewer normals than the rank
        yield Polyhedron.cone(rank, ge=[rand_vec(rng, rank)])


def test_closed_cone_point_is_the_fm_point_without_a_solve(monkeypatch):
    cones = list(closed_cones())
    want = [polyhedra._solve_system(list(p.eq), p._ineq_rows(), p.rank) for p in cones]
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    for p, point in zip(cones, want):
        assert fresh(p).feasible_point() == point, p
    assert not solves
    assert any(p.eq for p in cones)
    assert any(p.lineality_basis() and p.ge for p in cones)


def test_forced_empty_closed_cone_has_no_point(monkeypatch):
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    # 0 > 0 empties the cone, which is then stored as the row 0 >= 1
    p = Polyhedron.cone(3, ge=[(1, 0, 0)], gt=[(0, 0, 0)])
    assert p == Polyhedron.empty(3)
    assert p.feasible_point() is None and p.is_empty
    assert not solves


@pytest.mark.parametrize("p", [
    Polyhedron.cone(2, ge=[(1, 0)], gt=[(0, 1)]),
    Polyhedron(2, ge=[((1, 0), 1), ((0, 1), 0)]),
    Polyhedron(3, eq=[((1, 1, 0), 2)], ge=[((0, 0, 1), 0)]),
])
def test_strict_or_affine_rows_still_solve(monkeypatch, p):
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    point = p.feasible_point()
    assert len(solves) == 1 and p.contains(as_fractions(point))


# ---------------------------------------------------------------------------
# spherical_rays() against the radial() path it replaces on the fan output.


def rand_poly(rng, rank, domain=ZZ):
    terms = {}
    while len(terms) < rng.randint(2, 5):
        terms[tuple(rng.randint(-1, 2) for _ in range(rank))] = rng.choice(
            (1, -1, 2, 3, 4, 6, 9, -12))
    return LaurentPoly(rank, domain, terms)


def random_fans():
    rng = random.Random(13)
    for rank in range(2, 5):
        for _ in range(8):
            f = rand_poly(rng, rank)
            yield trop_hypersurface(f, TrivialValuation())
            yield trop_hypersurface(f, PAdicValuation(rng.choice((2, 3))))
            yield global_tropical_Z(f)
            gens = [rand_poly(rng, rank) for _ in range(2)]
            yield trop_prevariety(gens, PAdicValuation(2))
            yield PolyhedralSet(rank, [
                Polyhedron(rank, eq=[(rand_vec(rng, rank), rng.randint(-2, 2))
                                     for _ in range(rng.choice((0, 0, 1)))],
                           ge=[(rand_vec(rng, rank), rng.randint(-2, 2))
                               for _ in range(rng.randint(0, 4))],
                           gt=[(rand_vec(rng, rank), rng.randint(-2, 2))
                               for _ in range(rng.choice((0, 1)))])
                for _ in range(rng.randint(1, 3))])


def test_spherical_rays_match_the_radial_rays():
    seen_zero = 0
    for fan in random_fans():
        assert fan.spherical_rays() == fan.radial().rays(), fan
        for p in fan.pieces:
            if not p.is_empty:
                hull = p.positive_hull()
                seen_zero += not fresh(hull).has_direction()
    # some hulls were {0}, the cones that radial() drops
    assert seen_zero


def test_a_nonempty_cone_has_rays_iff_it_has_a_direction():
    seen = set()
    for p in list(random_cones()) + list(closed_cones()):
        if fresh(p).is_empty:
            continue
        has = fresh(p).has_direction()
        assert (fresh(p).rays() == []) == (not has), p
        seen.add(has)
    assert seen == {True, False}
