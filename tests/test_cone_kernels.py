"""The integer cone kernels against the Fraction kernels they replaced.

The reference functions below are the earlier implementations, kept as the
oracle: `rref` (from reference_linalg), `ref_rank` and `ref_nullspace`
eliminate over Fractions, `ref_dim` probes every weak row, and `ref_rays`
tries every subset of weak normals of each size up to the one that can give
a line, one Fraction nullspace per subset.  The kernels must agree with them
exactly (kernels up to positive scaling), and the work-count tests pin how
much less work the fan path does.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from sigmatrop import linalg, polyhedra
from sigmatrop.cli import run
from sigmatrop.polyhedra import RAY_RANK_LIMIT, Polyhedron

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
    closure = p.closure()
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
        assert hull.contains(hull.feasible_point())
        want = fresh(hull).has_direction()
        assert hull.has_direction() == want
        seen.add(want)
    assert seen == {True, False}


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
    for p in list(random_cones())[::7]:
        closure = p.closure()
        k = len(set(closure.ge))
        # a zero row makes the kernel of no normals the whole space
        lin = ref_nullspace([list(v) for v, _ in closure.eq + closure.ge] + [[0] * p.rank])
        need = p.rank - 1 - ref_rank([list(v) for v, _ in closure.eq] + lin)
        before = len(echelons)
        fresh(p).rays()
        # the lineality basis, the row basis B, then one kernel per subset of
        # exactly `need` weak normals
        assert len(echelons) - before <= 2 + (math.comb(k, need) if need >= 0 else 0)
        fresh(p).has_direction()
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
    assert len(solves) <= 30
