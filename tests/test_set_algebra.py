"""Cross-checks of set complement and integer Fourier-Motzkin elimination,
and of the spherical sets built on them.

The references are the earlier implementations: the overlapping complement
(one piece per broken row, intersected as a product over the pieces),
Fourier-Motzkin over `Fraction` rows, FM back-substitution in `Fraction`,
and equality rows substituted from a `Fraction` reduced row echelon form.
A spherical set is checked against the same set with its pieces
unfiltered.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from sigmatrop import polyhedra, sigma
from sigmatrop.polyhedra import (Polyhedron, PolyhedralSet, SphericalSet,
                                 _dedupe_ineqs, _fm_eliminate, _fm_point,
                                 _project_out_last,
                                 _solve_system, balanceable_at,
                                 in_open_hemisphere, ray_cone)
from sigmatrop.rings import ZZ, Direction, LaurentPoly
from sigmatrop.tropical import trop_hypersurface
from sigmatrop.valuations import PAdicValuation

from reference_complement import reference_complement
from reference_linalg import rref
from test_cone_kernels import as_fractions, counting, fresh, rand_vec


# ---------------------------------------------------------------------------
# Reference: the overlapping complement.


def overlapping_complement_pieces(p):
    out = []
    for vec, rhs in p.eq:
        out.append(Polyhedron(p.rank, gt=[(vec, rhs)]))
        out.append(Polyhedron(p.rank, gt=[(tuple(-a for a in vec), -rhs)]))
    for vec, rhs in p.ge:
        out.append(Polyhedron(p.rank, gt=[(tuple(-a for a in vec), -rhs)]))
    for vec, rhs in p.gt:
        out.append(Polyhedron(p.rank, ge=[(tuple(-a for a in vec), -rhs)]))
    return out


def overlapping_complement(s):
    out = [Polyhedron.full(s.rank)]
    for piece in s.pieces:
        if piece.is_empty:
            continue
        out = [q.intersect(c) for q in out for c in overlapping_complement_pieces(piece)]
        out = [q for q in out if not q.is_empty]
    return PolyhedralSet(s.rank, out)


def rand_rows(rng, rank, k, affine):
    return [(tuple(rng.randint(-3, 3) for _ in range(rank)),
             rng.randint(-2, 2) if affine else 0) for _ in range(k)]


def rand_set(rng, rank, affine, most=2):
    pieces = [Polyhedron(rank, eq=rand_rows(rng, rank, rng.randint(0, 1), affine),
                         ge=rand_rows(rng, rank, rng.randint(0, 2), affine),
                         gt=rand_rows(rng, rank, rng.randint(0, 2), affine))
              for _ in range(rng.randint(1, most))]
    return PolyhedralSet(rank, pieces)


def sample_points(rng, rank):
    lattice = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(12)]
    rational = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(rank)) for _ in range(12)]
    return lattice + rational


@pytest.mark.parametrize("affine", [False, True])
def test_complement_matches_overlapping_reference(affine):
    rng = random.Random(211 + affine)
    new_total = ref_total = 0
    for _ in range(100):
        rank = rng.randint(1, 3)
        s = rand_set(rng, rank, affine, most=3)
        new, ref = s.complement(), overlapping_complement(s)
        new_total += len(new.pieces)
        ref_total += len(ref.pieces)
        for x in sample_points(rng, rank):
            inside = [p.contains(x) for p in new.pieces]
            assert sum(inside) == (not s.contains(x)) == ref.contains(x), (s, x)
        assert new.set_eq(ref) and ref.set_eq(new), s
        for p, q in combinations(new.pieces, 2):
            assert p.intersect(q).is_empty, (s, p, q)
    assert new_total <= ref_total


def test_complement_pieces_partition_the_complement():
    rng = random.Random(223)
    for _ in range(80):
        rank = rng.randint(1, 3)
        p = Polyhedron(rank, eq=rand_rows(rng, rank, rng.randint(0, 2), True),
                       ge=rand_rows(rng, rank, rng.randint(0, 3), True),
                       gt=rand_rows(rng, rank, rng.randint(0, 3), True))
        pieces = p.complement_pieces()
        for a, b in combinations(pieces, 2):
            assert a.intersect(b).is_empty, (p, a, b)
        for x in sample_points(rng, rank):
            assert sum(c.contains(x) for c in pieces) == (not p.contains(x)), (p, x)


# ---------------------------------------------------------------------------
# Reference: the complement that builds every candidate.


def pooled_set(rng, rank, affine):
    """1-3 pieces whose rows are drawn from a pool of 3-4 vectors, each with
    a random sign, so that parallel, opposed and repeated rows are common."""
    pool = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(3, 4))]

    def rows(k):
        return [(tuple(rng.choice((1, -1)) * a for a in rng.choice(pool)),
                 rng.randint(-2, 2) if affine else 0) for _ in range(k)]
    return PolyhedralSet(rank, [
        Polyhedron(rank, eq=rows(rng.randint(0, 1)), ge=rows(rng.randint(0, 2)),
                   gt=rows(rng.randint(0, 2)))
        for _ in range(rng.randint(1, 3))])


def test_complement_matches_the_candidate_product(monkeypatch):
    """On 2,400 sets of rank 1-3 drawn from small row pools, complement()
    gives the reference's pieces in the reference's order, and builds fewer
    candidates: a candidate that two opposed rows rule out is never built."""
    rng = random.Random(401)
    built = counting(monkeypatch, Polyhedron, "intersect")
    new_built = ref_built = 0
    for i in range(2400):
        rank, affine = 1 + i % 3, i % 2 == 1
        s = pooled_set(rng, rank, affine)
        del built[:]
        ref = reference_complement(s)
        ref_built += len(built)
        del built[:]
        new = s.complement()
        new_built += len(built)
        assert [p._key() for p in new.pieces] == [p._key() for p in ref.pieces], s
    assert new_built < ref_built


V, W = (1, 2), (2, 1)  # (1, 2) sorts before (2, 1)


def neg(v):
    return tuple(-a for a in v)


@pytest.mark.parametrize("first, second, at, skipped", [
    # q = {v >= 0} against c = {-v >= 0}: they meet in the hyperplane v = 0
    ({"gt": [(neg(V), 0)]}, {"gt": [(V, 0)]}, (0, 0), False),
    # q = {v >= 0} against c = {-v > 0}
    ({"gt": [(neg(V), 0)]}, {"ge": [(V, 0)]}, (0, 0), True),
    # q = {v >= 2} against c = {v = 1, w > 0} and c = {-v > -1}; c = {v > 1}
    # faces no row of q
    ({"gt": [(neg(V), -2)]}, {"eq": [(V, 1), (W, 0)]}, (0, 2), True),
    ({"gt": [(neg(V), -2)]}, {"eq": [(V, 1), (W, 0)]}, (0, 1), True),
    ({"gt": [(neg(V), -2)]}, {"eq": [(V, 1), (W, 0)]}, (0, 0), False),
    # q = {v = 1, w > 0} against c = {v >= 2}, and c = {v >= 1}, which holds
    # q's hyperplane
    ({"eq": [(V, 1), (W, 0)]}, {"gt": [(neg(V), -2)]}, (2, 0), True),
    ({"eq": [(V, 1), (W, 0)]}, {"gt": [(neg(V), -1)]}, (2, 0), False),
    # affine: q = {-v >= -2}, that is v <= 2, against c = {v >= 3}, {v >= 2}
    # and {v > 2}; and q = {-v > -2} against c = {v >= 2} and {v >= 1}
    ({"gt": [(V, 2)]}, {"gt": [(neg(V), -3)]}, (0, 0), True),
    ({"gt": [(V, 2)]}, {"gt": [(neg(V), -2)]}, (0, 0), False),
    ({"gt": [(V, 2)]}, {"ge": [(neg(V), -2)]}, (0, 0), True),
    ({"ge": [(V, 2)]}, {"gt": [(neg(V), -2)]}, (0, 0), True),
    ({"ge": [(V, 2)]}, {"gt": [(neg(V), -1)]}, (0, 0), False),
])
def test_opposed_rows_rule_a_candidate_out_unbuilt(monkeypatch, first, second, at, skipped):
    """complement() of {P1, P2} at rank 2: in its second round the candidate
    q & c, with q piece at[0] of P1's complement and c part at[1] of P2's,
    is built unless two opposed rows leave no room between them.  The
    candidate is empty when skipped, and the pieces are the reference's."""
    p1, p2 = Polyhedron(2, **first), Polyhedron(2, **second)
    s = PolyhedralSet(2, [p1, p2])
    q = reference_complement(PolyhedralSet(2, [p1])).pieces[at[0]]
    c = p2.complement_pieces()[at[1]]
    built = counting(monkeypatch, Polyhedron, "intersect")
    got = s.complement()
    monkeypatch.undo()
    assert ((q._key(), c._key()) not in {(a._key(), b._key()) for a, b in built}) == skipped
    assert q.intersect(c).is_empty or not skipped
    assert [p._key() for p in got.pieces] == [p._key() for p in reference_complement(s).pieces]


# ---------------------------------------------------------------------------
# Reference: Fourier-Motzkin over Fraction rows.


def fraction_norm_row(vec, rhs):
    fr = [Fraction(x) for x in vec] + [Fraction(rhs)]
    den = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * den) for x in fr]
    g = math.gcd(*(abs(x) for x in ints))
    if g:
        ints = [x // g for x in ints]
    return tuple(ints[:-1]), ints[-1]


def fraction_dedupe(rows):
    best = {}
    for vec, rhs, strict in rows:
        key = fraction_norm_row(vec, rhs)
        cur = best.get(key)
        if cur is None or (strict and not cur[2]):
            best[key] = (tuple(Fraction(x) for x in key[0]), Fraction(key[1]), strict)
    return list(best.values())


def fraction_feasible(rows, n):
    """True iff the rows vec*y >= rhs (> when strict) have a solution."""
    for vec, rhs, strict in rows:
        if not any(vec) and (rhs > 0 or (rhs == 0 and strict)):
            return False
    rows = fraction_dedupe([r for r in rows if any(r[0])])
    for var in range(n):
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        out = [r for r in rows if r[0][var] == 0]
        for lvec, lrhs, lstrict in pos:
            for uvec, urhs, ustrict in neg:
                a, b = lvec[var], uvec[var]
                vec = tuple(-b * x + a * y for x, y in zip(lvec, uvec))
                rhs = -b * lrhs + a * urhs
                strict = lstrict or ustrict
                if any(vec):
                    out.append((vec, rhs, strict))
                elif rhs > 0 or (rhs == 0 and strict):
                    return False
        rows = fraction_dedupe(out)
    return True


def fraction_fm_point(rows, n):
    """The FM point of the integer elimination, back-substituted in Fraction:
    each bound is the Fraction rest/c, the strict row binds at equal bound
    values, and the value is lo + 1, hi - 1, the weak bound, lo when
    lo = hi, the midpoint, or 0 with no bound."""
    for vec, rhs, strict in rows:
        if not any(vec) and (rhs > 0 or (rhs == 0 and strict)):
            return None
    rows = _dedupe_ineqs([r for r in rows if any(r[0])])
    if n == 0:
        return []
    stages = []
    remaining = list(range(n))
    while remaining:
        var = min(remaining,
                  key=lambda v: (sum(1 for r in rows if r[0][v] > 0)
                                 * sum(1 for r in rows if r[0][v] < 0), v))
        stages.append((var, rows))
        rows = _fm_eliminate(rows, var)
        if rows is None:
            return None
        remaining.remove(var)
    point = [None] * n
    for var, stage_rows in reversed(stages):
        lows, highs = [], []
        for vec, rhs, strict in stage_rows:
            c = vec[var]
            if c == 0:
                continue
            rest = rhs - sum(vec[j] * point[j] for j in range(n)
                             if j != var and point[j] is not None)
            (lows if c > 0 else highs).append((Fraction(rest, c), strict))
        lo = max(lows) if lows else None
        hi = min(highs, key=lambda t: (t[0], not t[1])) if highs else None
        if lo is None and hi is None:
            val = Fraction(0)
        elif hi is None:
            val = lo[0] + 1 if lo[1] else lo[0]
        elif lo is None:
            val = hi[0] - 1 if hi[1] else hi[0]
        elif lo[0] == hi[0]:
            val = lo[0]
        else:
            val = (lo[0] + hi[0]) / 2
        point[var] = val
    return point


def rand_ineqs(rng, n, rational):
    def entry():
        return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rational
                else rng.randint(-4, 4))
    return [(tuple(entry() for _ in range(n)), entry(), rng.random() < 0.5)
            for _ in range(rng.randint(1, 6))]


def satisfies(rows, point):
    for vec, rhs, strict in rows:
        lhs = sum(Fraction(a) * x for a, x in zip(vec, point))
        if lhs < rhs or (strict and lhs == rhs):
            return False
    return True


@pytest.mark.parametrize("rational", [False, True])
def test_integer_fm_matches_fraction_reference(rational):
    rng = random.Random(227 + rational)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = rand_ineqs(rng, n, rational)
        point = _fm_point(rows, n)
        want = fraction_fm_point(rows, n)
        assert (point is not None) == (want is not None) == fraction_feasible(rows, n), rows
        if point is not None:
            point = as_fractions(point)
            assert point == want, (rows, point, want)
            assert satisfies(rows, point), (rows, point)
        outcomes.add(point is not None)
    assert outcomes == {True, False}


def test_fm_rows_stay_integer():
    rng = random.Random(229)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = _dedupe_ineqs(rand_ineqs(rng, n, rational=True))
        for var in range(n):
            assert all(type(x) is int for vec, rhs, _ in rows for x in vec + (rhs,))
            rows = _fm_eliminate(rows, var)
            if rows is None:
                break


def test_fraction_rows_through_hemisphere_and_balance(monkeypatch):
    """in_open_hemisphere and balanceable_at hand Fraction rows to the solver;
    every system they solve is decided as the Fraction reference decides it."""
    real_fm_point = polyhedra._fm_point
    seen = {"fraction_rows": 0, True: 0, False: 0}

    def checked_fm_point(rows, n):
        point = real_fm_point(rows, n)
        assert (point is not None) == fraction_feasible(rows, n), rows
        if point is not None:
            assert satisfies(rows, as_fractions(point)), (rows, point)
        seen["fraction_rows"] += any(type(x) is Fraction
                                     for vec, rhs, _ in rows for x in vec + (rhs,))
        seen[point is not None] += 1
        return point

    monkeypatch.setattr(polyhedra, "_fm_point", checked_fm_point)
    rng = random.Random(233)
    for _ in range(60):
        rank = rng.randint(1, 3)
        dirs = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rank)) for _ in range(rng.randint(1, 4))]
        in_open_hemisphere([d for d in dirs if any(d)] or [(1,) * rank])
    balanced = set()
    for _ in range(20):
        rank = rng.randint(1, 3)
        fan = rand_set(rng, rank, affine=False)
        for x in [x for x in sample_points(rng, rank) if fan.contains(x)][:2]:
            balanced.add(balanceable_at(fan, x))
    assert seen["fraction_rows"] and seen[True] and seen[False]
    assert balanced == {True, False}


# ---------------------------------------------------------------------------
# Reference: equality rows substituted from a Fraction reduced row echelon form.


def rref_solve_system(eq_rows, ineq_rows, n):
    if not eq_rows:
        return fraction_fm_point(list(ineq_rows), n)
    aug = [[Fraction(x) for x in vec] + [Fraction(rhs)] for vec, rhs in eq_rows]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    free = [c for c in range(n) if c not in pivots]
    sub_rows = []
    for vec, rhs, strict in ineq_rows:
        vec = [Fraction(x) for x in vec]
        const = Fraction(0)
        coef = {f: vec[f] for f in free}
        for r, pc in enumerate(pivots):
            if vec[pc]:
                const += vec[pc] * red[r][n]
                for f in free:
                    coef[f] -= vec[pc] * red[r][f]
        sub_rows.append((tuple(coef[f] for f in free), Fraction(rhs) - const, strict))
    y = fraction_fm_point(sub_rows, len(free))
    if y is None:
        return None
    point = [Fraction(0)] * n
    for f, val in zip(free, y):
        point[f] = val
    for r, pc in enumerate(pivots):
        point[pc] = red[r][n] - sum(red[r][f] * point[f] for f in free)
    return point


def rref_project_out_last(p):
    n = p.rank
    rows = p._ineq_rows()
    eq_rows = list(p.eq)
    pivot = next((row for row in eq_rows if row[0][n - 1] != 0), None)
    new_eq = []
    if pivot is not None:
        pv, pr = pivot
        c = pv[n - 1]
        for vec, rhs in eq_rows:
            if (vec, rhs) == pivot:
                continue
            f = Fraction(vec[n - 1], c)
            new_eq.append((tuple(a - f * b for a, b in zip(vec, pv))[: n - 1],
                           rhs - f * pr))
        new_rows = []
        for vec, rhs, strict in rows:
            f = Fraction(vec[n - 1], c)
            new_rows.append((tuple(a - f * b for a, b in zip(vec, pv))[: n - 1],
                             rhs - f * pr, strict))
        rows = new_rows
    else:
        new_eq = [(v[: n - 1], r) for v, r in eq_rows]
        reduced = _fm_eliminate(rows, n - 1)
        if reduced is None:
            return Polyhedron.empty(n - 1)
        rows = [(v[: n - 1], r, s) for v, r, s in reduced]
    return Polyhedron(n - 1, eq=new_eq,
                      ge=[(v, r) for v, r, s in rows if not s],
                      gt=[(v, r) for v, r, s in rows if s])


def rand_system(rng, rational):
    """Rank 1-4, 0-3 equality rows and 1-6 inequality rows, int or Fraction
    entries; with two or more equalities the last one is often a combination
    of the others (dependent) or such a combination with its rhs moved by 1
    (inconsistent)."""
    n = rng.randint(1, 4)

    def entry():
        return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rational
                else rng.randint(-4, 4))
    eqs = [(tuple(entry() for _ in range(n)), entry())
           for _ in range(rng.randint(0, 3))]
    kind, roll = "independent", rng.random()
    if len(eqs) >= 2 and roll < 0.6:
        coefs = [rng.randint(-2, 2) for _ in eqs[:-1]]
        vec = tuple(sum(c * v[j] for c, (v, _) in zip(coefs, eqs)) for j in range(n))
        rhs = sum(c * r for c, (_, r) in zip(coefs, eqs))
        kind = "dependent" if roll < 0.35 else "inconsistent"
        eqs[-1] = (vec, rhs if kind == "dependent" else rhs + 1)
    return n, eqs, rand_ineqs(rng, n, rational), kind


def test_integer_elimination_matches_rref_reference(monkeypatch):
    """_solve_system returns the rref substitution's point, or None with it,
    and every row it hands to _fm_point after an elimination is integer."""
    handed = []

    def recording_fm_point(rows, n):
        handed.append(rows)
        return _fm_point(rows, n)

    monkeypatch.setattr(polyhedra, "_fm_point", recording_fm_point)
    rng = random.Random(239)
    seen = set()
    for i in range(1000):
        n, eqs, ineqs, kind = rand_system(rng, rational=i % 2 == 1)
        want = rref_solve_system(eqs, ineqs, n)
        handed.clear()
        got = _solve_system(eqs, ineqs, n)
        if got is not None:
            got = as_fractions(got)
        assert got == want, (eqs, ineqs, got, want)
        if eqs:
            assert all(type(x) is int
                       for rows in handed for vec, rhs, _ in rows for x in vec + (rhs,))
        seen.add((len(eqs), kind, got is not None))
    assert {(k, found) for k, _, found in seen} == {
        (k, found) for k in range(4) for found in (True, False)}
    assert {(kind, found) for _, kind, found in seen} == {
        ("independent", True), ("independent", False),
        ("dependent", True), ("dependent", False), ("inconsistent", False)}


def test_project_out_last_matches_rref_reference():
    rng = random.Random(241)
    pivoted = 0
    for _ in range(300):
        rank = rng.randint(2, 4)
        eq = rand_rows(rng, rank, rng.randint(0, 3), affine=True)
        if eq and rng.random() < 0.8:
            vec, rhs = eq[0]
            eq[0] = (vec[:-1] + (rng.choice((-3, -2, -1, 1, 2, 3)),), rhs)
        p = Polyhedron(rank, eq=eq, ge=rand_rows(rng, rank, rng.randint(0, 3), True),
                       gt=rand_rows(rng, rank, rng.randint(0, 3), True))
        pivoted += any(v[-1] for v, _ in p.eq)
        got = _project_out_last(list(p.eq), p._ineq_rows(), p.rank)
        assert got == rref_project_out_last(p), p
    assert pivoted > 150


# ---------------------------------------------------------------------------
# Spherical sets keep only the pieces with a direction.


def nonzero_probes(rank):
    return [x for x in product(range(-2, 3), repeat=rank) if any(x)]


def check_spherical(s, unfiltered):
    """s holds only pieces with a direction, is empty exactly when it has no
    pieces, and has the unfiltered set's points on every nonzero probe.
    Returns the number of unfiltered pieces that are only the origin."""
    assert isinstance(s, SphericalSet)
    assert all(fresh(p).has_direction() for p in s.pieces), s
    assert s.is_empty == (not s.pieces), s
    for x in nonzero_probes(s.rank):
        assert s.contains(Direction.from_vector(x)) == unfiltered.contains(x), (s, x)
    return sum(not p.is_empty and not fresh(p).has_direction()
               for p in unfiltered.pieces)


def test_spherical_sets_keep_only_pieces_with_a_direction():
    rng = random.Random(239)
    origin_only = 0
    for _ in range(60):
        rank = rng.randint(1, 3)
        a, b = rand_set(rng, rank, False), rand_set(rng, rank, False)
        sa, sb = SphericalSet(rank, a.pieces), SphericalSet(rank, b.pieces)
        affine = rand_set(rng, rank, True)
        hulls = [p.positive_hull() for p in affine.pieces if not p.is_empty]
        dirs = [Direction.from_vector(x) for x in rng.sample(nonzero_probes(rank), 2)]
        for s, unfiltered in (
                (sa, a),
                (sa.intersect(sb), a.intersect(b)),
                (sa.union(sb), a.union(b)),
                (sa.complement(), a.complement()),
                (sa.negate(), a.negate()),
                (affine.radial(), PolyhedralSet(rank, hulls)),
                (SphericalSet.from_directions(dirs),
                 PolyhedralSet(rank, [ray_cone(d) for d in dirs]))):
            origin_only += check_spherical(s, unfiltered)
    assert origin_only  # the constructors did meet pieces that are only {0}


def test_has_direction_is_decided_once(monkeypatch):
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    for p in (Polyhedron.cone(2, ge=[(1, 0), (0, 1)]),
              Polyhedron.cone(2, ge=[(1, 0), (-1, 0), (0, 1), (0, -1)]),
              Polyhedron.cone(2, ge=[(1, 1)], gt=[(1, -1)])):
        before = len(solves)
        first = p.has_direction()
        assert len(solves) > before, p  # the first call is decided by a solve
        before = len(solves)
        assert p.has_direction() == first
        assert len(solves) == before, p


# ---------------------------------------------------------------------------
# Known points: a polyhedron that takes a point it is handed decides as FM
# does, and a point that breaks one row is refused and left to FM.


def rand_mixed(rng, rank):
    """Equality, weak and strict rows, homogeneous or affine."""
    affine = rng.random() < 0.5
    return Polyhedron(rank, eq=rand_rows(rng, rank, rng.choice((0, 0, 1)), affine),
                      ge=rand_rows(rng, rank, rng.randint(0, 3), affine),
                      gt=rand_rows(rng, rank, rng.randint(0, 2), affine))


def rand_valued_poly(rng, rank):
    terms = {}
    while len(terms) < rng.randint(2, 5):
        terms[tuple(rng.randint(-1, 2) for _ in range(rank))] = rng.choice(
            (1, -1, 2, 3, 4, 6, 9, -12))
    return LaurentPoly(rank, ZZ, terms)


def test_known_points_decide_as_fm_does(monkeypatch):
    """Every polyhedron that takes a known point (meets, complement
    candidates, sign-split parts, hypersurface pairs, ray cones) contains it and
    answers is_empty, dim() and has_direction() as a fresh copy decided by
    FM does."""
    took = []
    take = Polyhedron._take_point

    def recording_take(p, point):
        taken = take(p, point)
        if taken:
            took.append(p)
        return taken

    monkeypatch.setattr(Polyhedron, "_take_point", recording_take)
    rng = random.Random(251)
    for _ in range(150):
        rank = rng.randint(1, 4)
        a, b = rand_mixed(rng, rank), rand_mixed(rng, rank)
        a.is_empty, b.is_empty  # noqa: B018 - decided operands hold a point
        a.intersect(b), b.intersect(a)
        PolyhedralSet(rank, [a, b]).complement()
        cone = Polyhedron.cone(rank, ge=[v for v, _ in a.ge], gt=[v for v, _ in b.gt])
        if cone.has_direction():
            sigma._sign_split(cone)
        trop_hypersurface(rand_valued_poly(rng, rank),
                          PAdicValuation(rng.choice((2, 3))))
        ray_cone(Direction.from_vector(rand_vec(rng, rank)))
    kinds = set()
    for p in took:
        assert p.contains(as_fractions(p.feasible_point())), p
        ref = fresh(p)
        assert p.is_empty is ref.is_empty is False, p
        assert p.dim() == ref.dim(), p
        assert p.has_direction() == fresh(p).has_direction(), p
        kinds.update(kind for kind, rows in (("eq", p.eq), ("ge", p.ge), ("gt", p.gt))
                     if rows)
        kinds.add("affine" if not p.is_homogeneous else "cone")
    assert len(took) > 500 and kinds == {"eq", "ge", "gt", "affine", "cone"}


def test_a_point_that_breaks_one_row_is_refused(monkeypatch):
    """A point of P is refused by P plus one row it breaks: a strict row it
    meets with equality, or an equality off by one.  The polyhedron stays
    undecided, and FM decides it as a fresh copy."""
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    rng = random.Random(257)
    refused = {"gt": 0, "eq": 0}
    while min(refused.values()) < 40:
        rank = rng.randint(1, 4)
        p = rand_mixed(rng, rank)
        point = p.feasible_point()
        if point is None:
            continue
        nums, den = point
        v = rand_vec(rng, rank)
        vec, rhs = tuple(den * x for x in v), sum(map(mul, v, nums))  # vec*point = rhs
        for kind, row in (("gt", (vec, rhs)), ("eq", (vec, rhs + rng.choice((-1, 1))))):
            rows = {"eq": p.eq, "ge": p.ge, "gt": p.gt}
            rows[kind] += (row,)
            q = Polyhedron(rank, **rows)
            assert not q._take_point(point), (q, point)
            meet = p.intersect(Polyhedron(rank, **{kind: [row]}))
            assert meet == q
            want = fresh(q).is_empty
            for r in (q, meet):
                assert r._empty is None and r._point is None, r
                before = len(solves)
                assert r.is_empty == want, r
                assert len(solves) == before + 1, r  # decided by FM
            refused[kind] += 1


def test_intersect_stores_the_rows_the_constructor_would():
    """intersect merges its operands' primitive rows without normalizing
    them again; the meet equals the polyhedron built from all the rows,
    homogeneity and the stored empty set included."""
    rng = random.Random(263)
    stored_empty = 0
    for _ in range(2000):
        rank = rng.randint(1, 4)
        a, b = rand_mixed(rng, rank), rand_mixed(rng, rank)
        if rng.random() < 0.05:
            a, b = b, Polyhedron.empty(rank)
        meet = a.intersect(b)
        ref = Polyhedron(rank, eq=a.eq + b.eq, ge=a.ge + b.ge, gt=a.gt + b.gt)
        assert meet == ref and meet.is_homogeneous == ref.is_homogeneous, (a, b)
        assert (meet._empty is True) == (ref._empty is True), (a, b)
        stored_empty += ref._empty is True
    assert stored_empty
