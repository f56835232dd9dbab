"""Exact rational polyhedra, finite unions, and spherical sets.

A Polyhedron is cut out by affine rows a*u = b, a*u >= b, a*u > b with
integer primitive data; homogeneous instances (all b = 0) are cones.  A
constant row that no point meets stores the set as Polyhedron.empty, the
row 0 >= 1.  A PolyhedralSet is a finite union of possibly-overlapping
polyhedra (no face-lattice normalization); its complement is a union of
disjoint pieces.  A SphericalSet is a PolyhedralSet of homogeneous pieces
read as a set of ray classes: its constructor keeps only the pieces with a
direction (a nonzero point), so a piece that is only the origin, or empty,
never enters one, and the set algebra it inherits returns SphericalSets.
A SphericalSet keeps its finite direction list once it is read.

Feasibility, emptiness, dimension, containment, and point extraction are
decided exactly by Fourier-Motzkin elimination with strictness tracking,
after equality rows are eliminated on primitive integer rows.  A point is
the integer pair (nums, den), the vector nums/den with den > 0: FM
back-substitutes it on that pair, its bounds compared by
cross-multiplication, and the polyhedron keeps it so; no Fraction is built
for it.  A rational row (through _norm_row) and a point under test become
integer in rings._primitive.  A closed cone (homogeneous, no strict row) is
never empty: its point is the origin, found with no FM solve.  A point
already known to lie in a new polyhedron decides it with no FM solve
either: intersect hands its result an operand's point, and a caller a
point it knows, and the point is taken only after an integer check against
every row (_take_point); one that breaks a row leaves the polyhedron to
FM.  Emptiness has the counterpart rule in PolyhedralSet.complement: a
candidate in which two opposed rows leave no room is never built.  A
polyhedron caches its point, dimension and has_direction answer, so
each is decided at most once per object.
Lineality spaces and ranks come from linalg's fraction-free integer
elimination.  A cone's rays come from kernels cut one row at a time: an
integer basis of a subspace of Z^n is restricted to a row's kernel by
integer combinations of its vectors (_restrict), with no elimination.  W,
the kernel of the equalities and the lineality space, is cut by subsets of
dim W - 1 weak normals, walked depth first so that each subset prefix is
cut once, and a subset that leaves a line gives a ray candidate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from operator import mul

from . import linalg
from .rings import Character, DimensionError, Direction, SoundnessError, _primitive

RAY_RANK_LIMIT = 6  # ray enumeration is desk scale only


def _norm_row(vec, rhs, orient=False):
    """(vec | rhs) as a primitive integer row; orient makes its first
    nonzero entry positive."""
    row = _primitive((*vec, rhs))
    if orient and next((x for x in row if x), 0) < 0:
        row = tuple(-x for x in row)
    return row[:-1], row[-1]


def _dot(a, b):
    return sum(map(mul, a, b))


# ---------------------------------------------------------------------------
# Fourier-Motzkin core.  Inequality rows are (vec, rhs, strict), read as
# vec*y >= rhs (or > when strict).  Rows may come in rational; deduping
# scales them to primitive integer rows, and elimination keeps them integer.


def _dedupe_ineqs(rows):
    best = {}
    for vec, rhs, strict in rows:
        key = _primitive((*vec, rhs))
        cur = best.get(key)
        if cur is None or (strict and not cur[2]):
            best[key] = (key[:-1], key[-1], strict)
    return list(best.values())


def _fm_eliminate(rows, var):
    """Eliminate variable `var`; returns reduced rows or None (infeasible)."""
    pos, neg, rest = [], [], []
    for row in rows:
        c = row[0][var]
        (pos if c > 0 else neg if c < 0 else rest).append(row)
    out = list(rest)
    for lvec, lrhs, lstrict in pos:
        for uvec, urhs, ustrict in neg:
            a, b = lvec[var], uvec[var]
            vec = tuple(-b * x + a * y for x, y in zip(lvec, uvec))
            rhs = -b * lrhs + a * urhs
            strict = lstrict or ustrict
            if any(vec):
                out.append((vec, rhs, strict))
            elif rhs > 0 or (rhs == 0 and strict):
                return None
    return _dedupe_ineqs(out)


def _fm_point(rows, n):
    """A rational point satisfying the inequality rows, or None.

    The point is returned as (nums, den): integers over one common
    denominator den > 0, with gcd(nums, den) = 1.  Back-substitution gives
    the variables values in reverse elimination order.  Each stage counts
    the signs of every variable's coefficients in one pass and eliminates
    the variable with the fewest row pairs; one that occurs with one sign
    only just drops its rows, and one that occurs in no row is skipped and
    keeps the value 0.  With the point so far at nums/den, a row with
    coefficient c at var bounds var by rest/(c den), rest = rhs den -
    vec*nums, held as the integer pair (rest, c den), both signs flipped
    when c < 0; bounds are compared by cross-multiplication.  At equal
    bound values the strict row binds.  The value is lo + 1 (hi - 1)
    when only a lower (upper) bound binds and it is strict, that bound when
    it is weak, lo when lo = hi, else the midpoint, and 0 when no row
    bounds var."""
    for vec, rhs, strict in rows:
        if not any(vec) and (rhs > 0 or (rhs == 0 and strict)):
            return None
    rows = _dedupe_ineqs([r for r in rows if any(r[0])])
    if n == 0:
        return [], 1
    stages = []  # (var, rows before eliminating var)
    remaining = list(range(n))
    while remaining:
        pos, neg = [0] * n, [0] * n
        for vec, _, _ in rows:
            for v, c in enumerate(vec):
                if c > 0:
                    pos[v] += 1
                elif c < 0:
                    neg[v] += 1
        # cheapest variable first keeps the row blowup down
        var = min(remaining, key=lambda v: (pos[v] * neg[v], v))
        remaining.remove(var)
        if not (pos[var] or neg[var]):
            continue  # no row bounds var: it keeps the value 0
        stages.append((var, rows))
        if pos[var] and neg[var]:
            rows = _fm_eliminate(rows, var)
            if rows is None:
                return None
        else:
            # one sign only: every row with var holds for var large enough
            rows = [r for r in rows if not r[0][var]]
    nums, den = [0] * n, 1  # a variable not yet given a value is 0 in nums
    for var, stage_rows in reversed(stages):
        lo = hi = None  # (p, q, strict): the bound p/q, q > 0
        for vec, rhs, strict in stage_rows:
            c = vec[var]
            if c == 0:
                continue
            rest = rhs * den - _dot(vec, nums)
            # at equal bound values the strict row is the binding one
            if c > 0:
                p, q = rest, c * den
                if lo is None or (p * lo[1], strict) > (lo[0] * q, lo[2]):
                    lo = p, q, strict
            else:
                p, q = -rest, -c * den
                if hi is None or (p * hi[1], not strict) < (hi[0] * q, not hi[2]):
                    hi = p, q, strict
        if lo is None and hi is None:
            continue  # the value 0, which nums[var] holds
        if hi is None:
            p, q, strict = lo
            p += q if strict else 0
        elif lo is None:
            p, q, strict = hi
            p -= q if strict else 0
        elif lo[0] * hi[1] == hi[0] * lo[1]:
            p, q = lo[:2]
        else:
            p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        den = _put(nums, den, var, p, q)
    return nums, den


def _put(nums, den, var, p, q):
    """Give coordinate var of the point nums/den the value p/q (q > 0) and
    return the new common denominator: den times the part of q's reduced
    denominator it lacks, by which every other numerator is scaled."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    scale = q // math.gcd(den, q)
    if scale > 1:
        nums[:] = [x * scale for x in nums]
        den *= scale
    nums[var] = p * (den // q)
    return den


def _eliminate(row, pivot, var):
    """a*row - c*pivot for (vec, rhs) rows, with a and c their entries at
    var and the sign taken so that a > 0: a primitive integer row, zero at
    var, that keeps the direction of an inequality row."""
    (vec, rhs), (pvec, prhs) = row, pivot
    a, c = pvec[var], vec[var]
    if a < 0:
        a, c = -a, -c
    return _norm_row(tuple(a * x - c * y for x, y in zip(vec, pvec)),
                     a * rhs - c * prhs)


def _solve_system(eq_rows, ineq_rows, n):
    """Point satisfying equality pairs and strict-flagged inequality rows,
    as the integer pair (nums, den) with nums a tuple, or None.

    The one FM entry.  Equalities are eliminated on primitive integer rows,
    column by column, pivoting on the first remaining equality nonzero there
    (rref's pivot columns), so each inequality handed to FM is a positive
    multiple of its rref substitution.  FM's point comes as integers over
    one common denominator, and the pivot coordinates are back-substituted
    on that pair; no Fraction is built."""
    pivots, rows = [], list(ineq_rows)
    if eq_rows:
        eqs = [_norm_row(vec, rhs) for vec, rhs in eq_rows]
        rows = [(*_norm_row(vec, rhs), strict) for vec, rhs, strict in rows]
        for var in range(n):
            k = next((i for i, (vec, _) in enumerate(eqs) if vec[var]), None)
            if k is None:
                continue
            pivot = eqs.pop(k)
            pivots.append((var, pivot))
            eqs = [_eliminate(r, pivot, var) if r[0][var] else r for r in eqs]
            rows = [(*_eliminate(r[:2], pivot, var), r[2]) if r[0][var] else r
                    for r in rows]
        if any(rhs for _, rhs in eqs):
            return None  # an equality reduced to 0 = b with b != 0
    point = _fm_point(rows, n)
    if point is None:
        return None
    nums, den = point
    for var, (vec, rhs) in reversed(pivots):
        # no FM row involves a pivot column, so nums[var] is still 0
        c = vec[var]
        rest = rhs * den - _dot(vec, nums)
        den = _put(nums, den, var, rest if c > 0 else -rest, abs(c) * den)
    return tuple(nums), den


def _project_out_last(eq_rows, rows, n):
    """The Polyhedron of rank n - 1 projecting {eq_rows (=), rows (>= or >)},
    integer (vec, rhs[, strict]) rows, along the last coordinate: the first
    equality nonzero there is substituted into every other row, and with
    none the coordinate is eliminated by FM."""
    pivot = next((row for row in eq_rows if row[0][n - 1] != 0), None)
    if pivot is not None:
        eq_rows = [_eliminate(row, pivot, n - 1) for row in eq_rows if row != pivot]
        rows = [(*_eliminate(row[:2], pivot, n - 1), row[2]) for row in rows]
    else:
        rows = _fm_eliminate(rows, n - 1)
        if rows is None:
            return Polyhedron.empty(n - 1)
    return Polyhedron(n - 1, eq=[(v[: n - 1], r) for v, r in eq_rows],
                      ge=[(v[: n - 1], r) for v, r, s in rows if not s],
                      gt=[(v[: n - 1], r) for v, r, s in rows if s])


def _restrict(space, row):
    """A primitive basis of the vectors of span(space) on which row
    vanishes, or None when row vanishes on all of span(space).

    space is a basis of integer tuples.  With a_i = row*s_i and s_j a
    vector of least nonzero |a_j|, every other s_i becomes the primitive
    a_j s_i - a_i s_j, which is s_i itself when a_i = 0."""
    vals = [_dot(row, s) for s in space]
    if not any(vals):
        return None
    a = min(filter(None, vals), key=abs)
    j = vals.index(a)
    pivot = space[j]
    return [_primitive(tuple(a * x - b * y for x, y in zip(s, pivot))) if b else s
            for i, (b, s) in enumerate(zip(vals, space)) if i != j]


def _restrict_all(space, rows):
    """span(space) cut by each row in turn; a row that vanishes on what is
    left cuts nothing."""
    for row in rows:
        if not space:
            break
        cut = _restrict(space, row)
        if cut is not None:
            space = cut
    return space


# ---------------------------------------------------------------------------


class Polyhedron:
    """Exact rational polyhedron {u : eq*u = b, ge*u >= b, gt*u > b}.

    Rows are (vector, rhs) pairs; use cone() for plain normal vectors.
    Instances are immutable by discipline and hashable on their row data.
    """

    def __init__(self, rank, eq=(), ge=(), gt=()):
        empty, homogeneous, groups = None, True, []
        for rows, kind in ((eq, "eq"), (ge, "ge"), (gt, "gt")):
            sink = set()
            for vec, rhs in rows:
                if len(vec) != rank:
                    raise DimensionError(
                        f"row {vec} has length {len(vec)}, expected {rank}")
                nvec, nrhs = _norm_row(vec, rhs, orient=(kind == "eq"))
                if not any(nvec):
                    if (kind == "eq" and nrhs != 0) or \
                       (kind == "ge" and nrhs > 0) or \
                       (kind == "gt" and nrhs >= 0):
                        empty = True
                    continue
                sink.add((nvec, nrhs))
                if nrhs:
                    homogeneous = False
            groups.append(sink)
        if empty:
            # no point meets a constant row: the whole set is stored as 0 >= 1
            groups, homogeneous = [(), (((0,) * rank, 1),), ()], False
        self._store(rank, *groups, homogeneous, empty)

    def _store(self, rank, eq, ge, gt, homogeneous, empty=None):
        """Store rows that are already primitive, equalities oriented and
        none constant (or the single row 0 >= 1), each kind sorted; nothing
        is decided yet unless empty is True."""
        self.rank = rank
        self.eq, self.ge, self.gt = map(tuple, map(sorted, (eq, ge, gt)))
        self.is_homogeneous = homogeneous
        self._empty = empty
        self._point = None
        self._dim = None
        self._direction = None

    @classmethod
    def full(cls, rank):
        return cls(rank)

    @classmethod
    def empty(cls, rank):
        """The canonical empty polyhedron, the single row 0 >= 1."""
        return cls(rank, ge=[((0,) * rank, 1)])

    @classmethod
    def cone(cls, rank, eq=(), ge=(), gt=()):
        """Homogeneous polyhedron from plain normal vectors."""
        return cls(rank, eq=[(v, 0) for v in eq], ge=[(v, 0) for v in ge],
                   gt=[(v, 0) for v in gt])

    # -- basic structure ----------------------------------------------------

    def _key(self):
        return (self.rank, self.eq, self.ge, self.gt)

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Polyhedron(rank={self.rank}, eq={self.eq}, ge={self.ge}, gt={self.gt})"

    def _ineq_rows(self):
        return ([(v, r, False) for v, r in self.ge]
                + [(v, r, True) for v, r in self.gt])

    def _bound_rows(self):
        """The inequality rows, each equality added as its two weak rows."""
        return ([(v, r, False) for v, r in self.eq]
                + [(tuple(-a for a in v), -r, False) for v, r in self.eq]
                + self._ineq_rows())

    # -- predicates ---------------------------------------------------------

    def contains(self, point) -> bool:
        """Exact membership: rings._primitive makes (point | 1) the integer
        row (den point | den) with den > 0, and each integer row (v, r)
        compares v * (den point) with r * den."""
        *point, den = _primitive((*point, 1))
        if len(point) != self.rank:
            raise DimensionError(f"point has length {len(point)}, expected {self.rank}")
        return self._holds(point, den)

    def _holds(self, nums, den) -> bool:
        """Whether the point nums/den (integers, den > 0) meets every row."""
        return (all(_dot(v, nums) == r * den for v, r in self.eq)
                and all(_dot(v, nums) >= r * den for v, r in self.ge)
                and all(_dot(v, nums) > r * den for v, r in self.gt))

    def feasible_point(self):
        """A point of the set as the integer pair (nums, den), the vector
        nums/den with nums a tuple and den > 0, or None when the set is
        empty; cached.

        A point taken from a known one (_take_point) is returned as it is.
        A closed cone (homogeneous, no strict row) holds the origin, which
        is the point FM would return, so it takes no FM solve.  Every other
        point is FM's, from _solve_system."""
        if self._empty is not None:
            return self._point
        if not self.gt and self.is_homogeneous:
            pt = ((0,) * self.rank, 1)
        else:
            pt = _solve_system(list(self.eq), self._ineq_rows(), self.rank)
        self._empty = pt is None
        self._point = pt
        return pt

    def _take_point(self, point) -> bool:
        """Take point, an integer pair (nums, den) or None, as the set's
        point when nothing is decided yet and the point meets every row;
        returns whether it was taken.  A taken point decides the set
        nonempty with no FM solve; a refused one leaves it to FM."""
        if point is None or self._empty is not None or not self._holds(*point):
            return False
        self._empty, self._point = False, point
        return True

    @property
    def is_empty(self) -> bool:
        if self._empty is None:
            self.feasible_point()
        return self._empty

    def dim(self):
        """Dimension of the affine hull, or None when empty.

        The implicit equalities are the weak rows with no slack anywhere on
        the set.  A row with slack at a known point of the set is not one:
        the cached feasible point clears rows without a probe, and each
        remaining row is probed with its strict version, whose point, when
        it exists, clears every remaining row it slacks."""
        if self.is_empty:
            return None
        if self._dim is not None:
            return self._dim
        eqs = [v for v, _ in self.eq]
        rows = self._ineq_rows()
        nums, den = self._point
        tight = [(v, r) for v, r in self.ge if _dot(v, nums) == r * den]
        while tight:
            vec, rhs = tight.pop()
            point = _solve_system(list(self.eq), rows + [(vec, rhs, True)], self.rank)
            if point is None:
                eqs.append(vec)
            else:
                nums, den = point
                tight = [(v, r) for v, r in tight if _dot(v, nums) == r * den]
        self._dim = self.rank - linalg.rank(eqs)
        return self._dim

    def has_direction(self) -> bool:
        """True iff the set contains a nonzero point (homogeneous pieces).

        A closed cone {Eu = 0, Au >= 0} has one when its lineality space is
        nonzero, that is rank [E; A] < n; otherwise 0 is its only point with
        Au = 0, so it has one iff some u in it has (sum of A's rows)*u > 0,
        one feasibility probe.  Cached."""
        if self._direction is None:
            self._direction = self._find_direction()
        return self._direction

    def _find_direction(self) -> bool:
        if self.gt or not self.is_homogeneous:
            return not self.is_empty  # a strict homogeneous row misses 0
        normals = [v for v, _ in self.eq + self.ge]
        if linalg.rank(normals) < self.rank:
            return True
        if not self.ge:
            return False
        total = tuple(map(sum, zip(*(v for v, _ in self.ge))))
        return _solve_system(list(self.eq), self._ineq_rows() + [(total, 0, True)],
                             self.rank) is not None

    # -- transforms ----------------------------------------------------------

    def negate(self):
        """Image under u -> -u (antipodal reflection)."""
        def flip(rows):
            return [(tuple(-a for a in v), r) for v, r in rows]
        return Polyhedron(self.rank, eq=flip(self.eq), ge=flip(self.ge),
                          gt=flip(self.gt))

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """The meet, which takes the point of an operand when the other
        operand holds it too.

        The operands' rows are already primitive, with equalities oriented,
        so the meet's rows of each kind are their sorted union, as the
        constructor would store them, with no row normalized again.  An
        operand stored as the empty set (the row 0 >= 1) gives that set."""
        if self.rank != other.rank:
            raise DimensionError("rank mismatch in intersection")
        if any(p.ge and not any(p.ge[0][0]) for p in (self, other)):
            return Polyhedron.empty(self.rank)
        meet = Polyhedron.__new__(Polyhedron)
        meet._store(self.rank, {*self.eq, *other.eq}, {*self.ge, *other.ge},
                    {*self.gt, *other.gt}, self.is_homogeneous and other.is_homogeneous)
        meet._take_point(self._point) or meet._take_point(other._point)
        return meet

    def complement_pieces(self):
        """Pairwise-disjoint pieces whose union is the complement.

        Piece i keeps rows 1..i-1 and breaks row i, so a point lies in the
        piece of the first row it breaks and in no other."""
        out = []
        eq, ge, gt = [], [], []
        for vec, rhs in self.eq:
            neg = (tuple(-a for a in vec), -rhs)
            out.append(Polyhedron(self.rank, eq=eq, gt=[(vec, rhs)]))
            out.append(Polyhedron(self.rank, eq=eq, gt=[neg]))
            eq.append((vec, rhs))
        for vec, rhs in self.ge:
            neg = (tuple(-a for a in vec), -rhs)
            out.append(Polyhedron(self.rank, eq=eq, ge=ge, gt=[neg]))
            ge.append((vec, rhs))
        for vec, rhs in self.gt:
            neg = (tuple(-a for a in vec), -rhs)
            out.append(Polyhedron(self.rank, eq=eq, ge=ge + [neg], gt=gt))
            gt.append((vec, rhs))
        return out

    def recession(self) -> "Polyhedron":
        """Closed cone of directions of rays eventually inside the set."""
        if self.is_empty:
            return Polyhedron.empty(self.rank)
        return Polyhedron.cone(self.rank, eq=[v for v, _ in self.eq],
                               ge=[v for v, _ in self.ge + self.gt])

    def germ_cone_at(self, x):
        """Directions d with x + eps*d inside for all small eps > 0, or None."""
        x = [Fraction(v) for v in x]
        eq, ge, gt = [], [], []
        for vec, rhs in self.eq:
            if _dot(vec, x) != rhs:
                return None
            eq.append(vec)
        for rows, tight_sink in ((self.ge, ge), (self.gt, gt)):
            for vec, rhs in rows:
                slack = _dot(vec, x) - rhs
                if slack < 0:
                    return None
                if slack == 0:
                    tight_sink.append(vec)
        return Polyhedron.cone(self.rank, eq=eq, ge=ge, gt=gt)

    def positive_hull(self) -> "Polyhedron":
        """Homogeneous cone {mu*u : u in P, mu > 0}: the lifted rows
        (a, -b)*(u, mu) (=, >=, >) 0 and mu > 0, with mu projected out."""
        if self.is_empty:
            return Polyhedron.empty(self.rank)
        if self.is_homogeneous:
            return self
        # P is nonempty, so its equality vectors are distinct and the lifted
        # equalities keep the sorted order a lifted Polyhedron would give
        # them: the pivot is the one _project_out_last would pick there
        n = self.rank
        rows = ([((*v, -r), 0, False) for v, r in self.ge]
                + [((*v, -r), 0, True) for v, r in self.gt]
                + [((0,) * n + (1,), 0, True)])
        hull = _project_out_last([((*v, -r), 0) for v, r in self.eq], rows, n + 1)
        # the projection is exact, so P's point (mu = 1) certifies the hull
        hull._empty, hull._point = False, self._point
        return hull

    # -- ray enumeration ----------------------------------------------------

    def lineality_basis(self):
        """Primitive basis of the lineality space of the closure."""
        return linalg.nullspace([v for v, _ in self.eq + self.ge + self.gt], self.rank)

    def rays(self):
        """Extreme rays of the closure, primitive integer vectors, sorted.

        When the lineality space L is nonzero: rays of closure intersected
        with the orthogonal complement of L, plus +/- a primitive basis of L
        (documented convention).  Every kernel is a basis of a subspace of
        Z^n cut down one row at a time (_restrict).  Z^n cut by the
        equalities, then by every distinct weak normal, is L, so
        lineality_basis() is asked only when that leaves a vector; cut by
        the equalities and L's basis it is W.  With d = dim W, each extreme
        ray is the line that d - 1 of the sorted distinct weak normals cut
        out of W, in the sign whose dot products with every weak normal are
        >= 0.  The subsets are walked depth first, one cut per prefix, and
        a prefix with a normal that vanishes on what is left cuts out no
        line, so none of its extensions is tried.
        """
        if self.rank > RAY_RANK_LIMIT:
            raise ValueError(f"ray enumeration limited to rank <= {RAY_RANK_LIMIT}")
        if self.is_empty:
            return []
        if not self.is_homogeneous:
            raise ValueError("rays need a homogeneous piece; use positive_hull()")
        n = self.rank
        space = _restrict_all([tuple(int(i == j) for j in range(n)) for i in range(n)],
                              [v for v, _ in self.eq])
        normals = sorted({v for v, _ in self.ge + self.gt})
        result = set()
        if _restrict_all(space, normals):
            lin = self.lineality_basis()
            result.update(lin, (tuple(-x for x in l) for l in lin))
            space = _restrict_all(space, lin)
        stack = [(space, 0)] if space else []
        while stack:
            space, start = stack.pop()
            if len(space) > 1:
                # len(space) - 1 more cuts leave a line: i leaves room for them
                for i in range(start, len(normals) - len(space) + 2):
                    cut = _restrict(space, normals[i])
                    if cut is not None:
                        stack.append((cut, i + 1))
                continue
            # all dots 0 would put the line in L, which W meets only in 0,
            # so at most one sign meets every weak normal
            line, sign = space[0], 0
            for v in normals:
                dot = _dot(v, line)
                if dot * sign < 0:
                    break
                sign = sign or dot
            else:
                result.add(line if sign > 0 else tuple(-x for x in line))
        return sorted(result)


# ---------------------------------------------------------------------------


class PolyhedralSet:
    """Finite union of relatively open polyhedra of a common rank."""

    def __init__(self, rank, pieces=()):
        self.rank = rank
        seen, keep = set(), []
        for p in pieces:
            if p.rank != rank:
                raise DimensionError("all pieces must share the ambient rank")
            key = p._key()
            if key not in seen:
                seen.add(key)
                keep.append(p)
        self.pieces = tuple(keep)

    @classmethod
    def empty(cls, rank):
        return cls(rank)

    @classmethod
    def full(cls, rank):
        return cls(rank, [Polyhedron.full(rank)])

    def pruned(self) -> "PolyhedralSet":
        return type(self)(self.rank, [p for p in self.pieces if not p.is_empty])

    @property
    def is_empty(self) -> bool:
        return all(p.is_empty for p in self.pieces)

    def contains(self, point) -> bool:
        return any(p.contains(point) for p in self.pieces)

    def union(self, other: "PolyhedralSet") -> "PolyhedralSet":
        if self.rank != other.rank:
            raise DimensionError("rank mismatch in union")
        return type(self)(self.rank, self.pieces + other.pieces).pruned()

    def intersect(self, other: "PolyhedralSet") -> "PolyhedralSet":
        if self.rank != other.rank:
            raise DimensionError("rank mismatch in intersection")
        out = [p.intersect(q) for p in self.pieces for q in other.pieces]
        return type(self)(self.rank, [p for p in out if not p.is_empty])

    def complement(self) -> "PolyhedralSet":
        """Pairwise-disjoint pieces covering the complement.

        Each piece picks one disjoint complement piece of every input piece,
        so distinct pieces are disjoint unions of cells of the arrangement of
        the |H| rows involved: at most O(|H|^(n-1)) pieces in rank n for
        homogeneous rows, O(|H|^n) for affine ones.

        A candidate q & c (the current piece q, a complement part c) is
        decided empty before it is built when a row v*u >= r of c (> when
        strict) faces q's tightest row -v*u >= r2 with no room between, that
        is r > -r2, or r = -r2 with either row strict: two opposed rows are
        a Farkas certificate.  An equality counts as two weak rows.  Every
        other candidate is built and decided as intersect leaves it, by a
        known point first, then FM."""
        out = [Polyhedron.full(self.rank)]
        for piece in self.pieces:
            if piece.is_empty:
                continue
            parts = [(c, [(tuple(-a for a in v), r, s) for v, r, s in c._bound_rows()])
                     for c in piece.complement_pieces()]
            meets = []
            for q in out:
                bounds = {}  # normal -> q's tightest (rhs, strict) along it
                for v, r, s in q._bound_rows():
                    b = bounds.get(v)
                    if b is None or (r, s) > b:
                        bounds[v] = r, s
                for c, facing in parts:
                    # (r + r2, either strict) > (0, False): no room between
                    if any((r + b[0], s or b[1]) > (0, False)
                           for v, r, s in facing if (b := bounds.get(v))):
                        continue
                    meet = q.intersect(c)
                    if not meet.is_empty:
                        meets.append(meet)
            out = meets
        return type(self)(self.rank, out)

    def minus(self, other: "PolyhedralSet") -> "PolyhedralSet":
        return self.intersect(other.complement())

    def subset_of(self, other: "PolyhedralSet") -> bool:
        return self.minus(other).is_empty

    def set_eq(self, other: "PolyhedralSet") -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def negate(self) -> "PolyhedralSet":
        return type(self)(self.rank, [p.negate() for p in self.pieces])

    def local_cone_at(self, x) -> "PolyhedralSet":
        germs = [p.germ_cone_at(x) for p in self.pieces]
        return PolyhedralSet(self.rank,
                             [g for g in germs if g is not None and not g.is_empty])

    def recession(self) -> "PolyhedralSet":
        recs = [p.recession() for p in self.pieces if not p.is_empty]
        return PolyhedralSet(self.rank, recs)

    def _hulls(self):
        return [p.positive_hull() for p in self.pieces if not p.is_empty]

    def radial(self) -> "SphericalSet":
        return SphericalSet(self.rank, self._hulls())

    def spherical_rays(self):
        """Sorted extreme rays of the closures of the positive hulls of the
        nonempty pieces: the same list as radial().rays().

        No hull is asked has_direction(), which radial() does to drop the
        hulls that are only {0}: a nonempty cone with no nonzero point is
        {0}, which has no extreme ray and no lineality, so its rays() adds
        nothing."""
        return _ray_union(self._hulls())

    def __repr__(self):
        return f"PolyhedralSet(rank={self.rank}, pieces={len(self.pieces)})"


class SphericalSet(PolyhedralSet):
    """Homogeneous pieces read as ray classes on the boundary sphere.

    Only pieces with a direction are kept, so the set is empty exactly when
    it has no pieces, and the inherited set algebra, which returns
    SphericalSets, needs no further has_direction test."""

    def __init__(self, rank, pieces=()):
        super().__init__(rank, pieces)
        self.pieces = tuple(p for p in self.pieces if p.has_direction())
        if not all(p.is_homogeneous for p in self.pieces):
            raise ValueError("spherical sets need homogeneous pieces")

    @classmethod
    def from_directions(cls, dirs, rank=None) -> "SphericalSet":
        dirs = list(dirs)
        if not dirs and rank is None:
            raise ValueError("need a rank for an empty direction list")
        rank = rank if rank is not None else dirs[0].rank
        return cls(rank, [ray_cone(d) for d in dirs])

    def contains(self, direction: Direction) -> bool:
        # pieces are homogeneous, so testing the primitive representative
        # realizes scale invariance of [chi] membership exactly
        return super().contains(direction.vector)

    def rays(self):
        """Sorted extreme rays of the closures of all pieces."""
        return _ray_union(self.pieces)

    @cached_property
    def finite_directions(self):
        """The sorted tuple of directions when every piece is at most a ray,
        else None; computed once.  A homogeneous piece of dimension <= 1 is
        {0}, a ray or a line, and it holds every ray of its closure."""
        dirs = set()
        for p in self.pieces:
            if p.dim() > 1:
                return None
            dirs.update(Direction(r) for r in p.rays())
        return tuple(sorted(dirs, key=lambda d: d.vector))

    def __repr__(self):
        return f"SphericalSet(rank={self.rank}, pieces={len(self.pieces)})"


def _ray_union(cones):
    """Sorted Directions of the extreme rays of the closures of homogeneous
    cones; an empty cone or {0} adds none."""
    return [Direction(r) for r in sorted({r for c in cones for r in c.rays()})]


def ray_cone(d: Direction) -> Polyhedron:
    """The open ray {lambda * d : lambda > 0} as a homogeneous piece: u is
    orthogonal to the n - 1 kernel vectors of d, so parallel to d.  It
    takes d as its point."""
    ray = Polyhedron.cone(d.rank, eq=linalg.nullspace([d.vector], d.rank),
                          gt=[d.vector])
    ray._take_point((d.vector, 1))
    return ray


# ---------------------------------------------------------------------------
# Named decision procedures.


def local_cone_at_origin(fan: PolyhedralSet) -> PolyhedralSet:
    return fan.local_cone_at([0] * fan.rank)


def local_cone_at_infinity(fan: PolyhedralSet) -> PolyhedralSet:
    return fan.recession()


class HemisphereCertificate:
    """Either a strict witness chi or a rational convex combination of 0."""

    def __init__(self, witness=None, combination=None):
        if (witness is None) == (combination is None):
            raise ValueError("give exactly one of witness and combination")
        self.witness = witness
        self.combination = combination

    @property
    def in_hemisphere(self) -> bool:
        return self.witness is not None


def in_open_hemisphere(dirs) -> HemisphereCertificate:
    """Decide whether finitely many directions share an open hemisphere.

    Returns a verified witness character (chi * u > 0 for every input u) or
    a verified rational convex combination of the inputs equal to zero.
    """
    dirs = [d.vector if isinstance(d, Direction) else tuple(d) for d in dirs]
    if not dirs:
        raise ValueError("need at least one direction")
    n = len(dirs[0])
    if any(len(u) != n for u in dirs):
        raise DimensionError("directions of different lengths")
    # chi * u >= 1 for all u is scale-equivalent to chi * u > 0
    point = _solve_system([], [(u, 1, False) for u in dirs], n)
    if point is not None:
        nums, den = point
        chi = Character(tuple(Fraction(x, den) for x in nums))
        if not all(_dot(chi.values, u) > 0 for u in dirs):
            raise SoundnessError("hemisphere witness fails a direction")
        return HemisphereCertificate(witness=chi)
    k = len(dirs)
    eqs = [(tuple(dirs[j][i] for j in range(k)), 0) for i in range(n)]
    eqs.append(((1,) * k, 1))
    nonneg = [(tuple(int(j == i) for j in range(k)), 0, False) for i in range(k)]
    point = _solve_system(eqs, nonneg, k)
    if point is None:
        raise SoundnessError("hemisphere alternative failed to produce a certificate")
    nums, den = point
    lam = [Fraction(x, den) for x in nums]
    if not (sum(lam) == 1 and all(x >= 0 for x in lam)
            and all(sum(l * u[i] for l, u in zip(lam, dirs)) == 0
                    for i in range(n))):
        raise SoundnessError("hemisphere combination is not a convex zero sum")
    return HemisphereCertificate(combination=tuple(lam))


def has_antipodal_pair(s: SphericalSet) -> bool:
    """True iff s holds some direction u together with its antipode -u.

    Each unordered pair of pieces is tested once: p and -q share a direction
    iff q and -p do.
    """
    return any(p.intersect(q.negate()).has_direction()
               for p, q in combinations_with_replacement(s.pieces, 2))


def balanceable_at(fan: PolyhedralSet, x) -> bool:
    """True iff the convex hull of the local cone at x is an affine subspace.

    Tested as: for every generator g of the local cone, -g lies in the
    positive hull of all generators.
    """
    if not fan.contains(x):
        raise ValueError(f"point {tuple(x)} is not in the set")
    gens = [d.vector for d in _ray_union(fan.local_cone_at(x).pieces)]
    if not gens:
        return True  # local cone is the origin; its hull is the zero subspace
    k = len(gens)
    for g in gens:
        eqs = [(tuple(gens[j][i] for j in range(k)), -g[i]) for i in range(fan.rank)]
        nonneg = [(tuple(int(j == i) for j in range(k)), 0, False) for i in range(k)]
        if _solve_system(eqs, nonneg, k) is None:
            return False
    return True


def pure_dimension(fan: PolyhedralSet):
    """Common dimension of inclusion-maximal pieces; None if mixed or empty."""
    pieces = [p for p in fan.pieces if not p.is_empty]
    if not pieces:
        return None
    sets = [PolyhedralSet(fan.rank, [p]) for p in pieces]
    dims = [p.dim() for p in pieces]
    maximal_dims = set()
    for i in range(len(pieces)):
        strictly_contained = False
        for j in range(len(pieces)):
            if j == i or dims[j] < dims[i]:
                continue
            if sets[i].subset_of(sets[j]) and not sets[j].subset_of(sets[i]):
                strictly_contained = True
                break
        if not strictly_contained:
            maximal_dims.add(dims[i])
    return maximal_dims.pop() if len(maximal_dims) == 1 else None
