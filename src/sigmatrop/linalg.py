"""Exact linear algebra over Q and Z (desk scale).

Matrices are lists of row lists; rational entries are Fractions, integer
routines take plain ints.  Everything returns fresh lists.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = _frac_rows(mat)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(mat) -> int:
    if not mat:
        return 0
    return len(rref(mat)[1])


def nullspace(mat):
    """Basis of the right kernel (each vector has a 1 in its free coordinate)."""
    if not mat:
        return []
    n = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def invert(mat):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def primitive_vector(v):
    """Scale a nonzero rational vector to coprime integers, sign preserved."""
    fr = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * den) for x in fr]
    g = math.gcd(*(abs(x) for x in ints))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def solve_integer(mat, rhs, ncols=None):
    """One integer solution of mat*x = rhs, or None.

    Rows are lists of ints, or dicts {column: int} when ncols is given.
    Diagonalizes by unimodular row and column operations on sparse rows: the
    pivot is the nonzero (abs, row, column)-least entry of the remaining
    block, row operations act on rhs as they go, and column operations are
    replayed on the diagonal solution, whose free coordinates are zero.
    """
    if ncols is None:
        n = len(mat[0]) if mat else 0
        rows = [{j: int(x) for j, x in enumerate(row) if x} for row in mat]
    else:
        n = ncols
        rows = [dict(row) for row in mat]
    m = len(rows)
    b = [int(x) for x in rhs]
    col_ops = []  # (i, j, q): column i -= q * column j; q None swaps them
    for t in range(min(m, n)):
        while True:
            # rows < t hold only their diagonal entry and rows >= t are zero
            # left of column t; the pivot is the (abs, row, column)-least
            # nonzero of rows >= t
            low, pi = 0, None
            for i in range(t, m):
                if rows[i]:
                    a = min(map(abs, rows[i].values()))
                    if pi is None or a < low:
                        low, pi = a, i
                        if a == 1:
                            break
            if pi is None:
                break
            pj = min(j for j, v in rows[pi].items() if abs(v) == low)
            if pi != t:
                rows[t], rows[pi] = rows[pi], rows[t]
                b[t], b[pi] = b[pi], b[t]
            if pj != t:
                for row in rows[t:]:
                    a, c = row.pop(t, 0), row.pop(pj, 0)
                    if c:
                        row[t] = c
                    if a:
                        row[pj] = a
                col_ops.append((t, pj, None))
            pivot = rows[t]
            p = pivot[t]
            done = True
            for i in range(t + 1, m):
                row = rows[i]
                if t in row:
                    q = row[t] // p
                    for j, x in pivot.items():
                        v = row.get(j, 0) - q * x
                        if v:
                            row[j] = v
                        else:
                            row.pop(j, None)
                    b[i] -= q * b[t]
                    if t in row:
                        done = False
            in_col = [row for row in rows[t:] if t in row]
            for j in sorted(j for j in pivot if j > t):
                q = pivot[j] // p
                for row in in_col:
                    v = row.get(j, 0) - q * row[t]
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
                col_ops.append((j, t, q))
                if j in pivot:
                    done = False
            if done:
                break
    y = [0] * n
    for i in range(m):
        d = rows[i].get(i, 0) if i < n else 0
        if d == 0:
            if b[i] != 0:
                return None
        elif b[i] % d != 0:
            return None
        else:
            y[i] = b[i] // d
    for i, j, q in reversed(col_ops):
        if q is None:
            y[i], y[j] = y[j], y[i]
        else:
            y[j] -= q * y[i]
    return y
