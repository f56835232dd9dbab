"""Exact linear algebra over Q and Z (desk scale).

Matrices are lists of row lists with int or rational entries.  One
fraction-free elimination, echelon (Bareiss), serves rank, nullspace and
invert: each row is made a primitive integer row by rings._primitive, and
every entry stays a minor of that integer matrix.  Everything returns fresh
lists.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import _primitive


def echelon(mat):
    """Fraction-free reduced row echelon form of a rational matrix.

    Each row is made primitive, then columns are eliminated in order by
    Gauss-Jordan steps with Bareiss's exact division by the previous pivot
    (every entry stays a minor of the integer matrix).  Returns (rows,
    pivots, den): row r < len(pivots) holds den at pivots[r] and 0 at the
    other pivot columns, and rows[r] / den is row r of the rref.
    """
    rows = [list(_primitive(row)) for row in mat]
    m = len(rows)
    pivots = []
    den = 1
    for c in range(len(rows[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            a = row[c]
            if i == r or (a == 0 and p == den):
                continue
            rows[i] = [(p * x - a * y) // den for x, y in zip(row, prow)]
        pivots.append(c)
        den = p
        if r + 1 == m:
            break
    return rows, pivots, den


def rank(mat) -> int:
    return len(echelon(mat)[1])


def nullspace(mat, n):
    """Basis of the right kernel of a matrix with n columns, as primitive
    integer tuples, one per free column: the rref's kernel vector (1 in its
    free coordinate) scaled to coprime integers, so that coordinate stays
    positive.  A matrix with no rows has the identity basis."""
    rows, pivots, den = echelon(mat)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = den
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        g = math.gcd(*v) if den > 0 else -math.gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def invert(mat):
    """Exact inverse of a square rational matrix, or None if singular.

    echelon reduces [A | I] to den * [I | A^-1] when A is invertible (the
    row scaling it applies cancels in the right block)."""
    n = len(mat)
    rows, pivots, den = echelon([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        return None
    return [[Fraction(x, den) for x in row[n:]] for row in rows[:n]]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def solve_integer(rows, rhs, ncols):
    """One integer solution x of rows*x = rhs in ncols unknowns, or None.

    Rows are sparse, dicts {column: int} with no zero entries.  Diagonalizes
    by unimodular row and column operations: the pivot is the nonzero
    (abs, row, column)-least entry of the remaining block, row operations
    act on rhs as they go, and column operations are replayed on the
    diagonal solution, whose free coordinates are zero.
    """
    rows = [dict(row) for row in rows]
    m = len(rows)
    b = [int(x) for x in rhs]
    col_ops = []  # (i, j, q): column i -= q * column j; q None swaps them
    for t in range(min(m, ncols)):
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
    y = [0] * ncols
    for i in range(m):
        d = rows[i].get(i, 0) if i < ncols else 0
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
