"""Earlier linear-algebra kernels, kept as test oracles.

`rref` eliminates over Fractions and `invert` runs it on [A | I]; `det` is
a Bareiss determinant, and `kernel_line` reads the kernel of n - 1 integer
rows off their signed maximal minors.  The package now does these jobs with
one fraction-free elimination (`sigmatrop.linalg.echelon`), and the tests
compare against these.  `mat_vec` is a plain matrix-vector product.
"""

import math
from fractions import Fraction


def rref(mat):
    """Reduced row echelon form over Fractions; returns (rows, pivot column
    indices)."""
    rows = [[Fraction(x) for x in row] for row in mat]
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


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def invert(mat):
    """Exact inverse of a square rational matrix by rref of [A | I], or None
    if singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]


def det(mat):
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k]
        akk = pivot[k]
        for row in a[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (akk * row[j] - aik * pivot[j]) // prev
        prev = akk
    return sign * a[-1][-1] if n else 1


def kernel_line(rows, n):
    """Primitive generator of the kernel of n - 1 integer rows of length n,
    or None when the rows are dependent: the signed maximal minors."""
    minors = [(-1) ** j * det([row[:j] + row[j + 1:] for row in rows])
              for j in range(n)]
    g = math.gcd(*minors)
    return tuple(x // g for x in minors) if g else None
