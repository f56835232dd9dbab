import random
from fractions import Fraction

import pytest

from sigmatrop.linalg import invert, mat_mul, nullspace, rank, solve_integer

from reference_linalg import invert as ref_invert, kernel_line, mat_vec


def integer_diagonalize(mat):
    """Dense reference: diagonalize an integer matrix by unimodular row and
    column operations.

    Returns (D, U, V) with U*mat*V = D, D diagonal (no divisibility chain
    normalization), U and V unimodular.
    """
    S = [[int(x) for x in row] for row in mat]
    m = len(S)
    n = len(S[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in S:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    for t in range(min(m, n)):
        while True:
            entries = [(abs(S[i][j]), i, j) for i in range(t, m) for j in range(t, n)
                       if S[i][j] != 0]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            done = True
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    row_op(i, t, S[i][t] // S[t][t])
                    if S[i][t] != 0:
                        done = False
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    col_op(j, t, S[t][j] // S[t][t])
                    if S[t][j] != 0:
                        done = False
            if done:
                break
    return S, U, V


def dense_solve_integer(mat, rhs):
    """Reference solver: free coordinates of the diagonal system zero."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0:
        return [0] * n
    D, U, V = integer_diagonalize(mat)
    c = [sum(U[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        d = D[i][i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(min(m, n), m):
        if c[i] != 0:
            return None
    return [sum(V[i][k] * y[k] for k in range(n)) for i in range(n)]


def frac_det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(c + 1, n):
            f = m[i][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_rank():
    assert rank([[2, 4], [1, 2]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank([]) == 0


def test_nullspace():
    # primitive integer vectors, positive in their free coordinate
    assert nullspace([[1, 1, 0]], 3) == [(-1, 1, 0), (0, 0, 1)]
    assert nullspace([[Fraction(1, 2), Fraction(1, 3)]], 2) == [(-2, 3)]
    assert nullspace([[-2, 4], [1, -2]], 2) == [(2, 1)]
    assert nullspace([[1, 0], [0, 1]], 2) == []


def test_nullspace_of_no_rows_is_the_identity_basis():
    for n in range(5):
        assert nullspace([], n) == [tuple(int(i == j) for j in range(n)) for i in range(n)]


def test_nullspace_line_matches_the_minors_reference():
    """On n - 1 integer rows, nullspace is one line exactly when the signed
    maximal minors are not all 0, and it is their line."""
    rng = random.Random(37)
    seen = set()
    for _ in range(1200):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(n)]
                for _ in range(n - 1)]
        if n > 2 and rng.random() < 0.3:  # a dependent row
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        got, want = nullspace(rows, n), kernel_line(rows, n)
        if want is None:
            assert len(got) != 1, rows
        else:
            assert got in ([want], [tuple(-x for x in want)]), rows
        seen.add((n, want is None))
    assert {(n, False) for n in range(1, 7)} <= seen
    assert {(n, True) for n in range(2, 7)} <= seen


def test_invert():
    inv = invert([[2, 1], [1, 1]])
    assert mat_mul([[2, 1], [1, 1]], inv) == [[1, 0], [0, 1]]
    assert invert([[1, 2], [2, 4]]) is None


def test_invert_matches_the_rref_reference():
    rng = random.Random(43)
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        den = rng.choice((1, 1, 4))
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.25:  # singular by construction
            a[-1] = [x - 3 * y for x, y in zip(a[0], a[-2])] if n > 2 else a[0][:]
        got, want = invert(a), ref_invert(a)
        assert got == want, a
        if got is None:
            singular += 1
        else:
            assert all(type(x) is Fraction for row in got for x in row)
    assert singular >= 100


def test_integer_diagonalize_invariants():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        d, u, v = integer_diagonalize(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(frac_det(u)) == 1 and abs(frac_det(v)) == 1
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0


def sparse(mat):
    """Dense integer rows as the {column: int} rows solve_integer reads."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def solve_dense(mat, rhs):
    return solve_integer(sparse(mat), rhs, len(mat[0]))


def test_solve_integer():
    # parity obstruction
    assert solve_dense([[2]], [1]) is None
    assert solve_dense([[2]], [6]) == [3]
    # a system with a known integer solution
    rng = random.Random(29)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(a, x)
        sol = solve_dense(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
    # gcd obstruction: 6x + 10y = 3 has no integer solution
    assert solve_dense([[6, 10]], [3]) is None
    assert solve_dense([[6, 10]], [4]) is not None


def test_sparse_solver_matches_the_dense_reference():
    """Same pivots, same answer: identical vectors or both None, including on
    sparse, rank-deficient and inconsistent systems; the input rows are left
    as they were."""
    rng = random.Random(31)
    for trial in range(1500):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        a = [[rng.randint(-7, 7) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)]
        if trial % 3 == 0:  # consistent by construction
            b = mat_vec(a, [rng.randint(-3, 3) for _ in range(n)])
        else:
            b = [rng.randint(-9, 9) for _ in range(m)]
        want = dense_solve_integer(a, b)
        rows = sparse(a)
        assert solve_integer(rows, b, n) == want, (a, b)
        assert rows == sparse(a)
