"""The multiple search for principal ideals over Z, kept as a test oracle.

`sigmatrop.sigma` certifies a region piece of ZG/(f) over Z by its unit
vertex: a monomial of f with coefficient +-1 whose open vertex cone holds
the piece.  Before that rule it searched, at each box size k = 1..box, for
a multiple lam = f*h with h supported on [-k, k]^n, constant term 1 and
every other monomial positive on the piece, by one integer system per box.
`multiple_system` builds that system and `multiple_cover` runs the search
on region pieces, with no splitting, so the tests can check that both
certify the same pieces with the same certificates.
"""

import itertools

from sigmatrop import linalg, sigma
from sigmatrop.polyhedra import Polyhedron
from sigmatrop.rings import ZZ, LaurentPoly


def multiple_system(f: LaurentPoly):
    """The certificate system of the principal ideal (f) over Z: lam = f*h
    with one integer unknown per monomial h of [-k, k]^n, one row per
    monomial of f*h outside the strict dual (its coefficient is 0) and the
    constant-term row (its coefficient is 1).  system(in_strict_dual, k)
    returns (sparse rows, rhs, column count, solution-to-lam map)."""
    if f.domain.kind != "ZZ":
        raise ValueError("integer certificates need a generator over ZZ")
    rank = f.rank
    zero = (0,) * rank
    f_terms = [(g, int(c)) for g, c in sorted(f.terms.items())]

    def system(in_strict_dual, k):
        hsupp = list(itertools.product(range(-k, k + 1), repeat=rank))
        # column h holds f's coefficient c_g in the row of msum = g + h
        columns = [[(tuple(a + b for a, b in zip(g, h)), c) for g, c in f_terms]
                   for h in hsupp]
        row_of = {}
        for msum in sorted({msum for col in columns for msum, _ in col}):
            if msum != zero and not in_strict_dual(msum):
                row_of[msum] = len(row_of)
        row_of[zero] = len(row_of)  # the constant term, which must be 1
        rows = [{} for _ in row_of]
        for j, col in enumerate(columns):
            for msum, c in col:
                r = row_of.get(msum)
                if r is not None:
                    rows[r][j] = c
        rhs = [0] * (len(rows) - 1) + [1]

        def to_lam(sol):
            return f * LaurentPoly(rank, ZZ, {h: c for h, c in zip(hsupp, sol) if c})

        return rows, rhs, len(hsupp), to_lam

    return system


def multiple_cover(f: LaurentPoly, pieces, box: int = 6, coeff_bound: int = 10 ** 6):
    """The multiple search on each piece: the first re-checked lam within
    coeff_bound at the least box size that has one.  Returns (certified,
    failed), certified as (piece, validity cone, lam) records whose cone is
    where lam's non-constant monomials are positive."""
    system = multiple_system(f)
    certified, failed = [], []
    for piece in pieces:
        in_strict_dual = sigma._strict_dual_test(piece)
        for k in range(1, box + 1):
            rows, rhs, ncols, to_lam = system(in_strict_dual, k)
            sol = linalg.solve_integer(rows, rhs, ncols)
            if sol is None or any(abs(c) > coeff_bound for c in sol):
                continue
            lam = to_lam(sol)
            sigma._check_searched(lam, piece)
            cone = Polyhedron.cone(piece.rank, gt=[g for g in lam.terms if any(g)])
            certified.append((piece, cone, lam))
            break
        else:
            failed.append(piece)
    return certified, failed
