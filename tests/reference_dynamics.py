"""The LaurentPoly layer of the push dynamics, kept as test oracles.

`poly_matrix_mul` multiplies matrices of LaurentPoly entries term by term,
`apply` and `compose` are a push map's image of a column and its product
with another map, and `reference_orbit` and `reference_compose_gsh_check`
are the far-direction estimate and the shift superadditivity check built
on them.  `sigmatrop.dynamics` runs the orbit on integer term maps over a
frame, and the tests compare its report against `reference_orbit`.  It
builds no product of maps: superadditivity is a theorem there, and the
tests check that `reference_compose_gsh_check` passes on seeded maps.
"""

from dataclasses import dataclass

from sigmatrop.dynamics import INF, PushMap, PushOrbitReport, gsh
from sigmatrop.rings import DimensionError, Direction


def poly_matrix_mul(a, b):
    """Product of matrices with LaurentPoly entries."""
    k, m, n = len(a), len(b), len(b[0])
    if any(len(row) != m for row in a):
        raise DimensionError("matrix product: inner dimensions differ")
    out = []
    for i in range(k):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for t in range(1, m):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def compose(phi: PushMap, psi: PushMap) -> PushMap:
    if phi.size != psi.size or phi.rank != psi.rank:
        raise DimensionError("size mismatch in composition")
    return PushMap(phi.rank, tuple(
        tuple(row) for row in poly_matrix_mul(phi.entries, psi.entries)))


def apply(phi: PushMap, vec):
    """Image of a column vector of ring elements."""
    if len(vec) != phi.size:
        raise DimensionError("vector length must match the matrix size")
    return tuple(row[0] for row in poly_matrix_mul(phi.entries, [[v] for v in vec]))


def reference_orbit(phi: PushMap, start, iters: int) -> PushOrbitReport:
    """Iterate phi on the start vector as LaurentPolys and cluster the
    nonzero monomials of the last three iterates into primitive directions."""
    vec = tuple(start)
    history = []
    died_out = False
    steps = 0
    for _ in range(iters):
        vec = apply(phi, vec)
        steps += 1
        supp = set()
        for entry in vec:
            supp.update(entry.terms)
        if not supp:
            died_out = True
            break
        history.append(supp)
    dirs = {Direction.from_vector(g).vector
            for g in set().union(*history[-3:]) if any(g)}
    return PushOrbitReport(directions=[Direction(v) for v in sorted(dirs)],
                           died_out=died_out, steps=steps)


@dataclass
class ComposeShiftReport:
    gsh_first: object
    gsh_second: object
    gsh_composed: object
    additive_ok: bool
    power_ok: bool
    passed: bool


def reference_compose_gsh_check(phi, psi, chi, max_power=5) -> ComposeShiftReport:
    """gsh(phi psi) >= gsh(phi) + gsh(psi) and gsh(phi^k) >= k gsh(phi) for
    k = 2, ..., max_power, each power built as a PushMap by `compose`."""
    g_phi, g_psi = gsh(phi, chi), gsh(psi, chi)
    composed = compose(phi, psi)
    g_comp = gsh(composed, chi)
    additive_ok = g_comp >= g_phi + g_psi
    power_ok = True
    if g_phi != INF:
        acc = phi
        for k in range(2, max_power + 1):
            acc = compose(phi, acc)
            if gsh(acc, chi) < k * g_phi:
                power_ok = False
                break
    return ComposeShiftReport(gsh_first=g_phi, gsh_second=g_psi,
                              gsh_composed=g_comp, additive_ok=additive_ok,
                              power_ok=power_ok,
                              passed=additive_ok and power_ok)
