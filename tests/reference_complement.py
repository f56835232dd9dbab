"""Reference: PolyhedralSet.complement as a plain product.

Every candidate q & c of the current pieces q and a piece's complement
parts c is built and decided by `is_empty` (a known point first, then
FM), with no row compared before it is built.  The complement in
`polyhedra.py` must give the same pieces, in the same order.
"""

from sigmatrop.polyhedra import Polyhedron


def reference_complement(s):
    out = [Polyhedron.full(s.rank)]
    for piece in s.pieces:
        if piece.is_empty:
            continue
        parts = piece.complement_pieces()
        out = [q.intersect(c) for q in out for c in parts]
        out = [q for q in out if not q.is_empty]
    return type(s)(s.rank, out)
