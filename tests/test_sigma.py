import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from sigmatrop import linalg, sigma
from sigmatrop.cli import run
from sigmatrop.polyhedra import (Polyhedron, PolyhedralSet, SphericalSet,
                                in_open_hemisphere)
from sigmatrop.rings import GF, QQ, ZZ, Character, Direction, LaurentPoly
from sigmatrop.sigma import (CyclicModule, MatrixAction, ScalarAction,
                             UnsupportedModeError, annihilates, as_matrix_action,
                             certificate_search, certificate_valid,
                             determinant_reduction, direct_sum_module, fpm_basis,
                             fpm_test, ideal_membership, matrix_certificate_valid,
                             metabelian_fp, metabelian_fp_infinity,
                             sigma_cyclic_field, sigma_direct_sum, sigma_of_module,
                             sigma_scalar_action_exact)
from sigmatrop.tropical import global_tropical_Z

from reference_linalg import mat_vec, rref
from reference_multiple import multiple_cover
from test_cone_kernels import as_fractions, counting

X = LaurentPoly.monomial


def poly(terms, rank=1, domain=ZZ):
    return LaurentPoly(rank, domain, terms)


def test_presentation_guards():
    with pytest.raises(ValueError):
        ScalarAction.of(0)
    with pytest.raises(ValueError):
        MatrixAction.of([[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
                        [[1, 0], [0, 1]])  # do not commute
    with pytest.raises(ValueError):
        MatrixAction.of([[[1, 1], [1, 1]]], [[1, 0], [0, 1]])  # singular
    with pytest.raises(ValueError):
        MatrixAction.of([[[2, 0], [0, 3]]], [[1, 0]])  # generators do not span
    for rank in (0, -1):
        with pytest.raises(ValueError, match="rank >= 1"):
            CyclicModule(rank, ZZ, ())


def test_annihilates_examples():
    m6 = ScalarAction.of(6)
    assert annihilates(poly({(1,): 1, (0,): -6}), m6)
    assert not annihilates(poly({(1,): 1, (0,): -5}), m6)
    assert annihilates(poly({(0,): 1, (-2,): -36}), m6)


def test_annihilates_matrix_mode():
    m = MatrixAction.of([[[2, 1], [0, 2]]], [[1, 0], [0, 1]])
    charpoly = poly({(2,): 1, (1,): -4, (0,): 4})  # (x-2)^2
    assert annihilates(charpoly, m)
    assert not annihilates(poly({(1,): 1, (0,): -2}), m)


def test_ideal_membership_examples():
    f = poly({(1,): 1, (0,): -6}, domain=QQ)
    assert ideal_membership(poly({(2,): 1, (0,): -36}, domain=QQ), [f], QQ)
    assert not ideal_membership(poly({(1,): 1, (0,): -5}, domain=QQ), [f], QQ)
    g1 = poly({(1, 0): 1, (0, 1): 1, (0, 0): 1}, rank=2, domain=QQ)
    g2 = poly({(1, 0): 1, (0, 1): -1}, rank=2, domain=QQ)
    assert ideal_membership(g1, [g1, g2], QQ)
    # over Z by Gauss's lemma: f | lam over Q and content(f) | content(lam)
    two_f = poly({(1,): 2, (0,): -2})
    assert ideal_membership(poly({(2,): 4, (0,): -4}), [two_f], ZZ)
    assert ideal_membership(poly({(0,): 6, (-1,): -6}), [two_f], ZZ)
    # x - 1 is 1/2 (2x - 2) over Q but not a multiple over Z
    assert not ideal_membership(poly({(1,): 1, (0,): -1}), [two_f], ZZ)
    assert not ideal_membership(poly({(1,): 2, (0,): -6}), [two_f], ZZ)
    assert ideal_membership(poly({}), [two_f], ZZ)
    assert not ideal_membership(poly({(0,): 1}), [], ZZ)
    with pytest.raises(UnsupportedModeError):
        ideal_membership(poly({(1,): 1}), [two_f, poly({(1,): 1, (0,): -6})], ZZ)


def test_ideal_membership_of_rational_members_of_integer_generators():
    # sympy infers ZZ for integer generators; the member 1 + 3/2 y - 1/2 x
    # raised CoercionFailed before both were taken over QQ
    g1 = poly({(0, 0): 1, (1, 0): 1, (0, 1): 1}, rank=2, domain=QQ)
    g2 = poly({(0, 0): 2, (1, 0): -1, (0, 1): 3}, rank=2, domain=QQ)
    member = poly({(0, 0): 1, (0, 1): Fraction(3, 2), (1, 0): Fraction(-1, 2)},
                  rank=2, domain=QQ)
    assert ideal_membership(member, [g1, g2], QQ)
    assert not ideal_membership(poly({(1, 0): Fraction(1, 2)}, rank=2, domain=QQ),
                                [g1], QQ)


def test_ideal_membership_laurent_units():
    # x^-1 * (x - 6) is in (x - 6) in the Laurent ring
    f = poly({(1,): 1, (0,): -6}, domain=QQ)
    shifted = poly({(0,): 1, (-1,): -6}, domain=QQ)
    assert ideal_membership(shifted, [f], QQ)


def test_certificate_valid_examples():
    m6 = ScalarAction.of(6)
    lam = poly({(0,): 1, (-2,): -36})
    assert certificate_valid(lam, Character.of(-1), m6)
    assert not certificate_valid(lam, Character.of(1), m6)
    assert not certificate_valid(poly({(1,): 1, (0,): -6}), Character.of(-1), m6)
    assert not certificate_valid(poly({(1,): 1, (0,): -6}), Character.of(1), m6)
    with pytest.raises(ValueError):
        certificate_valid(lam, Character.of(0), m6)


def test_certificate_search_finds_telescoped_form():
    m6 = ScalarAction.of(6)
    lam = certificate_search(m6, Character.of(-1), box=3, coeff_bound=300)
    assert lam is not None
    assert certificate_valid(lam, Character.of(-1), m6)
    # telescoped family: 1 - 6^(j+1) x^(-(j+1))
    support = sorted(lam.terms)
    assert lam.terms[(0,)] == 1
    (neg,) = [g for g in support if g != (0,)]
    j = -neg[0] - 1
    assert j >= 0 and lam.terms[neg] == -(6 ** (j + 1))


def test_certificate_search_obstruction_side():
    m6 = ScalarAction.of(6)
    assert certificate_search(m6, Character.of(1), box=6, coeff_bound=10 ** 6) is None


def test_certificate_search_guards():
    with pytest.raises(UnsupportedModeError):
        certificate_search(CyclicModule(1, GF(2), ()), Character.of(1), 2, 10)
    with pytest.raises(ValueError):
        certificate_search(ScalarAction.of(6), Character.of(0), 2, 10)


def test_matrix_certificate_examples():
    m6 = ScalarAction.of(6)
    lam = poly({(0,): 1, (-2,): -36})
    assert matrix_certificate_valid([[lam]], Character.of(-1), m6)
    zero = LaurentPoly.zero(1)
    assert not matrix_certificate_valid([[zero]], Character.of(-1), m6)

    m66 = direct_sum_module(m6, m6)
    theta = [[lam, zero], [zero, lam]]
    assert matrix_certificate_valid(theta, Character.of(-1), m66)

    det = determinant_reduction(theta)
    assert det == lam * lam
    assert certificate_valid(det, Character.of(-1), m66)


def test_matrix_certificate_off_diagonal_grade():
    m6 = ScalarAction.of(6)
    m66 = direct_sum_module(m6, m6)
    lam = poly({(0,): 1, (-1,): -6})
    mu = lam.shift((-1,))  # strictly positive chi-value at chi=(-1)
    theta = [[lam, LaurentPoly.zero(1)], [mu, lam]]
    assert matrix_certificate_valid(theta, Character.of(-1), m66)
    # an off-diagonal entry of grade zero breaks the identity requirement
    theta_bad = [[lam, LaurentPoly.one(1)], [LaurentPoly.zero(1), lam]]
    assert not matrix_certificate_valid(theta_bad, Character.of(-1), m66)


def test_determinant_reduction_random_instances():
    rng = random.Random(31)
    m6 = ScalarAction.of(6)
    m66 = direct_sum_module(m6, m6)
    chi = Character.of(-1)
    base = certificate_search(m6, chi, box=3, coeff_bound=300)
    failures = 0
    for _ in range(30):
        j = rng.randint(1, 3)
        lam1 = poly({(0,): 1, (-j,): -(6 ** j)})
        lam2 = poly({(0,): 1, (-1,): -6})
        shift = (-rng.randint(1, 3),)
        mu = (lam1 if rng.random() < 0.5 else lam2).shift(shift).scale(
            rng.choice([-1, 1]))
        if rng.random() < 0.5:
            theta = [[lam1, LaurentPoly.zero(1)], [mu, lam2]]
        else:
            theta = [[lam1, mu], [LaurentPoly.zero(1), lam2]]
        assert matrix_certificate_valid(theta, chi, m66)
        det = determinant_reduction(theta)
        if not certificate_valid(det, chi, m66):
            failures += 1
    assert failures == 0
    assert base is not None


def test_sigma_scalar_action_6():
    result = sigma_scalar_action_exact(ScalarAction.of(6))
    assert result.undecided.is_empty
    assert result.proved_complement.contains(Direction.of(1))
    assert not result.proved_complement.contains(Direction.of(-1))
    assert result.proved_sigma.contains(Direction.of(-1))
    assert not result.proved_sigma.contains(Direction.of(1))
    lam = result.certificate_for(Direction.of(-1))
    assert lam is not None and certificate_valid(lam, Character.of(-1),
                                                 ScalarAction.of(6))
    assert {w.prime for w in result.witnesses} == {2, 3}


def test_sigma_scalar_action_rank2():
    result = sigma_scalar_action_exact(ScalarAction.of(2, 3))
    assert result.undecided.is_empty
    fd = result.proved_complement.finite_directions
    assert [d.vector for d in fd] == [(0, 1), (1, 0)]
    for vec in [(-1, 0), (0, -1), (1, 1), (-1, 2), (2, -1), (-3, -4)]:
        d = Direction.of(*vec)
        assert result.proved_sigma.contains(d), vec
        lam = result.certificate_for(d)
        assert lam is not None
        assert certificate_valid(lam, Character.of(*d.vector), ScalarAction.of(2, 3))


def test_sigma_trivial_action():
    result = sigma_scalar_action_exact(ScalarAction.of(1))
    assert result.proved_complement.is_empty
    assert result.undecided.is_empty
    assert result.proved_sigma.contains(Direction.of(1))
    assert result.proved_sigma.contains(Direction.of(-1))


def test_sigma_matrix_action_diagonalizable():
    m = MatrixAction.of([[[2, 0], [0, 3]]], [[1, 0], [0, 1]])
    result = sigma_scalar_action_exact(m)
    assert result.undecided.is_empty
    fd = result.proved_complement.finite_directions
    assert [d.vector for d in fd] == [(1,)]
    assert result.proved_sigma.contains(Direction.of(-1))
    assert any("diagonalized" in n for n in result.notes)


def test_sigma_matrix_action_non_diagonalizable():
    m = MatrixAction.of([[[2, 1], [0, 2]]], [[1, 0], [0, 1]])
    result = sigma_scalar_action_exact(m)
    # complement side undecided by design; sigma side still certified
    assert result.proved_complement.is_empty
    assert result.proved_sigma.contains(Direction.of(-1))
    assert not result.undecided.is_empty
    lam = result.certificate_for(Direction.of(-1))
    assert lam is not None and certificate_valid(lam, Character.of(-1), m)


def reference_eigentuples(m):
    """Reference: joint eigenvalue tuples by restricting each matrix to the
    eigenspaces found so far (change of basis), with the characteristic
    polynomial from a symbolic determinant and its rational roots from a
    divisor search."""
    def char_poly(mat):
        d = len(mat)
        lam = sympy.Symbol("lam")
        a = sympy.Matrix([[sympy.Rational(x) for x in row] for row in mat])
        p = sympy.Poly((a - lam * sympy.eye(d)).det() * (-1) ** d, lam)
        return [Fraction(str(c)) for c in p.all_coeffs()]

    def rational_roots(coeffs):
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        lead, const = ints[0], ints[-1]
        if const == 0:
            return {Fraction(0)} | rational_roots(coeffs[:-1])
        roots = set()
        for p in sympy.divisors(abs(const)):
            for q in sympy.divisors(abs(lead)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    val = Fraction(0)
                    for c in coeffs:
                        val = val * cand + c
                    if val == 0:
                        roots.add(cand)
        return roots

    def solve(mat, rhs):
        n = len(mat[0])
        aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
        rows, pivots = rref(aug)
        if n in pivots:
            return None
        x = [Fraction(0)] * n
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][n]
        return x

    d = m.dim
    spaces = [([tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)], ())]
    for mat in m.mats:
        mat = [list(r) for r in mat]
        new_spaces = []
        for basis, eigs in spaces:
            k = len(basis)
            bt = [[basis[j][i] for j in range(k)] for i in range(d)]
            rep = []
            for b in basis:
                coords = solve(bt, mat_vec(mat, list(b)))
                if coords is None:
                    return None
                rep.append(coords)
            t = [[rep[j][i] for j in range(k)] for i in range(k)]
            found = 0
            for root in sorted(rational_roots(char_poly(t))):
                shifted = [[t[i][j] - (root if i == j else 0) for j in range(k)]
                           for i in range(k)]
                kern = linalg.nullspace(shifted, k)
                if kern:
                    found += len(kern)
                    sub = [tuple(sum(v[j] * basis[j][i] for j in range(k))
                                 for i in range(d)) for v in kern]
                    new_spaces.append((sub, eigs + (root,)))
            if found != k:
                return None
        spaces = new_spaces
    return sorted(set(eigs for _, eigs in spaces))


def seeded_commuting_family(rng, d, rank):
    """rank commuting invertible d x d matrices P B_k P^-1, B_k block
    diagonal with one block kind per position: rational scalars from a small
    pool (so one matrix repeats an eigenvalue that another splits), a Jordan
    block a + bN, or a + bC with C = [[0, c], [1, 0]], c not a square."""
    kinds, left = [], d
    while left:
        kinds.append("scalar" if left == 1 else
                     rng.choice(("scalar", "scalar", "scalar", "jordan", "irrational")))
        left -= 1 if kinds[-1] == "scalar" else 2
    while True:
        p = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        p_inv = linalg.invert(p)
        if p_inv is not None:
            break
    cs = [rng.choice((2, 3, -1, 5)) for _ in kinds]
    mats = []
    for _ in range(rank):
        b = [[Fraction(0)] * d for _ in range(d)]
        at = 0
        for kind, c in zip(kinds, cs):
            a = Fraction(rng.choice((1, -1, 2))) / rng.choice((1, 1, 3))
            if kind == "scalar":
                b[at][at] = a
                at += 1
                continue
            e = rng.choice((0, 0, 1, 2))
            b[at][at] = b[at + 1][at + 1] = a
            if kind == "jordan":
                b[at][at + 1] = Fraction(e)
            else:
                b[at][at + 1], b[at + 1][at] = c * e, Fraction(e)
            at += 2
        mats.append(linalg.mat_mul(linalg.mat_mul(p, b), p_inv))
    return MatrixAction.of(mats, [[int(i == j) for j in range(d)] for i in range(d)])


def test_eigentuples_match_the_change_of_basis_reference():
    """Seeded commuting families of rank 1-3 on Q^2..Q^4 give the same
    tuples as the reference, or None on both sides."""
    rng = random.Random(41)
    split = undiagonalizable = 0
    for _ in range(80):
        m = seeded_commuting_family(rng, rng.randint(2, 4), rng.randint(1, 3))
        got = sigma._rational_eigentuples(m)
        assert got == reference_eigentuples(m), m
        if got is None:
            undiagonalizable += 1
        elif len({t[0] for t in got}) < len(got):
            split += 1  # the first matrix repeats an eigenvalue that a later one splits
    assert split >= 5 and undiagonalizable >= 10


def test_sigma_cyclic_field_principal():
    f = LaurentPoly(2, QQ, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    result = sigma_cyclic_field(CyclicModule(2, QQ, (f,)))
    assert result.undecided.is_empty
    fd = result.proved_complement.finite_directions
    assert [d.vector for d in fd] == [(-1, -1), (0, 1), (1, 0)]
    for vec in [(1, 1), (-1, 0), (0, -1), (1, 2), (-2, -1)]:
        d = Direction.of(*vec)
        assert result.proved_sigma.contains(d)
        lam = result.certificate_for(d)
        assert lam is not None
        assert certificate_valid(lam, Character.of(*d.vector),
                                 CyclicModule(2, QQ, (f,)))


def test_sigma_cyclic_zero_ideal_lamplighter():
    mod = CyclicModule(1, GF(2), ())
    result = sigma_cyclic_field(mod)
    assert result.proved_complement.contains(Direction.of(1))
    assert result.proved_complement.contains(Direction.of(-1))
    assert result.proved_sigma.is_empty and result.undecided.is_empty


def test_sigma_cyclic_unit_like():
    f = LaurentPoly(1, QQ, {(1,): 1, (0,): -1})
    result = sigma_cyclic_field(CyclicModule(1, QQ, (f,)))
    assert result.proved_complement.is_empty
    assert result.proved_sigma.contains(Direction.of(1))
    assert result.proved_sigma.contains(Direction.of(-1))
    assert result.undecided.is_empty


def test_sigma_cyclic_over_Z_principal():
    f = LaurentPoly(1, ZZ, {(1,): 1, (0,): -6})
    result = sigma_cyclic_field(CyclicModule(1, ZZ, (f,)))
    assert result.undecided.is_empty
    assert result.proved_complement.contains(Direction.of(1))
    assert result.proved_sigma.contains(Direction.of(-1))
    lam = result.certificate_for(Direction.of(-1))
    assert lam is not None
    assert lam.terms[(0,)] == 1
    # D-dependence: the same polynomial over the field Q has empty complement
    f_q = LaurentPoly(1, QQ, {(1,): 1, (0,): -6})
    result_q = sigma_cyclic_field(CyclicModule(1, QQ, (f_q,)))
    assert result_q.proved_complement.is_empty
    assert result_q.proved_sigma.contains(Direction.of(1))
    assert result_q.proved_sigma.contains(Direction.of(-1))


def _principal_over_z(rng, rank, content, unit):
    """A seeded generator over Z of 2-4 terms (2-3 at rank 3 and 4) with the
    given content: content times coefficients whose gcd is 1, one of them
    +-1 when unit is true and none when it is false.  Exponents lie in
    [-2, 2]^rank, [-1, 1]^rank from rank 3 on."""
    span = 2 if rank < 3 else 1
    n = rng.randint(2, 4 if rank < 3 else 3)
    exps = set()
    while len(exps) < n:
        exps.add(tuple(rng.randint(-span, span) for _ in range(rank)))
    first = [rng.choice((-1, 1))] if unit else [rng.choice((-2, 2)), rng.choice((-3, 3))]
    pool = (-3, -2, -1, 1, 2, 3, 5) if unit else (-3, -2, 2, 3, 4, 5)
    coefs = first + [rng.choice(pool) for _ in range(n - len(first))]
    rng.shuffle(coefs)
    return LaurentPoly(rank, ZZ, {g: content * c for g, c in zip(sorted(exps), coefs)})


def _region_pieces(f):
    return global_tropical_Z(f).radial().complement().pieces


def test_vertex_certificates_match_the_multiple_search():
    """On seeded principal ideals over Z of rank 1-4, with and without a
    coefficient +-1 and of content 1, 2, 3 and 6, the unit-vertex rule
    certifies the same pieces as the multiple search, with the same
    certificate and cone, and leaves the same pieces undecided.  Exponents
    lie in [-2, 2]^n, [-1, 1]^n from rank 3 on, so the search's box 3, box 2
    from rank 3 on, holds every h = +-x^(-g0) and one size more."""
    rng = random.Random(31)
    cases = [(rank, content, _principal_over_z(rng, rank, content, unit))
             for rank, draws in ((1, 4), (2, 6), (3, 3), (4, 2))
             for content in (1, 2, 3, 6) for unit in (True, False)
             for _ in range(draws)]
    # seed-1 sigma-ladder job 31: its one piece, the whole line, meets the
    # vertex cones of x^-1 and x^2
    cases.append((1, 1, poly({(-1,): 1, (0,): 2, (1,): -2, (2,): 1})))
    certified, failed = set(), 0
    for rank, content, f in cases:
        assert sigma._content(f) == content, f
        pieces = _region_pieces(f)
        got = sigma._vertex_certificates(f, pieces)
        assert got == multiple_cover(f, pieces, box=3 if rank < 3 else 2), f
        certified |= {(rank, content)} if got[0] else set()
        failed += len(got[1])
    # certified pieces appear at every rank, and only for content 1
    assert certified == {(rank, 1) for rank in (1, 2, 3, 4)}
    assert failed > 100


def test_vertex_rule_reaches_past_the_search_box():
    """ZG/(x^-7 + 2): the 2-adic point puts -1 in the complement, and +1 lies
    in the vertex cone of x^-7, coefficient 1.  The search's box [-6, 6]
    does not hold h = x^7, so it leaves +1 undecided; the rule certifies it
    with lam = 1 + 2x^7 whatever the box."""
    f = poly({(-7,): 1, (0,): 2})
    pieces = _region_pieces(f)
    assert [p.contains((1,)) for p in pieces] == [True]
    certified, failed = multiple_cover(f, pieces)
    assert not certified and failed == list(pieces)
    result = sigma_cyclic_field(CyclicModule(1, ZZ, (f,)))
    assert result.undecided.is_empty and not result.notes[:-1]
    assert result.proved_complement.contains(Direction.of(-1))
    assert result.certificate_for(Direction.of(1)) == poly({(0,): 1, (7,): 2})
    for box in (1, 6):
        assert sigma_of_module(CyclicModule(1, ZZ, (f,)), box_limit=box).certified == \
            result.certified


def test_content_two_leaves_every_piece_undecided_unsearched(monkeypatch):
    """A generator of content 2 has no coefficient +-1: every region piece
    stays undecided under one note, and deciding them enumerates no ray and
    solves no integer system."""
    f = poly({(0, 0): 2, (1, 0): -2, (1, 2): -2, (2, 1): 4}, rank=2)
    result = sigma_cyclic_field(CyclicModule(2, ZZ, (f,)))
    assert result.proved_sigma.is_empty and not result.certified
    pieces = _region_pieces(f)
    assert result.undecided.pieces == SphericalSet(2, pieces).pieces
    assert result.notes[0] == (
        f"{len(pieces)} pieces lie in no open vertex cone of a monomial with "
        "coefficient +-1, so no multiple of the generator has initial part 1 "
        "on a whole piece")
    solves = counting(monkeypatch, linalg, "solve_integer")
    rays = counting(monkeypatch, Polyhedron, "rays")
    assert sigma._vertex_certificates(f, pieces) == ([], list(pieces))
    assert solves == [] and rays == []


def test_sigma_cyclic_multi_generator_outer_bound():
    f = LaurentPoly(2, QQ, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    g = LaurentPoly(2, QQ, {(1, 0): 1, (0, 1): -1})
    result = sigma_cyclic_field(CyclicModule(2, QQ, (f, g)))
    assert result.complement_outer_bound is not None
    assert result.proved_complement.is_empty
    # directions certified by monomial reductions of either generator
    assert result.proved_sigma.contains(Direction.of(1, 2))
    assert not result.undecided.is_empty
    # the true complement direction stays undecided, never claimed
    assert result.classify(Direction.of(-1, -1)) == "undecided"
    with pytest.raises(UnsupportedModeError):
        sigma_cyclic_field(CyclicModule(
            2, ZZ, (LaurentPoly(2, ZZ, {(1, 0): 1, (0, 0): -6}),
                    LaurentPoly(2, ZZ, {(0, 1): 1, (0, 0): -2}))))


def test_sigma_direct_sum_examples():
    r6 = sigma_of_module(ScalarAction.of(6))
    r16 = sigma_of_module(ScalarAction.of(Fraction(1, 6)))
    both = sigma_direct_sum(r6, r16)
    assert both.proved_complement.contains(Direction.of(1))
    assert both.proved_complement.contains(Direction.of(-1))
    assert both.proved_sigma.is_empty

    whole = sigma_of_module(ScalarAction.of(1))
    merged = sigma_direct_sum(whole, r6)
    assert merged.proved_sigma.set_eq(r6.proved_sigma)
    assert merged.proved_complement.set_eq(r6.proved_complement)

    again = sigma_direct_sum(r6, r6)
    assert again.proved_sigma.set_eq(r6.proved_sigma)
    assert again.proved_complement.set_eq(r6.proved_complement)


def test_metabelian_predicates():
    r6 = sigma_of_module(ScalarAction.of(6))
    assert metabelian_fp(r6) is True
    assert metabelian_fp_infinity(r6) is True

    lamplighter = sigma_of_module(CyclicModule(1, GF(2), ()))
    assert metabelian_fp(lamplighter) is False
    assert metabelian_fp_infinity(lamplighter) is False

    trivial = sigma_of_module(ScalarAction.of(1))
    assert metabelian_fp(trivial) is True
    assert metabelian_fp_infinity(trivial) is True

    r16 = sigma_of_module(ScalarAction.of(Fraction(1, 6)))
    both = sigma_direct_sum(r6, r16)
    assert metabelian_fp(both) is False
    assert metabelian_fp_infinity(both) is False


def seeded_commuting_actions():
    """MatrixActions P C_i P^-1 with C_i = a_i I + b_i N (N the superdiagonal
    shift, so the C_i commute and need not be diagonalizable) or diagonal."""
    rng = random.Random(29)
    for _ in range(8):
        rank, d = rng.randint(1, 3), rng.randint(1, 3)
        p = None
        while p is None or linalg.invert(p) is None:
            p = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        jordan = rng.random() < 0.5
        mats = []
        for _ in range(rank):
            a = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                 for _ in range(d)]
            b = rng.randint(-2, 2)
            core = [[(a[0] if jordan else a[i]) if i == j
                     else b if jordan and j == i + 1 else 0
                     for j in range(d)] for i in range(d)]
            mats.append(linalg.mat_mul(linalg.mat_mul(p, core), linalg.invert(p)))
        yield MatrixAction.of(mats, [[int(i == j) for j in range(d)] for i in range(d)])


def test_monomial_matrix_is_one_product_per_monomial(monkeypatch):
    rng = random.Random(30)
    for m in seeded_commuting_actions():
        d = m.dim
        want = {}
        for g in itertools.product(range(-3, 4), repeat=m.rank):
            out = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
            for mat, e in zip(m.mats, g):
                step = mat if e > 0 else linalg.invert(mat)
                for _ in range(abs(e)):
                    out = linalg.mat_mul(out, step)
            want[g] = out
        cache = sigma._ActionCache(m)
        with monkeypatch.context() as patch:
            products = counting(patch, linalg, "mat_mul")
            box = list(want)
            rng.shuffle(box)
            for g in box:
                mat, den = cache.monomial_matrix(g)
                assert den > 0 and math.gcd(den, *itertools.chain(*mat)) == 1, (m, g)
                assert [[Fraction(x, den) for x in row] for row in mat] == want[g], (m, g)
            assert len(products) == len(box) - 1
            for g in box:
                cache.monomial_matrix(g)
            assert len(products) == len(box) - 1


@pytest.mark.parametrize("module", [
    {"mode": "scalar", "rhos": ["2", "1/3"]},
    {"mode": "matrix", "mats": [[["1", "1"], ["0", "1"]], [["2", "0"], ["0", "2"]]],
     "generators": [["1", "0"], ["0", "1"]]},
    # ZG/(1 + x + y + z) over Q
    {"mode": "cyclic", "rank": 3, "domain": "Q", "generators": [{"terms": [
        {"exp": e, "coef": 1} for e in ([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])]}]},
    {"mode": "cyclic", "rank": 2, "domain": "Z", "generators": [{"terms": [
        {"exp": [0, 0], "coef": 2}, {"exp": [1, 0], "coef": -1},
        {"exp": [1, 1], "coef": 3}]}]},
])
def test_fpm_2_is_finitely_presented(module):
    result = run({"version": 1, "command": "group",
                  "payload": {"module": module, "fpm": [2]}})["result"]
    assert result["fpm"]["2"]["value"] == result["finitely_presented"] != "undecided"


def test_fpm_examples():
    r = sigma_of_module(ScalarAction.of(2, 3))
    assert fpm_test(r, 2) is True
    r_pair = sigma_direct_sum(sigma_of_module(ScalarAction.of(2)),
                              sigma_of_module(ScalarAction.of(Fraction(1, 2))))
    assert fpm_test(r_pair, 2) is False
    empty = sigma_of_module(ScalarAction.of(1))
    assert fpm_test(empty, 3) is True
    assert fpm_basis(2) == "theorem" and fpm_basis(5) == "conjecture"


def subset_fpm(r, m):
    """Reference: fpm_test as decided for every m by trying the
    min(m, size)-subsets of the complement."""
    dirs = r.proved_complement.finite_directions
    size = min(m, len(dirs))
    return not dirs or all(in_open_hemisphere(sub).in_hemisphere
                           for sub in itertools.combinations(dirs, size))


def seeded_fpm_modules():
    """Cyclic modules over Q of rank 1 and 2, whose complements are the
    normal rays of a Newton polytope, and scalar actions of rank 1 to 3."""
    rng = random.Random(27)
    for _ in range(30):
        rank = rng.randint(1, 2)
        terms = {tuple(rng.randint(-3, 3) for _ in range(rank)): rng.choice((-2, -1, 1, 3))
                 for _ in range(rng.randint(2, 9))}
        yield CyclicModule(rank, QQ, (poly(terms, rank, QQ),))
    for _ in range(10):
        yield ScalarAction(tuple(Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 5)))
                                 for _ in range(rng.randint(1, 3))))


def test_fpm_above_the_rank_is_the_hemisphere_test():
    answers = set()
    for mod in seeded_fpm_modules():
        r = sigma_of_module(mod)
        assert r.undecided.is_empty, mod
        dirs = r.proved_complement.finite_directions
        hemisphere = not dirs or in_open_hemisphere(dirs).in_hemisphere
        assert fpm_test(r, 1) is True
        for m in range(r.rank + 1, r.rank + 4):
            assert fpm_test(r, m) is hemisphere is subset_fpm(r, m), (mod, m)
        answers.add((hemisphere, len(dirs) > r.rank + 1))
    # both answers, and complements in no open hemisphere with more than
    # rank + 1 directions, where the m-subsets of m > rank could differ
    assert {(True, False), (False, True)} <= answers


def test_fpm_tries_subsets_up_to_the_rank():
    # the four p-adic directions of (2/7, 3/7, 5/7): any three share an
    # open hemisphere, all four do not
    dirs = [Direction.of(*v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))]
    r = sigma.SigmaResult(3, SphericalSet.from_directions(dirs), SphericalSet.empty(3))
    assert [fpm_test(r, m) for m in (1, 2, 3, 4, 5)] == [True, True, True, False, False]
    assert [subset_fpm(r, m) for m in (3, 4, 5)] == [True, False, False]


def test_hemisphere_complement_consistency():
    r = sigma_of_module(ScalarAction.of(2, 3))
    dirs = r.proved_complement.finite_directions
    assert in_open_hemisphere(dirs).in_hemisphere


def test_sigma_complement_inside_prevariety():
    # consistency with the tropical bound for the matching cyclic presentation
    from sigmatrop.tropical import trop_prevariety
    from sigmatrop.valuations import TrivialValuation

    f = LaurentPoly(2, QQ, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    result = sigma_cyclic_field(CyclicModule(2, QQ, (f,)))
    bound = trop_prevariety([f], TrivialValuation()).radial()
    assert result.proved_complement.subset_of(bound)


def test_as_matrix_action_scalar_round_trip():
    m = as_matrix_action(ScalarAction.of(2, Fraction(1, 3)))
    assert m.dim == 1 and m.rank == 2
    lam = poly({(1, 0): 1, (0, 0): -2}, rank=2)
    assert annihilates(lam, m)


def test_determinant_reduction_fixed_examples():
    lam = poly({(0,): 1, (-2,): -36})
    one = LaurentPoly.one(1)
    zero = LaurentPoly.zero(1)
    assert determinant_reduction([[one, zero], [zero, one]]) == one
    # triangular determinant is the product of the diagonal, and that product
    # is itself a valid scalar certificate for the doubled module
    theta = [[lam, zero], [X((-1,)), lam]]
    det = determinant_reduction(theta)
    assert det == lam * lam
    m66 = direct_sum_module(ScalarAction.of(6), ScalarAction.of(6))
    assert certificate_valid(det, Character.of(-1), m66)
    # with an annihilating off-diagonal entry theta is a full matrix
    # certificate and the reduction stays valid
    theta_full = [[lam, zero], [lam.shift((-1,)), lam]]
    assert matrix_certificate_valid(theta_full, Character.of(-1), m66)
    assert certificate_valid(determinant_reduction(theta_full),
                             Character.of(-1), m66)


def test_sigma_sets_pairwise_disjoint():
    f = LaurentPoly(2, QQ, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    cases = [
        sigma_of_module(ScalarAction.of(6)),
        sigma_of_module(ScalarAction.of(2, 3)),
        sigma_of_module(CyclicModule(2, QQ, (f,))),
    ]
    for result in cases:
        rank = result.rank
        vecs = ([(a,) for a in (-3, -1, 1, 3)] if rank == 1 else
                [(a, b) for a in range(-3, 4) for b in range(-3, 4)
                 if (a, b) != (0, 0)])
        for vec in vecs:
            d = Direction.from_vector(vec)
            hits = sum([result.proved_sigma.contains(d),
                        result.proved_complement.contains(d),
                        result.undecided.contains(d)])
            assert hits == 1, (vec, hits)


def complement_metabelian_fp(r):
    """Reference: metabelian_fp as decided before it read the partition, by
    complementing the invariant and testing the rest for antipodal pairs."""
    def covers_with_antipodal(s):
        comp = s.complement()
        for p in comp.pieces:
            for q in comp.pieces:
                if p.intersect(q.negate()).has_direction():
                    return False
        return True

    lower = covers_with_antipodal(r.proved_sigma)
    if r.undecided.is_empty:
        return lower
    upper = covers_with_antipodal(r.proved_sigma.union(r.undecided))
    return lower if lower == upper else None


def seeded_partition_modules(rng):
    """About 45 (module, box) pairs: scalar actions of rank 1-3, diagonalizable
    and non-diagonalizable matrix actions, and cyclic modules over Q and Z of
    rank 1-3, with multiple-generator modules over Q, and principal and
    two-generator modules over GF(3) and GF(5) of rank 1-3."""
    def ratio():
        return (Fraction(rng.choice((1, 2, 3, 5))) ** rng.choice((-1, 1))
                * rng.choice((1, 2, 3)))

    def poly_of(rank, domain, count, coefs):
        exps = set()
        while len(exps) < count:
            exps.add(tuple(rng.randint(-1, 1) for _ in range(rank)))
        return LaurentPoly(rank, domain, {e: rng.choice(coefs) for e in sorted(exps)})

    mods = [(ScalarAction.of(*(ratio() for _ in range(rank))), 3)
            for rank in (1, 2, 3) for _ in range(4)]
    for _ in range(3):
        a, b = (rng.choice((2, 3, 5, Fraction(1, 2))) for _ in range(2))
        mods.append((MatrixAction.of([[[a, 0], [0, b]], [[b, 0], [0, a]]],
                                     [[1, 0], [0, 1]]), 3))
        mods.append((MatrixAction.of([[[a, 1], [0, a]]], [[1, 0], [0, 1]]), 3))
        mods.append((MatrixAction.of([[[a, 1], [0, a]], [[b, 0], [0, b]]],
                                     [[1, 0], [0, 1]]), rng.choice((1, 2))))
    for domain, coefs in ((QQ, (1, -1, 2, Fraction(1, 2), -3)), (ZZ, (1, -1, 2, -2, 3))):
        for rank in (1, 2, 3):
            for _ in range(3 if rank < 3 else 2):
                f = poly_of(rank, domain, rng.randint(2, 3 if rank == 1 else 4), coefs)
                mods.append((CyclicModule(rank, domain, (f,)), 3))
    for rank in (1, 2, 3):
        gens = (poly_of(rank, QQ, 3 if rank > 1 else 2, (1, -1, 2)),
                poly_of(rank, QQ, 2, (1, -1, 3)))
        mods.append((CyclicModule(rank, QQ, gens), 3))
    for rank, field in ((1, GF(3)), (2, GF(5)), (3, GF(3))):
        coefs = tuple(range(1, field.p))
        mods.append((CyclicModule(rank, field, (poly_of(rank, field, 3, coefs),)), 3))
        gens = (poly_of(rank, field, 3, coefs), poly_of(rank, field, 2, coefs))
        mods.append((CyclicModule(rank, field, gens), 3))
    return mods


def undecided_direct_sum():
    """The summands of a direct sum whose undecided set is not empty: a
    non-diagonalizable matrix action, which leaves its complement side
    undecided, and a scalar action."""
    jordan = MatrixAction.of([[[2, 1], [0, 2]], [[3, 0], [0, 3]]], [[1, 0], [0, 1]])
    return (sigma_of_module(jordan, box_limit=2),
            sigma_of_module(ScalarAction.of(Fraction(1, 3), 5), box_limit=3))


def test_results_partition_the_sphere_and_metabelian_fp_reads_it(monkeypatch):
    """proved_sigma, proved_complement and undecided are pairwise disjoint and
    cover the sphere, which is what lets metabelian_fp read the partition; it
    answers as the complement-based reference does, and without complement.
    Cyclic modules over a field and direct sums build their partition without
    a set complement too."""
    modules = seeded_partition_modules(random.Random(43))
    results = [sigma_of_module(mod, box_limit=box) for mod, box in modules]
    summands = undecided_direct_sum()
    direct_sum = sigma_direct_sum(*summands)
    assert not summands[0].undecided.is_empty
    assert not direct_sum.undecided.is_empty
    results.append(direct_sum)
    assert len(results) >= 46
    answers = []
    for r in results:
        parts = (r.proved_sigma, r.proved_complement, r.undecided)
        for a, b in itertools.combinations(parts, 2):
            assert a.intersect(b).is_empty, r
        assert parts[0].union(parts[1]).union(parts[2]).complement().is_empty, r
        answers.append(complement_metabelian_fp(r))
        assert metabelian_fp(r) is answers[-1], r

    def no_complement(self):
        raise AssertionError("a set complement was taken")

    monkeypatch.setattr(PolyhedralSet, "complement", no_complement)
    assert [metabelian_fp(r) for r in results] == answers
    assert set(answers) == {True, False, None}

    def parts(r):
        return r.proved_sigma.pieces, r.proved_complement.pieces, r.undecided.pieces

    field = [(mod, box, r) for (mod, box), r in zip(modules, results)
             if isinstance(mod, CyclicModule) and mod.domain.kind != "ZZ"]
    assert {mod.domain.kind for mod, _, _ in field} == {"QQ", "GF"}
    for mod, box, r in field:
        assert parts(sigma_cyclic_field(mod)) == parts(r), mod
    assert parts(sigma_direct_sum(*summands)) == parts(direct_sum)


def fm_in_strict_dual(piece, g):
    """Reference: g is in the strict dual iff no direction of the piece has
    chi*g <= 0, decided by one Fourier-Motzkin solve."""
    bad = piece.intersect(Polyhedron.cone(piece.rank, ge=[tuple(-x for x in g)]))
    return not bad.has_direction()


def random_piece(rng, rank):
    def rows(count):
        return [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(count)]
    return Polyhedron.cone(rank, eq=rows(rng.choice((0, 0, 0, 1))),
                           ge=rows(rng.randint(0, 3)), gt=rows(rng.randint(0, 3)))


def test_rays_strict_dual_matches_fourier_motzkin():
    """The strict dual read from the piece's rays agrees with the FM test on
    seeded pieces of rank 1-4 mixing eq, ge and gt rows (empty ones, lines,
    lineality spaces and pointed cones among them), for every g in a box."""
    rng = random.Random(37)
    pairs = kinds = 0
    for rank, count, box in ((1, 30, 3), (2, 60, 2), (3, 60, 1), (4, 25, 1)):
        for _ in range(count):
            piece = random_piece(rng, rank)
            test = sigma._strict_dual_test(piece)
            for g in itertools.product(range(-box, box + 1), repeat=rank):
                if any(g):
                    want = fm_in_strict_dual(piece, g)
                    assert test(g) == want, (piece, g)
                    pairs += 1
                    kinds |= 1 << want
    assert kinds == 3 and pairs > 3000


def test_no_module_level_cache_grows():
    """Action matrices are cached per call: no module-level container of
    sigma grows across distinct sigma_of_module calls."""
    def sizes():
        return {name: len(value) for name, value in vars(sigma).items()
                if isinstance(value, (dict, list, set))}

    sigma_of_module(ScalarAction.of(6))
    before = sizes()
    for k in range(2, 22):
        mod = (ScalarAction.of(k, Fraction(1, k + 1)) if k % 2 else
               MatrixAction.of([[[k, 1], [0, k]]], [[1, 0], [0, 1]]))
        sigma_of_module(mod, box_limit=2)
    assert sizes() == before


def _direction_in(piece):
    """A nonzero point of a homogeneous piece that has a direction: the
    feasible point of a coordinate halfspace {s * u_i > 0} that meets it."""
    n = piece.rank
    for i, sign in itertools.product(range(n), (1, -1)):
        axis = tuple(sign * int(j == i) for j in range(n))
        part = piece.intersect(Polyhedron.cone(n, gt=[axis]))
        if not part.is_empty:
            return as_fractions(part.feasible_point())
    raise AssertionError(f"{piece} has no direction")


def _cyclic(rank, domain, *generators):
    return CyclicModule(rank, domain, tuple(LaurentPoly(rank, domain, terms)
                                            for terms in generators))


# the two diagonalizable matrix jobs whose digests pin one certificate per
# sigma piece (test_output_digests.py)
DIAG_SPLIT = MatrixAction.of([[[6, 0], [0, 6]], [[3, 1], [0, 5]]], [[1, 0], [0, 1]])
DIAG_CONJUGATED = MatrixAction.of(
    [[[2, 1, -1], [0, 3, -2], [0, 0, 1]],
     [[1, 4, -4], [0, 5, Fraction(-9, 2)], [0, 0, Fraction(1, 2)]]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def record_cases():
    """(name, result, modules, disjoint): each record's certificate must be
    valid for every listed module; disjoint says the record pieces do not
    overlap, so a direction of a piece finds that piece's own certificate."""
    scalar = ScalarAction.of(6, Fraction(10, 3))
    jordan = MatrixAction.of([[[2, 1], [0, 2]], [[3, 0], [0, 3]]], [[1, 0], [0, 1]])
    q_one = _cyclic(2, QQ, {(0, 0): 1, (1, 0): 2, (0, 1): -3, (1, 1): Fraction(1, 2)})
    q_two = _cyclic(2, QQ, {(0, 0): 1, (1, 0): 1, (0, 1): 1},
                    {(0, 0): 2, (1, 0): -1, (0, 1): 3})
    q_rank1 = _cyclic(1, QQ, {(-1,): -3, (0,): 3, (1,): -1})
    z_one = _cyclic(2, ZZ, {(0, 0): 1, (1, 0): -2, (0, 1): 3})
    z_rank1 = _cyclic(1, ZZ, {(0,): 1, (1,): -6})
    minus_x = _cyclic(2, ZZ, {(1, 0): -1})
    two_x = _cyclic(1, GF(3), {(1,): 2})
    other = ScalarAction.of(2, 5)
    summands = undecided_direct_sum()
    cases = [(name, sigma_of_module(mod), [mod], name != "cyclic Q, two generators")
             for name, mod in [("scalar", scalar), ("diagonal split", DIAG_SPLIT),
                               ("diagonal conjugated", DIAG_CONJUGATED),
                               ("non-diagonalizable", jordan),
                               ("cyclic Q, one generator", q_one),
                               ("cyclic Q, two generators", q_two),
                               ("cyclic Z", z_one), ("cyclic Z, rank 1", z_rank1),
                               ("unit over Z", minus_x), ("unit over GF(3)", two_x)]]
    cases += [
        ("direct sum of scalars",
         sigma_direct_sum(sigma_of_module(scalar), sigma_of_module(other)),
         [direct_sum_module(scalar, other)], True),
        ("direct sum with an undecided summand", sigma_direct_sum(*summands),
         [direct_sum_module(jordan, ScalarAction.of(Fraction(1, 3), 5))], True),
        ("direct sum of cyclic modules over Q",
         sigma_direct_sum(sigma_of_module(q_one), sigma_of_module(_cyclic(
             2, QQ, {(0, 0): 1, (1, 0): -1, (0, 1): 2}))),
         [q_one, _cyclic(2, QQ, {(0, 0): 1, (1, 0): -1, (0, 1): 2})], True),
        ("direct sum with a unit",
         sigma_direct_sum(sigma_of_module(q_rank1),
                          sigma_of_module(_cyclic(1, QQ, {(1,): 2}))),
         [q_rank1, _cyclic(1, QQ, {(1,): 2})], True),
    ]
    return cases


def test_every_record_checks_alone():
    """Each record (piece, cone, lam) is checked on its own, as a verifier
    would: the piece has a direction, the cone contains it, lam is a valid
    certificate at a direction of the piece, and certificate_for finds it
    there.  Every proved sigma piece is a record piece."""
    cases = record_cases()
    for name, result, modules, disjoint in cases:
        rank = result.rank
        assert result.certified, name
        assert result.proved_sigma.pieces == tuple(
            SphericalSet(rank, [p for p, _, _ in result.certified]).pieces), name
        for piece, cone, lam in result.certified:
            assert piece.has_direction(), name
            assert SphericalSet(rank, [piece]).subset_of(SphericalSet(rank, [cone])), name
            point = _direction_in(piece)
            chi = Character(tuple(point))
            for mod in modules:
                assert certificate_valid(lam, chi, mod), (name, piece)
            found = result.certificate_for(Direction.from_vector(point))
            if disjoint:
                assert found is lam, (name, piece)
            else:
                assert all(certificate_valid(found, chi, mod) for mod in modules), name
    assert len(cases) == 14
    # one record per sigma piece of the two diagonalized direct sums
    assert [len(result.certified) for _, result, _, _ in cases[1:3]] == [9, 5]


def test_a_unit_is_a_unit_of_the_domain():
    """A unit generator is one term whose coefficient is a unit of the
    domain.  2x over Z is not one: ZG/(2x) = ZG/(2) is F_2 G, with empty
    sigma, which the content rule leaves undecided."""
    full = SphericalSet.full(2)
    result = sigma_of_module(_cyclic(2, ZZ, {(1, 0): 2}))
    assert result.proved_sigma.is_empty and not result.certified
    assert result.undecided.set_eq(full) and result.proved_complement.is_empty
    for mod in (_cyclic(2, ZZ, {(1, 0): -1}), _cyclic(2, QQ, {(1, 0): 2}),
                _cyclic(2, GF(3), {(1, 0): 2})):
        result = sigma_of_module(mod)
        assert result.proved_sigma.set_eq(full), mod
        assert result.undecided.is_empty and result.proved_complement.is_empty
        (piece, cone, lam), = result.certified
        assert lam.is_one and piece == cone == Polyhedron.full(2)
        for d in (Direction.of(1, 0), Direction.of(-2, 3)):
            assert certificate_valid(lam, Character.of(*d.vector), mod)
    with pytest.raises(UnsupportedModeError):
        sigma_of_module(_cyclic(1, ZZ, {(0,): 2}, {(0,): 1, (1,): 1}))


def test_direct_sum_refuses_certificates_over_different_domains():
    over_q = sigma_of_module(_cyclic(1, QQ, {(0,): 1, (1,): -2}))
    over_gf3 = sigma_of_module(_cyclic(1, GF(3), {(0,): 1, (1,): 1, (2,): 1}))
    assert over_q.certified and over_gf3.certified
    with pytest.raises(UnsupportedModeError, match="different domains"):
        sigma_direct_sum(over_q, over_gf3)
