"""Work counts: the integer verifiers build a fixed number of Fractions,
however many candidates or support monomials they go through, the
exact kernels build Fractions only for their answers, and the group and dyn
commands derive each reported quantity once."""

import json
import math
from fractions import Fraction
from functools import cached_property

from sigmatrop import cli, dynamics, polyhedra, rings, sigma
from sigmatrop.dynamics import PushMap, gsh
from sigmatrop.halfplane import (verify_infinity_obstruction_A, verify_push_B,
                                 verify_zero_obstruction_B)
from sigmatrop.polyhedra import (PolyhedralSet, Polyhedron, SphericalSet, _solve_system,
                                 ray_cone)
from sigmatrop.rings import ZZ, Character, Direction, LaurentPoly
from sigmatrop.sigma import MatrixAction, SigmaResult

from reference_complement import reference_complement
from test_cone_kernels import counting
from test_output_digests import JOBS, cyclic, poly


def fractions_built(monkeypatch):
    """Count every Fraction construction from now on, by the module under
    test or inside Fraction arithmetic."""
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return count


def built_during(count, call):
    before = count[0]
    call()
    return count[0] - before


def test_verifiers_build_a_fixed_number_of_fractions(monkeypatch):
    count = fractions_built(monkeypatch)
    small = built_during(count, lambda: verify_zero_obstruction_B(2, 2, 1, 1, k_max=1))
    # at the CLI maxima: 405 elements enumerated, 52 qualify, 85,280
    # combinations covered by the certificate
    large = built_during(count, lambda: verify_zero_obstruction_B(2, 2, 4, 2, k_max=4))
    # q <= 1: the identity is the witness, an integer triple
    witnessed = built_during(count, lambda: verify_zero_obstruction_B(3, 1, 4, 2, k_max=4))
    assert small == large == witnessed == 1  # q
    for q in (2, "1/3"):
        assert built_during(count, lambda: verify_infinity_obstruction_A(2, q, 1, 1)) == 1
        assert built_during(count, lambda: verify_infinity_obstruction_A(10 ** 6, q, 4, 6)) == 1

    assert built_during(count, lambda: verify_push_B(6)) == 1  # the ratio p^2

    chi = Character.of(Fraction(1, 3), Fraction(-5, 2))
    for width in (1, 40):
        terms = {(a, b): 1 for a in range(-width, width + 1) for b in (-1, 1)}
        phi = PushMap.of([[LaurentPoly(2, ZZ, terms)] * 2] * 2)
        assert built_during(count, lambda: gsh(phi, chi)) == 1


def test_solve_system_builds_only_its_point(monkeypatch):
    """Rational rows, equality pivots and strict rows: the point comes back
    as the integer pair (nums, den), and no Fraction is built in the
    elimination, the back-substitution or the point."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    eqs = [((1, half, 0, -1), third), ((0, 3, 2, 0), 1)]
    ineqs = [((1, 0, 0, 0), -half, True), ((0, 0, 1, 1), 2, False),
             ((Fraction(2, 3), 0, -1, 0), 0, True), ((0, -1, 0, third), -5, True),
             ((-1, 0, 0, 0), -4, False)]
    count = fractions_built(monkeypatch)
    got = []
    assert built_during(count, lambda: got.append(_solve_system(eqs, ineqs, 4))) == 0
    ((nums, den),) = got
    assert all(type(x) is int for x in nums) and type(den) is int
    assert den > 1 and math.gcd(den, *nums) == 1
    for vec, rhs in eqs:
        assert sum(a * x for a, x in zip(vec, nums)) == rhs * den
    for vec, rhs, strict in ineqs:
        lhs = sum(a * x for a, x in zip(vec, nums))
        assert lhs > rhs * den if strict else lhs >= rhs * den


def test_matrix_system_builds_no_fraction(monkeypatch):
    """The certificate rows of a rational matrix action are read off the
    cached (integer matrix, den) pairs, with no Fraction built."""
    m = MatrixAction.of([[["1/2", "1"], ["0", "1/2"]], [["3", "1/3"], ["0", "3"]]],
                        [["1", "0"], ["0", "1"]])
    cache = sigma._ActionCache(m)
    in_strict_dual = sigma._strict_dual_test(ray_cone(Direction((2, 1))))
    count = fractions_built(monkeypatch)
    got = []
    assert built_during(count, lambda: got.append(
        sigma._box_rows(cache, in_strict_dual, 2))) == 0
    monos, rows, rhs = got[0]
    assert len(monos) == 11 and len(rows) == len(rhs) == 4
    assert all(type(x) is int for row in rows for x in row.values())


def three_rays():
    return SphericalSet.from_directions([Direction(v) for v in
                                         ((1, 0, 0), (0, 1, 0), (0, 0, 1))])


def test_complement_candidates_holding_a_known_point_take_no_solve(monkeypatch):
    """The complement of three rays of rank 3 (scalar (2, 3, 5)) meets its
    pieces' complement parts in 75 candidates.  45 of them have a row that
    an opposed row of the current piece leaves no room, so they are never
    built; of the 30 built, a candidate that holds the point of the piece
    it came from takes that point, so only 18 are solved."""
    candidates = counting(monkeypatch, Polyhedron, "intersect")
    assert len(reference_complement(three_rays()).pieces) == 15
    assert len(candidates) == 75
    del candidates[:]
    solves = counting(monkeypatch, polyhedra, "_solve_system")
    assert len(three_rays().complement().pieces) == 15
    assert len(solves) < len(candidates)
    assert (len(candidates), len(solves)) == (30, 18)


def test_cyclic_z_complement_solves(monkeypatch):
    """Job 14 of the seed-1 sigma-ladder batch, `sigma` on the cyclic module
    ZG/(3 x^-1 y z^-1 + 2 + 2 x y z^-1) over Z of rank 3: the complement of
    its global-Z radial set builds 36 of 77 candidates and solves 14 by FM,
    where building them all took 55 solves."""
    solves, inside = [], [False]
    complement, solve = PolyhedralSet.complement, polyhedra._solve_system

    def counted_complement(self):
        inside[0] = True
        try:
            return complement(self)
        finally:
            inside[0] = False

    def counted_solve(*args):
        if inside[0]:
            solves.append(args)
        return solve(*args)
    monkeypatch.setattr(PolyhedralSet, "complement", counted_complement)
    monkeypatch.setattr(polyhedra, "_solve_system", counted_solve)
    module = cyclic(3, "Z", [((-1, 1, -1), 3), ((0, 0, 0), 2), ((1, 1, -1), 2)])
    cli.run({"version": 1, "command": "sigma", "payload": {"module": module}})
    assert len(solves) == 14


def test_failing_piece_tests_each_box_monomial_once(monkeypatch):
    """Both undecided pieces of a matrix action with no rational joint
    eigenbasis fail the search at every box size 1..6; each tests each of
    the 13^2 - 1 nonzero monomials of [-6, 6]^2 once, not once per box."""
    m = MatrixAction.of([[["2", "1"], ["0", "2"]], [["3", "0"], ["0", "3"]]],
                        [["1", "0"], ["0", "1"]])
    pieces = sigma.sigma_of_module(m).undecided.pieces
    assert len(pieces) == 2
    tested = counting(monkeypatch, sigma, "_in_strict_dual")
    for piece in pieces:
        del tested[:]
        certified, failed = sigma._cover(sigma._ActionCache(m), [piece], 10 ** 6,
                                         sigma.COVER_BOX_LIMIT, 0)
        assert not certified and failed == [piece]
        monomials = [g for g, _, _ in tested]
        assert len(monomials) == len(set(monomials)) == 13 ** 2 - 1


def test_dyn_takes_the_norm_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "norm", lambda phi: calls.append(phi) or dynamics.norm(phi))
    doc = cli.run({"version": 1, "command": "dyn", "payload": {
        "rank": 2, "matrix": [[{"terms": [{"exp": [1, 0], "coef": 1},
                                          {"exp": [0, 2], "coef": -1}]}]],
        "chi": ["1", "1/2"]}})
    assert len(calls) == 1
    assert json.loads(cli.canonical_json(doc))["result"]["norm"]["squared"] == "4"


def counting_property(monkeypatch, cls, name):
    """Record the instance each time the cached property cls.name is computed."""
    calls = []
    inner = cls.__dict__[name].func

    def wrapped(obj):
        calls.append(obj)
        return inner(obj)
    prop = cached_property(wrapped)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


# the 16 lattice points of x^2 + y^2 = 65, the vertices of a 16-gon
CIRCLE_65 = sorted({(s * a, t * b) for a, b in ((1, 8), (8, 1), (4, 7), (7, 4))
                    for s in (1, -1) for t in (1, -1)})

GROUP_JOBS = [payload for command, payload in JOBS.values() if command == "group"] + [
    {"module": cyclic(2, "Q", [(g, 1) for g in CIRCLE_65]), "fpm": [1, 2, 3, 4]},
    {"module": {"mode": "scalar", "rhos": ["2", "1/3", "5/7"]}, "fpm": [4, 3, 1, 2]}]


def test_group_reads_each_quantity_once(monkeypatch):
    """Per group job: the proved complement's finite directions are computed
    once, as no set's are twice, and the antipodal scans are those of one
    finitely_presented answer: one, and a second while a piece is undecided."""
    reads = counting_property(monkeypatch, SphericalSet, "finite_directions")
    answers = counting_property(monkeypatch, SigmaResult, "finitely_presented")
    scans = counting(monkeypatch, sigma, "has_antipodal_pair")
    for payload in GROUP_JOBS:
        del reads[:], answers[:], scans[:]
        cli.run({"version": 1, "command": "group", "payload": payload})
        (r,) = answers
        assert len({id(s) for s in reads}) == len(reads), payload
        assert sum(s is r.proved_complement for s in reads) == 1, payload
        assert len(scans) == 1 + (not r.undecided.is_empty), payload


DYN_JOBS = [payload for command, payload in JOBS.values() if command == "dyn"] + [
    {"rank": 2, "matrix": [[poly([((1, 0), 1), ((0, 1), -2)]), poly([((1, 1), 1)])],
                           [poly([((0, 0), 3)]), poly([((1, 0), 1), ((2, 1), 1)])]],
     "chi": ["2", "1"], "iters": 6, "powers": powers}
    for powers in (1, 2, 4)]


def test_dyn_derives_each_quantity_once(monkeypatch):
    """Per dyn job: one image per orbit step and no product of maps, one
    shift (phi's, by gsh), one norm, one support and one direction per
    distinct monomial, and no LaurentPoly product.  The compose check is a
    theorem, so `powers` changes no result byte."""
    images = counting(monkeypatch, dynamics, "_image")
    shifts = counting(monkeypatch, dynamics, "_least_value")
    maps = counting(monkeypatch, cli, "gsh")
    norms = counting(monkeypatch, cli, "norm")
    supports = counting_property(monkeypatch, PushMap, "support")
    term_products = counting(monkeypatch, rings, "_term_mul")
    from_vector = Direction.from_vector
    monomials = []
    monkeypatch.setattr(Direction, "from_vector", staticmethod(
        lambda v: monomials.append(tuple(v)) or from_vector(v)))
    results = {}
    for payload in DYN_JOBS:
        for calls in (images, shifts, maps, norms, supports, term_products, monomials):
            del calls[:]
        doc = cli.run({"version": 1, "command": "dyn", "payload": payload})
        result = doc["result"]
        assert result["compose_check"] == {"additive_ok": True, "power_ok": True,
                                           "passed": True}
        assert len(images) == result["orbit"]["steps"], payload
        assert len(maps) == len(shifts) == 1, payload
        assert len(norms) == len(supports) == 1
        assert not term_products, payload
        assert monomials and len(set(monomials)) == len(monomials), payload
        results[payload["powers"]] = cli.canonical_json(dict(doc, job=None))
    assert results[1] == results[2] == results[4]
