"""Work counts: the integer verifiers build a fixed number of Fractions,
however many candidates, trials or support monomials they go through, and
the group and dyn commands derive each reported quantity once."""

import json
from fractions import Fraction
from functools import cached_property

from sigmatrop import cli, dynamics, sigma
from sigmatrop.dynamics import PushMap, gsh
from sigmatrop.halfplane import verify_push_B, verify_zero_obstruction_B
from sigmatrop.polyhedra import SphericalSet
from sigmatrop.rings import ZZ, Character, Direction, LaurentPoly
from sigmatrop.sigma import SigmaResult

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
    # 405 elements enumerated, 52 candidates, 85,280 combinations
    large = built_during(count, lambda: verify_zero_obstruction_B(2, 2, 4, 2, k_max=4))
    assert small == large == 1  # q
    # a witness is built as GroupElements: one b per term
    assert built_during(count, lambda: verify_zero_obstruction_B(
        3, 4, 9, 1, module="A")) == 2

    assert built_during(count, lambda: verify_push_B(6, trials=1)) == 1
    assert built_during(count, lambda: verify_push_B(6, trials=400)) == 1

    chi = Character.of(Fraction(1, 3), Fraction(-5, 2))
    for width in (1, 40):
        terms = {(a, b): 1 for a in range(-width, width + 1) for b in (-1, 1)}
        phi = PushMap.of([[LaurentPoly(2, ZZ, terms)] * 2] * 2)
        assert built_during(count, lambda: gsh(phi, chi)) == 1


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
    """Per dyn job: powers - 1 products (one at least), one shift per
    distinct map, one norm, one support and one direction per distinct
    monomial."""
    products = counting(monkeypatch, PushMap, "compose")
    shifts = counting(monkeypatch, dynamics, "gsh")
    norms = counting(monkeypatch, cli, "norm")
    supports = counting_property(monkeypatch, PushMap, "support")
    from_vector = Direction.from_vector
    monomials = []
    monkeypatch.setattr(Direction, "from_vector", staticmethod(
        lambda v: monomials.append(tuple(v)) or from_vector(v)))
    for payload in DYN_JOBS:
        for calls in (products, shifts, norms, supports, monomials):
            del calls[:]
        doc = cli.run({"version": 1, "command": "dyn", "payload": payload})
        assert doc["result"]["compose_check"]["passed"]
        assert len(products) == max(1, payload["powers"] - 1), payload
        maps = [phi for phi, _ in shifts]
        assert len({id(phi) for phi in maps}) == len(maps) == len(products) + 1
        assert len(norms) == len(supports) == 1
        assert monomials and len(set(monomials)) == len(monomials), payload
