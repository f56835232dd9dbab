"""The integer verifiers build a fixed number of Fractions, however many
candidates, trials or support monomials they go through."""

import json
from fractions import Fraction

from sigmatrop import cli, dynamics
from sigmatrop.dynamics import PushMap, gsh
from sigmatrop.halfplane import verify_push_B, verify_zero_obstruction_B
from sigmatrop.rings import ZZ, Character, LaurentPoly


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
