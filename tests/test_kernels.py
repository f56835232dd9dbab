from sigmatrop.rings import _term_add, _term_mul, _term_scale


def test_zero_handling():
    assert _term_add({(1,): 2}, {(1,): -2}, None) == {}
    assert _term_mul({(1,): 2}, {}, None) == {}
    assert _term_scale({(1,): 2}, 0, None) == {}
    assert _term_mul({(0,): 1, (1,): 1}, {(0,): 1, (1,): -1}, None) == {
        (0,): 1, (2,): -1}
    assert _term_add({(0,): 1}, {(0,): 1}, 2) == {}
