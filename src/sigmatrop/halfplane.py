"""Exact verifier for the upper half-plane examples: the solvable matrix
group generated by t = diag(p, 1/p) and the unipotents over Z[1/p], the
rank-one modules A and B on which t acts by p^2 and p^-2, and the
membership and obstruction checks for the boundary points 0 and infinity.

Everything runs in integers: n / p^e in Z[1/p] is the canonical pair
(n, e), a group element [[p^k, b], [0, p^-k]] the triple (k, n, e), and a
rational comparison is the same inequality cleared of its denominators.
Each obstruction is answered by its certificate (p^2 divides the image of
every element over the horoball, so no combination maps to 1) or by an
element of image 1 over it; its count is the size of the bounded family
the certificate covers.  The push by p^2 t is proved on t alone, as both
numbers it moves depend only on an element's power of t, and the support
rows at 0 are identities in p, stated as values.  Floats appear only for
display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .rings import SoundnessError

B_NUM_BOUND = 4  # numerators m of the elements b = m / p^j the zero obstruction enumerates


def _canonical(p: int, n: int, e: int) -> tuple:
    """The pair (n', e') with n' / p^e' = n / p^e and e' >= 0 least; p
    divides no n' with e' > 0, so equal numbers get equal pairs."""
    if e < 0:
        return n * p ** -e, 0
    while e and n % p == 0:
        n //= p
        e -= 1
    return n, e


def _level_at_zero(p: int, k: int, n: int, e: int) -> tuple:
    """The Busemann level at 0 of g.i = (p^k b, p^(2k)) for g = [[p^k, b],
    [0, p^-k]] and b = n / p^e: 1 / (b^2 + p^(2k)) as the integer pair
    (num, den), both sides times p^(2e + 2 max(0, -k))."""
    s = max(0, -k)
    return p ** (2 * (e + s)), n * n * p ** (2 * s) + p ** (2 * (e + k + s))


def _in_ball_at_zero(p: int, k: int, n: int, e: int, q) -> bool:
    """Whether g.i lies in the horoball at 0 of level q (a Fraction)."""
    num, den = _level_at_zero(p, k, n, e)
    return q.numerator * den <= q.denominator * num


@dataclass
class SupportAtZeroReport:
    p: int
    k: int
    rows: list  # (j, epsilon_ok, Busemann level at 0)
    strictly_increasing: bool
    passed: bool


def verify_support_at_zero_A(p: int, k: int, j_max: int) -> SupportAtZeroReport:
    """The elements p^(2(k+j)) t^(-j) all map to p^(2k) in module A while
    their control points climb arbitrarily high in every horoball at 0.

    Both are identities, so each row (j, true, p^(2j)) is a value.  The
    image p^(2(k+j)) p^(-2j) is p^(2k) for every j, and t^-j.i = p^(-2j) i
    has Busemann level 1 / p^(-2j) = p^(2j) at 0, which rises with j: the
    rows are strictly increasing and the check passes for every p >= 2.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if k < 0:
        raise ValueError("need k >= 0")
    if j_max < k:
        raise ValueError("need j_max >= k: the residues start at j = k")
    return SupportAtZeroReport(p=p, k=k,
                               rows=[(j, True, p ** (2 * j)) for j in range(k, j_max + 1)],
                               strictly_increasing=True, passed=True)


@dataclass
class InfinityObstructionReport:
    p: int
    q: Fraction
    symbolic_applies: bool
    symbolic_pass: bool
    candidates_checked: int
    witness: object
    passed: bool
    note: str = ""


def verify_infinity_obstruction_A(p: int, q, coeff_bound: int,
                                  k_max: int) -> InfinityObstructionReport:
    """No ring element supported over {Im >= q} maps to 1 in module A.

    For q > 1 each term m_k t^k over the horoball has Im(t^k i) = p^(2k)
    >= q, so k >= 1 and p^2 divides its image p^(2k) = p^2 p^(2(k-1)): the
    sum cannot be 1.  `symbolic_pass` states this fact for every k >= 1;
    nothing is computed for it.  `candidates_checked` counts the
    (2 coeff_bound + 1)^k_max vectors |m_k| <= coeff_bound, k = 1..k_max,
    that this certificate covers.  For q <= 1 the identity lies over the
    horoball and maps to 1: the witness {0: 1} (power of t: coefficient),
    and the check fails.
    """
    if p < 2:
        raise ValueError("the scale parameter must be at least 2")
    if coeff_bound < 1 or k_max < 1:
        raise ValueError("need coeff_bound >= 1 and k_max >= 1: an empty search")
    q = Fraction(q)
    if q <= 1:
        return InfinityObstructionReport(
            p=p, q=q, symbolic_applies=False, symbolic_pass=False,
            candidates_checked=1, witness={0: 1}, passed=False,
            note="threshold q <= 1 admits k = 0: the identity lies over the "
                 "horoball and maps to 1")
    return InfinityObstructionReport(
        p=p, q=q, symbolic_applies=True, symbolic_pass=True,
        candidates_checked=(2 * coeff_bound + 1) ** k_max, witness=None,
        passed=True,
        note="divisibility convention: each admissible term m_k p^(2k) with "
             "k >= 1 is divisible by p^2, so the total cannot be 1")


@dataclass
class PushBReport:
    p: int
    epsilon_preserved: bool
    shift_arg_ratio: Fraction
    shift_value: float
    shift_is_two_log_p: bool
    passed: bool


def verify_push_B(p: int) -> PushBReport:
    """Right multiplication by p^2 t fixes the module-B image of every ring
    element and raises every control point's imaginary part by the factor
    p^2, i.e. it shifts by exactly 2 ln p towards infinity.

    Both claims are proved on the generator t.  The module-B image p^(-2k)
    and Im(g.i) = p^(2k) of g = [[p^k, b], [0, p^-k]] depend only on k, and
    g.t has k + 1.  So every lambda = sum c g keeps its image, sum c p^2
    p^(-2k-2) = sum c p^(-2k), exactly when the canonical pair of p^2 p^-2
    is (1, 0), and every control point rises by p^2 exactly when
    `_canonical(p, 1, -2)`, the ratio p^(2k+2) / p^(2k), is (p^2, 0).
    """
    if p < 2:
        raise ValueError("the scale parameter must be at least 2")
    preserved = _canonical(p, p * p, 2) == (1, 0)
    ratio_ok = _canonical(p, 1, -2) == (p * p, 0)
    return PushBReport(p=p, epsilon_preserved=preserved,
                       shift_arg_ratio=Fraction(p * p),
                       shift_value=2 * math.log(p),
                       shift_is_two_log_p=ratio_ok,
                       passed=preserved and ratio_ok)


@dataclass
class ZeroObstructionReport:
    p: int
    q: Fraction
    qualifying_elements: int
    combinations_checked: int
    witness: object
    passed: bool


def verify_zero_obstruction_B(p: int, q, coeff_bound: int, size_bound: int,
                              k_max: int = 2) -> ZeroObstructionReport:
    """No ring element supported inside the horoball at 0 of level ln(q)
    maps to 1 in module B.

    `qualifying_elements` counts the [[p^k, m / p^j], [0, p^-k]] with
    |k| <= k_max, 0 <= j <= k_max and |m| <= B_NUM_BOUND whose g.i lies in
    the ball.  One with k = 0 maps to 1: the first in (k, b) order is the
    witness, and `combinations_checked` counts the combinations of at most
    `size_bound` of them, coefficients 0 < |c| <= `coeff_bound`, up to it
    in that order.  Otherwise p^2 divides every image p^(-2k), k <= -1,
    and the count is the whole family that certificate covers.
    """
    if p < 2:
        raise ValueError("the scale parameter must be at least 2")
    if coeff_bound < 1 or size_bound < 1 or k_max < 0:
        raise ValueError("need coeff_bound, size_bound >= 1 and k_max >= 0")
    q = Fraction(q)
    # element (k, n) is [[p^k, n / p^k_max], [0, p^-k]]; n = m p^(k_max - j)
    # for b = m / p^j, so equal b give equal keys
    keys = set()
    for k in range(-k_max, k_max + 1):
        for j in range(0, k_max + 1):
            for m in range(-B_NUM_BOUND, B_NUM_BOUND + 1):
                key = (k, m * p ** (k_max - j))
                if key not in keys and _in_ball_at_zero(p, *key, k_max, q):
                    keys.add(key)
    keys = sorted(keys)
    units = [n for k, n in keys if k == 0]
    if units:
        # each earlier key has k < 0, and none of its 2 coeff_bound multiples
        # of p^(-2k) > 1 is 1; the first unit then takes -coeff_bound..-1, 1
        witness = {(0, *_canonical(p, units[0], k_max)): 1}
        checked = sum(1 for k, _ in keys if k < 0) * 2 * coeff_bound + coeff_bound + 1
    elif any(k > -1 for k, _ in keys):
        raise SoundnessError("an element of the horoball at 0 has an image "
                             "that p^2 does not divide")
    else:
        witness = None
        checked = sum(math.comb(len(keys), size) * (2 * coeff_bound) ** size
                      for size in range(1, size_bound + 1))
    return ZeroObstructionReport(p=p, q=q, qualifying_elements=len(keys),
                                 combinations_checked=checked,
                                 witness=witness, passed=witness is None)
