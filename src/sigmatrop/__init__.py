"""sigmatrop: exact tropical geometry of annihilator ideals over Z^n.

Computes the zero-dimensional sigma invariant of finitely generated modules
over Z^n by tropicalizing the annihilator ideal, with proved inner/outer
approximations and checkable certificates, plus a push-dynamics calculus and
an exact verifier for a family of hyperbolic-plane module limit sets.
"""

__version__ = "0.1.0"

from .rings import GF, QQ, ZZ, Character, Direction, LaurentPoly

__all__ = [
    "Character",
    "Direction",
    "GF",
    "LaurentPoly",
    "QQ",
    "ZZ",
    "__version__",
]
