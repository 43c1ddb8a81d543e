"""The seeded-bug mutants that the tests expect to be caught.

Each mutant is defined here once.  ``STRUCTURE_MUTANTS`` holds wrong
structure functions, keyed by the name the tests use in their ids;
``OffByOneOmega`` is a wrong module action.  A test that must catch a
mutant imports it from this module.
"""

from fractions import Fraction

from hvkit.algebra import hv_structure
from hvkit.modules import OmegaModule


def _cocycle_quadratic(k1, n1, k2, n2):
    """The Virasoro cocycle (n^3 - n)/12 replaced by (n^2 - n)/12: not a cocycle."""
    out = hv_structure(k1, n1, k2, n2)
    if k1 == "d" and k2 == "d" and n1 == -n2:
        out = tuple(t for t in out if t[0] != "C")
        c = Fraction(n1**2 - n1, 12)
        if c:
            out += (("C", 0, c),)
    return out


def _dropped_cd(k1, n1, k2, n2):
    """The C_D term of [d_n, I_m] left out; the mirrored (I, d) branch keeps it."""
    out = hv_structure(k1, n1, k2, n2)
    if k1 == "d" and k2 == "I":
        return tuple(t for t in out if t[0] != "CD")
    return out


STRUCTURE_MUTANTS = {"cocycle-quadratic": _cocycle_quadratic, "dropped-C_D": _dropped_cd}


class OffByOneOmega(OmegaModule):
    """Seeded bug: the lambda exponent is one too large."""

    def _lambda_power(self, n, total):
        return self.lam ** (n - total + 1)
