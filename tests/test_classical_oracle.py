"""Classical closed forms for Verma modules over the Heisenberg–Virasoro algebra.

Each test reads ``dim M_n``, the level-n slice of the maximal proper
submodule that ``singular_vectors`` returns, at levels 0..4 on trivial B,
and compares it with a theorem named in its docstring.  The Verma module
itself has ``dim V_n`` = 1, 2, 5, 10, 20 (pairs of partitions of n).

The theorems are stated for L_n = -d_n, under which ``hv_structure`` reads
[L_m, L_n] = (m - n) L_{m+n} + (m^3 - m)/12 δ C, [L_m, I_n] = -n I_{m+n}
- (m^2 + m) δ C_D and [I_m, I_n] = m δ C_I.  So the highest weight has
h = -φ(d0), h_I = φ(I0), c = φ(C), c_D = φ(C_D) and c_I = φ(C_I).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hvkit.algebra import HV
from hvkit.analysis import singular_vectors
from hvkit.modules import HighestWeightFunctional, TruncatedVerma
from hvkit.scalars import Scalar, scalar

LEVELS = 4
F = Fraction

small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
values = st.one_of(st.builds(Scalar, small), st.builds(Scalar, small, small))
nonzero = values.filter(lambda s: not s.is_zero)


def slice_dims(h, h_i, c, c_d, c_i) -> list:
    phi = HighestWeightFunctional(
        {(slot, ()): scalar(v) for slot, v in zip(("d0", "I0", "C", "C_D", "C_I"), (-scalar(h), h_i, c, c_d, c_i))}
    )
    module = TruncatedVerma(phi, HV, max_level=LEVELS)
    return [len(singular_vectors(module, n)) for n in range(LEVELS + 1)]


@pytest.mark.parametrize(
    "ratio, dims",
    [
        (3, [0, 0, 1, 2, 5]),
        (-2, [0, 0, 0, 1, 2]),
        (0, [0, 1, 2, 5, 10]),
        (2, [0, 1, 2, 5, 10]),
        (1, [0, 0, 0, 0, 0]),
        (F(1, 2), [0, 0, 0, 0, 0]),
    ],
)
@given(h=values, c=values, c_d=nonzero)
def test_billig_level_zero(ratio, dims, h, c, c_d):
    """Billig (2003), the twisted Heisenberg–Virasoro algebra at level zero
    (c_I = 0, c_D ≠ 0): the Verma module is reducible exactly when
    p = h_I/c_D - 1 is a nonzero integer, and then its maximal submodule is
    generated by one singular vector at level |p| and is itself a Verma
    module, so dim M_n = dim V_{n-|p|}; h and c play no part."""
    assert slice_dims(h, ratio * c_d, c, c_d, 0) == dims


def _fock_weight(c_i, c_d, h_i, h_vir, c_vir):
    """(h, c) whose Virasoro part after splitting off the Fock space is (h_vir, c_vir)."""
    h = h_vir + h_i * h_i / (2 * c_i) - c_d * h_i / c_i
    c = c_vir + 1 - 12 * c_d * c_d / c_i
    return h, c


@example(c_i=Scalar(1), c_d=Scalar(0), h_i=Scalar(0))
@example(c_i=Scalar(2), c_d=Scalar(F(1, 3)), h_i=Scalar(F(5, 7)))
@given(c_i=nonzero, c_d=values, h_i=values)
def test_fock_vacuum(c_i, c_d, h_i):
    """Arbarello–De Concini–Kac–Procesi (1988): for c_I ≠ 0 the Verma module
    is the Fock space of the Heisenberg part tensored with a Virasoro Verma
    module of central charge c' = c - 1 + 12 c_D^2/c_I and weight
    h' = h - h_I^2/(2 c_I) + c_D h_I/c_I.  At (c', h') = (0, 0) the Virasoro
    quotient is trivial, so the irreducible quotient has dimension p(n)
    and dim M_n = dim V_n - p(n)."""
    h, c = _fock_weight(c_i, c_d, h_i, 0, 0)
    assert slice_dims(h, h_i, c, c_d, c_i) == [0, 1, 3, 7, 15]


@example(c_i=Scalar(1), c_d=Scalar(0), h_i=Scalar(0))
@given(c_i=nonzero, c_d=values, h_i=values)
def test_fock_times_ising(c_i, c_d, h_i):
    """Arbarello–De Concini–Kac–Procesi with the Virasoro part at
    (c', h') = (1/2, 1/16), the Ising spin field: its Kac determinant
    vanishes at level 2, and dim M_n reads 0, 0, 1, 2, 6.  With h' moved by
    1/7 the Kac determinant has no zero at levels <= 4, and M_n = 0."""
    h, c = _fock_weight(c_i, c_d, h_i, F(1, 16), F(1, 2))
    assert slice_dims(h, h_i, c, c_d, c_i) == [0, 0, 1, 2, 6]
    assert slice_dims(h + F(1, 7), h_i, c, c_d, c_i) == [0] * (LEVELS + 1)


def test_fock_times_ising_at_unit_heisenberg_level():
    """The same module at c_I = 1, c_D = h_I = 0: φ(d0) = -1/16 and C = 3/2."""
    assert _fock_weight(Scalar(1), Scalar(0), Scalar(0), F(1, 16), F(1, 2)) == (F(1, 16), F(3, 2))
