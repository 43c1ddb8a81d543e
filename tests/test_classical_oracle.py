"""Classical closed forms for modules over the Heisenberg–Virasoro algebra.

Most tests are on Verma modules: each reads ``dim M_n``, the level-n slice of the maximal proper
submodule that ``singular_vectors`` returns, at levels 0..4 on trivial B,
and compares it with a theorem named in its docstring.  The Verma module
itself has ``dim V_n`` = 1, 2, 5, 10, 20 (pairs of partitions of n).

The theorems are stated for L_n = -d_n, under which ``hv_structure`` reads
[L_m, L_n] = (m - n) L_{m+n} + (m^3 - m)/12 δ C, [L_m, I_n] = -n I_{m+n}
- (m^2 + m) δ C_D and [I_m, I_n] = m δ C_I.  So the highest weight has
h = -φ(d0), h_I = φ(I0), c = φ(C), c_D = φ(C_D) and c_I = φ(C_I).

The last tests read the window probe on the intermediate series and check
an involution of the bracket against ``hv_structure``.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hvkit.algebra import HV, hv_structure
from hvkit.analysis import probe_irreducible, singular_vectors
from hvkit.modules import HighestWeightFunctional, IntermediateSeries, TruncatedVerma
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


@pytest.mark.parametrize("alpha", [10, 3, -4, 0])
def test_kaplansky_santharoubane_dead_line(alpha):
    """Kaplansky–Santharoubane (1985): the intermediate series with α an
    integer, β = 0 and F = 0 is reducible, since the line v_0 = v_{α+k} at
    k = -α is killed by every d_i and I_i.  The probe finds that line from
    the first window that holds it, max(|α|, 1), and nothing one below."""
    module = IntermediateSeries(alpha, 0, 0)
    window = max(abs(alpha), 1)
    report = probe_irreducible(module, window, 3)
    assert report.verdict == "reducible-with-witness"
    assert report.witness == {"kind": "lines", "lines": [-alpha]}
    if abs(alpha) >= 2:
        assert probe_irreducible(module, window - 1, 3).verdict == "window-irreducible"


def test_kaplansky_santharoubane_off_the_integers():
    """Kaplansky–Santharoubane: with α not an integer no line is v_0, and the
    series is irreducible."""
    assert probe_irreducible(IntermediateSeries(F(1, 2), 0, 0), 12, 3).verdict == "window-irreducible"


OMEGA_BOUND = 5
GENERATORS = [(kind, n) for kind in ("d", "I") for n in range(-OMEGA_BOUND, OMEGA_BOUND + 1)]
GENERATORS += [("C", 0), ("CD", 0), ("CI", 0)]


def _omega(kind, n, eps, shift):
    """ω on one generator, as {(kind, index): coefficient}; ``shift`` is the
    coefficient of ε·C_D in ω(I_0), -2 for the involution."""
    if kind == "d":
        return {("d", -n): -1}
    if kind == "I":
        return {("I", -n): eps, ("CD", 0): shift * eps} if n == 0 else {("I", -n): eps}
    return {("CD", 0): -eps} if kind == "CD" else {(kind, 0): -1}


def _bracket(x: dict, y: dict) -> dict:
    out: dict = {}
    for (k1, n1), a in x.items():
        for (k2, n2), b in y.items():
            for k3, n3, c in hv_structure(k1, n1, k2, n2):
                out[(k3, n3)] = out.get((k3, n3), 0) + a * b * c
    return {key: c for key, c in out.items() if c}


def _image(x: dict, eps, shift) -> dict:
    out: dict = {}
    for (kind, n), a in x.items():
        for key, c in _omega(kind, n, eps, shift).items():
            out[key] = out.get(key, 0) + a * c
    return {key: c for key, c in out.items() if c}


def _omega_violations(eps, shift) -> int:
    """Ordered generator pairs (x, y) with ω([x, y]) ≠ [ω(x), ω(y)]."""
    return sum(
        _image(_bracket({x: 1}, {y: 1}), eps, shift) != _bracket(_omega(*x, eps, shift), _omega(*y, eps, shift))
        for x in GENERATORS
        for y in GENERATORS
    )


@pytest.mark.parametrize("eps", [1, -1])
def test_the_chevalley_type_involution(eps):
    """The Chevalley-type involution of the Heisenberg–Virasoro algebra:
    ω(d_n) = -d_{-n}, ω(I_n) = ε I_{-n} - 2ε δ_{n,0} C_D, ω(C) = -C,
    ω(C_D) = -ε C_D and ω(C_I) = -C_I, for ε = ±1, is an automorphism of the
    bracket and squares to the identity.  Without the C_D shift on I_0, or
    with it at +2, the pairs (d_n, I_{-n}) and (I_{-n}, d_n) with
    0 < |n| <= 5 break it."""
    assert _omega_violations(eps, -2) == 0
    assert all(_image(_omega(*x, eps, -2), eps, -2) == {x: 1} for x in GENERATORS)
    assert _omega_violations(eps, 0) == 20
    assert _omega_violations(eps, 2) == 20
