import math

import pytest
from hypothesis import given, strategies as st

from anonsense.combinatorics import (
    MINUS,
    PLUS,
    FieldVector,
    effective_phase,
    g_coefficients,
    h_coefficient,
    hw_bitstrings,
    sign_vector,
)


def test_hw_bitstrings_4_2_exact_order():
    values = [f.value for f in hw_bitstrings(4, 2)]
    assert values == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    ranks = [f.p for f in hw_bitstrings(4, 2)]
    assert ranks == [1, 2, 3, 4, 5, 6]


def test_hw_bitstrings_weight_zero():
    (only,) = hw_bitstrings(3, 0)
    assert only.value == 0
    assert only.bits == (0, 0, 0)


@pytest.mark.parametrize("m,l", [(0, 0), (3, -1), (3, 4)])
def test_hw_bitstrings_rejects_bad_args(m, l):
    with pytest.raises(ValueError):
        hw_bitstrings(m, l)


def test_bits_are_lsb_first():
    # (0110)_2 = 6 has bit vector (0, 1, 1, 0): entry 0 is the least-significant bit
    f = hw_bitstrings(4, 2)[2]
    assert f.value == 6
    assert f.bits == (0, 1, 1, 0)


@given(st.integers(min_value=1, max_value=6))
def test_complementarity_of_bitstrings(m):
    # f(m,l,p) + f(m,m-l,C(m,l)+1-p) = all-ones, for every l and p
    ones = (1 << m) - 1
    for l in range(m + 1):
        lows = hw_bitstrings(m, l)
        highs = hw_bitstrings(m, m - l)
        for f in lows:
            partner = highs[math.comb(m, l) - f.p]
            assert f.value + partner.value == ones
            assert all(a + b == 1 for a, b in zip(f.bits, partner.bits))


@given(st.integers(min_value=1, max_value=12))
def test_enumeration_is_complete(m):
    total = sum(len(hw_bitstrings(m, l)) for l in range(m + 1))
    assert total == 2 ** m


def test_sign_vector_examples():
    assert sign_vector((0, 0)) == (1, 1)
    assert sign_vector((1, 0, 1)) == (-1, 1, -1)


@given(st.integers(min_value=1, max_value=6))
def test_complementary_sign_vectors_cancel(m):
    for l in range(m + 1):
        lows = hw_bitstrings(m, l)
        highs = hw_bitstrings(m, m - l)
        for f in lows:
            partner = highs[math.comb(m, l) - f.p]
            paired = [a + b for a, b in zip(sign_vector(f.bits), sign_vector(partner.bits))]
            assert paired == [0] * m


def test_effective_phase_two_sender_parameterization():
    fields = FieldVector(omegas=(0.75, 1.25), t=2.0)
    f00, f01 = hw_bitstrings(2, 0)[0], hw_bitstrings(2, 1)[2 - 1]
    # weight 0: both signs +1 -> t*(w1+w2)
    assert effective_phase(fields, f00) == pytest.approx(2.0 * 2.0, abs=1e-15)
    # (10)_2 has bit vector (0,1): signs (+1,-1) -> t*(w1-w2)
    assert f01.value == 0b10
    assert effective_phase(fields, f01) == pytest.approx(2.0 * -0.5, abs=1e-15)


def test_effective_phase_zero_fields():
    fields = FieldVector(omegas=(0.0, 0.0, 0.0), t=1.7)
    for l in range(4):
        for f in hw_bitstrings(3, l):
            assert effective_phase(fields, f) == 0.0


def test_field_violations_reject_an_overflowing_phase():
    # each value finite, but the largest string phase t*(w1 + w2) is inf
    assert FieldVector((0.75, 1.25), t=1e308).violations() == [
        "phase t*sum(omegas) = 1e+308 * 2.0 is not finite"]
    assert FieldVector((1e308, 1.7e308), t=1.0).violations() == [
        "phase t*sum(omegas) = 1.0 * inf is not finite"]
    assert FieldVector((0.75, 1.25), t=5e307).violations() == []
    # a non-finite value is reported once, as itself
    assert FieldVector((0.75, math.inf), t=1.0).violations() == [
        "omegas[1] = inf is not strictly positive and finite"]


def test_effective_phase_dimension_mismatch():
    fields = FieldVector(omegas=(1.0,), t=1.0)
    with pytest.raises(ValueError):
        effective_phase(fields, hw_bitstrings(2, 1)[0])


def test_complementary_phases_cancel():
    fields = FieldVector(omegas=(0.3, 0.9, 2.2), t=1.3)
    m = 3
    for l in range(m + 1):
        lows = hw_bitstrings(m, l)
        highs = hw_bitstrings(m, m - l)
        for f in lows:
            partner = highs[math.comb(m, l) - f.p]
            assert abs(effective_phase(fields, f) + effective_phase(fields, partner)) <= 1e-12


def test_g_single_sender_plus_is_cosine():
    theta = 0.8
    fields = FieldVector(omegas=(theta,), t=1.0)
    g = g_coefficients(fields, PLUS)
    # h(0) = exp(-i theta/2), h(1) = exp(+i theta/2) by hand expansion
    assert g.values[0] == pytest.approx(2 * math.cos(theta / 2), abs=1e-14)
    assert g.values[1] == pytest.approx(2 * math.cos(theta / 2), abs=1e-14)


def test_g_two_sender_minus_middle_cancels():
    w1, w2, t = 0.75, 1.25, 1.0
    theta1 = (w1 + w2) * t
    fields = FieldVector(omegas=(w1, w2), t=t)
    g = g_coefficients(fields, MINUS)
    # the two weight-1 phases are +-theta2 and their sines cancel
    assert g.values[0] == pytest.approx(-2j * math.sin(theta1 / 2), abs=1e-14)
    assert g.values[1] == pytest.approx(0.0, abs=1e-14)
    assert g.values[2] == pytest.approx(2j * math.sin(theta1 / 2), abs=1e-14)


def test_g_zero_fields():
    fields = FieldVector(omegas=(0.0, 0.0, 0.0), t=1.0)
    gp = g_coefficients(fields, PLUS)
    gm = g_coefficients(fields, MINUS)
    for l in range(4):
        assert gp.values[l] == pytest.approx(2 * math.comb(3, l), abs=1e-14)
        assert gm.values[l] == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_h_conjugation_symmetry(m, rng):
    for _ in range(5):
        fields = FieldVector(omegas=tuple(sorted(rng.uniform(0.1, 3.0, m))), t=rng.uniform(0.2, 2.0))
        for l in range(m + 1):
            lhs = h_coefficient(fields, l).conjugate()
            rhs = h_coefficient(fields, m - l)
            assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("m", [2, 4, 6])
def test_even_m_central_entries(m, rng):
    fields = FieldVector(omegas=tuple(sorted(rng.uniform(0.1, 3.0, m))), t=1.1)
    h_mid = h_coefficient(fields, m // 2)
    assert abs(h_mid.imag) <= 1e-12
    gm = g_coefficients(fields, MINUS)
    assert abs(gm.values[m // 2]) <= 1e-12
    gp = g_coefficients(fields, PLUS)
    assert abs(gp.values[m // 2] - 2 * h_mid) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_g_invariants(m, sign, rng):
    fields = FieldVector(omegas=tuple(sorted(rng.uniform(0.1, 3.0, m))), t=0.9)
    g = g_coefficients(fields, sign)
    assert len(g.values) == m + 1
    for l in range(m + 1):
        # reflection in l conjugates
        assert abs(g.values[m - l] - g.values[l].conjugate()) <= 1e-12
        if sign == PLUS:
            assert abs(g.values[l].imag) <= 1e-12
        else:
            assert abs(g.values[l].real) <= 1e-12


def test_g_matches_explicit_trig_sums():
    # g is +-2 sum over cos/ i sin of the half effective phases
    fields = FieldVector(omegas=(0.4, 1.1, 2.3), t=1.4)
    m = 3
    for l in range(m + 1):
        phases = [effective_phase(fields, f) for f in hw_bitstrings(m, l)]
        plus = sum(2 * math.cos(p / 2) for p in phases)
        minus = sum(-2j * math.sin(p / 2) for p in phases)
        assert abs(g_coefficients(fields, PLUS).values[l] - plus) <= 1e-12
        assert abs(g_coefficients(fields, MINUS).values[l] - minus) <= 1e-12
