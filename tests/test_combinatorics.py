import math

import pytest
from hypothesis import given, strategies as st

from anonsense.combinatorics import (
    MINUS,
    PLUS,
    FieldVector,
    g_coefficients,
    string_phases,
)
from reference import h_coefficient


# with omegas (1, 2, 4, 8) and t = 1, string x has phase 15 - 2x: bit j of x,
# the least-significant first, flips the sign of omegas[j]
POWERS = FieldVector(omegas=(1.0, 2.0, 4.0, 8.0), t=1.0)


def test_hw_bitstrings_4_2_exact_order():
    assert string_phases(POWERS)[2] == [
        15 - 2 * x for x in (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)]


def test_hw_bitstrings_weight_zero():
    # the one weight-0 string has every sign +1: phase t*sum(omegas)
    assert string_phases(FieldVector(omegas=(0.3, 0.9, 2.2), t=1.3))[0] == [1.3 * (0.3 + 0.9 + 2.2)]


@pytest.mark.parametrize("m,l", [(0, 0), (3, -1), (3, 4)])
def test_hw_bitstrings_rejects_bad_args(m, l):
    # no weight-l strings outside [0, m]: h_coefficient would otherwise index
    # a group from the end
    with pytest.raises(ValueError):
        h_coefficient(FieldVector(omegas=(1.0,) * m, t=1.0), l)


def test_bits_are_lsb_first():
    # (0110)_2 = 6 has bits (0, 1, 1, 0), entry 0 the least significant:
    # phase 1 - 2 - 4 + 8, third of weight 2
    assert string_phases(POWERS)[2][2] == 1.0 - 2.0 - 4.0 + 8.0 == 15 - 2 * 6


@given(st.integers(min_value=1, max_value=6))
def test_complementarity_of_bitstrings(m):
    # power-of-two fields make each phase name its string: x = (2^m - 1 - phase) / 2;
    # group l lists the weight-l strings in increasing order, and the p-th
    # string of group m - l from the end is the complement of the p-th of group l
    ones = (1 << m) - 1
    groups = string_phases(FieldVector(omegas=tuple(2.0 ** j for j in range(m)), t=1.0))
    strings = [[int(ones - p) // 2 for p in group] for group in groups]
    for l, xs in enumerate(strings):
        assert xs == sorted(x for x in range(ones + 1) if x.bit_count() == l)
        assert [ones - x for x in xs] == strings[m - l][::-1]


@given(st.integers(min_value=1, max_value=12))
def test_enumeration_is_complete(m):
    groups = string_phases(FieldVector(omegas=(1.0,) * m, t=1.0))
    assert [len(g) for g in groups] == [math.comb(m, l) for l in range(m + 1)]
    assert sum(map(len, groups)) == 2 ** m


def test_effective_phase_two_sender_parameterization():
    # weight 0: t*(w1 + w2); (01)_2 and (10)_2: t*(w2 - w1) and t*(w1 - w2)
    assert string_phases(FieldVector(omegas=(0.75, 1.25), t=2.0)) == [
        [2.0 * 2.0], [2.0 * 0.5, 2.0 * -0.5], [2.0 * -2.0]]


def test_effective_phase_zero_fields():
    groups = string_phases(FieldVector(omegas=(0.0, 0.0, 0.0), t=1.7))
    assert groups == [[0.0] * math.comb(3, l) for l in range(4)]


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


def test_complementary_phases_cancel():
    # complementing every bit negates each term, so each phase negates exactly
    for fields in (FieldVector(omegas=(0.3, 0.9, 2.2), t=1.3),
                   FieldVector(omegas=(0.1, 0.7, 1.9, 2.4, 3.0), t=1e3)):
        groups = string_phases(fields)
        for l, group in enumerate(groups):
            assert groups[fields.m - l][::-1] == [-p for p in group]


@given(st.integers(min_value=1, max_value=6))
def test_complementary_sign_vectors_cancel(m):
    # a field on sender j alone gives each string its sign 1 - 2*bit_j as its
    # phase; complementary strings then have opposite signs on every sender
    for j in range(m):
        unit = tuple(1.0 if k == j else 0.0 for k in range(m))
        groups = string_phases(FieldVector(omegas=unit, t=1.0))
        for l, group in enumerate(groups):
            assert set(group) <= {1.0, -1.0}
            assert [a + b for a, b in zip(group, groups[m - l][::-1])] == [0.0] * len(group)


def test_g_single_sender_plus_is_cosine():
    theta = 0.8
    fields = FieldVector(omegas=(theta,), t=1.0)
    g = g_coefficients(fields, PLUS)
    # h(0) = exp(-i theta/2), h(1) = exp(+i theta/2) by hand expansion
    assert g[0] == pytest.approx(2 * math.cos(theta / 2), abs=1e-14)
    assert g[1] == pytest.approx(2 * math.cos(theta / 2), abs=1e-14)


def test_g_two_sender_minus_middle_cancels():
    w1, w2, t = 0.75, 1.25, 1.0
    theta1 = (w1 + w2) * t
    fields = FieldVector(omegas=(w1, w2), t=t)
    g = g_coefficients(fields, MINUS)
    # the two weight-1 phases are +-theta2 and their sines cancel
    assert g[0] == pytest.approx(-2j * math.sin(theta1 / 2), abs=1e-14)
    assert g[1] == pytest.approx(0.0, abs=1e-14)
    assert g[2] == pytest.approx(2j * math.sin(theta1 / 2), abs=1e-14)


def test_g_zero_fields():
    fields = FieldVector(omegas=(0.0, 0.0, 0.0), t=1.0)
    gp = g_coefficients(fields, PLUS)
    gm = g_coefficients(fields, MINUS)
    for l in range(4):
        assert gp[l] == pytest.approx(2 * math.comb(3, l), abs=1e-14)
        assert gm[l] == 0


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
    assert abs(gm[m // 2]) <= 1e-12
    gp = g_coefficients(fields, PLUS)
    assert abs(gp[m // 2] - 2 * h_mid) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("sign", [PLUS, MINUS])
def test_g_invariants(m, sign, rng):
    fields = FieldVector(omegas=tuple(sorted(rng.uniform(0.1, 3.0, m))), t=0.9)
    g = g_coefficients(fields, sign)
    assert len(g) == m + 1
    for l in range(m + 1):
        # reflection in l conjugates
        assert abs(g[m - l] - g[l].conjugate()) <= 1e-12
        if sign == PLUS:
            assert abs(g[l].imag) <= 1e-12
        else:
            assert abs(g[l].real) <= 1e-12


def test_g_matches_explicit_trig_sums():
    # g is +-2 sum over cos/ i sin of the half string phases
    fields = FieldVector(omegas=(0.4, 1.1, 2.3), t=1.4)
    m = 3
    for l in range(m + 1):
        phases = string_phases(fields)[l]
        plus = sum(2 * math.cos(p / 2) for p in phases)
        minus = sum(-2j * math.sin(p / 2) for p in phases)
        assert abs(g_coefficients(fields, PLUS)[l] - plus) <= 1e-12
        assert abs(g_coefficients(fields, MINUS)[l] - minus) <= 1e-12
