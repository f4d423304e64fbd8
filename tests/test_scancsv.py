"""The scan CSV's vectorized '.17g' formatter against CPython's own ``format``."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anonsense.scancsv import _fixed_digits, _format_values

BATCH = 1 << 16  # values per formatter call in the large sweeps


def formatted(values) -> list[str]:
    """The formatter's rows for ``values`` as text, NULs dropped, one string each."""
    rows = _format_values(np.asarray(values, dtype=float))
    lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def assert_formats_as_cpython(values):
    values = np.asarray(values, dtype=float)
    for lo in range(0, len(values), BATCH):
        batch = values[lo:lo + BATCH]
        got = formatted(batch)
        want = [format(v, ".17g") for v in batch.tolist()]
        bad = [(v, g, w) for v, g, w in zip(batch.tolist(), got, want) if g != w]
        assert not bad, f"{len(bad)} of {len(batch)} differ, first {bad[:3]}"


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_format_as_cpython(values):
    # one call takes values of every kind together, as a chunk of a scan does
    assert_formats_as_cpython(values)


def test_random_bit_patterns_format_as_cpython():
    bits = np.random.default_rng(611).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    assert_formats_as_cpython(bits.view(np.float64))


def test_log_uniform_magnitudes_format_as_cpython():
    rng = np.random.default_rng(612)
    values = 10.0 ** rng.uniform(-6, 20, 10 ** 6) * rng.choice([-1.0, 1.0], 10 ** 6)
    assert_formats_as_cpython(values)


def nearest_below(x: float, steps: int) -> list[float]:
    out = []
    for _ in range(steps):
        x = float(np.nextafter(x, -math.inf))
        out.append(x)
    return out


def rounding_ties(rng) -> list[float]:
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: K / 2^f is K * 5^f / 10^f, and an odd K * 5^f ends in 5."""
    ties = []
    for f in (5, 10, 15, 20):
        lo, hi = 10 ** 17 // 5 ** f + 1, 10 ** 18 // 5 ** f
        ties += [(int(k) | 1) / 2 ** f for k in rng.integers(lo, hi, 40)]
    return ties


def first_18_digits(x: float) -> Fraction:
    """|x| scaled to 18 digits before the point, exactly."""
    return abs(Fraction(x)) * Fraction(10) ** (17 - math.floor(math.log10(abs(x))))


def trailing_zero_values(rng) -> list[float]:
    """For each exponent e of fixed notation and each z = 0..16, a double whose
    17 digits D end in exactly z zeros: D = M * 10^z for M of 17 - z digits, the
    last not 0, drawn until the double nearest D * 10^(e - 16) prints as D."""
    values = []
    for e in range(-4, 17):
        for z in range(17):
            while True:
                m = int(rng.integers(10 ** (16 - z), 10 ** (17 - z)))
                x = float(f"{m}e{e - 16 + z}")
                digits = str(m * 10 ** z)
                if m % 10 and format(x, ".16e") == f"{digits[0]}.{digits[1:]}e{e:+03d}":
                    values.append(x)
                    break
    return values


def test_edge_values_format_as_cpython(rng):
    powers = [float(f"1e{k}") for k in range(-5, 18)]
    neighbours = [float(np.nextafter(p, d)) for p in powers for d in (0.0, math.inf)]
    below = [x for p in powers for x in nearest_below(p, 3)]
    # no 17-digit rounding carries into a new digit in fixed notation: each
    # double below a power 10^k of 1e-5..1e17 lies more than half a unit of the
    # 17th digit below it, even scaled as if its exponent were k (exactly, by
    # Fraction), so neither its own digits nor those of an estimate one high
    # reach 10^k
    assert all(Fraction(x) * 10 ** 16 < Fraction(p) * (10 ** 16 - Fraction(1, 2))
               for p in powers for x in nearest_below(p, 3))
    ties = rounding_ties(rng)
    digits = [first_18_digits(x) for x in ties]
    assert all(d.denominator == 1 and d.numerator % 10 == 5 for d in digits)
    # the 17th digit is even on some and odd on others, so ties round both ways
    assert {d.numerator // 10 % 2 for d in digits} == {0, 1}
    smallest = 5e-324
    # the longest texts: 24 bytes, the formatter's row
    longest = [-2.2250738585072014e-308, -5e-324, -1.7976931348623157e+308,
               -1.2345678901234567e-300]
    assert {len(format(x, ".17g")) for x in longest} == {24}
    edges = [*powers, *neighbours, *below, *ties, *longest, *trailing_zero_values(rng),
             9.9999999999999995e-05, 99999999999999984.0, 1e-4, 1e16, 1e17,
             2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 0.1, 0.5, 1.0, 2.0,
             0.0, -0.0, smallest, -smallest, sys.float_info.min, sys.float_info.min - smallest,
             sys.float_info.max, math.inf, -math.inf, math.nan]
    edges += [-x for x in edges]
    assert_formats_as_cpython(edges)
    for x in edges:  # and each alone
        assert_formats_as_cpython([x])


def test_powers_of_ten_carry_back_to_their_own_exponent():
    # D = 10^16 at an estimate e may belong to a double just below 10^e, so
    # it is redone at e - 1, where a power of ten reads D >= 10^17: that carry
    # takes it back to 10^16 at e, from every estimate of e (1e-4 and 1e16,
    # whose estimates one off leave fixed notation, go to format with the edge
    # values)
    exponents = np.arange(-3, 16)
    values = np.array([float(f"1e{k}") for k in exponents])
    # 10^-3..10^-1 are not doubles, and 0.1 prints 17 digits as 0.10000000000000001
    want = np.array([int(format(v, ".16e").split("e")[0].replace(".", "")) for v in values])
    assert (want[exponents >= 0] == 10 ** 16).all()
    for shift in (-1, 0, 1):
        digits, e, fixed = _fixed_digits(values, exponents + shift)
        assert fixed.all()
        assert np.array_equal(e, exponents)
        assert np.array_equal(digits, want)
    # 1e17 carries out of fixed notation
    assert not _fixed_digits(np.array([1e17]), np.array([16]))[2].any()


def test_exponent_estimates_one_off_give_the_same_digits():
    rng = np.random.default_rng(613)
    values = np.concatenate([10.0 ** rng.uniform(-3, 16, 20000),
                             [float(np.nextafter(float(f"1e{k}"), d))
                              for k in range(-3, 16) for d in (0.0, math.inf)]])
    exponents = np.array([int(format(v, ".16e").split("e")[1]) for v in values.tolist()])
    inside = (exponents >= -3) & (exponents <= 15)
    values, exponents = values[inside], exponents[inside]
    digits = np.array([int(format(v, ".16e").split("e")[0].replace(".", ""))
                       for v in values.tolist()])
    for shift in (-1, 0, 1):
        got, e, fixed = _fixed_digits(values, exponents + shift)
        assert fixed.all()
        assert np.array_equal(e, exponents)
        assert np.array_equal(got, digits)


@pytest.mark.parametrize("value", [0.0, 1e-300, 1e300, math.inf, math.nan])
def test_values_outside_fixed_notation_take_their_own_rows(value):
    assert formatted([2.5, value, 0.125]) == ["2.5", format(value, ".17g"), "0.125"]
