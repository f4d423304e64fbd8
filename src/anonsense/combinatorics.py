"""Exact bit-string and phase-coefficient machinery for multi-sender interference.

Everything in this module is a pure function of its inputs.  Binomial
coefficients are kept as exact Python integers throughout; floats appear
only in phases and in the complex h/g coefficient values.

Bit ordering convention (used package-wide): ``bits[0]`` is the
least-significant bit of the integer value, and the j-th entry of a bit
vector pairs with the j-th field amplitude ``omegas[j]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

PLUS = "+"
MINUS = "-"
SIGNS = (PLUS, MINUS)


@dataclass(frozen=True)
class FieldVector:
    """Field amplitudes (angular frequencies) and the shared interaction time.

    The physical convention is ``0 < omegas[0] <= ... <= omegas[m-1]`` with
    ``t > 0``; the container itself stores values as given so that degenerate
    inputs (zero fields, sign-flipped phases) remain expressible in tests and
    symmetry checks.  Use :meth:`violations` to audit the convention.
    """

    omegas: tuple[float, ...]
    t: float

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        if len(self.omegas) < 1:
            raise ValueError("at least one field amplitude is required")

    @property
    def m(self) -> int:
        return len(self.omegas)

    def violations(self) -> list[str]:
        """Return convention violations (non-positive, non-finite or unordered
        amplitudes, or finite values whose largest phase t*sum(omegas) overflows)."""
        out = []
        if not 0 < self.t < math.inf:
            out.append(f"interaction time must be positive and finite, got {self.t}")
        for j, w in enumerate(self.omegas):
            if not 0 < w < math.inf:
                out.append(f"omegas[{j}] = {w} is not strictly positive and finite")
        if not out and not self.t * sum(self.omegas) < math.inf:
            out.append(f"phase t*sum(omegas) = {self.t} * {sum(self.omegas)} is not finite")
        for j in range(1, self.m):
            if self.omegas[j] < self.omegas[j - 1]:
                out.append(f"omegas[{j}] < omegas[{j - 1}]: amplitudes not nondecreasing")
        return out


@dataclass(frozen=True)
class HwBitstring:
    """The p-th smallest m-bit integer of Hamming weight l, with its bit vector."""

    m: int
    l: int
    p: int
    bits: tuple[int, ...]

    @property
    def value(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))


@dataclass(frozen=True)
class GCoefficients:
    """Complex coefficients g[l] for l = 0..m at a fixed sign.

    Invariants: ``g[m-l] == conj(g[l])``; every entry is real for sign '+'
    and purely imaginary for sign '-'; for even m the central '-' entry is 0.
    """

    m: int
    sign: str
    values: tuple[complex, ...]


def hw_bitstrings(m: int, l: int) -> list[HwBitstring]:
    """Enumerate all m-bit strings of Hamming weight l in increasing integer order.

    Parameters
    ----------
    m : positive bit-string length (m = 0 is rejected).
    l : weight, 0 <= l <= m.

    Returns
    -------
    List of exactly C(m, l) entries; entry at index p-1 has rank p.
    """
    if m < 1:
        raise ValueError(f"bit-string length must be >= 1, got m={m}")
    if not 0 <= l <= m:
        raise ValueError(f"weight l={l} outside [0, {m}]")
    out = []
    p = 0
    for x in range(1 << m):
        if x.bit_count() == l:
            p += 1
            out.append(HwBitstring(m=m, l=l, p=p, bits=tuple((x >> i) & 1 for i in range(m))))
    assert len(out) == math.comb(m, l)
    return out


def sign_vector(bits: Iterable[int]) -> tuple[int, ...]:
    """Map a 0/1 vector entrywise to (+1, -1) via r -> 1 - 2r."""
    return tuple(1 - 2 * int(b) for b in bits)


def effective_phase(fields: FieldVector, f: HwBitstring) -> float:
    """Phase t * (omegas . sign_vector(f.bits)) accumulated by configuration f."""
    if fields.m != f.m:
        raise ValueError(f"field count {fields.m} != bit-string length {f.m}")
    return fields.t * sum(w * s for w, s in zip(fields.omegas, sign_vector(f.bits)))


def h_coefficient(fields: FieldVector, l: int) -> complex:
    """Sum of exp(-i*theta/2) over the effective phases of all weight-l strings.

    Internal intermediate of :func:`g_coefficients`, exposed so its conjugation
    symmetry h(l)* == h(m-l) can be checked directly.
    """
    return sum(
        cmath.exp(-0.5j * effective_phase(fields, f)) for f in hw_bitstrings(fields.m, l)
    )


def g_coefficients(fields: FieldVector, sign: str) -> GCoefficients:
    """Coefficients g[l] = h[l] + h[l]* (sign '+') or h[l] - h[l]* (sign '-')."""
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    m = fields.m
    hs = [h_coefficient(fields, l) for l in range(m + 1)]
    if sign == PLUS:
        values = tuple(h + h.conjugate() for h in hs)
    else:
        values = tuple(h - h.conjugate() for h in hs)
    return GCoefficients(m=m, sign=sign, values=values)
