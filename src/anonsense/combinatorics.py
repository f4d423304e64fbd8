"""The senders' fields and the phases of their bit strings.

Every closed-form amplitude of the multi-sender interference is a sum over
the senders' bit strings, and each sum reads only the strings' phases:
:func:`string_phases` forms them all in one pass and fixes the package's bit
convention.  :func:`g_coefficients` sums each weight's group once, as the
paper writes h_l, and pairs h_l with its conjugate as it writes g_l.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def string_phases(fields: FieldVector) -> list[list[float]]:
    """The phase of every m-bit sender string, grouped by Hamming weight.

    Group l (l = 0..m) holds the C(m, l) strings of weight l in increasing
    integer order.  Bit convention (package-wide): bit j of the integer x,
    the least-significant first, pairs with ``omegas[j]``; a 0 bit adds
    ``+omegas[j]`` and a 1 bit ``-omegas[j]``, so x has the phase
    t * sum_j omegas[j] * (1 - 2 * bit_j(x)).  Complementing every bit
    negates a phase exactly: group m - l is group l negated and reversed.
    """
    groups: list[list[float]] = [[] for _ in range(fields.m + 1)]
    for x in range(1 << fields.m):
        groups[x.bit_count()].append(
            fields.t * sum(w * (1 - 2 * ((x >> j) & 1)) for j, w in enumerate(fields.omegas)))
    return groups


def g_coefficients(fields: FieldVector, sign: str) -> tuple[complex, ...]:
    """Coefficients g[l], l = 0..m: h[l] + h[l]* (sign '+') or h[l] - h[l]* (sign '-'),
    where h[l] sums exp(-i*theta/2) over the phases theta of the weight-l strings.

    Invariants: ``g[m-l] == conj(g[l])``; every entry is real for sign '+'
    and purely imaginary for sign '-'; for even m the central '-' entry is 0.
    """
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    hs = [sum(cmath.exp(-0.5j * p) for p in group) for group in string_phases(fields)]
    if sign == PLUS:
        return tuple(h + h.conjugate() for h in hs)
    return tuple(h - h.conjugate() for h in hs)
