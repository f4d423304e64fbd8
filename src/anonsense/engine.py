"""Closed-form outcome distributions for the entangled-sensor measurement.

The probability of each measurement outcome is a combinatorial sum over the
g coefficients, weighted by binomial ratios formed exactly from falling
factorials.  This path never builds a 2^n state vector and stays exact (up to
one float division per weight) out to participant counts of 10^4 and beyond;
the dense simulator in
:mod:`anonsense.statevec` provides the independent cross-check at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .combinatorics import MINUS, PLUS, SIGNS, FieldVector, g_coefficients

PROB_ATOL = 1e-12
NORM_ATOL = 1e-10


class ConfigError(ValueError):
    """Raised when a protocol configuration violates an invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ProtocolConfig:
    """Static protocol choices: initial-state weights and measurement switches.

    Parameters
    ----------
    n : participant count.
    m_est : sender count the initial state and measurement are designed for (1 or 2).
    t : interaction time.
    q : initial-state weights q[i], i = 0..floor(n/2), nonnegative, summing to 1.
    c_plus, c_minus : 0/1 switches selecting which projectors enter the
        measurement; c_plus[i] gates outcome (i,+), c_minus[i] gates (i,-).
    a : second active weight index for the two-sender design (None otherwise).
    """

    n: int
    m_est: int
    t: float
    q: tuple[float, ...]
    c_plus: tuple[int, ...]
    c_minus: tuple[int, ...]
    a: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))
        object.__setattr__(self, "c_plus", tuple(int(x) for x in self.c_plus))
        object.__setattr__(self, "c_minus", tuple(int(x) for x in self.c_minus))

    @property
    def kmax(self) -> int:
        return self.n // 2

    def c(self, i: int, sign: str) -> int:
        return self.c_plus[i] if sign == PLUS else self.c_minus[i]

    def labels(self) -> list[str]:
        """Outcome labels in canonical order: (i,+), (i,-) by ascending i, then 'f'."""
        out = []
        for i in range(self.kmax + 1):
            if self.c_plus[i]:
                out.append(f"{i}+")
            if self.c_minus[i]:
                out.append(f"{i}-")
        out.append("f")
        return out

    @classmethod
    def for_single_sender(cls, n: int, t: float = 1.0) -> "ProtocolConfig":
        """Design for one sender: all weight on i=0, only the (0,+) projector active."""
        if n < 1:
            raise ConfigError([f"n must be >= 1, got {n}"])
        kmax = n // 2
        q = (1.0,) + (0.0,) * kmax
        c_plus = (1,) + (0,) * kmax
        c_minus = (0,) * (kmax + 1)
        return cls(n=n, m_est=1, t=t, q=q, c_plus=c_plus, c_minus=c_minus, a=None)

    @classmethod
    def for_two_senders(cls, n: int, a: int, q0: float, t: float = 1.0) -> "ProtocolConfig":
        """Design for two senders: weights on i=0 and i=a, projectors (0,+-) and (a,+)."""
        kmax = n // 2
        q = [0.0] * (kmax + 1)
        c_plus = [0] * (kmax + 1)
        c_minus = [0] * (kmax + 1)
        # built uniformly even for out-of-range (n, a) so that validate_config
        # can report the precise violation instead of an opaque constructor error
        q[0] = q0
        c_plus[0] = 1
        c_minus[0] = 1
        if 0 <= a <= kmax:
            q[a] += 1.0 - q0
            c_plus[a] = 1
        return cls(n=n, m_est=2, t=t, q=tuple(q), c_plus=tuple(c_plus),
                   c_minus=tuple(c_minus), a=a)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized probabilities over outcome labels, including the residual 'f'."""

    probs: dict[str, float]

    def __post_init__(self):
        total = sum(self.probs.values())
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"distribution not normalized: total={total!r}")

    def labels(self) -> list[str]:
        return list(self.probs)

    def tv_distance(self, other: "OutcomeDistribution") -> float:
        """Total-variation distance; label sets must agree."""
        if set(self.probs) != set(other.probs):
            raise ValueError("label sets differ")
        return 0.5 * sum(abs(self.probs[k] - other.probs[k]) for k in self.probs)


@dataclass(frozen=True)
class GammaTable:
    """All transition amplitudes gamma[(k, sign)] for one (n, fields) pair."""

    n: int
    m: int
    values: dict[tuple[int, str], complex] = field(compare=False)


def max_senders(n: int) -> int:
    """Largest sender count supported by n participants: floor((n+1)/2)."""
    return (n + 1) // 2


def validate_config(config: ProtocolConfig) -> list[str]:
    """Check every configuration invariant; return violations (empty if valid)."""
    v = []
    n, kmax = config.n, config.kmax
    if n < 1:
        v.append(f"n must be >= 1, got {n}")
        return v
    if config.m_est not in (1, 2):
        v.append(f"m_est must be 1 or 2, got {config.m_est}")
    if config.t <= 0:
        v.append(f"t must be positive, got {config.t}")
    for name, vec in (("q", config.q), ("c_plus", config.c_plus), ("c_minus", config.c_minus)):
        if len(vec) != kmax + 1:
            v.append(f"{name} must have floor(n/2)+1 = {kmax + 1} entries, got {len(vec)}")
            return v
    for i, qi in enumerate(config.q):
        if qi < 0:
            v.append(f"q[{i}] = {qi} is negative")
    if abs(sum(config.q) - 1.0) > PROB_ATOL:
        v.append(f"sum(q) = {sum(config.q)!r} != 1")
    for name, vec in (("c_plus", config.c_plus), ("c_minus", config.c_minus)):
        for i, ci in enumerate(vec):
            if ci not in (0, 1):
                v.append(f"{name}[{i}] = {ci} is not 0/1")
    for i in range(kmax + 1):
        if config.c_plus[i] == 0 and config.c_minus[i] == 0 and config.q[i] != 0:
            v.append(f"q[{i}] = {config.q[i]} must be 0 when both switches c[{i},+-] are 0")
    if config.m_est == 2:
        a = config.a
        if a is None:
            v.append("two-sender design requires the index a")
        else:
            if n < 5:
                v.append(f"two-sender design requires n >= 5, got n={n}")
            if not 2 <= a <= kmax:
                v.append(f"a={a} outside [2, floor(n/2)={kmax}]")
    return v


def weight_row(n: int, m: int, k: int) -> list[float]:
    """Weights C(n-m, k-l)/C(n, k) for l = 0..m; zero where k-l is outside [0, n-m].

    Each weight is formed as the equal ratio perm(k, l)*perm(n-k, m-l)/perm(n, m):
    exact integers of m small factors each, divided once, so the float is
    correctly rounded and identical to the binomial quotient at O(m) cost
    instead of two n-digit binomials.
    """
    denom = math.perm(n, m)
    return [math.perm(k, l) * math.perm(n - k, m - l) / denom for l in range(m + 1)]


def gamma(n: int, fields: FieldVector, k: int, sign: str) -> complex:
    """Transition amplitude gamma for weight index k and the given sign.

    gamma(k, sign) = sum_l C(n-m, k-l) * g[sign][l] / (2 * C(n, k)) with l
    ranging over max(0, k-(n-m)) .. min(k, m).  For even n at k = n/2 the '-'
    amplitude is identically 0 and the '+' amplitude uses the same sum.

    The binomial ratios come from :func:`weight_row`, exact and correctly
    rounded at any n.
    """
    m = fields.m
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} outside [0, floor(n/2)={n // 2}]")
    if m > max_senders(n):
        raise ValueError(f"m={m} exceeds floor((n+1)/2)={max_senders(n)} for n={n}")
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if 2 * k == n and sign == MINUS:
        return 0j
    r = n - m
    g = g_coefficients(fields, PLUS if 2 * k == n else sign)
    w = weight_row(n, m, k)
    total = 0j
    for l in range(max(0, k - r), min(k, m) + 1):
        total += w[l] * g.values[l]
    return total / 2


def gamma_table(n: int, fields: FieldVector) -> GammaTable:
    """All gamma values for k = 0..floor(n/2) and both signs."""
    values = {
        (k, sign): gamma(n, fields, k, sign)
        for k in range(n // 2 + 1)
        for sign in SIGNS
    }
    return GammaTable(n=n, m=fields.m, values=values)


def outcome_distribution(config: ProtocolConfig, fields: FieldVector) -> OutcomeDistribution:
    """Closed-form outcome probabilities for a true sender count m = fields.m.

    The true m may differ from config.m_est (the distribution is still well
    defined; only the estimation step assumes they agree).  Each active
    probability is c * q * |gamma|^2; the residual 'f' absorbs the rest.
    """
    violations = validate_config(config)
    if violations:
        raise ConfigError(violations)
    n, m = config.n, fields.m
    if m > max_senders(n):
        raise ValueError(f"m={m} exceeds floor((n+1)/2)={max_senders(n)} for n={n}")
    probs: dict[str, float] = {}
    total = 0.0
    for i in range(config.kmax + 1):
        for sign in SIGNS:
            if not config.c(i, sign):
                continue
            gam = gamma(n, fields, i, sign)
            p = config.q[i] * abs(gam) ** 2
            if __debug__:
                # the signed form must be real-nonnegative and agree with |.|^2
                signed = (1 if sign == PLUS else -1) * config.q[i] * (gam * gam)
                assert abs(signed.imag) < 1e-12, f"signed probability not real: {signed}"
                assert signed.real >= -1e-12, f"signed probability negative: {signed}"
                assert abs(signed.real - p) < 1e-12
            probs[f"{i}{sign}"] = _clamp(p)
            total += probs[f"{i}{sign}"]
    residual = 1.0 - total
    assert residual >= -PROB_ATOL, f"active probabilities exceed 1 by {-residual}"
    probs["f"] = _clamp(residual)
    return OutcomeDistribution(probs=probs)


def _clamp(p: float) -> float:
    if p < 0.0:
        if p < -PROB_ATOL:
            raise ValueError(f"probability {p} below -{PROB_ATOL}")
        return 0.0
    if p > 1.0:
        if p > 1.0 + PROB_ATOL:
            raise ValueError(f"probability {p} above 1+{PROB_ATOL}")
        return 1.0
    return p
