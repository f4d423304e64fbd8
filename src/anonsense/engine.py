"""Closed-form outcome distributions for the entangled-sensor measurement.

One kernel, :class:`ThetaModel`, evaluates every closed-form probability:
each measured outcome (i, sign) has probability q[i] * gamma^2 and the
residual 'f' takes the rest, assembled from stable complements.  For the
estimated phase vector theta of the designed one or two senders the
amplitudes take three numbers per weight index, 1 - B_i, B_i
(:func:`dilution`) and D_i = 1 - 2i/n.  For any true sender count,
:func:`_string_amplitudes`, which :func:`outcome_distribution` and
:func:`gamma` share, contracts binomial weight rows (exact falling
factorials, one correctly rounded division each) with versine and sine
stacks of the sender-bit strings' phases: at the designed count, the
cross-check of the form.  The estimator fits this closed form;
simulation samples the exact Dicke-mean conditionals of
:mod:`anonsense.statevec`, whose mixture is this distribution.  This path
never builds a 2^n state vector and scales to participant counts of 10^4
and beyond.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .combinatorics import MINUS, PLUS, SIGNS, FieldVector, string_phases

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

    Construction (``dataclasses.replace`` too) checks every invariant and
    raises :class:`ConfigError` listing each violation; nothing checks again.
    """

    n: int
    m_est: int
    t: float
    q: tuple[float, ...]
    c_plus: tuple[int, ...]
    c_minus: tuple[int, ...]
    a: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(map(float, self.q)))
        # the switches are checked as given: int() would turn 0.7 into a valid 0
        violations = _violations(self)
        if violations:
            raise ConfigError(violations)
        object.__setattr__(self, "c_plus", tuple(map(int, self.c_plus)))
        object.__setattr__(self, "c_minus", tuple(map(int, self.c_minus)))

    @property
    def kmax(self) -> int:
        return self.n // 2

    @functools.cached_property
    def outcomes(self) -> tuple[tuple[int, str], ...]:
        """The measured outcomes (i, sign) in canonical order, by ascending i and (i,+)
        before (i,-), which every path that lists outcomes reads; a tuple built once."""
        c_plus, c_minus = self.c_plus, self.c_minus
        return tuple((i, sign) for i in range(self.kmax + 1) if c_plus[i] or c_minus[i]
                     for sign, c in ((PLUS, c_plus[i]), (MINUS, c_minus[i])) if c)

    @functools.cached_property
    def _labels(self) -> tuple[str, ...]:
        return tuple(f"{i}{sign}" for i, sign in self.outcomes) + ("f",)

    def labels(self) -> list[str]:
        """Outcome labels in canonical order: the measured outcomes, then 'f' (a copy)."""
        return list(self._labels)

    @functools.cached_property
    def residual_indices(self) -> tuple[int, ...]:
        """The weighted indices whose initial state can give 'f': all but index 0 with
        (0,+) and (0,-) on, which span its space {|0...0>, |1...1>}."""
        spans_zero = self.c_plus[0] and self.c_minus[0]
        weighted = itertools.compress(range(self.kmax + 1), self.q)
        return tuple(i for i in weighted if i or not spans_zero)

    @classmethod
    def for_single_sender(cls, n: int, t: float = 1.0) -> "ProtocolConfig":
        """Design for one sender: all weight on i=0, only the (0,+) projector active."""
        return cls(t=t, **design_fields(n))

    @classmethod
    def for_two_senders(cls, n: int, a: int, q0: float, t: float = 1.0) -> "ProtocolConfig":
        """Design for two senders: weights on i=0 and i=a, projectors (0,+-) and (a,+)."""
        return cls(t=t, **design_fields(n, a, q0))


def design_fields(n: int, a: Optional[int] = None, q0: float = 1.0) -> dict:
    """The paper's design as :class:`ProtocolConfig` fields (all but t): weight
    q0 on i=0 and the (0,+) projector; for two senders (an index ``a``) also
    weight 1 - q0 on i=a and the (0,-) and (a,+) projectors.  Built even for an
    out-of-range (n, a), so that the config reports the precise violation."""
    size = max(n // 2, 0) + 1
    q = [0.0] * size
    c_plus = [0] * size
    c_minus = [0] * size
    q[0] = q0
    c_plus[0] = 1
    if a is not None:
        c_minus[0] = 1
        if 0 <= a < size:
            q[a] += 1.0 - q0
            c_plus[a] = 1
    return dict(n=n, m_est=1 if a is None else 2, q=q, c_plus=c_plus, c_minus=c_minus, a=a)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized probabilities over outcome labels, including the residual 'f'."""

    probs: dict[str, float]

    def __post_init__(self):
        check_normalized(np.array([list(self.probs.values())], dtype=float))

    @classmethod
    def from_row(cls, labels: Sequence[str], row: np.ndarray) -> "OutcomeDistribution":
        """The distribution of one row of probabilities, in ``labels`` order."""
        return cls(probs=dict(zip(labels, row.tolist())))

    def labels(self) -> list[str]:
        return list(self.probs)


def check_normalized(probs: np.ndarray):
    """Raise ValueError unless each row of ``probs`` (distributions x labels)
    sums to 1 within NORM_ATOL; a NaN total fails too.

    A row is summed label by label, as ``sum(dist.probs.values())`` adds.
    """
    total = np.zeros(len(probs))
    for column in probs.T:
        total = total + column
    off = np.flatnonzero(~(np.abs(total - 1.0) <= NORM_ATOL))
    if off.size:
        raise ValueError(f"distribution not normalized: total={float(total[off[0]])!r}")


def max_senders(n: int) -> int:
    """Largest sender count supported by n participants: floor((n+1)/2)."""
    return (n + 1) // 2


def check_senders(n: int, m: int):
    """Raise ValueError if n participants cannot host m senders."""
    if m > max_senders(n):
        raise ValueError(f"m={m} exceeds floor((n+1)/2)={max_senders(n)} for n={n}")


def _violations(config: ProtocolConfig) -> list[str]:
    """Every violation of a configuration's invariants (empty if it is valid)."""
    n, kmax = config.n, config.kmax
    if n < 1:
        return [f"n must be >= 1, got {n}"]
    v = []
    if config.m_est not in (1, 2):
        v.append(f"m_est must be 1 or 2, got {config.m_est}")
    if not 0 < config.t < math.inf:
        v.append(f"t must be positive and finite, got {config.t}")
    for name, vec in (("q", config.q), ("c_plus", config.c_plus), ("c_minus", config.c_minus)):
        if len(vec) != kmax + 1:
            v.append(f"{name} must have floor(n/2)+1 = {kmax + 1} entries, got {len(vec)}")
            return v
    # each per-entry walk runs only when a pass over the whole vector finds a fault
    q, total = config.q, sum(config.q)
    # a finite sum has no NaN or infinite term, so min() is then defined
    if not (math.isfinite(total) and min(q) >= 0):
        for i, qi in enumerate(q):
            if not 0 <= qi < math.inf:
                v.append(f"q[{i}] = {qi} is negative or not finite")
    if abs(total - 1.0) > PROB_ATOL:
        v.append(f"sum(q) = {total!r} != 1")
    for name, vec in (("c_plus", config.c_plus), ("c_minus", config.c_minus)):
        if not all(ci in (0, 1) for ci in vec):
            for i, ci in enumerate(vec):
                if ci not in (0, 1):
                    v.append(f"{name}[{i}] = {ci} is not 0/1")
    for i in itertools.compress(range(kmax + 1), q):  # the nonzero weights
        if config.c_plus[i] == 0 and config.c_minus[i] == 0:
            v.append(f"q[{i}] = {q[i]} must be 0 when both switches c[{i},+-] are 0")
    if config.m_est == 2:
        if config.a is None:
            v.append("two-sender design requires the index a")
        else:
            v += two_sender_violations(n, config.a)
    return v


def two_sender_violations(n: int, a: int) -> list[str]:
    """The two-sender design's rule: n >= 5 participants and a weight index
    2 <= a <= floor(n/2); returns the violations (empty if it holds)."""
    v = []
    if n < 5:
        v.append(f"two-sender design requires n >= 5, got {n}")
    if not 2 <= a <= n // 2:
        v.append(f"a={a} outside [2, floor(n/2)={n // 2}]")
    return v


def weight_row(n: int, m: int, k: int, hypergeometric: bool = False) -> list[float]:
    """Weights C(n-m, k-l)/C(n, k) for l = 0..m; zero where k-l is outside [0, n-m].
    With ``hypergeometric``, each is times C(m, l): C(m, l)*C(n-m, k-l)/C(n, k).

    Each weight is formed as the equal ratio perm(k, l)*perm(n-k, m-l)/perm(n, m):
    exact integers of m small factors each, divided once, so the float is
    correctly rounded and identical to the binomial quotient at O(m) cost
    instead of two n-digit binomials.
    """
    denom = math.perm(n, m)
    return [(math.comb(m, l) if hypergeometric else 1) * math.perm(k, l) * math.perm(n - k, m - l)
            / denom for l in range(m + 1)]


def dilution(n: int, a: int) -> float:
    """B_a = 2a(n-a)/(n(n-1)): the chance that a uniform weight-a string of n
    bits splits a pair of sender positions.  It is the two-sender model's
    mixing ratio (:class:`ThetaModel`) and sets the variance bound; one
    correctly rounded division of exact integers."""
    return 2 * a * (n - a) / (n * (n - 1))


class ThetaModel:
    """Outcome probabilities of a configuration: the one closed-form kernel.

    Each active outcome (i, sign) has probability q[i] * gamma^2 and the
    residual 'f' takes the rest, assembled per weight index from the
    complements 1 - gamma+^2 = v*(2 - v), which never cancel, so Fisher
    summands (dp)^2/p stay accurate where p is tiny.

    The phase-vector methods read theta through three numbers per modelled
    weight index i, 1 - B_i, B_i = :func:`dilution` (n, i) (0 for one sender)
    and D_i = 1 - 2i/n:

        gamma+ = 1 - v,  v = (1 - B_i)*vers(theta1/2) + B_i*vers(theta2/2),
        gamma- = D_i*sin(theta1/2),

    so P(i,+) = q_i*[(1 - B_i)*cos(theta1/2) + B_i*cos(theta2/2)]^2 and
    P(i,-) = q_i*D_i^2*sin^2(theta1/2).  This is the weight contraction of
    the m_est sender-bit strings' stacks folded by hand: the weights
    w_l = C(n-m, i-l)/C(n, i) are hypergeometric, w0 + 2*w1 + w2 = 1, so
    B_i = 2*w1 and D_i = w0 - w2 (one sender: w0 + w1 = 1, D_i = w0 - w1).
    theta2 enters through cos(theta2/2) alone.  :meth:`point_probs`,
    :meth:`derivatives` and :meth:`dprobs` take one phase vector of floats;
    :meth:`label_rows` a grid given as broadcasting axes, each label row on
    the axes it reads, and :meth:`probs` stacks its rows.

    The model is that of the designed sender count m_est alone.  Only weight
    indices with a measurement switch on are modelled: a
    :class:`ProtocolConfig` has q[i] = 0 on every other index.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.m_est = config.m_est
        n = config.n
        outcomes = config.outcomes
        # weight indices with a switch on; row r of every table is index _rows[r]
        row = {i: r for r, i in enumerate(dict.fromkeys(i for i, _ in outcomes))}
        self._rows = list(row)
        # 1 - B, B and D per row, each one correctly rounded division of exact
        # integers; one sender splits no pair (and n(n - 1) is 0 at n = 1)
        pairs = n * (n - 1)
        self._coef = [((pairs - 2 * i * (n - i)) / pairs if self.m_est == 2 else 1.0,
                       dilution(n, i) if self.m_est == 2 else 0.0, (n - 2 * i) / n)
                      for i in self._rows]
        self.labels = config.labels()
        q, c_plus, c_minus = config.q, config.c_plus, config.c_minus
        # per label: its row, whether it is '+', q and its coefficient on each theta_j
        # (gamma+ = 1 - v reads theta1 by -(1 - B) and theta2 by -B, gamma- theta1 by D)
        reads = [((-a, -b), (d, 0.0)) for a, b, d in self._coef]
        self._chain = [(row[i], sign == PLUS, q[i], reads[row[i]][sign == MINUS][:self.m_est])
                       for i, sign in outcomes]
        self._residual_terms = [(row[i], q[i], c_plus[i], c_minus[i])
                                for i in config.residual_indices]

    def _amplitudes(self, theta, sin) -> tuple[list, list]:
        """v and gamma- of each row at theta, with ``sin`` = math.sin on one
        phase vector of floats or numpy.sin on array components that
        broadcast.  A row with B = 0 forms no theta2 term, so on a grid it
        keeps the theta1 axis' shape, as every gamma- does."""
        if len(theta) != self.m_est:
            raise ValueError(f"phase-vector methods need m_est = {self.m_est} theta "
                             f"components, got {len(theta)}")
        vers = [2 * sin(t / 4) ** 2 for t in theta]
        sine = sin(theta[0] / 2)
        return ([a * vers[0] + b * vers[1] if b else a * vers[0] for a, b, _ in self._coef],
                [d * sine for _, _, d in self._coef])

    def _assemble(self, v, gamma_m) -> list:
        """Per-label probabilities from the row amplitudes, in labels order.

        gamma+ = 1 - v[r] and gamma- = gamma_m[r] may be arrays or floats.
        The residual is assembled per weight index from stable complements.
        """
        rows = []
        for r, plus, q, _ in self._chain:
            gam = (1.0 - v[r]) if plus else gamma_m[r]
            rows.append(q * gam ** 2)
        residual = 0.0
        for r, q, c_plus, c_minus in self._residual_terms:
            if c_plus:
                rest = v[r] * (2.0 - v[r])
                if c_minus:
                    rest = rest - gamma_m[r] ** 2
            else:
                rest = (1.0 - gamma_m[r]) * (1.0 + gamma_m[r])
            residual = residual + q * np.maximum(rest, 0.0)
        # with no residual, 'f' is 0 on the theta1 axis, as gamma- spans it
        rows.append(residual if self._residual_terms else np.zeros_like(gamma_m[0]))
        return rows

    def probs(self, theta: Sequence) -> np.ndarray:
        """:meth:`label_rows` stacked along axis 0 (labels order), each row
        broadcast to the grid; the components may be floats or arrays."""
        rows = self.label_rows([np.asarray(t, dtype=float) for t in theta])
        return np.stack(np.broadcast_arrays(*rows))

    def point_probs(self, theta: Sequence[float]) -> list:
        """The probabilities at one phase vector of floats, as a list of floats
        in labels order."""
        return [float(p) for p in self._assemble(*self._amplitudes(theta, math.sin))]

    def label_rows(self, theta: Sequence[np.ndarray]) -> list:
        """Probabilities for every label over the grid the theta components
        span, in labels order.

        The components are float arrays that broadcast against each other,
        such as the axes ``np.meshgrid(..., sparse=True)`` returns.  A label
        row keeps the broadcast shape of the amplitudes it is made of: the
        '-' labels and the '+' labels of B = 0 span the theta1 axis alone.
        Every cell is formed elementwise, so its bits do not depend on the
        grid it is part of.
        """
        return self._assemble(*self._amplitudes(theta, np.sin))

    def dprobs(self, theta: Sequence[float]) -> list:
        """Analytic derivatives dP/dtheta_j at one phase vector of floats,
        a float list per label: the first-order half of :meth:`derivatives`,
        which the estimator's scoring steps use."""
        return self.derivatives(theta)[0]

    def derivatives(self, theta: Sequence[float], second: bool = False):
        """dP/dtheta_j, a list of m_est floats per label, and d2P/dtheta_i
        dtheta_j, an m_est x m_est nested list per label, or None unless
        ``second``, at one phase vector of floats, as :meth:`point_probs`
        takes it; labels in labels order.

        The chain rule of the form: a label's amplitude reads theta_j through
        its coefficient (``_chain``) times vers(theta_j/2) ('+') or
        sin(theta1/2) ('-'), whose derivatives are sin(theta_j/2)/2 and
        cos(theta_j/2)/4, or cos(theta1/2)/2 and -sin(theta1/2)/4; no
        amplitude mixes two components.  P = q*gam^2 gives dP_j = 2q*gam*dgam_j
        and d2P_ij = 2q*(dgam_i*dgam_j + gam*d2gam_ij), and the residual's
        derivatives are minus the sum of the active ones, added in labels order.
        """
        v, gamma_m = self._amplitudes(theta, math.sin)
        sines = [math.sin(t / 2) for t in theta]
        cosines = [math.cos(t / 2) for t in theta]
        m = len(theta)
        # by sign ('+', '-'), the slope and curvature of what each label reads
        slopes = ([s / 2 for s in sines], [cosines[0] / 2] * m)
        curves = ([c / 4 for c in cosines], [-sines[0] / 4] * m)
        dp, d2p = [], []
        for r, plus, q, reads in self._chain:
            gam = 1.0 - v[r] if plus else gamma_m[r]
            dgam = [a * s for a, s in zip(reads, slopes[not plus])]
            scale = 2.0 * q * gam
            dp.append([scale * d for d in dgam])
            if second:
                # dgam_i * dgam_j before the scale, so that d2P is exactly symmetric
                rows = [[2.0 * q * (di * dj) for dj in dgam] for di in dgam]
                for j, (a, k) in enumerate(zip(reads, curves[not plus])):
                    rows[j][j] += scale * a * k
                d2p.append(rows)
        dp.append([-functools.reduce(operator.add, column) for column in zip(*dp)])
        if not second:
            return dp, None
        d2p.append([[-functools.reduce(operator.add, entry) for entry in zip(*rows)]
                    for rows in zip(*d2p)])
        return dp, d2p


def _string_amplitudes(n: int, fields: FieldVector, rows: Sequence[int]) -> tuple[list, list]:
    """v and gamma- (gamma+ = 1 - v) at weight indices ``rows`` for the fields
    of any true sender count m, as float lists.  The weight-l group of
    :func:`string_phases`, in integer order, sums left to right to the stacks
    u[l] = sum_f 2*sin^2(phi_f/4) and s[l] = sum_f -2*sin(phi_f/2) (g+[l] =
    2*C(m, l) - 2*u[l], g-[l] = 1j*s[l]), each contracted with the
    :func:`weight_row` rows w in one BLAS product: v = w . u and gamma- =
    (w/2) . s, the halving exact and 0 on the central '-' projector of even n."""
    u, s = [], []
    for phases in string_phases(fields):
        u.append(functools.reduce(operator.add, [2 * np.sin(p / 4) ** 2 for p in phases]))
        s.append(functools.reduce(operator.add, [-2 * np.sin(p / 2) for p in phases]))
    w = np.array([weight_row(n, fields.m, i) for i in rows])
    w_minus = w * np.array([[0.0 if 2 * i == n else 0.5] for i in rows])
    return (np.dot(w, np.array(u).reshape(-1, 1))[:, 0].tolist(),
            np.dot(w_minus, np.array(s).reshape(-1, 1))[:, 0].tolist())


def gamma(n: int, fields: FieldVector, k: int, sign: str) -> complex:
    """Transition amplitude gamma for weight index k and the given sign.

    gamma(k, sign) = sum_l C(n-m, k-l) * g[sign][l] / (2 * C(n, k)) with l
    ranging over max(0, k-(n-m)) .. min(k, m), through
    :func:`_string_amplitudes`; for even n at k = n/2 the '-' amplitude is 0.
    """
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} outside [0, floor(n/2)={n // 2}]")
    check_senders(n, fields.m)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if 2 * k == n and sign == MINUS:
        return 0j
    (v,), (gamma_m,) = _string_amplitudes(n, fields, [k])
    return complex(1.0 - v) if sign == PLUS else 1j * gamma_m


def outcome_distribution(config: ProtocolConfig, fields: FieldVector) -> OutcomeDistribution:
    """Closed-form outcome probabilities for a true sender count m = fields.m.

    The true m may differ from config.m_est (the distribution is still well
    defined; only the estimation step assumes they agree): the true fields'
    :func:`_string_amplitudes`, assembled by :class:`ThetaModel`.  Where
    m = m_est this is ``ThetaModel(config).point_probs(phases_from_fields(fields))``
    to rounding: an independent evaluation of the same form.
    """
    check_senders(config.n, fields.m)
    model = ThetaModel(config)
    probs = model._assemble(*_string_amplitudes(config.n, fields, model._rows))
    return OutcomeDistribution(probs={label: float(p) for label, p in zip(model.labels, probs)})
