"""Closed-form outcome distributions for the entangled-sensor measurement.

One kernel, :class:`ThetaModel`, evaluates every closed-form probability:
each measured outcome (i, sign) has probability q[i] * gamma^2 and the
residual 'f' takes the rest.  The amplitudes are contractions of binomial
weight rows (formed exactly from falling factorials, one correctly rounded
division each) with versine and sine stacks of the sender-bit strings'
phases, and the residual is assembled from stable complements.
:func:`outcome_distribution` and the estimator's phase-vector methods feed
the same kernel, so the closed form is the one that is fitted; simulation
samples the exact Dicke-mean conditionals of :mod:`anonsense.statevec`,
whose mixture is this distribution.  This path never builds a 2^n state
vector and scales to participant counts of 10^4 and beyond.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .combinatorics import MINUS, PLUS, SIGNS, FieldVector, effective_phase, hw_bitstrings

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

    def tv_distance(self, other: "OutcomeDistribution") -> float:
        """Total-variation distance; label sets must agree."""
        if set(self.probs) != set(other.probs):
            raise ValueError("label sets differ")
        return 0.5 * sum(abs(self.probs[k] - other.probs[k]) for k in self.probs)


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


def _stacks(phases, table) -> tuple[list, list]:
    """Versine and sine stacks of a phase table, one entry per string weight l.

    Row l of ``table`` lists the sender-bit strings f of weight l; its entry
    (s, j) stands for the string phase phi_f = s * phases[j] (s = +-1;
    ``phases`` holds floats or equally shaped arrays).  The stacks are
    u[l] = sum_f 2*sin^2(phi_f/4) and s[l] = sum_f -2*sin(phi_f/2), so that
    g+[l] = 2*C(m, l) - 2*u[l] and g-[l] = 1j*s[l]: the '+' amplitude comes
    out as gamma+ = 1 - v without cancellation.  The sines are taken once
    per entry of ``phases``; the versine is even and the sine odd in phi,
    so only the sine stack takes the entries' signs.
    """
    u = _row_sums(table, [2 * np.sin(p / 4) ** 2 for p in phases], odd=False)
    s = _row_sums(table, [-2 * np.sin(p / 2) for p in phases], odd=True)
    return u, s


def _row_sums(table, values, odd: bool) -> list:
    """Each row's values[j] summed left to right from its first entry; an entry
    with s = -1 enters negated when ``odd``."""
    sums = []
    for row in table:
        sign, j = row[0]
        total = -values[j] if odd and sign < 0 else values[j]
        for sign, j in row[1:]:
            total = total - values[j] if odd and sign < 0 else total + values[j]
        sums.append(total)
    return sums


def _nets(row, j: int) -> int:
    """The net sign of theta_j in a table row: its entries (s, j) summed over s."""
    return sum(sign for sign, k in row if k == j)


def _contract(w: np.ndarray, stack, shape=None) -> np.ndarray:
    """sum_l w[:, l] * stack[l] over weight rows w: shape (rows, *grid).

    One BLAS product (rows x L) @ (L x points), for one point as for a grid;
    a point's column is sliced out, cheaper than a reshape on the hot path.
    A grid given as axes leaves each row on its own axes' shape; the rows are
    broadcast to the grid ``shape`` here, each filled into one (L, *shape)
    array where it enters the product, and nowhere earlier.
    """
    arr = np.array(stack) if shape is None else np.empty((len(stack), *shape))
    if shape is not None:
        for l, row in enumerate(stack):
            arr[l] = row
    out = np.dot(w, arr.reshape(len(arr), -1))
    return out[:, 0] if arr.ndim == 1 else out.reshape((len(w), *arr.shape[1:]))


def _field_table(fields: FieldVector) -> tuple[list[float], list[list[tuple[int, int]]]]:
    """The phases of all sender-bit strings and their table, row l in rank order."""
    phases: list[float] = []
    table = []
    for l in range(fields.m + 1):
        row = []
        for f in hw_bitstrings(fields.m, l):
            row.append((1, len(phases)))
            phases.append(effective_phase(fields, f))
        table.append(row)
    return phases, table


# The phase tables of the estimated phase vector theta, in the form
# :func:`_stacks` takes with phases = theta.  One sender: [[theta], [-theta]];
# two: [[theta1], [-theta2, theta2], [-theta1]].
_THETA_TABLES = {
    1: (((1, 0),), ((-1, 0),)),
    2: (((1, 0),), ((-1, 1), (1, 1)), ((-1, 0),)),
}
# Their facts, formed once: per component j, each row's count of entries reading
# theta_j and their net sign; per row, whether its sine is live (not -x + x = 0).
_VERSINE_COUNTS = {m: [[sum(k == j for _, k in row) for row in t] for j in range(m)]
                   for m, t in _THETA_TABLES.items()}
_NET_SIGNS = {m: [[_nets(row, j) for row in t] for j in range(m)] for m, t in _THETA_TABLES.items()}
_LIVE_SINE = {m: [any(_nets(row, j) for _, j in row) for row in t] for m, t in _THETA_TABLES.items()}
_HELD_POINTS = 16  # phase vectors whose columns a model keeps; scoring asks a few points back


class ThetaModel:
    """Outcome probabilities of a configuration: the one closed-form kernel.

    Each active outcome (i, sign) has probability q[i] * gamma^2 and the
    residual 'f' takes the rest.  gamma+ = 1 - v and gamma- = (w . s)/2 are
    weight-row contractions of the stacks of a phase table (:func:`_stacks`);
    the residual is assembled per weight index from the complements
    1 - gamma+^2 = v*(2 - v), which never cancel, so Fisher summands
    (dp)^2/p stay accurate where p is tiny.

    ``m`` is the true sender count whose bit strings the tables list (default
    ``config.m_est``); :func:`outcome_distribution` feeds it their phases.
    The phase-vector methods need m == m_est and read theta through a fixed
    table, so the first and second derivatives follow from the table's
    signs.  :meth:`label_rows` evaluates a grid given as its axes, each
    stack row on the axes it depends on, and :meth:`probs` stacks its rows;
    :meth:`point_probs`, :meth:`dprobs` and :meth:`derivatives` take one
    phase vector of floats.  The point path pays only for its contractions:
    table facts at import, label and residual terms here, float columns, and
    one stacks pass per phase vector, whose columns :meth:`derivatives` reuses.
    Only weight indices with a measurement switch on are modelled: a
    :class:`ProtocolConfig` has q[i] = 0 on every other index.
    """

    def __init__(self, config: ProtocolConfig, m: Optional[int] = None):
        self.config = config
        self.m_est = config.m_est
        self.m = config.m_est if m is None else m
        n = config.n
        check_senders(n, self.m)
        outcomes = config.outcomes
        # weight indices with a switch on; row r of every table is index _rows[r]
        row = {i: r for r, i in enumerate(dict.fromkeys(i for i, _ in outcomes))}
        self._rows = list(row)
        self._w = np.array([weight_row(n, self.m, i) for i in self._rows])
        # gamma- = (w . s)/2 (halving is exact); the central '-' projector of even n vanishes
        self._w_minus = self._w * np.array([[0.0 if 2 * i == n else 0.5] for i in self._rows])
        self.labels = config.labels()
        self._active = [(row[i], i, sign) for i, sign in outcomes]
        q = config.q
        self._terms = [(r, sign == PLUS, q[i]) for r, i, sign in self._active]
        self._residual_terms = [(r, q[i], config.c_plus[i], config.c_minus[i])
                                for r, i in enumerate(self._rows) if q[i]]
        self._held: dict = {}

    def _theta_table(self, theta):
        """The phase table of theta (see ``_THETA_TABLES``); needs m == m_est."""
        if len(theta) != self.m_est:
            raise ValueError(f"expected {self.m_est} theta components, got {len(theta)}")
        if self.m != self.m_est:
            raise ValueError(f"phase-vector methods need m = m_est = {self.m_est}, got m={self.m}")
        return _THETA_TABLES[self.m]

    def _assemble(self, v, gamma_m) -> list:
        """Per-label probabilities from the row amplitudes, in labels order.

        gamma+ = 1 - v[r] and gamma- = gamma_m[r] may be arrays or floats.
        The residual is assembled per weight index from stable complements.
        """
        rows = []
        for r, plus, q in self._terms:
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
        rows.append(residual)
        return rows

    def _columns(self, phases, table) -> tuple[list, list]:
        """v and gamma- at one phase table of floats (:func:`_stacks`), as float lists."""
        u, s = _stacks(phases, table)
        return _contract(self._w, u).tolist(), _contract(self._w_minus, s).tolist()

    def _theta_columns(self, theta) -> list:
        """[v, gamma-, first-order amplitudes or None] at the phase vector theta,
        kept by its bits (-0.0 is not 0.0) for the last ``_HELD_POINTS`` vectors."""
        key = struct.pack(f"{len(theta)}d", *theta)
        if key not in self._held:
            self._held[key] = [*self._columns(theta, self._theta_table(theta)), None]
            if len(self._held) > _HELD_POINTS:
                del self._held[next(iter(self._held))]
        return self._held[key]

    def probs(self, theta: Sequence) -> np.ndarray:
        """:meth:`label_rows` stacked along axis 0 (labels order), each row
        broadcast to the grid; the components may be floats or arrays."""
        rows = self.label_rows([np.asarray(t, dtype=float) for t in theta])
        return np.stack(np.broadcast_arrays(*rows))

    def point_probs(self, theta: Sequence[float]) -> list:
        """:meth:`probs` at one phase vector of floats, as a list in labels order.

        Bit for bit equal to :meth:`probs` on 0-d arrays: the same stacks,
        the same BLAS contraction and the same assembly, without the array
        set-up that dominates a single point.
        """
        return self._assemble(*self._theta_columns(theta)[:2])

    def label_rows(self, theta: Sequence[np.ndarray]) -> list:
        """Probabilities for every label over the grid the theta components
        span, in labels order.

        The components are float arrays that broadcast against each other,
        such as the axes ``np.meshgrid(..., sparse=True)`` returns; the
        stacks are formed on each axis.  On finite axes a sine row whose
        entries cancel in pairs (-x + x, the middle row of two senders) is
        exactly +0.0 and spans no axis, so gamma- is contracted on the
        theta1 axis alone.  A label row keeps the broadcast shape of the
        amplitudes it is made of.  Each grid column enters a matrix product
        with the same entries whatever the grid, and a column of a product
        keeps its bits whatever the number of columns, from two up (one
        column is a matrix-vector product, the point path's).
        """
        u, s = _stacks(theta, self._theta_table(theta))
        if all(np.isfinite(t).all() for t in theta):
            s = [total if live else 0.0 for live, total in zip(_LIVE_SINE[self.m], s)]
        gamma_m = _contract(self._w_minus, s, np.broadcast(*s).shape)
        v = _contract(self._w, u, np.broadcast(*theta).shape)
        return self._assemble(v, gamma_m)

    def labels_free_of(self, j: int) -> list[int]:
        """Indices of the measured labels whose probability does not depend on
        theta_j: the label's weight row is zero on every table row that
        reads theta_j.  A versine row reads each of its entries; a sine row
        reads only theta with a nonzero net sign, as :meth:`label_rows`
        drops the rest, so every '-' label of two senders is free of theta2."""
        reads = {PLUS: _VERSINE_COUNTS[self.m_est][j], MINUS: _NET_SIGNS[self.m_est][j]}
        weights = {PLUS: self._w.tolist(), MINUS: self._w_minus.tolist()}
        return [x for x, (r, _, sign) in enumerate(self._active)
                if not any(w for w, read in zip(weights[sign][r], reads[sign]) if read)]

    def dprobs(self, theta: Sequence[float]) -> np.ndarray:
        """Analytic derivatives dP/dtheta_j at one phase vector of floats,
        shape (labels, m_est): the first-order half of :meth:`derivatives`,
        which the estimator's scoring steps use."""
        return self.derivatives(theta)[0]

    def derivatives(self, theta: Sequence[float], second: bool = False):
        """dP/dtheta_j, shape (labels, m_est), and d2P/dtheta_i dtheta_j, shape
        (labels, m_est, m_est), or None unless ``second``, at one phase vector
        of floats, as :meth:`point_probs` takes it.

        A table entry (s, j) depends on theta_j alone: its versine adds
        sin(theta_j/2)/2 to du_j and cos(theta_j/2)/4 to d2u_jj, its sine
        -s*cos(theta_j/2) to ds_j and s*sin(theta_j/2)/2 to d2s_jj.  P = q*gam^2
        gives dP_j = 2q*gam*dgam_j and d2P_ij = 2q*(dgam_i*dgam_j + gam*d2gam_ij),
        and the residual's derivatives are minus the sum of the active ones.
        """
        v, gamma_m, dgam = held = self._theta_columns(theta)
        half_angle = np.array(theta, dtype=float) / 2
        half_sine, cosine = (np.sin(half_angle) / 2).tolist(), np.cos(half_angle).tolist()
        q = [qx for _, _, qx in self._terms]
        gam = [1.0 - v[r] if plus else gamma_m[r] for r, plus, _ in self._terms]

        def amplitudes(du, ds, nets):  # gamma+ = 1 - v moves by -dv, gamma- by its own
            dv = _contract(self._w, du).tolist()
            # no sine reads a component of net sign 0 (theta2 of two senders): its
            # gamma- contraction is of zeros, exactly +0.0, and is not made
            dgamma_m = _contract(self._w_minus, ds).tolist() if any(nets) else [0.0] * len(dv)
            return [-dv[r] if plus else dgamma_m[r] for r, plus, _ in self._terms]

        def labelled(rows):  # summed from 0 left to right: sum() compensates floats on 3.12+
            return rows + [-functools.reduce(operator.add, rows, 0)]

        facts = list(enumerate(zip(_VERSINE_COUNTS[self.m_est], _NET_SIGNS[self.m_est])))
        if dgam is None:  # the first-order amplitudes, formed once per phase vector held
            dgam = held[2] = [amplitudes([c * half_sine[j] if c else 0.0 for c in counts],
                                         [-net * cosine[j] if net else 0.0 for net in nets], nets)
                              for j, (counts, nets) in facts]
        d2gam = [amplitudes([c * cosine[j] / 4 if c else 0.0 for c in counts],
                            [net * half_sine[j] if net else 0.0 for net in nets], nets)
                 for j, (counts, nets) in facts] if second else []
        # .T puts the label axis first (d2P is symmetric in i and j) and .copy()
        # gives the C order the callers' matrix products were written for
        dp = np.array([labelled([2.0 * qx * g * dg for qx, g, dg in zip(q, gam, dgam[j])])
                       for j in range(self.m_est)]).T.copy()
        if not second:
            return dp, None
        return dp, np.array([[labelled([
            2.0 * qx * (di * dj + g * d2 if i == j else di * dj)
            for qx, g, di, dj, d2 in zip(q, gam, dgam[i], dgam[j], d2gam[j])])
            for j in range(self.m_est)] for i in range(self.m_est)]).T.copy()


def gamma(n: int, fields: FieldVector, k: int, sign: str) -> complex:
    """Transition amplitude gamma for weight index k and the given sign.

    gamma(k, sign) = sum_l C(n-m, k-l) * g[sign][l] / (2 * C(n, k)) with l
    ranging over max(0, k-(n-m)) .. min(k, m).  Evaluated through the
    kernel's stacks and weight contraction: gamma+ = 1 - v (real) and
    gamma- = 1j * (w . s)/2 (imaginary).  For even n at k = n/2 the '-'
    amplitude is identically 0.
    """
    m = fields.m
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} outside [0, floor(n/2)={n // 2}]")
    check_senders(n, m)
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if 2 * k == n and sign == MINUS:
        return 0j
    u, s = _stacks(*_field_table(fields))
    w = np.array([weight_row(n, m, k)])
    if sign == PLUS:
        return complex(1.0 - _contract(w, u)[0])
    return 1j * float(0.5 * _contract(w, s)[0])


def outcome_distribution(config: ProtocolConfig, fields: FieldVector) -> OutcomeDistribution:
    """Closed-form outcome probabilities for a true sender count m = fields.m.

    The true m may differ from config.m_est (the distribution is still well
    defined; only the estimation step assumes they agree).  The kernel is
    :class:`ThetaModel` with the weight rows of the true m, fed the phases of
    the true senders' bit strings; where m = m_est this is bit for bit
    ``ThetaModel(config).point_probs(phases_from_fields(fields))``.
    """
    model = ThetaModel(config, fields.m)
    probs = model._assemble(*model._columns(*_field_table(fields)))
    return OutcomeDistribution(probs={label: float(p) for label, p in zip(model.labels, probs)})
