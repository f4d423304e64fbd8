"""Exact per-subset outcome probabilities, and the dense state vectors.

Basis indexing: bit j-1 of the index integer is participant j's qubit
(participant 1 is the least-significant bit), matching the bit-vector
convention in :mod:`anonsense.combinatorics`.

U is diagonal, so only equal Dicke weights couple, and every amplitude the
protocol needs is (A_i + s*A_{n-i})/2 with the Dicke means of
:func:`dicke_means`, taken at a subset's own sender positions.  These means
give the anonymity sweep (:func:`dicke_sweep`), one subset's distribution
(:func:`oracle_distribution`) and its per-initial-state conditionals
(:func:`conditional_distributions`, which simulation samples), at every n and
without 2^n vectors.

The dense vectors (:func:`dicke_state`, :func:`phi_state`,
:func:`apply_sender_unitary`) are capped at a qubit count
(``ANONSENSE_ORACLE_LIMIT`` raises it); no verb builds one, and the tests hold
the Dicke means to them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .combinatorics import MINUS, PLUS, SIGNS, FieldVector
from .engine import (
    OutcomeDistribution,
    PROB_ATOL,
    ProtocolConfig,
    check_normalized,
    check_senders,
)

DEFAULT_ORACLE_LIMIT = 20


class OracleLimitError(RuntimeError):
    """Raised when a dense computation would exceed the qubit cap."""


def oracle_limit() -> int:
    """Current qubit cap for dense vectors (env ANONSENSE_ORACLE_LIMIT overrides)."""
    raw = os.environ.get("ANONSENSE_ORACLE_LIMIT")
    if raw is None:
        return DEFAULT_ORACLE_LIMIT
    limit = int(raw)
    if limit < 1:
        raise ValueError(f"ANONSENSE_ORACLE_LIMIT must be >= 1, got {limit}")
    return limit


def _check_limit(n: int):
    limit = oracle_limit()
    if n > limit:
        raise OracleLimitError(
            f"n={n} exceeds the dense-vector limit {limit} "
            f"(set ANONSENSE_ORACLE_LIMIT to raise it)"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


@dataclass(frozen=True)
class SenderAssignment:
    """Ground-truth secret: which participants host fields, and the fields.

    ``sender_positions`` are distinct 1-based participant indices; the j-th
    position carries the j-th amplitude of ``fields``.
    """

    n: int
    sender_positions: tuple[int, ...]
    fields: FieldVector

    def __post_init__(self):
        object.__setattr__(self, "sender_positions", tuple(int(p) for p in self.sender_positions))
        m = len(self.sender_positions)
        if len(set(self.sender_positions)) != m:
            raise ValueError(f"sender positions must be distinct: {self.sender_positions}")
        for p in self.sender_positions:
            if not 1 <= p <= self.n:
                raise ValueError(f"sender position {p} outside [1, {self.n}]")
        if self.fields.m != m:
            raise ValueError(f"{self.fields.m} field amplitudes for {m} sender positions")
        check_senders(self.n, m)

    @property
    def m(self) -> int:
        return len(self.sender_positions)

    def check_n(self, config: ProtocolConfig):
        """Raise ValueError unless ``config`` is for this assignment's participant count."""
        if config.n != self.n:
            raise ValueError(f"config.n={config.n} != assignment n={self.n}")


def dicke_state(n: int, k: int) -> np.ndarray:
    """Equal superposition of all n-qubit basis states of Hamming weight k."""
    _check_limit(n)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    amps = np.zeros(1 << n, dtype=np.complex128)
    weights = _hamming_weights(n)
    amps[weights == k] = 1.0 / math.sqrt(math.comb(n, k))
    return amps


def phi_state(n: int, k: int, sign: str) -> np.ndarray:
    """Normalized (|D_k> + sign |D_{n-k}>)/sqrt(2), for k <= floor(n/2).

    For n = 2k the '+' state is |D_{n/2}> itself and the '-' state does not
    exist; the latter is returned as the zero vector so that inner products
    with it vanish without special-casing callers.
    """
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} outside [0, floor(n/2)={n // 2}]")
    _check_limit(n)
    return _phi_entries(n, k, sign, _hamming_weights(n)).astype(np.complex128)


def _phi_entries(n: int, k: int, sign: str, weights: np.ndarray) -> np.ndarray:
    """The (real) entries of :func:`phi_state` at basis states of Hamming weights ``weights``.

    A Dicke entry is 1/sqrt(C(n, k)); off the centre it is scaled by the
    reciprocal of sqrt(2), which is how dividing the complex sum of the two
    Dicke vectors by sqrt(2) rounds.
    """
    amp = 1.0 / math.sqrt(math.comb(n, k))
    if 2 * k == n:
        return np.where(weights == k, amp if sign == PLUS else 0.0, 0.0)
    amp *= 1.0 / math.sqrt(2)
    upper = amp if sign == PLUS else -amp
    return np.where(weights == k, amp, np.where(weights == n - k, upper, 0.0))


def apply_sender_unitary(state: np.ndarray, assign: SenderAssignment) -> np.ndarray:
    """Apply the diagonal time-evolution phases of the sender fields.

    Basis state |x> picks up exp(-i t/2 * sum_j omega_j * (-1)^{x_{s_j}}),
    where x_{s_j} is the bit of x at sender position s_j; the sum runs over the
    senders in order, basis state by basis state.
    """
    n = assign.n
    if state.shape != (1 << n,):
        raise ValueError(f"state has {state.shape[0]} amplitudes, expected 2^{n}")
    states = np.arange(1 << n)
    acc = np.zeros(1 << n)
    for pos, w in zip(assign.sender_positions, assign.fields.omegas):
        acc = acc + w * (1.0 - 2.0 * ((states >> (pos - 1)) & 1))
    return state * np.exp(-0.5j * assign.fields.t * acc)


def _with_residual(measured: np.ndarray) -> np.ndarray:
    """Measured probabilities (rows x labels, each a sum of q * |.|^2), each
    capped at 1, and the residual 'f' as a last column.

    Each row's total adds its labels in column order, so every entry is
    the float a label-by-label loop over the row gives.
    """
    total = np.zeros(len(measured))
    for column in measured.T:
        total = total + column
    residual = 1.0 - total
    over = np.flatnonzero(residual < -PROB_ATOL)
    if over.size:
        raise ValueError(f"active probabilities exceed 1 by {-float(residual[over[0]])}")
    probs = np.concatenate([np.minimum(measured, 1.0), np.maximum(residual, 0.0)[:, None]], axis=1)
    check_normalized(probs)
    return probs


def oracle_distribution(assign: SenderAssignment, config: ProtocolConfig) -> OutcomeDistribution:
    """Outcome probabilities of one sender subset: :func:`dicke_sweep` on that
    subset alone, sum_{i'} q[i'] |<phi_{i,sign}| U |phi_{i',+}>|^2 per measured
    outcome with the residual 'f' completing the distribution.  It keeps the
    dense cap of :func:`oracle_limit`.
    """
    assign.check_n(config)
    _check_limit(config.n)
    labels, probs = dicke_sweep(config, assign.fields, [assign.sender_positions])
    return OutcomeDistribution.from_row(labels, probs[0])


def conditional_distributions(
    assign: SenderAssignment, config: ProtocolConfig
) -> dict[int, OutcomeDistribution]:
    """Outcome distribution conditioned on each initial-state index with q > 0.

    Used by round-by-round simulation, where the initial state is drawn from
    the mixture weights before each measurement.  U is diagonal, so
    <phi_{i,s}|U|phi_{i',+}> = delta_{ii'} (A_i + s*A_{n-i})/2 with the Dicke
    means of the one sender subset (:func:`dicke_means`): initial state i'
    reaches the outcomes with i = i' only, and 'f' takes the rest.
    """
    assign.check_n(config)
    outcomes, labels = config.outcomes, config.labels()
    index = np.array([i for i, _ in outcomes])
    sign = np.array([1.0 if s == PLUS else -1.0 for _, s in outcomes])
    means = dicke_means(config.n, assign.fields, [assign.sender_positions], outcomes[-1][0])
    direct, swapped = means[:, 0, index]
    probs = np.abs((direct + sign * swapped) / 2) ** 2
    initial = np.flatnonzero(config.q)  # the weights are nonnegative
    rows = _with_residual(np.where(index == initial[:, None], probs, 0.0))
    return {ip: OutcomeDistribution.from_row(labels, row) for ip, row in zip(initial.tolist(), rows)}


def dicke_sweep(
    config: ProtocolConfig, fields: FieldVector, subsets, means: np.ndarray | None = None
) -> tuple[list[str], np.ndarray]:
    """The labels and the mixture distribution of each sender subset (one row
    each), exact at any n without 2^n vectors.

    U is diagonal, so <phi_{i,s}|U|phi_{i',+}> = delta_{ii'} (A_i + s*A_{n-i})/2 with
    the direct and swapped Dicke means of :func:`dicke_means`.  Designs that sweep
    the same fields over the same subsets share one pass: ``means``, when given, is
    that pass, taken at least up to this config's largest measured index.
    """
    imax = config.outcomes[-1][0]
    if means is None:
        means = dicke_means(config.n, fields, subsets, imax)
    elif means.shape[1] != len(subsets) or means.shape[2] <= imax:
        raise ValueError(f"means of shape {means.shape} do not cover {len(subsets)} subsets "
                         f"up to index {imax}")
    direct, swapped = means[:, :, [i for i, _ in config.outcomes]]
    amplitudes = {PLUS: (direct + swapped) / 2, MINUS: (direct - swapped) / 2}
    rows = np.array([config.q[i] * np.abs(amplitudes[sign][:, col]) ** 2
                     for col, (i, sign) in enumerate(config.outcomes)]).T
    return config.labels(), _with_residual(rows)


def dicke_means(n: int, fields: FieldVector, subsets, imax: int) -> np.ndarray:
    """The direct and swapped Dicke means A_0..A_imax of each sender subset, as one
    (2, S, imax + 1) array.

    A_k = [z^k] prod_j (a_j + b_j z) / C(n, k), a_j and b_j being participant j's
    phases for bit 0 and bit 1, each subset's formed from its own positions; the
    swapped mean, A_{n-k} of the product, is A_k with a and b swapped.  A
    participant whose two phases are exactly 1 is field-free, and r of them give
    the factor (1 + z)^r, whose means are 1 for k <= r and 0 above.  The other
    participants then fold in, in position order, as participants r+1, ..., n:
    B_k <- ((j-k)*a_j*B_k + k*b_j*B_{k-1})/j, on means, so nothing under- or
    overflows.  An honest subset folds in its m senders only.  Subsets with the
    same r run as one array.
    """
    phases = _participant_phases(_sender_rows(n, fields, subsets), fields, n)
    free = (phases == 1).all(axis=0)  # n x S
    free_count = free.sum(axis=0)
    groups = []  # (subset rows, r, each folded participant's phases: n - r x 2 x rows)
    for r in np.flatnonzero(np.bincount(free_count)):  # each count that occurs, ascending
        rows = np.flatnonzero(free_count == r)
        _, folded = np.nonzero(~free[:, rows].T)  # each row's folded positions, ascending
        folded = folded.reshape(len(rows), n - r).T
        groups.append((rows, r, phases[:, folded, rows].transpose(1, 0, 2)))
    del phases, free  # the folded phases are all the recurrence reads
    k = np.arange(imax + 1)
    if len(groups) == 1:
        return _fold_means(groups[0][1], groups[0][2], n, k)
    means = np.empty((2, len(subsets), len(k)), dtype=complex)
    for rows, r, folded_phases in groups:
        means[:, rows] = _fold_means(r, folded_phases, n, k)
    return means


def _fold_means(r: int, folded_phases: np.ndarray, n: int, k: np.ndarray) -> np.ndarray:
    """The means B_k (2 x rows x k) after r field-free participants and then the
    participants of ``folded_phases`` (each a 2 x rows array of bit-0 and bit-1
    phases), folded in one recurrence step each as participants r+1, ..., n."""
    means = np.broadcast_to(k <= r, (2, folded_phases.shape[2], len(k))).astype(complex)
    stay = folded_phases[..., None]  # a participant's factor of B_k, direct and swapped
    j = np.arange(r + 1, n + 1)[:, None]
    shift = stay[:, ::-1]  # and of B_{k-1}
    for phase, weight, shift_phase, shift_weight in zip(stay, (j - k) / j, shift, k[1:] / j):
        # each factor stays a temporary: numpy multiplies a large one in place with the
        # operands swapped, and a complex product may round apart in the two orders
        nxt = means * (phase * weight)
        nxt[:, :, 1:] += means[:, :, :-1] * (shift_phase * shift_weight)
        means = nxt
    return means


def _sender_rows(n: int, fields: FieldVector, subsets) -> np.ndarray:
    """``subsets`` as S x m sender positions, each row checked as :class:`SenderAssignment`
    checks one subset; the first rejected row is built as one, to raise its own error."""
    try:
        positions = np.array(subsets, dtype=int)
        ordered = np.sort(positions, axis=1)
        bad = ~((ordered[:, 1:] > ordered[:, :-1]).all(axis=1) & (ordered[:, 0] >= 1)
                & (ordered[:, -1] <= n)) | (positions.shape[1] != fields.m)
    except (ValueError, IndexError):  # subsets of several sizes, or of none
        bad = np.ones(len(subsets), dtype=bool)
    for row in np.flatnonzero(bad):
        SenderAssignment(n, subsets[row], fields)
    check_senders(n, fields.m)
    return positions


def _participant_phases(positions: np.ndarray, fields: FieldVector, n: int) -> np.ndarray:
    """Participants 1..n's bit-0 and bit-1 phases (2 x n x S) for the subset rows
    of ``positions`` (S x m): exp(-+i*t*omega/2) at a sender, else 1."""
    phases = np.ones((2, n, len(positions)), dtype=complex)
    half = 0.5j * fields.t * np.asarray(fields.omegas)[:, None]
    phases[:, positions.T - 1, np.arange(len(positions))] = np.exp([-half, half])
    return phases


@functools.lru_cache(maxsize=1)
def _hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every index 0..2^n-1.

    Built by doubling (index 2^j + x weighs one more than x < 2^j), so no
    intermediate is wider than the int8 result.
    """
    weights = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        weights = np.concatenate([weights, weights + 1])
    weights.flags.writeable = False  # shared by every caller through the cache
    return weights
