"""Exact per-subset outcome probabilities, and the dense state vectors.

Basis indexing: bit j-1 of the index integer is participant j's qubit
(participant 1 is the least-significant bit), matching the bit-vector
convention in :mod:`anonsense.combinatorics`.

U is diagonal, so only equal Dicke weights couple, and every amplitude the
protocol needs is (A_i + s*A_{n-i})/2 with the Dicke means A_i of a subset's own
sender positions (:func:`dicke_means`), formed at the measured indices i only.
They give the anonymity sweep (:func:`dicke_sweep`), one subset's distribution
(:func:`oracle_distribution`) and its per-initial-state conditionals
(:func:`conditional_distributions`, which simulation samples), at every n and
without 2^n vectors.  The dense vectors (:func:`dicke_state`, :func:`phi_state`,
:func:`apply_sender_unitary`) are capped at :data:`DENSE_LIMIT` qubits; no verb
builds one, and the tests hold the Dicke means to them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import PLUS, SIGNS, FieldVector
from .engine import (
    OutcomeDistribution,
    PROB_ATOL,
    ProtocolConfig,
    check_normalized,
    check_senders,
    weight_row,
)

DENSE_LIMIT = 20  # qubits: a dense vector holds 2^n amplitudes


class OracleLimitError(RuntimeError):
    """Raised when a dense vector would exceed :data:`DENSE_LIMIT` qubits."""


def _check_limit(n: int):
    if n > DENSE_LIMIT:
        raise OracleLimitError(f"n={n} exceeds the dense-vector limit {DENSE_LIMIT}")
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
    subset alone, at every n."""
    assign.check_n(config)
    labels, probs = dicke_sweep(config, assign.fields, [assign.sender_positions])
    return OutcomeDistribution.from_row(labels, probs[0])


def conditional_distributions(
    assign: SenderAssignment, config: ProtocolConfig
) -> dict[int, OutcomeDistribution]:
    """Outcome distribution conditioned on each initial-state index i' with q > 0,
    which round-by-round simulation samples.  U is diagonal, so
    <phi_{i,s}|U|phi_{i',+}> = delta_{ii'} (A_i + s*A_{n-i})/2 (:func:`dicke_means`
    of the one sender subset): state i' reaches the outcomes with i = i' only,
    and 'f' takes the rest.
    """
    assign.check_n(config)
    index, labels = np.array([i for i, _ in config.outcomes]), config.labels()
    means = dicke_means(config.n, assign.fields, [assign.sender_positions], index)
    initial = np.flatnonzero(config.q)  # the weights are nonnegative
    rows = _with_residual(np.where(index == initial[:, None], _outcome_probs(config, means)[0], 0.0))
    return {ip: OutcomeDistribution.from_row(labels, row) for ip, row in zip(initial.tolist(), rows)}


def dicke_sweep(
    config: ProtocolConfig, fields: FieldVector, subsets, means: np.ndarray | None = None
) -> tuple[list[str], np.ndarray]:
    """The labels and each sender subset's distribution (one row each): q[i]
    |(A_i + s*A_{n-i})/2|^2 per measured outcome (i, s), with :func:`dicke_means`,
    and the residual 'f'.  Designs that sweep the same fields over the same subsets
    share one pass: ``means``, when given, is its columns at this config's outcomes.
    """
    outcomes = config.outcomes
    if means is None:
        means = dicke_means(config.n, fields, subsets, [i for i, _ in outcomes])
    elif means.shape[1:] != (len(subsets), len(outcomes)):
        raise ValueError(f"means of shape {means.shape} do not cover {len(subsets)} subsets "
                         f"at {len(outcomes)} outcomes")
    return config.labels(), _with_residual(np.array([config.q[i] for i, _ in outcomes])
                                           * _outcome_probs(config, means))


def _outcome_probs(config: ProtocolConfig, means: np.ndarray) -> np.ndarray:
    """|(A_i + s*A_{n-i})/2|^2 per subset and outcome (i, s), from ``means`` at the outcomes."""
    sign = np.array([1.0 if s == PLUS else -1.0 for _, s in config.outcomes])
    direct, swapped = means
    return np.abs((direct + sign * swapped) / 2) ** 2


def dicke_means(n: int, fields: FieldVector, subsets, indices) -> np.ndarray:
    """The direct and swapped Dicke means A_i of each of S sender subsets at the
    ``indices`` i in [0, n], in any order and with repeats: (2, S, len(indices)).
    A_i = [z^i] prod_j (a_j + b_j z) / C(n, i), a_j and b_j being participant j's
    bit-0 and bit-1 phases, from the subset's own positions; the swapped mean,
    A_{n-i} of the product, swaps a and b.  A participant whose two phases are
    exactly 1 is field-free, a factor 1 + z: each one the phase seam does not list
    (:func:`_participant_phases`), and each listed one whose phases are exactly 1.
    The c others fold in alone, in position order, into their means P_0..P_c
    (:func:`_fold_means`), and the n - c free factors spread them:
    A_i = sum_l C(c, l)*C(n-c, i-l)/C(n, i) * P_l, with the kernel's exact weights
    (:func:`~anonsense.engine.weight_row`).  A_i reads P_l for l <= i only, so the
    fold stops at the largest index.  An honest subset folds in its m senders
    only; subsets with the same c run as one array.
    """
    _, phases = _participant_phases(n, fields, subsets)
    folded = ~(phases == 1).all(axis=0)  # listed x S: the listed ones that are not field-free
    counts = folded.sum(axis=0)
    if not len(indices) or min(indices) < 0 or max(indices) > n:
        raise ValueError(f"Dicke indices {list(indices)} are not one or more in [0, {n}]")
    means = np.empty((2, len(subsets), len(indices)), dtype=complex)
    for c in np.flatnonzero(np.bincount(counts)):  # each count that occurs
        rows = np.flatnonzero(counts == c)
        _, columns = np.nonzero(folded[:, rows].T)  # each row's folded columns, in position order
        top = min(c, max(indices))
        participants = phases[:, columns.reshape(len(rows), c).T, rows].transpose(1, 0, 2)
        own = _fold_means(participants, top)
        row = {i: weight_row(n, c, i, hypergeometric=True) for i in set(indices)}
        weights = np.array([row[i] for i in indices]).T[:top + 1]  # l x columns; 0 for l > i
        # summed over l elementwise, not by BLAS, so each column's bits are its own
        means[:, rows] = sum(own[:, :, l:l + 1] * weight for l, weight in enumerate(weights))
    return means


def _fold_means(folded_phases: np.ndarray, top: int) -> np.ndarray:
    """The means B_0..B_top (2 x rows x top + 1, top <= c) of the c participants of
    ``folded_phases`` (each a 2 x rows array of bit-0 and bit-1 phases), B_l <-
    ((j-l)*a_j*B_l + l*b_j*B_{l-1})/j for j = 1..c, on means, so nothing under- or
    overflows.  B_l reads no higher mean, so each has the bits of the fold to c."""
    c = len(folded_phases)
    l = np.arange(top + 1)
    means = np.zeros((2, folded_phases.shape[2], top + 1), dtype=complex)
    # participant 1 leaves B = (a_1, b_1, 0, ...) exactly
    means[:, :, :2] = (np.stack([folded_phases[0], folded_phases[0, ::-1]], axis=-1)[:, :, :top + 1]
                       if c else 1)
    stay = folded_phases[1:, :, :, None]  # a participant's factor of B_l, direct and swapped
    j = np.arange(2, c + 1)[:, None]
    shift = stay[:, ::-1]  # and of B_{l-1}
    for phase, weight, shift_phase, shift_weight in zip(stay, (j - l) / j, shift, l[1:] / j):
        # each factor stays a temporary: numpy multiplies a large one in place with the
        # operands swapped, and a complex product may round apart in the two orders
        nxt = means * (phase * weight)
        nxt[:, :, 1:] += means[:, :, :-1] * (shift_phase * shift_weight)
        means = nxt
    return means


def _participant_phases(n: int, fields: FieldVector, subsets) -> tuple[np.ndarray, np.ndarray]:
    """The phase seam: the participants each of the S rows of ``subsets`` lists, in
    ascending position order (S x m), and their bit-0 and bit-1 phases
    exp(-+i*t*omega/2) (2 x m x S).  Every participant a row does not list has
    phases exactly 1.  Each row is checked as :class:`SenderAssignment` checks one
    subset; the first rejected row is built as one, to raise its own error."""
    try:
        positions = np.array(subsets, dtype=int)
        order = positions.argsort(axis=1)
        listed = positions[np.arange(len(positions))[:, None], order]
        bad = ~((listed[:, 1:] > listed[:, :-1]).all(axis=1) & (listed[:, 0] >= 1)
                & (listed[:, -1] <= n)) | (positions.shape[1] != fields.m)
    except (ValueError, IndexError):  # subsets of several sizes, or of none
        if not len(subsets):
            raise ValueError("no sender subsets") from None
        bad = np.ones(len(subsets), dtype=bool)
    for row in np.flatnonzero(bad):
        SenderAssignment(n, subsets[row], fields)
    check_senders(n, fields.m)
    half = 0.5j * fields.t * np.asarray(fields.omegas)  # one exp per field, gathered by each row
    return listed, np.exp([-half, half])[:, order.T]


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
