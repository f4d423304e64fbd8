"""Brute-force dense state-vector path: the ground truth for small n.

States are dense complex vectors over the n-qubit computational basis.
Basis indexing: bit j-1 of the index integer is participant j's qubit
(participant 1 is the least-significant bit), matching the bit-vector
convention in :mod:`anonsense.combinatorics`.

The dense vectors are capped at a qubit count (``ANONSENSE_ORACLE_LIMIT``
raises it).  They serve the oracle path of round-by-round simulation and
:func:`oracle_distribution`, and the tests hold the anonymity sweep to them;
that sweep, :func:`dicke_sweep`, runs at every n on Dicke-state means.

Every dense evaluation goes through one phase seam, :func:`_subset_phases`
(U for a block of sender subsets on a set of basis states).  The oracle
contracts it over each initial state's own support (the basis states of
Hamming weight i' or n - i'), one block of subsets at a time, and evaluates
its vectors there only: it builds no 2^n vector.
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
_PHASE_BLOCK_ENTRIES = 1 << 15  # bound on the phases of one block of subset rows (one row at least)


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
    where x_{s_j} is the bit of x at sender position s_j.
    """
    n = assign.n
    if state.shape != (1 << n,):
        raise ValueError(f"state has {state.shape[0]} amplitudes, expected 2^{n}")
    return state * _sender_phases(assign)


def _sender_phases(assign: SenderAssignment) -> np.ndarray:
    """The diagonal of U: one phase per basis state, in basis order."""
    positions = np.array([assign.sender_positions])
    return _subset_phases(assign.fields, positions, np.arange(1 << assign.n))[0]


def _subset_phases(fields: FieldVector, positions: np.ndarray, states: np.ndarray) -> np.ndarray:
    """U(x) for each subset row of ``positions`` (S x m) and each basis state x in ``states``.

    The phase depends only on the m sender bits, so it is evaluated once per
    sign combination (bit j of the combination code is the bit at the row's
    j-th sender position) and gathered by each state's code.  The sum over
    senders runs in the same order as the per-state formula, so every phase
    is bitwise equal to it.
    """
    code = np.zeros((len(positions), len(states)), dtype=states.dtype)
    for j in range(positions.shape[1]):
        code |= ((states >> (positions[:, j, None] - 1)) & 1) << j
    return _phase_table(fields)[code]


@functools.lru_cache(maxsize=8)
def _phase_table(fields: FieldVector) -> np.ndarray:
    """U for each of the 2^m sign combinations of :func:`_subset_phases`, built
    once per field vector for all the blocks and supports of a sweep."""
    combos = np.arange(1 << fields.m)
    acc = np.zeros(1 << fields.m)
    for j, w in enumerate(fields.omegas):
        bit = (combos >> j) & 1
        acc = acc + w * (1.0 - 2.0 * bit)
    table = np.exp(-0.5j * fields.t * acc)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


class _DenseBasis:
    """A config's initial states, each on its own support, contracted once and
    reused for any sender subset.

    U is diagonal, so <phi_{i,s}|U|phi_{i',+}> = sum_x U(x) w(x), with the
    real weights w(x) = phi_{i,s}(x) phi_{i',+}(x) formed once per (label,
    i') pair.  Each initial state with q[i'] > 0 keeps its own support, the
    basis states of Hamming weight i' or n - i', and its ket and the
    projectors that overlap it (those with i = i', but the null central '-')
    are evaluated there only: every other term is exactly zero, and no 2^n
    vector is built.  Only U depends on the sender positions; each subset's
    phases come from its own positions, basis state by basis state, through
    :func:`_subset_phases`.
    """

    def __init__(self, config: ProtocolConfig):
        n = config.n
        _check_limit(n)
        weights = _hamming_weights(n)
        self.labels = config.labels()
        self.order = [ip for ip in range(config.kmax + 1) if config.q[ip] > 0.0]  # i' per q column
        self.q = np.array([config.q[ip] for ip in self.order])
        self.blocks = []  # (support, flat (label, i') index of each pair, pair weights) per i'
        for col, ip in enumerate(self.order):
            support = np.flatnonzero((weights == ip) | (weights == n - ip))
            on_support = weights[support]
            ket = _phi_entries(n, ip, PLUS, on_support)
            pairs, pair_weights = [], []
            for row, (i, sign) in enumerate(config.outcomes):
                if i != ip:
                    continue  # phi_{i,s} lives on Hamming weights i and n - i only
                w = _phi_entries(n, i, sign, on_support) * ket
                if w.any():
                    pairs.append(row * len(self.order) + col)
                    pair_weights.append(w)
            if pairs:  # a support no measured projector overlaps has only zero amplitudes
                self.blocks.append((support, pairs, pair_weights))

    def amplitudes(self, fields: FieldVector, positions: np.ndarray) -> np.ndarray:
        """<phi_{i,s}|U|phi_{i',+}> for each subset row of ``positions`` (S x m), label and i'.

        The result is S x measured labels x initial states.  Each amplitude
        is a pairwise sum of one subset's terms over its initial state's
        support, so a subset's amplitudes are the same bits whichever block it
        is evaluated in.
        """
        shape = (len(positions), len(self.labels) - 1, len(self.order))  # 'f' has no projector
        out = np.zeros((shape[0], shape[1] * shape[2]), dtype=complex)
        for support, pairs, pair_weights in self.blocks:
            step = max(1, _PHASE_BLOCK_ENTRIES // len(support))  # subset rows per block
            for lo in range(0, len(positions), step):
                phases = _subset_phases(fields, positions[lo:lo + step], support)
                for pair, w in zip(pairs[:-1], pair_weights[:-1]):
                    out[lo:lo + step, pair] = (phases * w).sum(axis=-1)
                phases *= pair_weights[-1]  # the last pair takes the block in place
                out[lo:lo + step, pairs[-1]] = phases.sum(axis=-1)
        return out.reshape(shape)

    def mixtures(self, fields: FieldVector, positions: np.ndarray) -> tuple[list[str], np.ndarray]:
        """The labels, and sum_{i'} q[i'] |<phi_{i,sign}| U |phi_{i',+}>|^2 per
        measured outcome with the residual 'f' last, one row per subset row."""
        probs = (np.abs(self.amplitudes(fields, positions)) ** 2 * self.q).sum(axis=-1)
        return self.labels, _with_residual(probs)

    def conditionals(self, assign: SenderAssignment) -> dict[int, OutcomeDistribution]:
        """|<phi_{i,sign}| U |phi_{i',+}>|^2 per outcome, for each initial state i'."""
        amps = self.amplitudes(assign.fields, np.array([assign.sender_positions]))[0]
        rows = _with_residual((np.abs(amps) ** 2).T)
        return {ip: OutcomeDistribution.from_row(self.labels, row)
                for ip, row in zip(self.order, rows)}


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
    """Outcome probabilities by direct inner products on dense vectors.

    Independent of the closed-form engine: probabilities are computed as
    sum_{i'} q[i'] |<phi_{i,sign}| U |phi_{i',+}>|^2 over the full mixture,
    with the residual 'f' completing the distribution.
    """
    assign.check_n(config)
    labels, probs = _DenseBasis(config).mixtures(assign.fields, np.array([assign.sender_positions]))
    return OutcomeDistribution.from_row(labels, probs[0])


def conditional_distributions(
    assign: SenderAssignment, config: ProtocolConfig
) -> dict[int, OutcomeDistribution]:
    """Outcome distribution conditioned on each initial-state index with q > 0.

    Used by round-by-round simulation, where the initial state is drawn from
    the mixture weights before each measurement.
    """
    assign.check_n(config)
    return _DenseBasis(config).conditionals(assign)


def dicke_sweep(
    config: ProtocolConfig, fields: FieldVector, subsets
) -> tuple[list[str], np.ndarray]:
    """The labels and the mixture distribution of each sender subset (one row
    each, as :meth:`_DenseBasis.mixtures` gives them), exact at any n without
    2^n vectors.

    U is diagonal, so <phi_{i,s}|U|phi_{i',+}> = delta_{ii'} (A_i + s*A_{n-i})/2 with
    A_k = [z^k] prod_j (a_j + b_j z) / C(n, k), a_j and b_j being participant j's
    phases for bit 0 and bit 1; A_{n-k} is A_k with a and b swapped.  Both products
    are carried as means, B_k <- ((j-k)*a_j*B_k + k*b_j*B_{k-1})/j, so nothing under-
    or overflows, truncated at the largest measured index i_max.  The direct and
    swapped means of all S subsets are one (2, S, i_max + 1) array, and every
    participant's phases are formed at once, each subset's from its own positions.
    """
    n, outcomes = config.n, config.outcomes
    a, b = _participant_phases(_sender_rows(n, fields, subsets), fields, n)
    k, j = np.arange(outcomes[-1][0] + 1), np.arange(1, n + 1)[:, None]
    stay = np.stack([a, b], axis=1)[..., None]  # participant j's factor of B_k, direct and swapped
    shift = stay[:, ::-1]  # and of B_{k-1}
    means = np.broadcast_to(k == 0, (2, len(subsets), len(k))).astype(complex)
    for phase, weight, shift_phase, shift_weight in zip(stay, (j - k) / j, shift, k[1:] / j):
        # each factor stays a temporary: numpy multiplies a large one in place with the
        # operands swapped, and a complex product may round apart in the two orders
        nxt = means * (phase * weight)
        nxt[:, :, 1:] += means[:, :, :-1] * (shift_phase * shift_weight)
        means = nxt
    direct, swapped = means
    amplitudes = {PLUS: (direct + swapped) / 2, MINUS: (direct - swapped) / 2}
    rows = np.array([config.q[i] * np.abs(amplitudes[sign][:, i]) ** 2 for i, sign in outcomes]).T
    return config.labels(), _with_residual(rows)


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
