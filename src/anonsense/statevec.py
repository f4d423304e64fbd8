"""Brute-force dense state-vector path: the ground truth for small n.

States are dense complex vectors over the n-qubit computational basis.
Basis indexing: bit j-1 of the index integer is participant j's qubit
(participant 1 is the least-significant bit), matching the bit-vector
convention in :mod:`anonsense.combinatorics`.

This path exists purely for verification; its dense vectors are capped at
a qubit count (``ANONSENSE_ORACLE_LIMIT`` raises it), and :func:`dicke_sweep`
gives the same per-subset distributions at any n without them.

Every dense evaluation goes through one phase seam, :func:`_subset_phases`
(U for a block of sender subsets on a set of basis states).  The oracle
contracts it over the initial states' support only, one block of subsets at
a time; the full 2^n vectors are built once per configuration.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .combinatorics import MINUS, PLUS, SIGNS, FieldVector
from .engine import OutcomeDistribution, PROB_ATOL, ProtocolConfig, check_senders

DEFAULT_ORACLE_LIMIT = 20
_PHASE_BLOCK_ENTRIES = 1 << 15  # bound on the phases of one block of sender subsets


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
    if 2 * k == n:
        if sign == MINUS:
            _check_limit(n)
            return np.zeros(1 << n, dtype=np.complex128)
        return dicke_state(n, k)
    s = 1.0 if sign == PLUS else -1.0
    return (dicke_state(n, k) + s * dicke_state(n, n - k)) / math.sqrt(2)


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
    combos = np.arange(1 << fields.m)
    acc = np.zeros(1 << fields.m)
    for j, w in enumerate(fields.omegas):
        bit = (combos >> j) & 1
        acc = acc + w * (1.0 - 2.0 * bit)
    table = np.exp(-0.5j * fields.t * acc)
    code = np.zeros((len(positions), len(states)), dtype=states.dtype)
    for j in range(positions.shape[1]):
        code |= ((states >> (positions[:, j, None] - 1)) & 1) << j
    return table[code]


def _phase_blocks(fields: FieldVector, positions: np.ndarray, states: np.ndarray):
    """:func:`_subset_phases` for consecutive blocks of subset rows, in order.

    A block holds at most :data:`_PHASE_BLOCK_ENTRIES` phases, or one row
    when a row alone is larger, so the memory held does not grow with the
    number of subsets.
    """
    rows = max(1, _PHASE_BLOCK_ENTRIES // len(states))
    for lo in range(0, len(positions), rows):
        yield _subset_phases(fields, positions[lo:lo + rows], states)


class _DenseBasis:
    """A config's dense vectors, contracted once and reused for any sender subset.

    U is diagonal, so <phi_{i,s}|U|phi_{i',+}> = sum_x U(x) w(x), with the
    weights w(x) = conj(phi_{i,s}(x)) phi_{i',+}(x) formed once per (label,
    i') pair.  They are kept only on the support of the initial states with
    q[i'] > 0, and only for the pairs whose states overlap, since every other
    term is exactly zero.  Only U depends on the sender positions; each
    subset's phases come from its own positions, basis state by basis state,
    through :func:`_subset_phases`.
    """

    def __init__(self, config: ProtocolConfig):
        n = config.n
        _check_limit(n)
        initial = {
            ip: phi_state(n, ip, PLUS) for ip in range(config.kmax + 1) if config.q[ip] > 0.0
        }
        self.labels = config.labels()[:-1]  # the measured ones; _with_residual adds 'f'
        self.order = list(initial)  # the initial-state index i' of each q column
        self.q = np.array([config.q[ip] for ip in self.order])
        self.support = np.flatnonzero(np.logical_or.reduce([ket != 0 for ket in initial.values()]))
        kets = [ket[self.support] for ket in initial.values()]
        bras = [phi_state(n, i, sign)[self.support].conj() for i, sign in config.outcomes]
        pairs, weights = [], []  # flat (label, i') index of each overlapping pair
        for k, (bra, ket) in enumerate(itertools.product(bras, kets)):
            w = bra * ket
            if w.any():
                pairs.append(k)
                weights.append(w)
        self.pairs = np.array(pairs, dtype=int)
        self.weights = np.array(weights).reshape(len(pairs), len(self.support))

    def amplitudes(self, fields: FieldVector, positions: np.ndarray) -> np.ndarray:
        """<phi_{i,s}|U|phi_{i',+}> for each subset row of ``positions`` (S x m), label and i'.

        The result is S x labels x initial states.  Each amplitude is a
        pairwise sum over the support of one subset's terms, so a subset's
        amplitudes are the same bits whichever block it is evaluated in.
        """
        out = np.zeros((len(positions), len(self.labels) * len(self.order)), dtype=complex)
        lo = 0
        for phases in _phase_blocks(fields, positions, self.support):
            for pair, w in zip(self.pairs, self.weights):
                out[lo:lo + len(phases), pair] = (phases * w).sum(axis=-1)
            lo += len(phases)
        return out.reshape(len(positions), len(self.labels), len(self.order))

    def mixtures(self, fields: FieldVector, positions: np.ndarray) -> list[OutcomeDistribution]:
        """sum_{i'} q[i'] |<phi_{i,sign}| U |phi_{i',+}>|^2 per outcome, for each subset row."""
        probs = (np.abs(self.amplitudes(fields, positions)) ** 2 * self.q).sum(axis=-1)
        return [_with_residual(zip(self.labels, row)) for row in probs.tolist()]

    def conditionals(self, assign: SenderAssignment) -> dict[int, OutcomeDistribution]:
        """|<phi_{i,sign}| U |phi_{i',+}>|^2 per outcome, for each initial state i'."""
        amps = self.amplitudes(assign.fields, np.array([assign.sender_positions]))[0]
        return {
            ip: _with_residual(zip(self.labels, column))
            for ip, column in zip(self.order, (np.abs(amps) ** 2).T.tolist())
        }


def _with_residual(measured) -> OutcomeDistribution:
    """Measured (label, p) pairs, each a sum of q * |.|^2, and the residual 'f'."""
    probs: dict[str, float] = {}
    total = 0.0
    for label, p in measured:
        probs[label] = min(p, 1.0)
        total += p
    residual = 1.0 - total
    if residual < -PROB_ATOL:
        raise ValueError(f"active probabilities exceed 1 by {-residual}")
    probs["f"] = max(residual, 0.0)
    return OutcomeDistribution(probs=probs)


def oracle_distribution(assign: SenderAssignment, config: ProtocolConfig) -> OutcomeDistribution:
    """Outcome probabilities by direct inner products on dense vectors.

    Independent of the closed-form engine: probabilities are computed as
    sum_{i'} q[i'] |<phi_{i,sign}| U |phi_{i',+}>|^2 over the full mixture,
    with the residual 'f' completing the distribution.
    """
    assign.check_n(config)
    return _DenseBasis(config).mixtures(assign.fields, np.array([assign.sender_positions]))[0]


def conditional_distributions(
    assign: SenderAssignment, config: ProtocolConfig
) -> dict[int, OutcomeDistribution]:
    """Outcome distribution conditioned on each initial-state index with q > 0.

    Used by round-by-round simulation, where the initial state is drawn from
    the mixture weights before each measurement.
    """
    assign.check_n(config)
    return _DenseBasis(config).conditionals(assign)


def dicke_sweep(config: ProtocolConfig, fields: FieldVector, subsets) -> list[OutcomeDistribution]:
    """The mixture distribution of each sender subset, exact at any n without 2^n vectors.

    U is diagonal, so <phi_{i,s}|U|phi_{i',+}> = delta_{ii'} (A_i + s*A_{n-i})/2 with
    A_k = [z^k] prod_j (a_j + b_j z) / C(n, k), a_j and b_j being participant j's
    phases for bit 0 and bit 1; A_{n-k} is A_k with a and b swapped.  Both products
    are carried as means, B_k <- ((j-k)*a_j*B_k + k*b_j*B_{k-1})/j, so nothing under-
    or overflows, truncated at the largest measured index and vectorised over subsets.
    """
    positions = np.array([SenderAssignment(config.n, s, fields).sender_positions for s in subsets])
    outcomes = config.outcomes
    k = np.arange(outcomes[-1][0] + 1)
    means = np.broadcast_to(k == 0, (2, len(subsets), len(k))).astype(complex)  # direct, swapped
    for j in range(1, config.n + 1):
        a, b = _participant_phases(positions, fields, j)
        nxt = means * (np.stack([a, b])[:, :, None] * ((j - k) / j))
        nxt[:, :, 1:] += means[:, :, :-1] * (np.stack([b, a])[:, :, None] * (k[1:] / j))
        means = nxt
    direct, swapped = means
    amplitudes = {PLUS: (direct + swapped) / 2, MINUS: (direct - swapped) / 2}
    rows = np.array([config.q[i] * np.abs(amplitudes[sign][:, i]) ** 2 for i, sign in outcomes]).T
    labels = config.labels()[:-1]
    return [_with_residual(zip(labels, row)) for row in rows.tolist()]


def _participant_phases(positions: np.ndarray, fields: FieldVector, j: int):
    """Participant j's bit-0 and bit-1 phases per subset: exp(-+i*t*omega/2) at a sender, else 1."""
    half = ((positions == j) * (0.5j * fields.t * np.asarray(fields.omegas))).sum(axis=1)
    return np.exp(-half), np.exp(half)


@functools.lru_cache(maxsize=1)
def _hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every index 0..2^n-1."""
    idx = np.arange(1 << n, dtype=np.uint32)
    weights = np.zeros(1 << n, dtype=np.int8)
    for j in range(n):
        weights += ((idx >> j) & 1).astype(np.int8)
    weights.flags.writeable = False  # shared by every caller through the cache
    return weights
