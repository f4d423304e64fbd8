"""Dense state-vector reference for the exact probabilities of :mod:`anonsense.statevec`.

The package computes every amplitude from Dicke means; the tests hold those to
this independent computation, which sums U(x) times the real entries of the
projector and the initial state over basis states x.  It builds no 2^n vector:
each initial state keeps its own support, the basis states of Hamming weight
i' or n - i', and every other term is exactly zero.  Every dense evaluation
goes through one phase seam, :func:`_subset_phases` (U for a block of sender
subsets on a set of basis states).  It is capped as the dense vectors are
(:data:`anonsense.statevec.DENSE_LIMIT`).

It also keeps the Dicke-mean fold as it ran before it stopped at the largest
measured index (:func:`uncapped_fold_means`).
"""

from __future__ import annotations

import functools

import numpy as np

from anonsense import statevec
from anonsense.combinatorics import PLUS, FieldVector
from anonsense.engine import OutcomeDistribution, ProtocolConfig
from anonsense.statevec import SenderAssignment, _check_limit, _with_residual

_PHASE_BLOCK_ENTRIES = 1 << 15  # bound on the phases of one block of subset rows (one row at least)


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
        weights = statevec._hamming_weights(n)
        self.labels = config.labels()
        self.order = [ip for ip in range(config.kmax + 1) if config.q[ip] > 0.0]  # i' per q column
        self.q = np.array([config.q[ip] for ip in self.order])
        self.blocks = []  # (support, flat (label, i') index of each pair, pair weights) per i'
        for col, ip in enumerate(self.order):
            support = np.flatnonzero((weights == ip) | (weights == n - ip))
            on_support = weights[support]
            ket = statevec._phi_entries(n, ip, PLUS, on_support)
            pairs, pair_weights = [], []
            for row, (i, sign) in enumerate(config.outcomes):
                if i != ip:
                    continue  # phi_{i,s} lives on Hamming weights i and n - i only
                w = statevec._phi_entries(n, i, sign, on_support) * ket
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


def oracle_distribution(assign: SenderAssignment, config: ProtocolConfig) -> OutcomeDistribution:
    """The dense reference for :func:`anonsense.statevec.oracle_distribution`:
    sum_{i'} q[i'] |<phi_{i,sign}| U |phi_{i',+}>|^2 by inner products over the
    supports, with the residual 'f' completing the distribution."""
    assign.check_n(config)
    labels, probs = _DenseBasis(config).mixtures(assign.fields, np.array([assign.sender_positions]))
    return OutcomeDistribution.from_row(labels, probs[0])


def conditional_distributions(
    assign: SenderAssignment, config: ProtocolConfig
) -> dict[int, OutcomeDistribution]:
    """The dense reference for :func:`anonsense.statevec.conditional_distributions`:
    the outcome distribution of each initial-state index with q > 0."""
    assign.check_n(config)
    return _DenseBasis(config).conditionals(assign)


def uncapped_fold_means(folded_phases: np.ndarray, top: int) -> np.ndarray:
    """:func:`anonsense.statevec._fold_means` folding every mean B_0..B_c, whatever
    ``top``: B_l <- ((j-l)*a_j*B_l + l*b_j*B_{l-1})/j for j = 1..c."""
    c = len(folded_phases)
    l = np.arange(c + 1)
    means = np.zeros((2, folded_phases.shape[2], c + 1), dtype=complex)
    means[:, :, :2] = np.stack([folded_phases[0], folded_phases[0, ::-1]], axis=-1) if c else 1
    stay = folded_phases[1:, :, :, None]
    j = np.arange(2, c + 1)[:, None]
    shift = stay[:, ::-1]
    for phase, weight, shift_phase, shift_weight in zip(stay, (j - l) / j, shift, l[1:] / j):
        nxt = means * (phase * weight)
        nxt[:, :, 1:] += means[:, :, :-1] * (shift_phase * shift_weight)
        means = nxt
    return means
