"""Dense state-vector reference for the exact probabilities of :mod:`anonsense.statevec`.

The package computes every amplitude from Dicke means; the tests hold those to
this independent computation, which sums U(x) times the real entries of the
projector and the initial state over basis states x.  It builds no 2^n vector:
each initial state keeps its own support, the basis states of Hamming weight
i' or n - i', and every other term is exactly zero.  Every dense evaluation
goes through one phase seam, :func:`_subset_phases` (U for a block of sender
subsets on a set of basis states).  It is capped as the dense vectors are
(:data:`anonsense.statevec.DENSE_LIMIT`).

It also keeps the Dicke-mean fold as it ran before the swapped means were read
as the direct ones reversed, two products folded apart
(:func:`two_product_fold_means`), the two-sender MLE grid start
formed on the whole grid at once (:func:`full_grid_start`), the two-sender
likelihood's global maximum found without a grid or a closed-form start
(:func:`global_max_log_likelihood`), and the small algebra of the estimator
and the Fisher matrix as numpy.linalg (LAPACK) formed it: the damped step
solve, the eigenpair, the inverse and the rank test (:func:`linalg_step`,
:func:`linalg_eigen`, :func:`linalg_inverse`, :func:`linalg_rank_at_most_one`).

Last, it holds two sums the package forms only inside a larger one: the
total-variation distance of one pair of distributions (:func:`tv_distance`;
the package takes the largest over all pairs of sweep rows at once), and one
weight's string sum h_l (:func:`h_coefficient`; the package sums every weight
in :func:`anonsense.combinatorics.g_coefficients`).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from numpy.polynomial import polynomial as poly

from anonsense import estimation, statevec
from anonsense.combinatorics import PLUS, FieldVector, string_phases
from anonsense.engine import OutcomeDistribution, ProtocolConfig
from anonsense.fisher import RANK_RTOL
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


def two_product_fold_means(folded_phases: np.ndarray) -> np.ndarray:
    """The fold of :func:`anonsense.statevec._fold_means` run twice, on the direct
    product prod_j (a_j + b_j z) and on the swapped one prod_j (b_j + a_j z), in
    its operand order: the means B_0..B_c of each (2 x rows x c + 1), B_l <-
    ((j-l)*a_j*B_l + l*b_j*B_{l-1})/j for j = 1..c."""
    c = len(folded_phases)
    l = np.arange(c + 1)
    means = np.zeros((2, folded_phases.shape[2], c + 1), dtype=complex)
    means[:, :, :2] = np.stack([folded_phases[0], folded_phases[0, ::-1]], axis=-1)
    stay = folded_phases[1:, :, :, None]  # a participant's factor of B_l, direct and swapped
    j = np.arange(2, c + 1)[:, None]
    shift = stay[:, ::-1]  # and of B_{l-1}
    for phase, weight, shift_phase, shift_weight in zip(stay, (j - l) / j, shift, l[1:] / j):
        keep, carry = phase * weight, shift_phase * shift_weight
        nxt = keep * means
        nxt[:, :, 1:] += carry * means[:, :, :-1]
        means = nxt
    return means


def full_grid_start(model, observed, axis):
    """The grid start of :func:`anonsense.estimation.mle_estimate` for two
    senders from the log-likelihood at all 181^2 grid points at once: the
    row-major argmax, and a flag per axis along which the finite values (-inf
    cells taking the smallest of them) spread less than 1e-9.  Takes and
    returns what ``estimation._grid_start`` does, and raises where no value
    is finite."""
    ll = estimation._grid_log_likelihood(model, observed,
                                         np.meshgrid(axis, axis, indexing="ij", sparse=True))
    finite = np.isfinite(ll)
    if not finite.any():
        raise ValueError("likelihood is -inf over the whole domain; counts are "
                         "inconsistent with the configuration")
    theta = [axis[i] for i in np.unravel_index(int(np.argmax(ll)), ll.shape)]
    spread = ll if finite.all() else np.where(finite, ll, np.min(ll[finite]))
    return theta, [f"flat likelihood along theta_{j + 1}" for j in range(2)
                   if np.ptp(spread, axis=j).max() < 1e-9]


def global_max_log_likelihood(counts: dict, config: ProtocolConfig, points: int = 65):
    """The maximum of the two-sender log-likelihood over [0, pi]^2, and a phase
    vector that reaches it, found without the estimator's grid or refinement.

    At a fixed theta1 every probability is a polynomial in y2 = cos(theta2/2),
    which runs over [0, 1]: with the binomial weights
    w_l = C(n-2, i-l)/C(n, i), a measured amplitude is
    gamma+ = (w0 + w2)*cos(theta1/2) + 2*w1*y2 or gamma- = (w2 - w0)*sin(theta1/2),
    its probability q_i*gamma^2, and the residual 'f' is 1 minus their sum.
    The profile over y2 is stationary where sum_x c_x P_x'/P_x = 0, at the
    real roots of sum_x c_x P_x' prod_{y != x} P_y, of degree at most 2L - 1
    for the L observed labels that move with y2 (a measured label's P'/P
    enters as 2*gamma'/gamma, which keeps the degree lower).  The profile
    is the largest log-likelihood at those roots in [0, 1] and at the ends.
    Over theta1 it is scanned at ``points`` values, and each local maximum of
    the scan is refined by golden-section search to 1e-8.
    """
    n = config.n
    labels = config.labels()
    tallies = np.array([counts.get(label, 0) for label in labels], dtype=float)
    weights = {i: [math.comb(n - 2, i - l) / math.comb(n, i) if 0 <= i - l <= n - 2 else 0.0
                   for l in range(3)] for i, _ in config.outcomes}

    def profile(theta1):
        y1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
        amplitudes = [np.array([(w[0] + w[2]) * y1, 2 * w[1]]) if sign == PLUS
                      else np.array([(w[2] - w[0]) * s1, 0.0])
                      for (i, sign), w in ((out, weights[out[0]]) for out in config.outcomes)]
        probs = [config.q[i] * poly.polymul(g, g) for (i, _), g in zip(config.outcomes, amplitudes)]
        probs.append(poly.polysub([1.0], functools.reduce(poly.polyadd, probs)))
        # P'/P of each observed label that moves with y2, as (numerator, denominator)
        moving = [(c * 2 * g[1:], g) for c, g in zip(tallies, amplitudes) if c and g[1]]
        if tallies[-1] and np.any(probs[-1][1:]):
            moving.append((tallies[-1] * poly.polyder(probs[-1]), probs[-1]))
        stationary = np.zeros(1)
        for k, (num, _) in enumerate(moving):
            term = functools.reduce(poly.polymul, [den for j, (_, den) in enumerate(moving) if j != k], num)
            stationary = poly.polyadd(stationary, term)
        roots = np.roots(np.trim_zeros(stationary, "b")[::-1]).real if stationary.any() else []
        y2 = np.array([0.0, 1.0, *[r for r in roots if 0.0 < r < 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = sum(c * np.log(np.maximum(poly.polyval(y2, p), 0.0))
                     for c, p in zip(tallies, probs) if c)
        best = int(np.argmax(ll))
        return float(ll[best]), float(y2[best])

    def refined(lo, hi):  # golden-section search for the profile's maximum on [lo, hi]
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        fa, fb = profile(a)[0], profile(b)[0]
        while hi - lo > 1e-8:
            if fa >= fb:
                hi, b, fb = b, a, fa
                a = hi - ratio * (hi - lo)
                fa = profile(a)[0]
            else:
                lo, a, fa = a, b, fb
                b = lo + ratio * (hi - lo)
                fb = profile(b)[0]
        return max((profile(t), t) for t in (lo, a, b, hi))

    axis = np.linspace(0.0, math.pi, points)
    scan = [profile(t)[0] for t in axis]
    peaks = [k for k in range(points) if scan[k] >= max(scan[max(k - 1, 0):k + 2])]
    (ll, y2), theta1 = max(refined(axis[max(k - 1, 0)], axis[min(k + 1, points - 1)]) for k in peaks)
    return ll, (theta1, 2.0 * math.acos(y2))


def linalg_step(block, score, lam: float) -> np.ndarray:
    """The damped scoring step d of (block + lam*diag(block)) d = score, by
    numpy.linalg.solve (LAPACK's LU with partial pivoting)."""
    block = np.array(block, dtype=float)
    return np.linalg.solve(block + np.diag(lam * block.diagonal()), np.array(score, dtype=float))


def linalg_eigen(M) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues of the symmetric ``M`` and the eigenvector of
    the smallest, by numpy.linalg.eigh."""
    values, vectors = np.linalg.eigh(np.array(M, dtype=float))
    return values, vectors[:, 0]


def linalg_inverse(M) -> np.ndarray:
    return np.linalg.inv(np.array(M, dtype=float))


def linalg_rank_at_most_one(M) -> bool:
    """numpy.linalg.matrix_rank (singular values by SVD) at the Fisher
    matrix's tolerance, RANK_RTOL times the largest entry, is at most 1."""
    M = np.array(M, dtype=float)
    return int(np.linalg.matrix_rank(M, tol=RANK_RTOL * np.abs(M).max())) <= 1


def tv_distance(one: OutcomeDistribution, other: OutcomeDistribution) -> float:
    """Total-variation distance of two distributions, label by label; their
    label sets must agree."""
    if set(one.probs) != set(other.probs):
        raise ValueError("label sets differ")
    return 0.5 * sum(abs(one.probs[k] - other.probs[k]) for k in one.probs)


def h_coefficient(fields: FieldVector, l: int) -> complex:
    """Sum of exp(-i*theta/2) over the phases of all weight-l strings, 0 <= l <= m."""
    if not 0 <= l <= fields.m:
        raise ValueError(f"weight l={l} outside [0, {fields.m}]")
    return sum(cmath.exp(-0.5j * p) for p in string_phases(fields)[l])
