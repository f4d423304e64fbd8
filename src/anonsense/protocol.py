"""End-to-end protocol simulation and the anonymity (tracelessness) harness.

The roles are in-process: a distributer prepares the mixed initial state, the
participants' qubits accumulate field phases, and a measurer collects outcome
counts, estimates the phases, and broadcasts the result.  A transcript holds
everything any of them (and hence an eavesdropper) ever learns; by
construction it has no field that could store sender positions.

The verifier checks the anonymity claim exhaustively: it enumerates every
sender subset, computes each outcome distribution from that subset's own
positions, and reports the largest pairwise total-variation distance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import FieldVector
from .engine import (
    OutcomeDistribution,
    ProtocolConfig,
    check_normalized,
    check_senders,
    outcome_distribution,
)
from .estimation import EstimateReport, OutcomeCounts, mle_estimate
from .sampling import draw_counts, philox
from .statevec import (
    SenderAssignment,
    _check_limit,
    _participant_phases,
    conditional_distributions,
    dicke_sweep,
    oracle_limit,
)

EXACT_TV_TOL = 1e-10
CONTROL_TV_TOL = 0.01  # the leaky control must exceed this distance
_TV_BLOCK_ENTRIES = 1 << 20  # bound on the pairwise-distance block held at once


@dataclass(frozen=True)
class Transcript:
    """Every piece of classical information the protocol produces.

    Deliberately cannot reference sender positions: the type has no field for
    them, so anything serialized from it is position-blind by construction.
    """

    config: ProtocolConfig
    rounds: int
    counts: dict[str, int]
    broadcast: EstimateReport
    seed: int


@dataclass(frozen=True)
class TracelessnessReport:
    """Outcome of comparing outcome distributions across sender subsets.

    ``probs`` holds one row per subset, in :func:`sender_subsets` order, and
    one column per label; a subset's :class:`OutcomeDistribution` is built
    only when it is read.  Neither is serialized.
    """

    n: int
    m: int
    fields: FieldVector
    mode: str
    n_subsets: int
    max_tv_distance: float
    tolerance: float
    verdict: bool
    labels: list[str] = field(compare=False, repr=False)
    probs: np.ndarray = field(compare=False, repr=False)

    def distribution(self, k: int) -> OutcomeDistribution:
        """The distribution of the k-th subset of :func:`sender_subsets`."""
        return OutcomeDistribution.from_row(self.labels, self.probs[k])

    @functools.cached_property
    def distributions(self) -> list[OutcomeDistribution]:
        """Every subset's distribution, in :func:`sender_subsets` order."""
        return [self.distribution(k) for k in range(self.n_subsets)]


def run_protocol(
    assign: SenderAssignment,
    config: ProtocolConfig,
    rounds: int,
    seed: int,
) -> Transcript:
    """Simulate one full protocol run and return the transcript.

    Within the dense-vector limit (n <= :func:`oracle_limit`) the run samples
    the initial-state index per round from the mixture weights and then the
    outcome from that state's dense-vector distribution; above it, it samples
    directly from the closed-form mixture distribution.  Both paths have
    identical statistics and are reproducible from the seed.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    assign.check_n(config)
    rng = philox(seed)
    if config.n <= oracle_limit():
        conditionals = conditional_distributions(assign, config)
        weights = [config.q[i] for i in sorted(conditionals)]
        per_state = rng.multinomial(rounds, np.array(weights) / sum(weights))
        counts: dict[str, int] = {}
        for idx, i in enumerate(sorted(conditionals)):
            drawn = draw_counts(conditionals[i], int(per_state[idx]), rng)
            for label, c in drawn.items():
                counts[label] = counts.get(label, 0) + c
    else:
        dist = outcome_distribution(config, assign.fields)
        counts = draw_counts(dist, rounds, rng)
    broadcast = mle_estimate(OutcomeCounts(counts), config)
    return Transcript(config=config, rounds=rounds, counts=counts, broadcast=broadcast, seed=seed)


def eavesdropper_view(transcript: Transcript) -> Transcript:
    """The eavesdropper's maximal view: the transcript itself.

    An identity by design; it exists to make the threat model explicit.  The
    transcript already contains all classical information produced by every
    role, and its schema has no sender-position field to leak.
    """
    assert not hasattr(transcript, "sender_positions")
    assert not hasattr(transcript, "assignment")
    return transcript


def sender_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """All size-m subsets of participant positions {1..n}, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), m))


def verify_tracelessness(config: ProtocolConfig, fields: FieldVector) -> TracelessnessReport:
    """Compare outcome distributions across ALL sender subsets.

    Each subset's distribution is computed from its own sender positions by
    :func:`dicke_sweep`, at every n, and comes as one row of probabilities
    per subset, in :func:`sender_subsets` order; the report keeps them.  Pass
    iff the maximum pairwise total-variation distance is within
    :data:`EXACT_TV_TOL`.
    """
    n, m = config.n, fields.m
    check_senders(n, m)
    subsets = sender_subsets(n, m)
    labels, probs = dicke_sweep(config, fields, subsets)
    max_tv = _max_pairwise_tv(probs)
    return TracelessnessReport(
        n=n, m=m, fields=fields, mode="exact", n_subsets=len(subsets),
        max_tv_distance=max_tv, tolerance=EXACT_TV_TOL, verdict=max_tv <= EXACT_TV_TOL,
        labels=labels, probs=probs,
    )


def negative_control(n: int, fields: FieldVector) -> TracelessnessReport:
    """Credibility check: a deliberately position-sensitive scheme must FAIL.

    The control runs a broken protocol variant: unentangled sensors (each
    qubit prepared in |+>) read out in the X basis at participant 1 only.
    Whether participant 1 hosts a field is then visible directly in the
    outcome rate, so the verifier must report a distance above
    :data:`CONTROL_TV_TOL` whenever the fields produce any signal at all.  A
    'fail' verdict from this control is the expected, healthy result.

    The evolved probe stays a product state, each qubit (a_j|0> + b_j|1>)/sqrt(2)
    with participant j's bit-0 and bit-1 phases, so a subset's rate of '-' on
    participant 1 is |a_1 - b_1|^2 / 4.
    """
    m = fields.m
    check_senders(n, m)
    _check_limit(n)  # verify --negative-control keeps its exit code 3 above the dense cap
    subsets = sender_subsets(n, m)
    a, b = _participant_phases(np.array(subsets), fields, n)
    p_minus = np.clip(np.abs(a[0] - b[0]) ** 2 / 4, 0.0, 1.0)
    probs = np.stack([p_minus, 1.0 - p_minus], axis=1)
    check_normalized(probs)
    max_tv = _max_pairwise_tv(probs)
    return TracelessnessReport(
        n=n, m=m, fields=fields, mode="negative-control", n_subsets=len(subsets),
        max_tv_distance=max_tv, tolerance=CONTROL_TV_TOL, verdict=max_tv <= CONTROL_TV_TOL,
        labels=["pos1-", "pos1+"], probs=probs,
    )


def _max_pairwise_tv(probs: np.ndarray) -> float:
    """Largest total-variation distance over all pairs of rows of ``probs``
    (distributions x labels, one label order for all).

    Sums |p_a - p_b| label by label in column order, the order
    ``OutcomeDistribution.tv_distance`` sums in for distributions of that
    label order, so every pair's distance is the same float.  The S x S
    distance matrix is accumulated in blocks of rows.
    """
    step = max(1, _TV_BLOCK_ENTRIES // len(probs))
    max_sum = 0.0
    for lo in range(0, len(probs), step):
        block = probs[lo:lo + step]
        acc = np.zeros((len(block), len(probs)))
        for col in range(probs.shape[1]):
            acc += np.abs(block[:, col, None] - probs[None, :, col])
        max_sum = max(max_sum, float(acc.max()))
    return 0.5 * max_sum
