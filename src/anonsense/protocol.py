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
)
from .estimation import EstimateReport, OutcomeCounts, mle_estimate
from .sampling import draw_counts, philox
from .statevec import (
    SenderAssignment,
    _participant_phases,
    conditional_distributions,
    dicke_sweep,
)

EXACT_TV_TOL = 1e-10
CONTROL_TV_TOL = 0.01  # the leaky control must exceed this distance
_TV_MAX_LABELS = 5  # labels up to which the TV takes projections: 16 of them per row at most


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

    Each round's initial-state index is drawn from the mixture weights, and
    its outcome from that state's conditional distribution
    (:func:`~anonsense.statevec.conditional_distributions`, exact at every n);
    the run is reproducible from the seed.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    assign.check_n(config)
    rng = philox(seed)
    conditionals = conditional_distributions(assign, config)
    weights = [config.q[i] for i in sorted(conditionals)]
    per_state = rng.multinomial(rounds, np.array(weights) / sum(weights))
    counts: dict[str, int] = {}
    for idx, i in enumerate(sorted(conditionals)):
        drawn = draw_counts(conditionals[i], int(per_state[idx]), rng)
        for label, c in drawn.items():
            counts[label] = counts.get(label, 0) + c
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


def verify_tracelessness(
    config: ProtocolConfig, fields: FieldVector, means: np.ndarray | None = None
) -> TracelessnessReport:
    """Compare outcome distributions across ALL sender subsets.

    Each subset's distribution is computed from its own sender positions by
    :func:`dicke_sweep`, at every n, and comes as one row of probabilities
    per subset, in :func:`sender_subsets` order; the report keeps them.  Pass
    iff the maximum pairwise total-variation distance is within
    :data:`EXACT_TV_TOL`.  ``means``, when given, holds this config's outcome
    columns of the :func:`~anonsense.statevec.dicke_means` pass of these fields
    over those subsets that the designs of one trial share.
    """
    n, m = config.n, fields.m
    check_senders(n, m)
    subsets = sender_subsets(n, m)
    labels, probs = dicke_sweep(config, fields, subsets, means)
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
    participant 1 is |a_1 - b_1|^2 / 4: read from the rows of the phase seam
    (:func:`~anonsense.statevec._participant_phases`) that list participant 1, in
    their first column, and 0 on the rows that do not, where a_1 = b_1 = 1.  It
    runs at every n.
    """
    m = fields.m
    check_senders(n, m)
    subsets = sender_subsets(n, m)
    listed, (a, b) = _participant_phases(n, fields, subsets)
    p_minus = np.where(listed[:, 0] == 1, np.clip(np.abs(a[0] - b[0]) ** 2 / 4, 0.0, 1.0), 0.0)
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
    (distributions x labels, one label order for all): half their L1 diameter.

    The L1 distance of two rows is the largest s.(p_a - p_b) over sign vectors
    s in {-1, +1}^L, and s and -s give the same pairs, so the diameter is the
    widest spread max_a s.p_a - min_a s.p_a over the 2^(L-1) sign vectors with
    s_1 = +1 (the isometric embedding of l1^L in l_inf).  Each projection adds
    the labels in column order; it meets the pairwise sums within a few ulps
    of 1.0.  The sign vectors double with each label, so above
    :data:`_TV_MAX_LABELS` labels the rows are compared pair by pair instead,
    one row against the rows after it at a time.
    """
    if probs.shape[1] > _TV_MAX_LABELS:
        return 0.5 * max(float(np.abs(probs[k] - probs[k:]).sum(axis=1).max())
                         for k in range(len(probs)))
    projections = probs[:, :1]
    for column in probs[:, 1:].T:
        projections = np.concatenate([projections + column[:, None],
                                      projections - column[:, None]], axis=1)
    return 0.5 * float((projections.max(axis=0) - projections.min(axis=0)).max())
