"""End-to-end protocol simulation and the anonymity (tracelessness) harness.

The roles are in-process: a distributer prepares the mixed initial state, the
participants' qubits accumulate field phases, and a measurer collects outcome
counts, estimates the phases, and broadcasts the result.  A transcript holds
everything any of them (and hence an eavesdropper) ever learns; by
construction it has no field that could store sender positions.

The verifier checks the anonymity claim: from the own positions of each sender
subset it is given (every one, for :func:`verify_tracelessness`) it computes the
outcome distribution, as one row of probabilities per subset, and reports the
largest pairwise total-variation distance of the rows (:func:`_max_pairwise_tv`,
the package's one TV).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import FieldVector
from .engine import ProtocolConfig, check_normalized, check_senders
from .estimation import EstimateReport, OutcomeCounts, mle_estimate
from .sampling import MAX_ROUNDS, draw_counts, philox
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

    ``probs`` holds one row per subset, in the order they were swept, and one
    column per label, in ``labels`` order; neither is serialized.  Row k is
    the k-th subset's distribution, as
    ``engine.OutcomeDistribution.from_row(labels, probs[k])`` builds it.
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
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in [1, {MAX_ROUNDS}], got {rounds}")
    assign.check_n(config)
    rng = philox(seed)
    conditionals = conditional_distributions(assign, config)  # by ascending initial state
    weights = [config.q[i] for i in conditionals]
    per_state = rng.multinomial(rounds, np.array(weights) / sum(weights))
    drawn = [draw_counts(dist, int(k), rng) for dist, k in zip(conditionals.values(), per_state)]
    counts = {label: sum(d[label] for d in drawn) for label in config.labels()}
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
    """Compare outcome distributions across ALL sender subsets, in
    :func:`sender_subsets` order: :func:`verify_designs` of this one design."""
    check_senders(config.n, fields.m)
    return verify_designs([config], fields, sender_subsets(config.n, fields.m))[0]


def verify_designs(
    configs: list[ProtocolConfig], fields: FieldVector, subsets
) -> list[TracelessnessReport]:
    """One report per design, of the distributions the sender ``subsets`` give.

    Each subset's distribution is computed from its own sender positions by
    :func:`dicke_sweep`, at every n, and comes as one row of probabilities per
    subset, in the order of ``subsets``; the report keeps them.  The designs
    share that one sweep.  A design passes iff the maximum pairwise
    total-variation distance is within :data:`EXACT_TV_TOL`.
    """
    sweeps = dicke_sweep(configs, fields, subsets)
    return [TracelessnessReport(
        n=config.n, m=fields.m, fields=fields, mode="exact", n_subsets=len(subsets),
        max_tv_distance=max_tv, tolerance=EXACT_TV_TOL, verdict=max_tv <= EXACT_TV_TOL,
        labels=config.labels(), probs=probs,
    ) for config, probs, max_tv in zip(configs, sweeps, map(_max_pairwise_tv, sweeps))]


def negative_control(n: int, fields: FieldVector) -> TracelessnessReport:
    """Credibility check: a deliberately position-sensitive scheme must FAIL.

    The control runs a broken protocol variant: unentangled sensors (each
    qubit prepared in |+>) read out in the X basis at participant 1 only.
    Whether participant 1 hosts a field is then visible directly in the
    outcome rate: a field omega there plants a distance sin^2(t*omega/2)
    between the subsets that list participant 1 and the others.  The leak
    is detected where that is above the line :data:`CONTROL_TV_TOL` (0.01):
    at t = 1, every field ``verify`` draws for the control (0.5 to 2.5)
    plants at least sin^2(0.25), about 0.061; a shorter time may plant
    less.  A 'fail' verdict from this control is the expected, healthy result.

    The evolved probe stays a product state, each qubit (a_j|0> + b_j|1>)/sqrt(2)
    with participant j's bit-0 and bit-1 phases, so a subset's rate of '-' on
    participant 1 is |a_1 - b_1|^2 / 4: read from the rows of the phase seam
    (:func:`~anonsense.statevec._participant_phases`) that list participant 1, in
    their first column, and 0 on the rows that do not, where a_1 = b_1 = 1.  It
    runs at every n with two sender subsets or more, the fewest that have a
    pair to tell apart.
    """
    m = fields.m
    check_senders(n, m)
    if math.comb(n, m) < 2:
        raise ValueError(f"the negative control needs at least two sender subsets to tell "
                         f"apart; n={n} and m={m} have C({n}, {m}) = {math.comb(n, m)}")
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
