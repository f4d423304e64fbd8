"""Seeded, counter-based randomness and multinomial outcome sampling.

All stochastic behavior in the package flows through :func:`philox`, a
counter-based generator keyed by (seed, stream...) so that replicas and
protocol rounds are reproducible independently of scheduling or worker
count.
"""

from __future__ import annotations

import numpy as np

from .engine import OutcomeDistribution

MAX_ROUNDS = 2**63 - 1  # numpy's multinomial takes its count as a 64-bit integer


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator keyed deterministically by a master seed and a stream index."""
    key = (int(seed),) + tuple(int(s) for s in stream)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def draw_counts(dist: OutcomeDistribution, rounds: int, rng: np.random.Generator) -> dict[str, int]:
    """One multinomial draw of ``rounds`` outcomes from a distribution; no label of p = 0 draws."""
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    labels = dist.labels()
    p = np.clip(np.array([dist.probs[k] for k in labels]), 0.0, None)
    p = p / p.sum()
    draws = rng.multinomial(rounds, p)
    # numpy hands the last label the rounding remainder of its running probability
    if p[-1] == 0 and draws[-1]:
        draws[np.flatnonzero(p)[-1]] += draws[-1]
        draws[-1] = 0
    return {label: int(c) for label, c in zip(labels, draws)}
