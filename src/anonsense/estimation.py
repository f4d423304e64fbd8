"""Maximum-likelihood phase estimation from observed outcome counts.

The likelihood is multinomial over the closed-form outcome model; every step
reads the counts in one form, a (label index, count) pair per observed label
in labels order (:func:`_observed`).  Its maximizer over [0, pi]^m, the
protocol's operating regime (the distribution is even in each phase, so signs
are unrecoverable and nonnegative phases lose nothing), is refined from a
start by projected, damped Fisher scoring on the kernel's analytic
derivatives, which also give the observed information; the Fisher matrix at
the estimate takes the probabilities and derivatives the refinement ends on.
The refinement's algebra is 1x1 or 2x2 and runs in closed form on Python
floats (the :mod:`anonsense.fisher` helpers): no LAPACK routine runs on the
way from counts to an estimate.

For one sender and on the paper's two-sender design the start is the maximum
itself (:func:`_design_start`).  One sender's score is 0 at the positive root
of a quadratic in tan^2(theta/2) (:func:`_one_sender_root`).  On the design,
with c_j = cos(theta_j/2), P(0,+) = q_0*c1^2, P(0,-) = q_0*(1 - c1^2),
P(a,+) = q_a*y and P(f) = q_a*(1 - y), y = [(1 - B_a)*c1 + B_a*c2]^2: given
the split of the counts between the indices, the likelihood is two binomials,
in x = c1^2 and in y, maximized at the observed shares.  Every other config
(and one sender where no observed label moves with theta) starts at the
argmax of a coarse grid (:func:`_grid_start`), in blocks of theta1 rows over
the whole theta2 axis, each evaluated by one :meth:`ThetaModel.label_rows`
call; counts that score -inf on all of it are diagnosed on the same blocks.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .combinatorics import MINUS, PLUS
from .engine import ProtocolConfig, dilution
from .fisher import (ZERO_PROB, PhaseParameters, ThetaModel, _fisher_matrix, _inverse,
                     _solve, _symmetric_eigen)

GRID_POINTS = 181
REFINE_TOL = 1e-6
DAMPING = 1e-3
_GRID_BLOCK_POINTS = 4096  # bound on the grid points of one probability evaluation
_AXIS = np.linspace(0.0, math.pi, GRID_POINTS)  # the grid's axis on every component
_AXIS.flags.writeable = False


@dataclass(frozen=True)
class OutcomeCounts:
    """Observed outcome tallies over a known label set; ``N`` is their total.

    A count must be a nonnegative whole number that a float can hold, as the
    estimator reads it; a boolean, NaN, infinity, larger number or
    non-number is an error naming its label, as
    :func:`anonsense.configio.load_counts` reports it for a counts file.
    The estimator reads the total N as a float too, so it must not exceed
    the largest float either.
    """

    counts: dict[str, int]

    def __post_init__(self):
        for label, c in self.counts.items():
            if (isinstance(c, bool) or not isinstance(c, numbers.Real)
                    or not 0 <= c <= sys.float_info.max or c != int(c)):
                raise ValueError(f"count for {label!r} must be a nonnegative integer "
                                 f"that a float can hold, got {c!r}")
        if self.N > sys.float_info.max:
            raise ValueError(f"the counts must total at most the largest float, "
                             f"{sys.float_info.max!r}; these total more")

    @property
    def N(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class EstimateReport:
    """Result of the measurer's estimation step.

    ``se_estimate`` comes from the observed information (curvature of the
    realized log-likelihood); ``crb_se`` is the expected-information
    Cramer-Rao value at the estimate, reported alongside for comparison.
    """

    theta_hat: PhaseParameters
    omega_hat: tuple[float, ...]
    log_likelihood: float
    se_estimate: tuple[float, ...]
    crb_se: Optional[tuple[float, ...]]
    converged: bool
    flags: tuple[str, ...] = ()


def log_likelihood(counts: OutcomeCounts, config: ProtocolConfig, params: PhaseParameters) -> float:
    """Multinomial log-likelihood sum_x counts[x] * log P_x(theta).

    Returns -inf when an observed label has model probability 0.
    """
    model = ThetaModel(config)
    return _scored(model, _observed(counts, model), params.theta)[0]


def _observed(counts: OutcomeCounts, model: ThetaModel) -> list[tuple[int, float]]:
    """(label index, count as a float) for every nonzero count, in labels
    order: the one form of the counts the estimator reads."""
    unknown = set(counts.counts) - set(model.labels)
    if unknown:
        raise ValueError(f"counts contain labels {sorted(unknown)} outside the configured "
                         f"outcome set {model.labels}")
    return [(x, float(c)) for x, c in
            enumerate(counts.counts.get(label, 0) for label in model.labels) if c > 0]


def _scored(model: ThetaModel, observed, theta) -> tuple:
    """(log-likelihood, theta, probabilities) at one phase vector, from one
    probability evaluation."""
    p = model.point_probs(theta)
    total = 0.0
    for x, c in observed:
        if p[x] <= 0.0:
            return -math.inf, theta, p
        total += c * math.log(p[x])
    return total, theta, p


def mle_estimate(counts: OutcomeCounts, config: ProtocolConfig) -> EstimateReport:
    """Maximize the likelihood over [0, pi]^m_est and package the estimate.

    Deterministic: the refinement (:func:`_refine`) starts at the maximum for
    one sender and on the two-sender design (:func:`_design_start`), else at
    the argmax of a coarse grid, whose ties break toward the lexicographically
    smallest phase vector (:func:`_grid_start`).
    """
    if counts.N < 1:
        raise ValueError("estimation requires at least one observed outcome")
    model = ThetaModel(config)
    observed = _observed(counts, model)
    start, flags = _design_start(model, observed), []
    if start is None:
        grid = _grid_start(model, observed, _AXIS)
        if grid is None:
            # a cell where every observed P is above 0 has a finite log-likelihood
            # at a count of 1 per label: the counts fit, and only their size overflowed
            if _grid_start(model, [(x, 1.0) for x, _ in observed], _AXIS) is not None:
                raise ValueError("log-likelihood is below the most negative float over the "
                                 "whole domain; the counts are consistent with the "
                                 "configuration but too many to score")
            raise ValueError("likelihood is -inf over the whole domain; counts are "
                             "inconsistent with the configuration")
        theta, flags = grid
        start = _scored(model, observed, theta)
    converged = not flags

    theta, ll_hat, p_hat, info, eigvals, dp, d2p = _refine(model, observed, counts.N, start)
    theta_hat = PhaseParameters(tuple(theta))
    se = _observed_se(info, eigvals, theta, counts.N, flags)
    crb_se: Optional[tuple[float, ...]] = None
    try:
        res = _fisher_matrix(model.labels, counts.N, p_hat, dp, d2p)
        crb_se = tuple(math.sqrt(max(v, 0.0)) for v in res.crb_diag)
    except ArithmeticError:
        flags.append("expected information singular at the estimate")
    omega_hat = recover_omegas(theta_hat, config.t)
    flags.extend(field_flags(omega_hat))
    return EstimateReport(
        theta_hat=theta_hat,
        omega_hat=omega_hat,
        log_likelihood=ll_hat,
        se_estimate=se,
        crb_se=crb_se,
        converged=converged,
        flags=tuple(flags),
    )


def recover_omegas(theta_hat: PhaseParameters, t: float) -> tuple[float, ...]:
    """Invert the phase parameterization back to sorted field amplitudes.

    For two senders the distribution is even in theta2, so +-theta2 describe
    the same sorted amplitude pair; the sorted pair is everything the model
    identifies.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if theta_hat.m_est == 1:
        return (theta_hat.theta[0] / t,)
    th1, th2 = theta_hat.theta
    pair = ((th1 + th2) / (2 * t), (th1 - th2) / (2 * t))
    return tuple(sorted(pair))


def field_flags(omegas: tuple[float, ...]) -> list[str]:
    """Model-violation flags for recovered amplitudes (fields must be > 0)."""
    out = []
    for j, w in enumerate(omegas):
        if w <= 0.0:
            out.append(f"recovered omega[{j}] = {w} is not strictly positive (boundary)")
    return out


def _grid_log_likelihood(model: ThetaModel, observed, axes) -> np.ndarray:
    """Log-likelihood over the grid the theta ``axes`` span; -inf where an
    observed P is 0, or where the value is below the most negative float.

    ``observed`` is :func:`_observed`'s (label index, count) list.  Every
    probability is q*gamma^2 or a sum of q*max(rest, 0), never negative, so
    log 0 = -inf is the only special value.  Each observed label's row
    (:meth:`ThetaModel.label_rows`) is logged at its own shape, scaled by its
    count and added into the grid in labels order: the additions of
    ``sum(c * log P_x)``, in place.
    """
    p = model.label_rows(axes)
    ll = np.zeros(np.broadcast(*axes).shape)
    with np.errstate(divide="ignore", over="ignore"):
        for x, c in observed:
            ll += np.multiply(np.log(p[x], out=p[x]), c, out=p[x])
    return ll


def _design_start(model: ThetaModel, observed) -> Optional[tuple]:
    """The likelihood's maximum for one sender (:func:`_one_sender_root`) and
    on the two-sender design, scored (:func:`_scored`) as the refinement
    takes its start; None where no observed label moves with theta (one
    sender), on any other two-sender config, where one binomial below has no
    count (theta2 is then not identified), or where the log-likelihood there
    is not finite: the grid then starts.  The design is told by its outcome set
    alone: with no weight on a, a count on (a,+) or 'f' meets a probability
    of 0, and the grid finds the counts inconsistent.  The shares of its
    first two labels give x = c1^2, of the last two y; c1 = sqrt(x) and
    c2 = (sqrt(y) - (1 - B_a)*c1)/B_a, clipped to [0, 1]: from a clipped
    start the refinement finds the maximum on that face."""
    config = model.config
    if config.m_est == 1:
        u = _one_sender_root(model, observed)
        start = None if u is None else _scored(model, observed, [2.0 * math.atan(math.sqrt(u))])
        return start if start and math.isfinite(start[0]) else None
    if config.outcomes != ((0, PLUS), (0, MINUS), (config.a, PLUS)):
        return None
    count = [0.0] * len(model.labels)
    for x, c in observed:
        count[x] = c
    if not (count[0] + count[1] and count[-2] + count[-1]):
        return None
    c1 = math.sqrt(count[0] / (count[0] + count[1]))
    b = dilution(config.n, config.a)
    c2 = (math.sqrt(count[2] / (count[2] + count[3])) - (1.0 - b) * c1) / b
    start = _scored(model, observed, [2.0 * math.acos(c) for c in (c1, min(max(c2, 0.0), 1.0))])
    return start if math.isfinite(start[0]) else None


def _one_sender_root(model: ThetaModel, observed) -> Optional[float]:
    """u = tan^2(theta/2) at the one-sender maximum; None where no observed
    label moves with theta.  Each label is lo*(1 - x) + hi*x in
    x = cos^2(theta/2), its ends the kernel's at x = 0 and 1: lo = 0 on '+',
    hi = 0 on '-'.  With the counts A on lo = 0, B on hi = 0 and F on an 'f'
    of ends l, h > 0 (else l = h = 1), the score is 0 at the one positive
    root of A*l*u^2 + b*u - B*h, b = h*(A + F) - l*(B + F): scaled to
    integers, taken without cancellation and rounded once, or inf past 2^1023
    (theta rounds to pi far below) or where A*l = 0 and b <= 0."""
    zero = [0.0] * len(model._coef)
    ends = list(zip(model._assemble([1.0] * len(zero), [d for *_, d in model._coef]),
                    model._assemble(zero, zero)))
    moving = [(ends[x], int(c)) for x, c in observed if ends[x][0] != ends[x][1]]
    if not moving:
        return None
    A = sum(c for (lo, _), c in moving if lo == 0.0)
    B = sum(c for (_, hi), c in moving if hi == 0.0)
    F, l, h = next(((c, lo, hi) for (lo, hi), c in moving if lo and hi), (0, 1, 1))
    (ln, ld), (hn, hd) = l.as_integer_ratio(), h.as_integer_ratio()
    a, b, c = A * ln * hd, (A + F) * hn * ld - (B + F) * ln * hd, B * hn * ld
    root = math.isqrt(b * b + 4 * a * c << 256)  # 2^128 times the discriminant's root
    num, den = (2 * c << 128, (b << 128) + root) if b > 0 else (root - (b << 128), 2 * a << 128)
    return num / den if num < den << 1023 else math.inf


def _grid_start(model: ThetaModel, observed, axis) -> Optional[tuple[list, list[str]]]:
    """The start of the refinement on the grid ``axis``^m: the row-major
    argmax of the log-likelihood (the smallest theta1, then theta2, wins
    ties) and a flag per axis along which its finite values spread less than
    1e-9; None if no value is finite.

    The grid goes in products of theta1 rows over the whole theta2 axis, in
    axis order, each of ``_GRID_BLOCK_POINTS`` points at most (one row at
    least).
    """
    m = model.m_est
    rows = max(1, _GRID_BLOCK_POINTS // len(axis) ** (m - 1))
    ll = np.empty((len(axis),) * m)
    for lo in range(0, len(axis), rows):
        ll[lo:lo + rows] = _grid_log_likelihood(model, observed, np.meshgrid(
            axis[lo:lo + rows], *[axis] * (m - 1), indexing="ij", sparse=True))
    finite = np.isfinite(ll)
    if not finite.any():
        return None
    theta = [axis[i] for i in np.unravel_index(int(ll.argmax()), ll.shape)]
    # -inf cells take the smallest finite value, so they add no spread
    spread = ll if finite.all() else np.where(finite, ll, np.min(ll[finite]))
    return theta, [f"flat likelihood along theta_{j + 1}" for j in range(m)
                   if np.ptp(spread, axis=j).max() < 1e-9]


def _refine(model: ThetaModel, observed, N: int, start):
    """Projected, damped Fisher scoring (Levenberg-Marquardt) from the
    ``start`` that :func:`_scored` gives; returns theta, its log-likelihood,
    its probabilities, the observed information per observation, its
    ascending eigenvalues (None where it is not finite), and the first and
    second derivatives it is formed from.

    A step solves (J + lam*diag J) d = score, J being the expected
    information and score the log-likelihood's gradient, both per
    observation (the counts enter as frequencies c/N: the step is that of N*J
    and the gradient, and no count the estimator admits overflows them), on
    the components with J_jj > 0 (a flat axis stays put) that no score holds
    against the edge 0 or pi; clipped to [0, pi]^m, it is accepted only if
    the log-likelihood does not drop, else lam grows tenfold.  Scoring stops
    when a step moves less than ``REFINE_TOL``.  A stop where the observed
    information has a negative eigenvalue is a saddle (theta2 = 0 always is
    a stationary point): one grid spacing along that eigenvector is tried
    either way, and scoring resumes there if the log-likelihood rises.  The
    solve and the eigenpair are the 1x1 or 2x2 closed forms of
    :mod:`anonsense.fisher`.
    """
    ll, theta, p = start
    freq = [(x, c / N) for x, c in observed]
    m = len(theta)
    score, lam, tried = None, DAMPING, None
    while True:
        if score is None:  # once per accepted theta; a rejected step keeps them
            dp = model.dprobs(theta)
            score = [sum(f / p[x] * dp[x][j] for x, f in freq) for j in range(m)]
            live = [(px, d) for px, d in zip(p, dp) if px >= ZERO_PROB]
            J = [[sum(d[i] * d[j] / px for px, d in live) for j in range(m)] for i in range(m)]
        free = [j for j, t in enumerate(theta) if J[j][j] > 0.0 and not (
            (t <= 0.0 and score[j] < 0.0) or (t >= math.pi and score[j] > 0.0))]
        moved = 0.0
        if free:
            block = [[J[i][j] + lam * J[i][j] if i == j else J[i][j] for j in free] for i in free]
            step = [0.0] * m
            for j, d in zip(free, _solve(block, [score[j] for j in free])):
                step[j] = d
            probe = _project(theta, step)
            moved = max(abs(a - b) for a, b in zip(probe, theta))
        if moved > 0.0:  # a zero step stays at theta, which is scored
            if tried is None or probe != tried[1]:  # a damped step may clip to the last probe
                tried = _scored(model, observed, probe)
            ll_probe, probe, p_probe = tried
            if ll_probe >= ll:
                ll, theta, p, score = ll_probe, probe, p_probe, None
                lam = max(lam / 10.0, DAMPING)
            else:
                lam *= 10.0
        if moved >= REFINE_TOL:
            continue
        dp, d2p = model.derivatives(theta, second=True)
        info = _observed_information(freq, p, dp, d2p)
        if not all(math.isfinite(v) for row in info for v in row):
            return theta, ll, p, info, None, dp, d2p
        eigvals, eigvec = _symmetric_eigen(info)
        if eigvals[0] >= 0.0:
            return theta, ll, p, info, eigvals, dp, d2p
        spacing = _AXIS[1] - _AXIS[0]
        probes = [_project(theta, [sign * spacing * v for v in eigvec]) for sign in (1.0, -1.0)]
        # a probe clipped back onto theta is not scored again
        best = max((_scored(model, observed, point) for point in probes if point != theta),
                   key=lambda scored: scored[:2], default=None)
        if best is None or not best[0] > ll:
            return theta, ll, p, info, eigvals, dp, d2p
        (ll, theta, p), score = best, None


def _project(theta, step) -> list:
    return [min(max(t + d, 0.0), math.pi) for t, d in zip(theta, step)]


def _observed_information(freq, p, dp, d2p) -> list[list[float]]:
    """Negative Hessian of the log-likelihood per observation,
    sum_x f*(dp dp^T/p^2 - d2p/p), over the observed labels' (label index,
    frequency c/N) pairs ``freq``, from the probabilities ``p`` at one phase
    vector and the kernel's analytic derivatives there; N times it is the
    observed information.  Each term divides by p twice, never by p^2, which
    underflows to 0 where p is below 1e-154."""
    m = len(dp[0])
    info = [[0.0] * m for _ in range(m)]
    for x, f in freq:
        slope, curve, first = f / p[x] / p[x], f / p[x], dp[x]
        if not math.isfinite(slope):  # p near the smallest float: dp/p first
            slope, first = curve, [d / p[x] for d in dp[x]]
        for i in range(m):
            for j in range(m):
                info[i][j] += slope * first[i] * dp[x][j] - curve * d2p[x][i][j]
    return info


def _observed_se(info, eigvals: Optional[list[float]], theta, N: int,
                 flags: list[str]) -> tuple[float, ...]:
    """Standard errors from the observed information per observation at the
    estimate, given its ascending eigenvalues, or None where it is not finite
    (:func:`_refine`), and the total count ``N``.

    A component within ``REFINE_TOL`` of the domain edge 0 or pi is flagged:
    there the likelihood folds back on itself, and near the corner (pi, pi)
    the information is close to singular, so the errors are unreliable.
    """
    m = len(theta)
    edge = [f"theta_{j + 1}" for j, t in enumerate(theta) if min(t, math.pi - t) < REFINE_TOL]
    if edge:
        flags.append(f"{' and '.join(edge)} within {REFINE_TOL} of the domain edge 0 or pi: "
                     f"the observed-information standard errors are unreliable")
    if eigvals is None:
        flags.append("observed information not finite at the estimate")
        return tuple(math.nan for _ in range(m))
    if eigvals[0] <= 0.0:
        flags.append("observed information not positive definite at the estimate")
        return tuple(math.nan for _ in range(m))
    try:
        inverse = _inverse(info)
        return tuple(math.sqrt(inverse[j][j] / N) for j in range(m))
    except (ZeroDivisionError, ValueError):  # a determinant or a diagonal the rounding left <= 0
        flags.append("observed information inversion failed")
        return tuple(math.nan for _ in range(m))
