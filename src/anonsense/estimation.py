"""Maximum-likelihood phase estimation from observed outcome counts.

The likelihood is multinomial over the closed-form outcome model; every step
reads the counts in one form, a (label index, count) pair per observed label
in labels order (:func:`_observed`).  Its maximizer is located on a coarse
grid over [0, pi]^m, the protocol's operating regime (the distribution is
even in each phase, so signs are unrecoverable and nonnegative phases lose
nothing), then refined per point by projected, damped Fisher scoring on the
kernel's analytic derivatives, which also give the observed information; the
Fisher matrix at the estimate takes the probabilities and derivatives the
refinement ends on.  The refinement's algebra is 1x1 or 2x2 and runs in
closed form on Python floats (the :mod:`anonsense.fisher` helpers): no
LAPACK routine runs on the way from counts to an estimate.

The grid start is one loop over theta1 rows (:func:`_grid_start`), each
product a set of rows over the whole theta2 axis, evaluated by one
:meth:`ThetaModel.label_rows` call.  For two senders the labels A whose
probability is free of theta2 (every '-' label, and (0,+) since B_0 = 0)
bound each row: the others share the mass S = 1 - sum_A p, so by Gibbs'
inequality a row's log-likelihood is at most
sum_A c log p + sum_B c log(c S / C_B).  Rows go in descending bound order
until the next bound falls below the best value less a margin of
1e-6 * (N + 1), which covers the rounding of bound and value; without a
bound every row goes, in axis order.  The kernel forms every cell
elementwise, so a row keeps its bits in any product, and the argmax over
the rows evaluated, in ascending theta1 order, is the whole grid's.  Their
spread can certify only that no axis is flat; where it cannot, the loop
goes on to every row.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import NORM_ATOL, ProtocolConfig
from .fisher import (ZERO_PROB, PhaseParameters, ThetaModel, _fisher_matrix, _inverse,
                     _solve, _symmetric_eigen)

GRID_POINTS = 181
REFINE_TOL = 1e-6
DAMPING = 1e-3
_GRID_BLOCK_POINTS = 4096  # bound on the grid points of one probability evaluation
_BOUND_MARGIN = 1e-6  # per observation: the rounding of a row bound and of a grid value
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

    Deterministic: the coarse grid scans axes in fixed order and ties break
    toward the lexicographically smallest phase vector; the refinement
    (:func:`_refine`) starts at that grid point.
    """
    if counts.N < 1:
        raise ValueError("estimation requires at least one observed outcome")
    model = ThetaModel(config)
    observed = _observed(counts, model)
    start = _grid_start(model, observed, _AXIS, counts.N)
    if start is None:
        # a cell where every observed P is above 0 has a finite log-likelihood
        # at a count of 1 per label: the counts fit, and only their size overflowed
        p = model.label_rows(np.meshgrid(*[_AXIS] * model.m_est, indexing="ij", sparse=True))
        if functools.reduce(np.logical_and, [p[x] > 0.0 for x, _ in observed]).any():
            raise ValueError("log-likelihood is below the most negative float over the whole "
                             "domain; the counts are consistent with the configuration but "
                             "too many to score")
        raise ValueError("likelihood is -inf over the whole domain; counts are "
                         "inconsistent with the configuration")
    theta, flags = start
    converged = not flags

    theta, ll_hat, p_hat, info, eigvals, dp, d2p = _refine(model, observed, counts.N, theta,
                                                           _AXIS[1] - _AXIS[0])
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


def _row_bounds(model: ThetaModel, observed, axis) -> Optional[np.ndarray]:
    """An upper bound on each theta1 row's log-likelihood over theta2, or None
    where no observed label's probability is free of theta2.

    The labels A free of theta2 give their terms exactly; the other observed
    labels B share the mass S = 1 - sum_A p + NORM_ATOL at most, and by
    Gibbs' inequality sum_B c log p <= sum_B c log(c S / C_B), C_B = sum_B c.
    """
    free = model.labels_free_of(1)
    in_free = set(free)
    exact = [(x, c) for x, c in observed if x in in_free]
    if not exact:
        return None
    rest = np.array([c for x, c in observed if x not in in_free])
    p = model.label_rows([axis[:, None], np.zeros((1, 1))])
    bound = np.zeros(len(axis))
    with np.errstate(divide="ignore", over="ignore"):
        for x, c in exact:
            bound += c * np.log(p[x][:, 0])
        if rest.size:
            mass = 1.0 - sum(p[x][:, 0] for x in free) + NORM_ATOL
            bound += rest @ np.log(rest / rest.sum()) + rest.sum() * np.log(mass)
    return bound


def _grid_start(model: ThetaModel, observed, axis, N: int) -> Optional[tuple[list, list[str]]]:
    """The start of the refinement on the grid ``axis``^m: the row-major
    argmax of the log-likelihood (the smallest theta1, then theta2, wins
    ties) and a flag per axis along which its finite values spread less than
    1e-9; None if no value is finite.

    Each product is a set of theta1 rows over the whole theta2 axis, of
    ``_GRID_BLOCK_POINTS`` points at most (one row at least), and no row is
    evaluated twice.  With :func:`_row_bounds`, rows go in descending bound
    order, each product taking at most twice the rows done so far (two
    first), until the next bound is below the best value less
    ``_BOUND_MARGIN * (N + 1)``; without, every row goes in axis order.  The
    rows evaluated certify only a start without flags (their spread is a
    lower bound of the grid's); else the loop goes on to every row.
    """
    m = model.m_est
    cap = max(1, _GRID_BLOCK_POINTS // len(axis) ** (m - 1))
    bound = _row_bounds(model, observed, axis) if m == 2 else None
    order = np.arange(len(axis)) if bound is None else np.argsort(-bound, kind="stable")
    ll = np.empty((len(axis),) * m)
    floor, done = -math.inf, 0
    while done < len(order):
        if bound is not None and bound[order[done]] < floor:  # no row left can hold the maximum
            seen = np.sort(order[:done])
            start = _argmax_start(ll[seen], [axis[seen], axis])
            if not start[1]:
                return start
            bound = None  # flags the rows evaluated cannot certify: every row goes
        take = min(cap, len(order) - done if bound is None else min(
            2 * done or 2, int(np.count_nonzero(bound[order[done:]] >= floor))))
        rows = order[done:done + take]
        product = _grid_log_likelihood(
            model, observed, np.meshgrid(axis[rows], *[axis] * (m - 1), indexing="ij", sparse=True))
        ll[rows] = product
        floor = max(floor, float(product.max()) - _BOUND_MARGIN * (N + 1))
        done += take
    return _argmax_start(ll, [axis] * m)


def _argmax_start(ll: np.ndarray, axes) -> Optional[tuple[list, list[str]]]:
    """:func:`_grid_start` from the grid values ``ll`` over ``axes``, the
    theta1 rows in ascending order; None if no value is finite."""
    finite = np.isfinite(ll)
    if not finite.any():
        return None
    theta = [axis[i] for axis, i in zip(axes, np.unravel_index(int(ll.argmax()), ll.shape))]
    # -inf cells take the smallest finite value, so they add no spread
    spread = ll if finite.all() else np.where(finite, ll, np.min(ll[finite]))
    return theta, [f"flat likelihood along theta_{j + 1}" for j in range(ll.ndim)
                   if np.ptp(spread, axis=j).max() < 1e-9]


def _refine(model: ThetaModel, observed, N: int, theta, spacing: float):
    """Projected, damped Fisher scoring (Levenberg-Marquardt) from the grid
    argmax; returns theta, its log-likelihood, its probabilities, the observed
    information per observation, its ascending eigenvalues (None where it is
    not finite), and the first and second derivatives it is formed from.

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
    ll, theta, p = _scored(model, observed, theta)
    freq = [(x, c / N) for x, c in observed]
    m = len(theta)
    score, lam = None, DAMPING
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
            ll_probe, probe, p_probe = _scored(model, observed, _project(theta, step))
            moved = max(abs(a - b) for a, b in zip(probe, theta))
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
        probes = [_project(theta, [sign * spacing * v for v in eigvec]) for sign in (1.0, -1.0)]
        ll_probe, probe, p_probe = max((_scored(model, observed, point) for point in probes),
                                       key=lambda scored: scored[:2])
        if not ll_probe > ll:
            return theta, ll, p, info, eigvals, dp, d2p
        ll, theta, p, score = ll_probe, probe, p_probe, None


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
        slope, curve = f / p[x] / p[x], f / p[x]
        for i in range(m):
            for j in range(m):
                info[i][j] += slope * dp[x][i] * dp[x][j] - curve * d2p[x][i][j]
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
