"""Maximum-likelihood phase estimation from observed outcome counts.

The likelihood is multinomial over the closed-form outcome model.  The
maximizer is located by a coarse grid over [0, pi]^m, the protocol's
operating regime (the distribution is even in each phase, so signs are
unrecoverable and nonnegative phases lose nothing).  The grid enters
:meth:`ThetaModel.grid_blocks` as its axes.  Per axis, once per grid, run
the sines and row sums and, for two senders, the gamma- contraction, which
depends on theta1 alone.  Per block of theta1 values (at most
``_GRID_BLOCK_POINTS`` points, so the probabilities held at once are
bounded whatever the label count) run the versine contraction, the
assembly and, per observed label, the log at the label row's own shape,
scaled by its count and added into the grid in place.  Per point, the grid
maximum is refined by projected, damped Fisher scoring on the kernel's
analytic derivatives, which also give the observed information; the Fisher
matrix at the estimate takes the probabilities and derivatives the
refinement ends on.

For two senders only the theta1 rows that can hold the grid maximum are
evaluated.  The labels A whose probability is free of theta2 (every '-'
label and, from the weight rows, (0,+)) come from one pass over the theta1
axis; the others share the mass S = 1 - sum_A p, so by Gibbs' inequality a
row's log-likelihood is at most sum_A c log p + sum_B c log(c S / C_B).
Rows are evaluated in descending order of that bound, two or more per
product, until the next bound falls below the best value less a margin of
1e-6 * (N + 1), which covers the rounding of bound and value; the rows left
out are then below the maximum.  Each row is evaluated on the same
contractions as in the whole grid, so it keeps its bits, and the argmax
over the rows evaluated, in ascending theta1 order, is the whole grid's.
Their spread bounds the grid's from below, so it can certify only that no
axis is flat.  Where it cannot, where no label is free of theta2, no value
found is finite or every row would be evaluated, the whole grid is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import NORM_ATOL, ProtocolConfig
from .fisher import ZERO_PROB, PhaseParameters, ThetaModel, _fisher_matrix

GRID_POINTS = 181
REFINE_TOL = 1e-6
DAMPING = 1e-3
_GRID_BLOCK_POINTS = 4096  # bound on the grid points of one probability evaluation
_BOUND_MARGIN = 1e-6  # per observation: the rounding of a row bound and of a grid value


@dataclass(frozen=True)
class OutcomeCounts:
    """Observed outcome tallies over a known label set; ``N`` is their total.

    A count must be a nonnegative whole number; a boolean, NaN or infinity is
    an error naming its label, as :func:`anonsense.configio.load_counts`
    reports it for a counts file.
    """

    counts: dict[str, int]

    def __post_init__(self):
        for label, c in self.counts.items():
            if isinstance(c, (bool, np.bool_)) or not 0 <= c < math.inf or c != int(c):
                raise ValueError(f"count for {label!r} must be a nonnegative integer, got {c}")

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
    _check_labels(counts, model)
    return _scored(counts, model, params.theta)[0]


def _scored(counts: OutcomeCounts, model: ThetaModel, theta) -> tuple:
    """(log-likelihood, theta, probabilities) at one phase vector, from one
    probability evaluation."""
    p = model.point_probs(theta)
    total = 0.0
    for x, label in enumerate(model.labels):
        c = counts.counts.get(label, 0)
        if c == 0:
            continue
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
    _check_labels(counts, model)
    m = config.m_est
    tallies = np.array([counts.counts.get(label, 0) for label in model.labels], dtype=float)
    observed = [(x, c) for x, c in enumerate(tallies.tolist()) if c > 0]  # labels order

    axis = np.linspace(0.0, math.pi, GRID_POINTS)
    start = _bounded_start(model, observed, axis, counts.N) if m == 2 else None
    if start is None:  # the whole grid: one sender, or a start the bound cannot certify
        ll = _grid_log_likelihood(model, observed,
                                  np.meshgrid(*[axis] * m, indexing="ij", sparse=True))
        start = _grid_start(ll, [axis] * m)
    if start is None:
        raise ValueError("likelihood is -inf over the whole domain; counts are "
                         "inconsistent with the configuration")
    theta, flags = start
    converged = not flags

    theta, ll_hat, p_hat, info, dp, d2p = _refine(counts, model, tallies, theta,
                                                  axis[1] - axis[0])
    theta_hat = PhaseParameters(tuple(theta))
    se = _observed_se(info, theta, flags)
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


def _check_labels(counts: OutcomeCounts, model: ThetaModel):
    unknown = set(counts.counts) - set(model.labels)
    if unknown:
        raise ValueError(
            f"counts contain labels {sorted(unknown)} outside the configured "
            f"outcome set {model.labels}"
        )


def _grid_log_likelihood(model: ThetaModel, observed, axes) -> np.ndarray:
    """Log-likelihood over the grid the theta ``axes`` span; -inf where an
    observed P is 0.

    ``observed`` holds (label index, count) for every nonzero count.  Every
    probability is q*gamma^2 or a sum of q*max(rest, 0), never negative, so
    log 0 = -inf is the only special value.  The grid is evaluated in blocks
    of theta1 values of at most :data:`_GRID_BLOCK_POINTS` points, or one
    value (:meth:`ThetaModel.grid_blocks`).  Every block's columns go through
    the same matrix product as the whole grid's, so the blocks keep its bits;
    that needs more than one point per block (one point would be a
    matrix-vector product), which holds as an m = 2 theta1 value spans 181
    points and the m = 1 grid is one block, and more than one theta1 value
    for gamma-, which holds for the rows :func:`_bounded_start` gathers.
    Each observed label's row is logged at its own shape, scaled by its count
    and added into the block in labels order: the additions of
    ``sum(c * log P_x)``, in place.
    """
    shape = np.broadcast_shapes(*[np.shape(t) for t in axes])
    ll = np.zeros(shape)
    rows = max(1, _GRID_BLOCK_POINTS // (ll.size // shape[0]))
    with np.errstate(divide="ignore"):
        for lo, p in model.grid_blocks(axes, rows):
            block = ll[lo:lo + rows]
            for x, c in observed:
                block += np.multiply(np.log(p[x], out=p[x]), c, out=p[x])
    return ll


def _grid_start(ll: np.ndarray, axes) -> Optional[tuple[list, list[str]]]:
    """The row-major argmax of the grid values ``ll`` over ``axes`` (the
    smallest theta1, then theta2, wins ties) and a flag per axis along which
    the finite values spread less than 1e-9; None if no value is finite."""
    finite = np.isfinite(ll)
    if not finite.any():
        return None
    theta = [axis[i] for axis, i in zip(axes, np.unravel_index(int(np.argmax(ll)), ll.shape))]
    # -inf cells take the smallest finite value, so they add no spread
    spread = ll if finite.all() else np.where(finite, ll, np.min(ll[finite]))
    return theta, [f"flat likelihood along theta_{j + 1}" for j in range(ll.ndim)
                   if np.ptp(spread, axis=j).max() < 1e-9]


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
    _, p = next(model.grid_blocks([axis[:, None], np.zeros((1, 1))], len(axis)))
    bound = np.zeros(len(axis))
    with np.errstate(divide="ignore"):
        for x, c in exact:
            bound += c * np.log(p[x][:, 0])
        if rest.size:
            mass = 1.0 - sum(p[x][:, 0] for x in free) + NORM_ATOL
            bound += rest @ np.log(rest / rest.sum()) + rest.sum() * np.log(mass)
    return bound


def _bounded_start(model: ThetaModel, observed, axis, N: int):
    """:func:`_grid_start` of the two-sender grid from the theta1 rows that
    can hold its maximum, or None where the whole grid must be evaluated.

    Rows are evaluated in descending order of :func:`_row_bounds`, each
    product taking two rows at least and twice those done so far at most, until
    the next bound is below the best value less ``_BOUND_MARGIN * (N + 1)``.
    The spread of the rows evaluated is a lower bound of the grid's, so it
    certifies only a start without flat-axis flags; else this is None.
    """
    bound = _row_bounds(model, observed, axis)
    if bound is None:
        return None
    order = np.argsort(-bound, kind="stable")
    floor, done, lls = -math.inf, 0, []
    while done < len(order) and bound[order[done]] >= floor:
        take = max(2, min(2 * done or 2, int(np.count_nonzero(bound[order[done:]] >= floor))))
        if done + take >= len(order):
            return None  # every row left: the whole grid costs no more
        rows = order[done:done + take]
        lls.append(_grid_log_likelihood(model, observed, (axis[rows, None], axis[None, :])))
        floor = max(floor, float(lls[-1].max()) - _BOUND_MARGIN * (N + 1))
        done += take
    rows = np.argsort(order[:done])
    start = _grid_start(np.concatenate(lls)[rows], [axis[order[:done]][rows], axis])
    return start if start is not None and not start[1] else None


def _refine(counts: OutcomeCounts, model: ThetaModel, tallies, theta, spacing: float):
    """Projected, damped Fisher scoring (Levenberg-Marquardt) from the grid
    argmax; returns theta, its log-likelihood, its probabilities, the observed
    information and the first and second derivatives it is formed from.

    A step solves (J + lam*diag J) d = score, J being N times the expected
    information, on the components with J_jj > 0 (a flat axis stays put) that
    no score holds against the edge 0 or pi; clipped to [0, pi]^m, it is
    accepted only if the log-likelihood does not drop, else lam grows tenfold.
    Scoring stops when a step moves less than ``REFINE_TOL``.  A stop where
    the observed information has a negative eigenvalue is a saddle (theta2 = 0
    always is a stationary point): one grid spacing along that eigenvector is
    tried either way, and scoring resumes there if the log-likelihood rises.
    """
    ll, theta, p = _scored(counts, model, theta)
    score, lam = None, DAMPING
    while True:
        if score is None:  # once per accepted theta; a rejected step keeps them
            pa, dp = np.asarray(p), model.dprobs(theta)
            seen, live = tallies > 0, pa >= ZERO_PROB
            score = (tallies[seen] / pa[seen]) @ dp[seen]
            J = counts.N * (dp[live].T / pa[live]) @ dp[live]
        free = [j for j, t in enumerate(theta) if J[j, j] > 0.0 and not (
            (t <= 0.0 and score[j] < 0.0) or (t >= math.pi and score[j] > 0.0))]
        moved = 0.0
        if free:
            block, step = J[np.ix_(free, free)], np.zeros(len(theta))
            step[free] = np.linalg.solve(block + lam * np.diag(np.diag(block)), score[free])
            ll_probe, probe, p_probe = _scored(counts, model, _project(theta, step))
            moved = max(abs(a - b) for a, b in zip(probe, theta))
            if ll_probe >= ll:
                ll, theta, p, score = ll_probe, probe, p_probe, None
                lam = max(lam / 10.0, DAMPING)
            else:
                lam *= 10.0
        if moved >= REFINE_TOL:
            continue
        dp, d2p = model.derivatives(theta, second=True)
        info = _observed_information(tallies, p, dp, d2p)
        if not np.all(np.isfinite(info)):
            return theta, ll, p, info, dp, d2p
        eigvals, eigvecs = np.linalg.eigh(info)
        if eigvals[0] >= 0.0:
            return theta, ll, p, info, dp, d2p
        probes = [_project(theta, sign * spacing * eigvecs[:, 0]) for sign in (1.0, -1.0)]
        ll_probe, probe, p_probe = max((_scored(counts, model, point) for point in probes),
                                       key=lambda scored: scored[:2])
        if not ll_probe > ll:
            return theta, ll, p, info, dp, d2p
        ll, theta, p, score = ll_probe, probe, p_probe, None


def _project(theta, step) -> list:
    return [min(max(t + d, 0.0), math.pi) for t, d in zip(theta, step)]


def _observed_information(tallies, p, dp, d2p) -> np.ndarray:
    """Negative Hessian of the log-likelihood, sum_x c*(dp dp^T/p^2 - d2p/p),
    over the observed outcomes, from the probabilities ``p`` at one phase
    vector and the kernel's analytic derivatives ``dp`` and ``d2p`` there."""
    p = np.asarray(p)
    seen = tallies > 0
    c, p, dp, d2p = tallies[seen], p[seen], dp[seen], d2p[seen]
    with np.errstate(all="ignore"):  # a non-finite result is flagged by _observed_se
        return (dp.T * (c / p ** 2)) @ dp - np.tensordot(c / p, d2p, axes=1)


def _observed_se(info: np.ndarray, theta, flags: list[str]) -> tuple[float, ...]:
    """Standard errors from the observed information at the estimate.

    A component within ``REFINE_TOL`` of the domain edge 0 or pi is flagged:
    there the likelihood folds back on itself, and near the corner (pi, pi)
    the information is close to singular, so the errors are unreliable.
    """
    m = len(theta)
    edge = [f"theta_{j + 1}" for j, t in enumerate(theta) if min(t, math.pi - t) < REFINE_TOL]
    if edge:
        flags.append(f"{' and '.join(edge)} within {REFINE_TOL} of the domain edge 0 or pi: "
                     f"the observed-information standard errors are unreliable")
    if not np.all(np.isfinite(info)):
        flags.append("observed information not finite at the estimate")
        return tuple(math.nan for _ in range(m))
    try:
        eigvals = np.linalg.eigvalsh(info)
        if eigvals.min() <= 0.0:
            flags.append("observed information not positive definite at the estimate")
            return tuple(math.nan for _ in range(m))
        return tuple(math.sqrt(v) for v in np.diag(np.linalg.inv(info)))
    except np.linalg.LinAlgError:
        flags.append("observed information inversion failed")
        return tuple(math.nan for _ in range(m))
