"""Maximum-likelihood phase estimation from observed outcome counts.

The likelihood is multinomial over the closed-form outcome model.  The
maximizer is located by a coarse grid over [0, pi]^m, the protocol's
operating regime (the distribution is even in each phase, so signs are
unrecoverable and nonnegative phases lose nothing), followed by
coordinate-wise golden-section refinement.  The grid is one array evaluation
of :meth:`ThetaModel.probs`; each refinement and observed-information point is
evaluated on floats by :meth:`ThetaModel.point_probs`, through the same
probability assembly and bit for bit what the array path gives at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import ProtocolConfig
from .fisher import METHOD_ANALYTIC, PhaseParameters, ThetaModel, _fisher_matrix

GRID_POINTS = 181
REFINE_TOL = 1e-6
REFINE_SWEEPS = 60
_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OutcomeCounts:
    """Observed outcome tallies over a known label set."""

    counts: dict[str, int]
    N: int

    def __post_init__(self):
        for label, c in self.counts.items():
            if c < 0 or c != int(c):
                raise ValueError(f"count for {label!r} must be a nonnegative integer, got {c}")
        total = sum(self.counts.values())
        if total != self.N:
            raise ValueError(f"counts sum to {total}, expected N={self.N}")

    @classmethod
    def from_dict(cls, counts: dict[str, int]) -> "OutcomeCounts":
        return cls(counts=dict(counts), N=sum(counts.values()))


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
    return _log_likelihood(counts, model, params.theta)


def _log_likelihood(counts: OutcomeCounts, model: ThetaModel, theta) -> float:
    """:func:`log_likelihood` on an already built model."""
    total = 0.0
    p = model.point_probs(theta)
    for x, label in enumerate(model.labels):
        c = counts.counts.get(label, 0)
        if c == 0:
            continue
        if p[x] <= 0.0:
            return -math.inf
        total += c * math.log(p[x])
    return total


def mle_estimate(
    counts: OutcomeCounts,
    config: ProtocolConfig,
    grid_points: int = GRID_POINTS,
    tol: float = REFINE_TOL,
) -> EstimateReport:
    """Maximize the likelihood over [0, pi]^m_est and package the estimate.

    Deterministic: the coarse grid scans axes in fixed order and ties break
    toward the lexicographically smallest phase vector.  A refinement still
    moving after ``REFINE_SWEEPS`` sweeps is reported as not converged, with
    a flag.
    """
    if counts.N < 1:
        raise ValueError("estimation requires at least one observed outcome")
    model = ThetaModel(config)
    _check_labels(counts, model)
    m = config.m_est
    tallies = [counts.counts.get(label, 0) for label in model.labels]
    observed = [(x, float(c)) for x, c in enumerate(tallies) if c > 0]  # labels order
    flags: list[str] = []

    def ll_point(theta):
        return _point_log_likelihood(model, observed, theta)

    axis = np.linspace(0.0, math.pi, grid_points)
    converged = True
    if m == 1:
        ll = _grid_log_likelihood(model, observed, (axis,))
        if not np.isfinite(ll).any():
            raise ValueError("likelihood is -inf over the whole domain; counts are "
                             "inconsistent with the configuration")
        best = int(np.argmax(ll))
        theta = [axis[best]]
        if np.ptp(ll[np.isfinite(ll)]) < 1e-9:
            converged = False
            flags.append("flat likelihood along theta_1")
    else:
        t1, t2 = np.meshgrid(axis, axis, indexing="ij")
        ll = _grid_log_likelihood(model, observed, (t1, t2))
        if not np.isfinite(ll).any():
            raise ValueError("likelihood is -inf over the whole domain; counts are "
                             "inconsistent with the configuration")
        best = int(np.argmax(ll))  # row-major: smallest theta1 then theta2 wins ties
        i1, i2 = divmod(best, grid_points)
        theta = [axis[i1], axis[i2]]
        finite = np.where(np.isfinite(ll), ll, np.min(ll[np.isfinite(ll)]))
        for ax_index, name in ((0, "theta_1"), (1, "theta_2")):
            if np.ptp(finite, axis=ax_index).max() < 1e-9:
                converged = False
                flags.append(f"flat likelihood along {name}")

    spacing = axis[1] - axis[0]
    for _ in range(REFINE_SWEEPS):
        moved = 0.0
        for j in range(m):
            lo = max(0.0, theta[j] - spacing)
            hi = min(math.pi, theta[j] + spacing)
            new = _golden_max(lambda x: _axis_value(ll_point, theta, j, x), lo, hi, tol)
            moved = max(moved, abs(new - theta[j]))
            theta[j] = new
        if moved < tol:
            break
    else:
        converged = False
        flags.append(f"refinement stopped at the {REFINE_SWEEPS}-sweep cap")

    theta_hat = PhaseParameters(m_est=m, theta=tuple(theta))
    ll_hat = _log_likelihood(counts, model, theta_hat.theta)
    se = _observed_se(ll_point, theta, flags)
    crb_se: Optional[tuple[float, ...]] = None
    try:
        res = _fisher_matrix(model, theta_hat.theta, METHOD_ANALYTIC, counts.N)
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
    """Log-likelihood over broadcast theta grids; -inf where an observed P is 0.

    ``observed`` holds (label index, count) for every nonzero count.
    """
    p = model.probs(axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
    return sum(c * logs[x] for x, c in observed)


def _point_log_likelihood(model: ThetaModel, observed, theta) -> float:
    """:func:`_grid_log_likelihood` at one phase vector of floats, bit for bit.

    Same probabilities, the same numpy log and the same summation order; only
    the array set-up of the grid path is skipped.
    """
    p = model.point_probs(theta)
    total = 0.0
    for x, c in observed:
        if not p[x] > 0.0:
            return -math.inf
        total += c * np.log(p[x])
    return float(total)


def _axis_value(ll_point, theta, j, x):
    probe = list(theta)
    probe[j] = x
    return ll_point(probe)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization on [lo, hi] to absolute tolerance tol."""
    a, b = lo, hi
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVGOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVGOLD * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _observed_se(ll_point, theta, flags: list[str], step: float = 1e-4) -> tuple[float, ...]:
    """Standard errors from the observed information (negative Hessian of LL)."""
    m = len(theta)
    H = np.zeros((m, m))
    f0 = ll_point(theta)
    for i in range(m):
        ei = [0.0] * m
        ei[i] = step
        fp = ll_point([t + d for t, d in zip(theta, ei)])
        fm = ll_point([t - d for t, d in zip(theta, ei)])
        H[i, i] = (fp - 2.0 * f0 + fm) / step ** 2
        for j in range(i + 1, m):
            ej = [0.0] * m
            ej[j] = step
            fpp = ll_point([t + a + b for t, a, b in zip(theta, ei, ej)])
            fpm = ll_point([t + a - b for t, a, b in zip(theta, ei, ej)])
            fmp = ll_point([t - a + b for t, a, b in zip(theta, ei, ej)])
            fmm = ll_point([t - a - b for t, a, b in zip(theta, ei, ej)])
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step ** 2)
    info = -H
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
