"""Classical Fisher information, Cramer-Rao bounds, and closed-form variance limits.

The outcome model is parameterized directly by the phase vector theta (theta
= omega*t for one sender; theta1 = (omega1+omega2)*t, theta2 = (omega1-omega2)*t
for two).  Probabilities and their analytic theta-derivatives come from the
package's one closed-form kernel, :class:`anonsense.engine.ThetaModel`
(re-exported here), which evaluates theta grids and single phase vectors
and holds weights only for the weight indices the measurement uses, so the
work of likelihood scans and Fisher matrices follows the number of measured
indices, not the participant count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .combinatorics import FieldVector
from .engine import ProtocolConfig, ThetaModel, two_sender_violations

ZERO_PROB = 1e-14
ZERO_DERIV = 1e-7
# a Hessian whose smaller singular values stay below this share of its largest
# counts as rank 1: within ZERO_PROB of a rank-1 zero they are ~1e-15 of it,
# at the rank-2 zeros of the designs no less than ~0.04
RANK_RTOL = 1e-6
COND_LIMIT = 1e12


class SingularTermError(ArithmeticError):
    """An outcome has zero probability but nonzero derivative: infinite information."""


class UnidentifiableDirectionError(ArithmeticError):
    """The Fisher matrix is (numerically) singular along ``null_vector``."""

    def __init__(self, message: str, null_vector: np.ndarray):
        super().__init__(message)
        self.null_vector = null_vector


class DivergenceError(ArithmeticError):
    """A closed-form variance bound is no finite float (theta2 at or near 0)."""


@dataclass(frozen=True)
class PhaseParameters:
    """Phase vector under estimation: one entry per assumed sender.

    Estimation restricts components to [0, pi], the protocol's operating
    regime: the distribution is even in each component (phase signs are
    unrecoverable, so nonnegative values lose nothing) and the interaction
    time is chosen so phases stay below pi.  The container itself accepts
    any reals so symmetry properties can be probed.
    """

    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if self.m_est not in (1, 2):
            raise ValueError(f"expected 1 or 2 phase components, got {self.m_est}")

    @property
    def m_est(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class FisherResult:
    """Fisher matrix, its inverse, and the per-parameter Cramer-Rao diagonal."""

    J: np.ndarray = field(compare=False)
    J_inv: np.ndarray = field(compare=False)
    crb_diag: tuple[float, ...]
    N: int


def phases_from_fields(fields: FieldVector) -> tuple[float, ...]:
    """Map field amplitudes to the estimated phase vector.

    One sender: (omega*t,).  Two senders: ((omega1+omega2)*t, (omega1-omega2)*t);
    with amplitudes in nondecreasing order the second component is <= 0.
    """
    if fields.m == 1:
        return (fields.omegas[0] * fields.t,)
    if fields.m == 2:
        w1, w2 = fields.omegas
        return ((w1 + w2) * fields.t, (w1 - w2) * fields.t)
    raise ValueError(f"phase parameterization defined for m in {{1, 2}}, got m={fields.m}")


def fisher_matrix(
    config: ProtocolConfig,
    params: PhaseParameters,
    N: int = 1,
) -> FisherResult:
    """Fisher information matrix J and Cramer-Rao diagonal diag(J^-1)/N.

    J[i,j] = sum over outcomes of (dP/dtheta_i)(dP/dtheta_j)/P.  An outcome
    with P below 1e-14 must have a vanishing derivative too, else
    :class:`SingularTermError` is raised.  Its summand is then the 0/0 limit
    2*d2P, which exists where the Hessian d2P has rank <= 1: near such a
    zero P = (g . d)^2 to leading order, as for every measured outcome
    q*gamma^2.  A zero of higher rank has no limit and is skipped.
    """
    if params.m_est != config.m_est:
        raise ValueError(f"params.m_est={params.m_est} != config.m_est={config.m_est}")
    model = ThetaModel(config)
    return _fisher_matrix(model.labels, N, model.point_probs(params.theta),
                          *model.derivatives(params.theta, second=True))


def _fisher_matrix(labels, N: int, p, dp, d2p) -> FisherResult:
    """:func:`fisher_matrix` for the outcome ``labels`` from the probabilities
    ``p`` at one phase vector and the derivatives ``dp`` and ``d2p`` there, as
    :meth:`ThetaModel.point_probs` and :meth:`ThetaModel.derivatives` give them."""
    m = dp.shape[1]
    J = np.zeros((m, m))
    for x, label in enumerate(labels):
        if p[x] < ZERO_PROB:
            if np.max(np.abs(dp[x])) >= ZERO_DERIV:
                raise SingularTermError(
                    f"outcome {label!r} has probability {p[x]:.3e} but derivative "
                    f"{np.max(np.abs(dp[x])):.3e}; information diverges"
                )
            if np.linalg.matrix_rank(d2p[x], tol=RANK_RTOL * np.abs(d2p[x]).max()) <= 1:
                J += 2.0 * d2p[x]
            continue
        J += dp[x][:, None] * dp[x] / p[x]
    J = 0.5 * (J + J.T)
    eigvals, eigvecs = np.linalg.eigh(J)
    if eigvals[-1] <= 0.0 or eigvals[0] <= 0.0 or eigvals[-1] > COND_LIMIT * eigvals[0]:
        raise UnidentifiableDirectionError(
            f"Fisher matrix singular (eigenvalues {eigvals}); the parameter "
            f"combination along the null vector is unidentifiable",
            null_vector=eigvecs[:, 0],
        )
    J_inv = np.linalg.inv(J)
    assert np.abs(J @ J_inv - np.eye(m)).max() < 1e-8
    return FisherResult(
        J=J,
        J_inv=J_inv,
        crb_diag=tuple(float(v) / N for v in J_inv.diagonal()),
        N=N,
    )


def dilution(n: int, a: int) -> float:
    """Mixing ratio 2a(n-a)/(n(n-1)) controlling the two-sender variance bound."""
    return 2 * a * (n - a) / (n * (n - 1))


def closed_form_j22(n: int, a: int, q0: float, theta: tuple[float, float]) -> float:
    """Closed-form (J^-1)[2,2] for the two-sender design.

    Equals the numerically inverted Fisher matrix entry for the matching
    configuration; diverges as theta2 -> 0.  Raises :class:`DivergenceError`
    where the bound is no finite float: its denominator underflows to 0
    (theta2 = 0, or sin^2(theta2/2) below the smallest float) or the value
    overflows.  A non-finite phase raises ValueError naming its axis.
    """
    _check_design(n, a)
    _check_q0(q0)
    return _point_j22(1.0 / dilution(n, a) - 1.0, q0, theta)


def optimal_a(n: int) -> int:
    """Weight index minimizing the two-sender variance bound: floor(n/2)."""
    a = n // 2
    _check_design(n, a)
    return a


def limit_j22(q0: float, theta: tuple[float, float]) -> float:
    """Large-n limit of the optimized two-sender variance bound; diverges
    where :func:`closed_form_j22` does."""
    _check_q0(q0)
    return _point_j22(None, q0, theta)


def _check_design(n: int, a: int):
    for violation in two_sender_violations(n, a):
        raise ValueError(violation)


def _check_q0(q0: float):
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0={q0} outside (0, 1)")


def _check_phases(name: str, values):
    for th in values:
        if not math.isfinite(th):
            raise ValueError(f"{name}={th!r} is not a finite phase")


def _j22_terms(inv, q0, s1sq, c1, c2, s2sq):
    """Numerator and denominator of the bound from the half-angle terms
    sin^2(theta_j/2) and cos(theta_j/2): finite n for inv = 1/dilution - 1,
    the large-n limit for inv = None.

    Only + - * / act on the terms, so floats and broadcast arrays (a theta1
    column against a theta2 row) give the same bits.
    """
    cc = c1 * c2
    if inv is None:
        return s1sq + q0 * (2 - 2 * cc + s2sq), (1 - q0) * q0 * s2sq
    return 2 * inv * (1 - cc) + s2sq + inv ** 2 * s1sq / q0, (1 - q0) * s2sq


def _point_j22(inv, q0: float, theta: tuple[float, float]) -> float:
    th1, th2 = theta
    _check_phases("theta1", (th1,))
    _check_phases("theta2", (th2,))
    num, den = _j22_terms(inv, q0, math.sin(th1 / 2) ** 2, math.cos(th1 / 2),
                          math.cos(th2 / 2), math.sin(th2 / 2) ** 2)
    j22 = num / den if den != 0.0 else math.inf
    if j22 == math.inf:
        raise DivergenceError(f"variance bound diverges at theta2 = {th2!r}")
    return j22


@dataclass(frozen=True)
class ScanBlock:
    """The bound at one (n, q0) over the theta1 x theta2 plane."""

    n: float  # participant count; math.inf selects the large-n limit
    a: float
    q0: float
    j22: np.ndarray = field(compare=False)  # (len theta1, len theta2); NaN where divergent
    divergent: np.ndarray = field(compare=False)  # bool, same shape


@dataclass(frozen=True)
class ScanGrid:
    """A variance-bound scan: the two theta axes and one block per (n, q0)."""

    theta1: tuple[float, ...]
    theta2: tuple[float, ...]
    blocks: tuple[ScanBlock, ...]

    @property
    def n_rows(self) -> int:
        return len(self.blocks) * len(self.theta1) * len(self.theta2)

    @property
    def n_divergent(self) -> int:
        return sum(int(block.divergent.sum()) for block in self.blocks)


def scan_j22(
    n_values: Iterable[float],
    q0_values: Iterable[float],
    theta1_values: Iterable[float],
    theta2_values: Iterable[float],
) -> ScanGrid:
    """Evaluate the optimized variance bound over a cartesian grid.

    Blocks come out nested as (n, q0).  Each finite n uses a = :func:`optimal_a`,
    which checks n; n = inf uses the large-n limit.  The q0 check runs once per
    block and the finite-phase check once per axis value, all before any cell
    is evaluated.  sin, cos and the squares are taken with :mod:`math` once per
    axis value, and the cells see only + - * /, so every cell is bit for bit
    the value :func:`closed_form_j22` or :func:`limit_j22` returns there.  Cells where those raise
    :class:`DivergenceError` (theta2 = 0, sin^2(theta2/2) or the denominator
    underflowing to 0, or the bound overflowing) are flagged divergent with
    NaN values rather than raised.
    """
    q0_values = tuple(q0_values)
    designs = []
    for n_raw in n_values:
        n, a, inv = math.inf, math.inf, None  # the large-n limit
        if not math.isinf(n_raw):
            n = int(n_raw)
            a = optimal_a(n)
            inv = 1.0 / dilution(n, a) - 1.0
        for q0 in q0_values:
            _check_q0(q0)
            designs.append((n, a, q0, inv))
    theta1, theta2 = tuple(theta1_values), tuple(theta2_values)
    s1sq, c1 = _half_angles("theta1", theta1)
    s2sq, c2 = _half_angles("theta2", theta2)
    blocks = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for n, a, q0, inv in designs:
            num, den = _j22_terms(inv, q0, s1sq[:, None], c1[:, None], c2, s2sq)
            j22 = num / den
            divergent = (den == 0.0) | (j22 == math.inf)
            j22[divergent] = math.nan
            blocks.append(ScanBlock(n, a, q0, j22, divergent))
    return ScanGrid(theta1, theta2, tuple(blocks))


def _half_angles(name: str, axis: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(theta/2) and cos(theta/2) for each axis value, taken with math."""
    _check_phases(name, axis)
    s = [math.sin(th / 2) ** 2 for th in axis]
    c = [math.cos(th / 2) for th in axis]
    return np.array(s, dtype=float), np.array(c, dtype=float)


def omega_crb_diag(result: FisherResult, t: float) -> tuple[float, ...]:
    """Cramer-Rao diagonal transported to field-amplitude space.

    Derived from the bound on the phase vector by the linear reparameterization
    omega(theta) (not an independently stated bound): Cov(omega) >= A (J^-1/N) A^T
    with A = d(omega)/d(theta).
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    m = result.J.shape[0]
    if m == 1:
        A = np.array([[1.0 / t]])
    else:
        A = np.array([[1.0, 1.0], [1.0, -1.0]]) / (2.0 * t)
    cov = A @ (result.J_inv / result.N) @ A.T
    return tuple(np.diag(cov))
