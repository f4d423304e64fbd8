"""Classical Fisher information, Cramer-Rao bounds, and closed-form variance limits.

The outcome model is parameterized directly by the phase vector theta (theta
= omega*t for one sender; theta1 = (omega1+omega2)*t, theta2 = (omega1-omega2)*t
for two).  :class:`ThetaModel` evaluates outcome probabilities and their
analytic theta-derivatives for any valid one- or two-sender configuration and
vectorizes over theta grids.  It holds weights only for the weight indices
the measurement uses, so the work of likelihood scans and Fisher matrices
follows the number of measured indices, not the participant count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import FieldVector, MINUS, PLUS
from .engine import ConfigError, ProtocolConfig, validate_config, weight_row

FD_STEP = 1e-5
ZERO_PROB = 1e-14
ZERO_DERIV = 1e-7
COND_LIMIT = 1e12

METHOD_ANALYTIC = "analytic-derivative"
METHOD_FD = "finite-difference"


class SingularTermError(ArithmeticError):
    """An outcome has zero probability but nonzero derivative: infinite information."""


class UnidentifiableDirectionError(ArithmeticError):
    """The Fisher matrix is (numerically) singular along ``null_vector``."""

    def __init__(self, message: str, null_vector: np.ndarray):
        super().__init__(message)
        self.null_vector = null_vector


class DivergenceError(ArithmeticError):
    """A closed-form variance bound diverges (theta2 = 0)."""


@dataclass(frozen=True)
class PhaseParameters:
    """Phase vector under estimation: one entry per assumed sender.

    Estimation restricts components to [0, pi], the protocol's operating
    regime: the distribution is even in each component (phase signs are
    unrecoverable, so nonnegative values lose nothing) and the interaction
    time is chosen so phases stay below pi.  The container itself accepts
    any reals so symmetry properties can be probed.
    """

    m_est: int
    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if self.m_est not in (1, 2):
            raise ValueError(f"m_est must be 1 or 2, got {self.m_est}")
        if len(self.theta) != self.m_est:
            raise ValueError(f"expected {self.m_est} phase components, got {len(self.theta)}")


@dataclass(frozen=True)
class FisherResult:
    """Fisher matrix, its inverse, and the per-parameter Cramer-Rao diagonal."""

    J: np.ndarray = field(compare=False)
    J_inv: np.ndarray = field(compare=False)
    crb_diag: tuple[float, ...]
    N: int
    method: str


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


class ThetaModel:
    """Outcome probabilities of a configuration as functions of the phase vector.

    Probabilities follow the closed form c * q * gamma^2 with gamma expanded
    in the g coefficients, which for one or two senders depend on theta alone.
    The '+' amplitudes are evaluated as gamma+ = 1 - v with v built from
    versine terms 2*sin^2(theta/4), so that the complements 1 - gamma+^2 =
    v*(2 - v) entering the residual outcome never suffer cancellation; this
    keeps Fisher summands (dp)^2/p accurate even where p is tiny.

    Only weight indices with a measurement switch on are modelled:
    validate_config forces q[i] = 0 on every other index, so those add nothing
    to any outcome.  All methods broadcast over numpy arrays of theta
    components.  :meth:`point_probs` evaluates one phase vector of floats
    through the same stacks and the same probability assembly as
    :meth:`probs`, without the array set-up, for the MLE refinement.
    """

    def __init__(self, config: ProtocolConfig):
        violations = validate_config(config)
        if violations:
            raise ConfigError(violations)
        self.config = config
        self.m_est = config.m_est
        n, m = config.n, config.m_est
        # weight indices with a switch on; row r of every table is index _rows[r]
        self._rows = [i for i in range(config.kmax + 1) if config.c_plus[i] or config.c_minus[i]]
        self._w = np.array([weight_row(n, m, i) for i in self._rows])
        # the central '-' projector of even n vanishes
        self._minus_alive = np.array([0.0 if 2 * i == n else 1.0 for i in self._rows])
        self.labels = config.labels()
        self._active = [
            (r, i, sign)
            for r, i in enumerate(self._rows)
            for sign in (PLUS, MINUS)
            if config.c(i, sign)
        ]

    # -- coefficient stacks per weight l: versine deficits for '+' amplitudes
    #    (gamma+ = 1 - sum_l w*u) and imaginary parts of g for '-' amplitudes

    def _u_stacks(self, theta):
        if self.m_est == 1:
            (t1,) = theta
            u = 2 * np.sin(t1 / 4) ** 2
            return [u, u]
        t1, t2 = theta
        u1 = 2 * np.sin(t1 / 4) ** 2
        u2 = 4 * np.sin(t2 / 4) ** 2
        return [u1, u2, u1]

    def _du_stacks(self, theta):
        if self.m_est == 1:
            (t1,) = theta
            du = np.sin(t1 / 2) / 2
            return [[du, du]]
        t1, t2 = theta
        du1 = np.sin(t1 / 2) / 2
        du2 = np.sin(t2 / 2)
        zero = np.zeros(np.shape(t1))
        return [[du1, zero, du1], [zero, du2, zero]]

    def _minus_stacks(self, theta):
        if self.m_est == 1:
            (t1,) = theta
            s = np.sin(t1 / 2)
            return [-2 * s, 2 * s]
        t1, t2 = theta
        s1 = np.sin(t1 / 2)
        zero = np.zeros(np.shape(t1))
        return [-2 * s1, zero, 2 * s1]

    def _dminus_stacks(self, theta):
        if self.m_est == 1:
            (t1,) = theta
            c = np.cos(t1 / 2)
            return [[-c, c]]
        t1, t2 = theta
        c1 = np.cos(t1 / 2)
        zero = np.zeros(np.shape(t1))
        return [[-c1, zero, c1], [zero, zero, zero]]

    def _contract(self, stack) -> np.ndarray:
        """sum_l w[:, l] * stack[l], shape (rows, *grid)."""
        arr = np.stack(np.broadcast_arrays(*stack)).astype(float)
        return np.tensordot(self._w, arr, axes=([1], [0]))

    def _amplitudes(self, theta):
        """(v, gamma_minus) with gamma+ = 1 - v; both shaped (rows, *grid)."""
        v = self._contract(self._u_stacks(theta))
        gamma_m = 0.5 * self._contract(self._minus_stacks(theta))
        mask = self._minus_alive.reshape((-1,) + (1,) * (gamma_m.ndim - 1))
        return v, gamma_m * mask

    def _damplitudes(self, theta):
        """Per-parameter (dv, dgamma_minus) lists."""
        out = []
        for du, dgm in zip(self._du_stacks(theta), self._dminus_stacks(theta)):
            dv = self._contract(du)
            dgamma_m = 0.5 * self._contract(dgm)
            mask = self._minus_alive.reshape((-1,) + (1,) * (dgamma_m.ndim - 1))
            out.append((dv, dgamma_m * mask))
        return out

    def _assemble(self, v, gamma_m) -> list:
        """Per-label probabilities from the row amplitudes, in labels order.

        gamma+ = 1 - v[r] and gamma- = gamma_m[r] may be arrays or scalars;
        :meth:`probs` and :meth:`point_probs` share this one assembly.  The
        residual is assembled per weight index from stable complements.
        """
        config = self.config
        q = config.q
        rows = []
        for r, i, sign in self._active:
            gam = (1.0 - v[r]) if sign == PLUS else gamma_m[r]
            rows.append(q[i] * gam ** 2)
        residual = 0.0
        for r, i in enumerate(self._rows):
            if q[i] == 0.0:
                continue
            if config.c_plus[i]:
                rest = v[r] * (2.0 - v[r])
                if config.c_minus[i]:
                    rest = rest - gamma_m[r] ** 2
            else:
                rest = (1.0 - gamma_m[r]) * (1.0 + gamma_m[r])
            residual = residual + q[i] * np.maximum(rest, 0.0)
        rows.append(residual)
        return rows

    def probs(self, theta: Sequence) -> np.ndarray:
        """Probabilities for every label, stacked along axis 0 (labels order)."""
        theta = [np.asarray(t, dtype=float) for t in theta]
        if len(theta) != self.m_est:
            raise ValueError(f"expected {self.m_est} theta components, got {len(theta)}")
        return np.stack(np.broadcast_arrays(*self._assemble(*self._amplitudes(theta))))

    def point_probs(self, theta: Sequence[float]) -> list:
        """:meth:`probs` at one phase vector of floats, as a list in labels order.

        Bit for bit equal to :meth:`probs` on 0-d arrays: the same stacks,
        the same BLAS contraction and the same assembly, without the array
        set-up that dominates a single point.
        """
        if len(theta) != self.m_est:
            raise ValueError(f"expected {self.m_est} theta components, got {len(theta)}")
        shape = (self._w.shape[1], 1)
        v = np.dot(self._w, np.array(self._u_stacks(theta)).reshape(shape))[:, 0]
        gamma_m = np.dot(self._w, np.array(self._minus_stacks(theta)).reshape(shape))[:, 0]
        return self._assemble(v, 0.5 * gamma_m * self._minus_alive)

    def dprobs(self, theta: Sequence) -> np.ndarray:
        """Analytic derivatives dP/dtheta_j, shape (labels, m_est, ...)."""
        theta = [np.asarray(t, dtype=float) for t in theta]
        v, gamma_m = self._amplitudes(theta)
        q = self.config.q
        per_param = []
        for dv, dgamma_m in self._damplitudes(theta):
            rows = []
            for r, i, sign in self._active:
                if sign == PLUS:
                    gam, dgam = 1.0 - v[r], -dv[r]
                else:
                    gam, dgam = gamma_m[r], dgamma_m[r]
                rows.append(2.0 * q[i] * gam * dgam)
            rows.append(-sum(rows))
            per_param.append(np.stack(np.broadcast_arrays(*rows)))
        return np.stack(per_param, axis=1)


def fisher_matrix(
    config: ProtocolConfig,
    params: PhaseParameters,
    method: str = METHOD_ANALYTIC,
    N: int = 1,
) -> FisherResult:
    """Fisher information matrix J and Cramer-Rao diagonal diag(J^-1)/N.

    J[i,j] = sum over outcomes of (dP/dtheta_i)(dP/dtheta_j)/P.  Outcomes with
    P below 1e-14 are skipped after asserting their derivative also vanishes
    (removable 0/0 limits); a vanishing probability with non-vanishing
    derivative raises :class:`SingularTermError`.
    """
    if params.m_est != config.m_est:
        raise ValueError(f"params.m_est={params.m_est} != config.m_est={config.m_est}")
    return _fisher_matrix(ThetaModel(config), params.theta, method, N)


def _fisher_matrix(model: ThetaModel, theta, method: str, N: int) -> FisherResult:
    """:func:`fisher_matrix` on an already built model."""
    p = model.probs(theta)
    if method == METHOD_ANALYTIC:
        dp = model.dprobs(theta)
    elif method == METHOD_FD:
        dp = _fd_dprobs(model, theta)
    else:
        raise ValueError(f"unknown method {method!r}")
    m = model.m_est
    J = np.zeros((m, m))
    for x, label in enumerate(model.labels):
        if p[x] < ZERO_PROB:
            if np.max(np.abs(dp[x])) >= ZERO_DERIV:
                raise SingularTermError(
                    f"outcome {label!r} has probability {p[x]:.3e} but derivative "
                    f"{np.max(np.abs(dp[x])):.3e}; information diverges"
                )
            continue
        J += np.outer(dp[x], dp[x]) / p[x]
    J = 0.5 * (J + J.T)
    eigvals, eigvecs = np.linalg.eigh(J)
    if eigvals[-1] <= 0.0 or eigvals[0] <= 0.0 or eigvals[-1] > COND_LIMIT * eigvals[0]:
        raise UnidentifiableDirectionError(
            f"Fisher matrix singular (eigenvalues {eigvals}); the parameter "
            f"combination along the null vector is unidentifiable",
            null_vector=eigvecs[:, 0],
        )
    J_inv = np.linalg.inv(J)
    assert np.max(np.abs(J @ J_inv - np.eye(m))) < 1e-8
    return FisherResult(
        J=J,
        J_inv=J_inv,
        crb_diag=tuple(float(v) / N for v in np.diag(J_inv)),
        N=N,
        method=method,
    )


def _fd_dprobs(model: ThetaModel, theta, step: float = FD_STEP) -> np.ndarray:
    cols = []
    for j in range(model.m_est):
        hi = list(theta)
        lo = list(theta)
        hi[j] = hi[j] + step
        lo[j] = lo[j] - step
        cols.append((model.probs(hi) - model.probs(lo)) / (2 * step))
    return np.stack(cols, axis=1)


def dilution(n: int, a: int) -> float:
    """Mixing ratio 2a(n-a)/(n(n-1)) controlling the two-sender variance bound."""
    return 2 * a * (n - a) / (n * (n - 1))


def closed_form_j22(n: int, a: int, q0: float, theta: tuple[float, float]) -> float:
    """Closed-form (J^-1)[2,2] for the two-sender design.

    Equals the numerically inverted Fisher matrix entry for the matching
    configuration; diverges as theta2 -> 0.
    """
    if n < 5:
        raise ValueError(f"two-sender design requires n >= 5, got {n}")
    if not 2 <= a <= n // 2:
        raise ValueError(f"a={a} outside [2, floor(n/2)={n // 2}]")
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0={q0} outside (0, 1)")
    th1, th2 = theta
    s2 = math.sin(th2 / 2)
    if s2 == 0.0:
        raise DivergenceError("variance bound diverges at theta2 = 0")
    inv = 1.0 / dilution(n, a) - 1.0
    s1, c1, c2 = math.sin(th1 / 2), math.cos(th1 / 2), math.cos(th2 / 2)
    bracket = 2 * inv * (1 - c1 * c2) + s2 ** 2 + inv ** 2 * s1 ** 2 / q0
    return bracket / ((1 - q0) * s2 ** 2)


def optimal_a(n: int) -> int:
    """Weight index minimizing the two-sender variance bound: floor(n/2)."""
    if n < 5:
        raise ValueError(f"two-sender design requires n >= 5, got {n}")
    return n // 2


def limit_j22(q0: float, theta: tuple[float, float]) -> float:
    """Large-n limit of the optimized two-sender variance bound."""
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0={q0} outside (0, 1)")
    th1, th2 = theta
    s2 = math.sin(th2 / 2)
    if s2 == 0.0:
        raise DivergenceError("variance bound diverges at theta2 = 0")
    s1, c1, c2 = math.sin(th1 / 2), math.cos(th1 / 2), math.cos(th2 / 2)
    return (s1 ** 2 + q0 * (2 - 2 * c1 * c2 + s2 ** 2)) / ((1 - q0) * q0 * s2 ** 2)


@dataclass(frozen=True)
class ScanRow:
    """One evaluated grid cell of the variance-bound scan."""

    n: float  # participant count; math.inf selects the large-n limit
    a: float
    q0: float
    theta1: float
    theta2: float
    j22: float
    log10_j22: float
    flag: str


def scan_j22(
    n_values: Iterable[float],
    q0_values: Iterable[float],
    theta1_values: Iterable[float],
    theta2_values: Iterable[float],
) -> list[ScanRow]:
    """Evaluate the optimized variance bound over a cartesian grid.

    Rows come out in grid-index order with axes nested as
    (n, q0, theta1, theta2).  Each finite n uses a = floor(n/2); n = inf uses
    the large-n limit.  Cells where the bound diverges (theta2 = 0) are
    flagged 'divergent' with NaN values rather than raised.
    """
    rows = []
    for n_raw in n_values:
        is_limit = math.isinf(n_raw)
        n: float = math.inf if is_limit else int(n_raw)
        a: float = math.inf if is_limit else int(n_raw) // 2
        for q0 in q0_values:
            for th1 in theta1_values:
                for th2 in theta2_values:
                    try:
                        if is_limit:
                            j22 = limit_j22(q0, (th1, th2))
                        else:
                            j22 = closed_form_j22(int(n), int(a), q0, (th1, th2))
                        row = ScanRow(n, a, q0, th1, th2, j22, math.log10(j22), "ok")
                    except DivergenceError:
                        row = ScanRow(n, a, q0, th1, th2, math.nan, math.nan, "divergent")
                    rows.append(row)
    return rows


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
