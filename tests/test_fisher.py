import math

import numpy as np
import pytest

from anonsense.combinatorics import MINUS, PLUS, FieldVector
from anonsense.engine import ProtocolConfig, outcome_distribution
from anonsense.estimation import _point_log_likelihood
from anonsense.fisher import (
    METHOD_ANALYTIC,
    METHOD_FD,
    DivergenceError,
    PhaseParameters,
    SingularTermError,
    ThetaModel,
    UnidentifiableDirectionError,
    closed_form_j22,
    dilution,
    fisher_matrix,
    limit_j22,
    omega_crb_diag,
    optimal_a,
    phases_from_fields,
    scan_j22,
)

LIMIT_GOLDEN = 77.05161436201963  # frozen evaluation of the large-n formula at (0.33, 2, 0.5)


def two_sender_theta(config, theta):
    return PhaseParameters(m_est=2, theta=theta)


def test_phase_parameters_validation():
    with pytest.raises(ValueError):
        PhaseParameters(m_est=2, theta=(1.0,))
    with pytest.raises(ValueError):
        PhaseParameters(m_est=3, theta=(1.0, 1.0, 1.0))


def test_phases_from_fields():
    assert phases_from_fields(FieldVector((1.5,), 2.0)) == (3.0,)
    th1, th2 = phases_from_fields(FieldVector((0.75, 1.25), 1.0))
    assert (th1, th2) == (2.0, -0.5)


def all_switches_config(n, m_est):
    """Every projector on, uniform weights: every weight index is modelled."""
    rows = n // 2 + 1
    return ProtocolConfig(n=n, m_est=m_est, t=1.0, q=(1.0 / rows,) * rows, c_plus=(1,) * rows,
                          c_minus=(1,) * rows, a=n // 2 if m_est == 2 else None)


def test_theta_model_matches_engine(rng):
    # the theta-space model must agree with the omega-space closed form
    configs = [ProtocolConfig.for_two_senders(n, a=a, q0=float(rng.uniform(0.15, 0.85)))
               for n, a in ((5, 2), (6, 3), (9, 4))]
    # a switched-on row with q = 0 (indices 2 and 4), and every switch on
    configs.append(ProtocolConfig(n=9, m_est=2, t=1.0, q=(0.4, 0.0, 0.0, 0.6, 0.0),
                                  c_plus=(1, 0, 0, 1, 1), c_minus=(1, 0, 1, 0, 0), a=3))
    configs += [all_switches_config(10, 2), all_switches_config(11, 2),
                all_switches_config(7, 1)]
    for config in configs:
        model = ThetaModel(config)
        omegas = tuple(sorted(rng.uniform(0.1, 2.8, config.m_est)))
        fields = FieldVector(omegas, t=1.0)
        dist = outcome_distribution(config, fields)
        p = model.probs(phases_from_fields(fields))
        for x, label in enumerate(model.labels):
            assert p[x] == pytest.approx(dist.probs[label], abs=1e-12)


def test_theta_model_weights_are_exact_binomial_ratios():
    # bit-identical to the big-integer quotient, at every modelled index
    for m in (1, 2):
        for n in list(range(5, 41)) + [1001]:
            model = ThetaModel(all_switches_config(n, m))
            assert model._rows == list(range(n // 2 + 1))
            for i in model._rows:
                for l in range(m + 1):
                    expect = (math.comb(n - m, i - l) / math.comb(n, i)
                              if 0 <= i - l <= n - m else 0.0)
                    assert model._w[i, l] == expect


def test_theta_model_keeps_only_switched_rows():
    model = ThetaModel(ProtocolConfig.for_two_senders(1001, a=500, q0=0.33))
    assert model._rows == [0, 500]
    assert model._w.shape == (2, 3)
    assert model._w[1, 1] == math.comb(999, 499) / math.comb(1001, 500)


def test_theta_model_broadcasts():
    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.3)
    model = ThetaModel(config)
    t1 = np.linspace(0.1, 3.0, 11)
    t2 = np.linspace(0.1, 3.0, 7)
    grid = model.probs((t1[:, None], t2[None, :]))
    assert grid.shape == (4, 11, 7)
    assert np.allclose(grid.sum(axis=0), 1.0, atol=1e-12)
    single = model.probs((t1[3], t2[5]))
    assert np.allclose(grid[:, 3, 5], single, atol=1e-14)


def seed_probs(model, theta):
    """ThetaModel.probs on 0-d arrays as first written: the bitwise reference.

    Restated here, independent of the model's stacks and assembly, so that a
    change of operation or order anywhere in the shared code shows up.
    """
    config = model.config
    theta = [np.asarray(t, dtype=float) for t in theta]
    if model.m_est == 1:
        (t1,) = theta
        u = 2 * np.sin(t1 / 4) ** 2
        s = np.sin(t1 / 2)
        u_stack, minus_stack = [u, u], [-2 * s, 2 * s]
    else:
        t1, t2 = theta
        u1 = 2 * np.sin(t1 / 4) ** 2
        s1 = np.sin(t1 / 2)
        u_stack = [u1, 4 * np.sin(t2 / 4) ** 2, u1]
        minus_stack = [-2 * s1, np.zeros(np.shape(t1)), 2 * s1]

    def contract(stack):  # the BLAS call that tensordot made for one point
        return np.dot(model._w, np.array(stack, dtype=float).reshape(-1, 1))[:, 0]

    v = contract(u_stack)
    gamma_m = 0.5 * contract(minus_stack)
    gamma_m = gamma_m * np.array([0.0 if 2 * i == config.n else 1.0 for i in model._rows])
    q = config.q
    rows = []
    for r, i in enumerate(model._rows):
        for sign in (PLUS, MINUS):
            if config.c(i, sign):
                gam = (1.0 - v[r]) if sign == PLUS else gamma_m[r]
                rows.append(q[i] * gam ** 2)
    residual = 0.0
    for r, i in enumerate(model._rows):
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
    return np.array(rows, dtype=float)


def seed_ll_from_probs(p, observed):
    """The refinement's log-likelihood point as first written: the grid formula on 0-d."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
    return float(sum(c * logs[x] for x, c in observed))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_point_path_is_bitwise_equal_to_seed_formula(rng):
    # >= 20 000 random phase vectors plus the corners of [0, pi]^m: the
    # float point path, probs on 0-d arrays and the restated seed formula
    # agree in every bit, and so do the likelihood points built on them
    configs = [ProtocolConfig(n=9, m_est=2, t=1.0, q=(0.4, 0.0, 0.0, 0.6, 0.0),
                              c_plus=(1, 0, 0, 1, 1), c_minus=(1, 0, 1, 0, 0), a=3)]
    for n in range(3, 41):
        configs.append(ProtocolConfig.for_single_sender(n))
        if n >= 5:
            configs.append(ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33))
    # every projector on; at even n the central '-' projector is on but dead
    configs += [all_switches_config(n, 1) for n in (3, 4, 7, 10, 23, 40)]
    configs += [all_switches_config(n, 2) for n in (5, 6, 11, 12, 31, 40)]
    points = 0
    for config in configs:
        model = ThetaModel(config)
        m = config.m_est
        corners = [(0.0,), (math.pi,)] if m == 1 else [
            (0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi)]
        thetas = corners + [tuple(row) for row in rng.uniform(0.0, math.pi, (230, m)).tolist()]
        tallies = rng.integers(0, 3, (len(thetas), len(model.labels))) * 37
        for theta, tally in zip(thetas, tallies):
            ref = seed_probs(model, theta)
            assert bits(model.probs([np.asarray(t) for t in theta])) == bits(ref)
            assert bits(model.point_probs(theta)) == bits(ref)
            observed = [(x, float(c)) for x, c in enumerate(tally) if c > 0]
            got = _point_log_likelihood(model, observed, theta)
            assert bits([got]) == bits([seed_ll_from_probs(ref, observed)])
            points += 1
    assert points >= 20_000


def test_single_sender_fisher_is_unity():
    # unity independent of both the participant count and the phase
    for n in (1, 3, 8, 50):
        config = ProtocolConfig.for_single_sender(n)
        for theta in np.linspace(0.05, math.pi - 0.05, 25):
            res = fisher_matrix(config, PhaseParameters(1, (float(theta),)), N=100)
            assert res.J[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert res.J_inv[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert res.crb_diag[0] == pytest.approx(0.01, abs=1e-12)


def test_two_sender_j11_inverse_is_one_over_q0(rng):
    for _ in range(10):
        q0 = float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(5, 40))
        a = int(rng.integers(2, n // 2 + 1))
        config = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
        theta = (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        res = fisher_matrix(config, PhaseParameters(2, theta))
        assert res.J_inv[0, 0] == pytest.approx(1.0 / q0, abs=1e-10)


def test_finite_difference_agrees_with_analytic(rng):
    for _ in range(20):
        n = int(rng.integers(5, 30))
        config = ProtocolConfig.for_two_senders(n, a=int(rng.integers(2, n // 2 + 1)),
                                                q0=float(rng.uniform(0.15, 0.85)))
        theta = (float(rng.uniform(0.3, 2.9)), float(rng.uniform(0.3, 2.9)))
        params = PhaseParameters(2, theta)
        ja = fisher_matrix(config, params, method=METHOD_ANALYTIC).J
        jf = fisher_matrix(config, params, method=METHOD_FD).J
        assert np.max(np.abs(ja - jf)) / np.max(np.abs(ja)) <= 1e-6


def test_derivatives_match_finite_differences(rng):
    config = ProtocolConfig.for_two_senders(11, a=4, q0=0.4)
    model = ThetaModel(config)
    step = 1e-6
    for _ in range(100):
        theta = rng.uniform(0.3, 2.9, 2)
        dp = model.dprobs(tuple(theta))
        for j in range(2):
            hi, lo = theta.copy(), theta.copy()
            hi[j] += step
            lo[j] -= step
            fd = (model.probs(tuple(hi)) - model.probs(tuple(lo))) / (2 * step)
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(dp[:, j] - fd) / denom) <= 1e-6


def test_removable_zero_probability_is_skipped():
    # at theta = pi the (0,+) outcome hits the removable 0/0; the skip rule
    # drops that summand (no exception), leaving only the ~0 'f' contribution
    config = ProtocolConfig.for_single_sender(5)
    res = fisher_matrix(config, PhaseParameters(1, (math.pi,)))
    assert res.J[0, 0] <= 1e-30
    # one step inside the endpoint the removable point no longer matters
    res = fisher_matrix(config, PhaseParameters(1, (math.pi - 1e-6,)))
    assert res.J[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_zero_probability_with_real_slope_raises(monkeypatch):
    # unreachable for the physical model (p = q*gamma^2 forces dp = 0 at zeros),
    # so force a bad derivative to prove the guard trips
    config = ProtocolConfig.for_single_sender(5)

    def bad_dprobs(self, theta):
        out = np.ones((len(self.labels), 1))
        return out

    monkeypatch.setattr(ThetaModel, "dprobs", bad_dprobs)
    with pytest.raises(SingularTermError):
        fisher_matrix(config, PhaseParameters(1, (math.pi,)))


def test_singular_fisher_at_theta2_zero():
    config = ProtocolConfig.for_two_senders(8, a=4, q0=0.33)
    with pytest.raises(UnidentifiableDirectionError) as err:
        fisher_matrix(config, PhaseParameters(2, (1.2, 0.0)))
    null = err.value.null_vector
    assert abs(abs(null[1]) - 1.0) < 1e-8  # theta2 direction is unidentifiable


def test_closed_form_matches_numeric_inverse():
    # up to figure 3's n = 10^4, both parities
    for n in (5, 6, 10, 100, 1000, 10000, 10001):
        a = n // 2
        for q0 in (0.2, 0.33, 0.5):
            for th1 in (0.3, 1.0, 2.0, 3.0):
                for th2 in (0.3, 1.0, 2.0, 3.0):
                    config = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
                    res = fisher_matrix(config, PhaseParameters(2, (th1, th2)))
                    cf = closed_form_j22(n, a, q0, (th1, th2))
                    assert abs(res.J_inv[1, 1] - cf) / cf <= 1e-6


def test_closed_form_reduces_to_printed_minima():
    # even n, a = n/2: prefactor (1 - 2/n); odd n, a = (n-1)/2: prefactor (1 - 2/(n+1))
    q0, th1, th2 = 0.33, 2.0, 0.5
    s1, s2 = math.sin(th1 / 2), math.sin(th2 / 2)
    cc = math.cos(th1 / 2) * math.cos(th2 / 2)
    for n in (6, 10, 40):
        f = 1 - 2 / n
        expect = (2 * f * (1 - cc) + s2 ** 2 + f ** 2 * s1 ** 2 / q0) / ((1 - q0) * s2 ** 2)
        assert closed_form_j22(n, n // 2, q0, (th1, th2)) == pytest.approx(expect, rel=1e-12)
    for n in (5, 11, 39):
        f = 1 - 2 / (n + 1)
        expect = (2 * f * (1 - cc) + s2 ** 2 + f ** 2 * s1 ** 2 / q0) / ((1 - q0) * s2 ** 2)
        assert closed_form_j22(n, n // 2, q0, (th1, th2)) == pytest.approx(expect, rel=1e-12)


def test_closed_form_matches_expanded_polynomial_form():
    # independent transcription: the same bound with explicit polynomial
    # coefficients in (a, n) instead of the mixing-ratio rewrite
    for n in (5, 6, 10, 37):
        for a in range(2, n // 2 + 1):
            for q0 in (0.2, 0.5, 0.8):
                for th1, th2 in ((0.3, 2.2), (2.0, 0.5), (3.0, 3.0)):
                    big_x = 2 * a * a - 2 * a * n - n + n * n
                    s1, s2 = math.sin(th1 / 2), math.sin(th2 / 2)
                    c1, c2 = math.cos(th1 / 2), math.cos(th2 / 2)
                    expect = (
                        big_x ** 2 * s1 ** 2
                        + 4 * q0 * a * (n - a) * (a * (n - a) * s2 ** 2
                                                  + big_x * (1 - c1 * c2))
                    ) / (4 * a ** 2 * (n - a) ** 2 * (1 - q0) * q0 * s2 ** 2)
                    got = closed_form_j22(n, a, q0, (th1, th2))
                    assert got == pytest.approx(expect, rel=1e-12)


def test_closed_form_preconditions():
    with pytest.raises(ValueError):
        closed_form_j22(4, 2, 0.33, (1.0, 0.5))
    with pytest.raises(ValueError):
        closed_form_j22(10, 6, 0.33, (1.0, 0.5))
    with pytest.raises(ValueError):
        closed_form_j22(10, 5, 1.2, (1.0, 0.5))
    with pytest.raises(DivergenceError):
        closed_form_j22(10, 5, 0.33, (1.0, 0.0))


def test_dilution_bounds():
    assert dilution(5, 2) == pytest.approx(3 / 5)
    assert dilution(6, 3) == pytest.approx(18 / 30)
    assert dilution(10 ** 6, 10 ** 6 // 2) == pytest.approx(0.5, rel=1e-5)


def test_optimal_a_matches_brute_force(rng):
    for n in range(5, 41):
        for _ in range(10):
            q0 = float(rng.uniform(0.1, 0.9))
            theta = (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 3.0)))
            values = {a: closed_form_j22(n, a, q0, theta) for a in range(2, n // 2 + 1)}
            brute = min(values, key=lambda a: (values[a], a))
            assert brute == optimal_a(n) == n // 2
    with pytest.raises(ValueError):
        optimal_a(4)


def test_limit_value_and_convergence():
    value = limit_j22(0.33, (2.0, 0.5))
    assert value == pytest.approx(LIMIT_GOLDEN, rel=1e-12)
    finite = closed_form_j22(10 ** 6, 10 ** 6 // 2, 0.33, (2.0, 0.5))
    assert abs(finite - value) / value <= 1e-3


def test_limit_hand_substitution():
    # theta1 = theta2 = pi, q0 = 1/2: (1 + 0.5*(2 - 0 + 1)) / (0.25 * 1) = 10
    assert limit_j22(0.5, (math.pi, math.pi)) == pytest.approx(10.0, abs=1e-12)


def test_limit_diverges_quadratically_in_theta2():
    # leading order 1/theta2^2: the scaled values stabilize
    c_2 = limit_j22(0.33, (2.0, 1e-2)) * (1e-2) ** 2
    c_3 = limit_j22(0.33, (2.0, 1e-3)) * (1e-3) ** 2
    assert abs(c_2 - c_3) / c_3 <= 2e-4 * 100  # 1e-2 case carries O(theta2^2) corrections
    assert c_3 == pytest.approx(18.29893978110536, rel=1e-4)
    with pytest.raises(DivergenceError):
        limit_j22(0.33, (2.0, 0.0))


def test_scan_grid_order_and_values():
    rows = scan_j22([5, 7], [0.33], [2.0], [0.5, 0.1])
    assert [(r.n, r.theta2) for r in rows] == [(5, 0.5), (5, 0.1), (7, 0.5), (7, 0.1)]
    assert rows[0].j22 == pytest.approx(closed_form_j22(5, 2, 0.33, (2.0, 0.5)), rel=1e-15)
    assert rows[0].a == 2 and rows[2].a == 3
    assert all(r.flag == "ok" for r in rows)
    assert rows[0].log10_j22 == pytest.approx(math.log10(rows[0].j22), abs=1e-15)


def test_scan_flags_divergent_rows():
    rows = scan_j22([6], [0.33], [1.0], [0.0, 0.5])
    assert rows[0].flag == "divergent" and math.isnan(rows[0].j22)
    assert rows[1].flag == "ok"


def test_scan_monotone_in_n_same_parity():
    for th2 in (0.5, 0.1, 0.05):
        rows = scan_j22(list(range(5, 200)), [0.33], [2.0], [th2])
        values = {r.n: r.j22 for r in rows}
        for n in range(5, 198):
            assert values[n + 2] >= values[n] - 1e-9


def test_scan_supports_limit_rows():
    rows = scan_j22([math.inf], [0.33], [2.0], [0.5])
    assert math.isinf(rows[0].n) and rows[0].j22 == pytest.approx(LIMIT_GOLDEN, rel=1e-12)


def test_finite_n_bounded_by_limit():
    for th1 in (0.5, 2.0, 3.0):
        for th2 in (0.5, 0.1):
            lim = limit_j22(0.33, (th1, th2))
            for n in (5, 6, 10, 100, 10 ** 4):
                assert closed_form_j22(n, n // 2, 0.33, (th1, th2)) <= lim + 1e-9


def test_omega_crb_transform():
    config = ProtocolConfig.for_two_senders(10, a=5, q0=0.33)
    res = fisher_matrix(config, PhaseParameters(2, (2.0, 0.5)), N=1000)
    var = omega_crb_diag(res, t=2.0)
    expect = np.array([[1, 1], [1, -1]]) / 4.0 @ (res.J_inv / 1000) @ (np.array([[1, 1], [1, -1]]) / 4.0).T
    assert var[0] == pytest.approx(expect[0, 0], rel=1e-12)
    assert var[1] == pytest.approx(expect[1, 1], rel=1e-12)


def test_fisher_requires_matching_m_est():
    config = ProtocolConfig.for_single_sender(5)
    with pytest.raises(ValueError):
        fisher_matrix(config, PhaseParameters(2, (1.0, 0.5)))
