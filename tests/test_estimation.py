import math

import numpy as np
import pytest

from anonsense.combinatorics import FieldVector
from anonsense import engine, estimation
from anonsense.engine import ProtocolConfig, outcome_distribution
from anonsense.estimation import (
    OutcomeCounts,
    field_flags,
    log_likelihood,
    mle_estimate,
    recover_omegas,
)
from anonsense.fisher import PhaseParameters, ThetaModel, closed_form_j22
from anonsense.sampling import draw_counts, philox


def binomial_mle(k, N):
    """Analytic argmax of cos^2(theta/2)^k * sin^2(theta/2)^(N-k) on [0, pi]."""
    return 2 * math.acos(math.sqrt(k / N))


def test_outcome_counts_validation():
    assert OutcomeCounts({"0+": 3, "f": 1}).N == 4
    with pytest.raises(ValueError):
        OutcomeCounts({"0+": -1, "f": 5})
    with pytest.raises(ValueError):
        OutcomeCounts({"0+": 2.5, "f": 1})
    assert OutcomeCounts({"0+": 2, "f": 0}).N == 2
    assert OutcomeCounts({"0+": 2.0, "f": np.int64(3)}).N == 5


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, False, np.True_])
def test_outcome_counts_reject_every_non_count_by_label(bad):
    # an infinity, NaN or boolean is not a tally: one ValueError naming the
    # label, as a counts file gets from configio.load_counts
    with pytest.raises(ValueError, match="count for 'f' must be a nonnegative integer"):
        OutcomeCounts({"0+": 3, "f": bad})


def test_log_likelihood_trivial_cases():
    config = ProtocolConfig.for_single_sender(6)
    all_plus = OutcomeCounts({"0+": 50})
    assert log_likelihood(all_plus, config, PhaseParameters((0.0,))) == 0.0
    empty = OutcomeCounts({})
    assert log_likelihood(empty, config, PhaseParameters((1.2,))) == 0.0


def test_log_likelihood_zero_probability_sentinel():
    config = ProtocolConfig.for_single_sender(6)
    counts = OutcomeCounts({"f": 10})
    assert log_likelihood(counts, config, PhaseParameters((0.0,))) == -math.inf


def test_log_likelihood_rejects_unknown_labels():
    config = ProtocolConfig.for_single_sender(6)
    with pytest.raises(ValueError):
        log_likelihood(OutcomeCounts({"9+": 1}), config, PhaseParameters((1.0,)))


def test_single_sender_likelihood_is_unimodal():
    # grid evaluation at 10^4 points: one sign change in the discrete slope
    config = ProtocolConfig.for_single_sender(4)
    thetas = np.linspace(1e-4, math.pi - 1e-4, 10_000)
    model = ThetaModel(config)
    p = model.probs((thetas,))
    for k, N in ((250, 1000), (500, 1000), (999, 1000)):
        ll = k * np.log(p[0]) + (N - k) * np.log(p[1])
        slope_signs = np.sign(np.diff(ll))
        changes = np.count_nonzero(np.diff(slope_signs) != 0)
        assert changes <= 1


def test_mle_builds_one_model(monkeypatch):
    built = []
    init = ThetaModel.__init__

    def counting_init(self, config):
        built.append(config)
        init(self, config)

    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    counts = OutcomeCounts({"0+": 400, "0-": 150, "3+": 300, "f": 150})
    monkeypatch.setattr(ThetaModel, "__init__", counting_init)
    report = mle_estimate(counts, config)
    assert len(built) == 1
    assert report.crb_se is not None  # the Fisher matrix ran on that model
    monkeypatch.undo()
    assert report.log_likelihood == log_likelihood(counts, config, report.theta_hat)


def test_refinement_runs_on_float_points(monkeypatch):
    # probs (array set-up) never runs: the grid walks its axes block by block
    # and the Fisher matrix takes the probabilities the refinement holds; the
    # scoring iterations evaluate a few float points, far fewer than the
    # hundreds a derivative-free line search needs
    probs_shapes, points, grid_shapes = [], [], []
    probs, point_probs, contract = ThetaModel.probs, ThetaModel.point_probs, engine._contract

    def counting_probs(self, theta):
        probs_shapes.append(np.shape(theta[0]))
        return probs(self, theta)

    def counting_point_probs(self, theta):
        points.append(tuple(theta))
        return point_probs(self, theta)

    def counting_contract(w, stack, shape=None):
        out = contract(w, stack, shape)
        if out.ndim > 1:  # a point's contraction is one column, shape (rows,)
            grid_shapes.append(out.shape[1:])
        return out

    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    counts = OutcomeCounts({"0+": 400, "0-": 150, "3+": 300, "f": 150})
    monkeypatch.setattr(ThetaModel, "probs", counting_probs)
    monkeypatch.setattr(ThetaModel, "point_probs", counting_point_probs)
    monkeypatch.setattr(engine, "_contract", counting_contract)
    report = mle_estimate(counts, config)
    # gamma- once on the theta1 axis, then the versine stack in blocks of
    # 4096 // 181 = 22 theta1 rows (181 = 8 * 22 + 5)
    assert grid_shapes == [(181, 1)] + [(22, 181)] * 8 + [(5, 181)]
    assert probs_shapes == []
    assert len(points) <= 50
    assert report.converged
    assert report.crb_se is not None


def test_refinement_evaluates_each_theta_once(monkeypatch):
    # one point_probs call per phase vector the refinement visits: the
    # log-likelihood, the score and the observed information share it
    points = []
    point_probs = ThetaModel.point_probs

    def counting_point_probs(self, theta):
        points.append(tuple(theta))
        return point_probs(self, theta)

    monkeypatch.setattr(ThetaModel, "point_probs", counting_point_probs)
    cases = [(ProtocolConfig.for_two_senders(7, a=3, q0=0.33),
              {"0+": 400, "0-": 150, "3+": 300, "f": 150}),
             (ProtocolConfig.for_two_senders(6, a=3, q0=0.33), {"0+": 700, "0-": 300})]
    for config, counts in cases:
        points.clear()
        mle_estimate(OutcomeCounts(counts), config)
        assert len(points) > 2
        assert len(points) == len(set(points))

def test_mle_degenerate_counts_on_the_point_path():
    # all counts on 'f' (m_est 1 and 2) or on '0-' (m_est 2) drive the -inf
    # and boundary branches of the point path: the estimate sits at theta_1 =
    # pi without a crash
    cases = [(ProtocolConfig.for_single_sender(n), "f") for n in (3, 6, 9)]
    for n in (5, 6, 9):
        config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
        cases += [(config, "f"), (config, "0-")]
    for config, label in cases:
        for N in (1, 50, 100_000):
            counts = OutcomeCounts({label: N})
            report = mle_estimate(counts, config)
            assert report.theta_hat.theta[0] == pytest.approx(math.pi, abs=1e-6)
            assert math.isfinite(report.log_likelihood)
            if config.m_est == 1:  # the 0/0 summand at pi is its limit: J = 1
                assert report.crb_se == pytest.approx((1 / math.sqrt(N),), rel=1e-12)
            if config.m_est == 2:
                assert report.flags  # boundary or flat-axis flags, never a crash
            if label == "0-":
                assert not report.converged
                assert "flat likelihood along theta_2" in report.flags


def test_mle_converges_where_coordinate_search_zigzagged():
    # coordinate-wise golden-section search stopped at its 60-sweep cap on
    # these counts (LL -1193.3562273034631); scoring follows the ridge
    config = ProtocolConfig.for_two_senders(6, a=2, q0=0.238)
    counts = OutcomeCounts({"0+": 80, "0-": 152, "2+": 491, "f": 277})
    report = mle_estimate(counts, config)
    assert report.converged
    assert report.flags == ()
    assert report.log_likelihood >= -1193.3562273034631


def test_mle_escapes_the_theta2_saddle():
    # the grid argmax lies on theta2 = 0, where the evenness in theta2 makes
    # the score vanish: scoring alone stops there, 0.26 nats below the
    # maximum; the observed information's negative eigenvalue leads off it
    config = ProtocolConfig.for_two_senders(14, a=2, q0=0.33)
    counts = OutcomeCounts({"0+": 3428, "0-": 46500, "2+": 10358, "f": 39714})
    report = mle_estimate(counts, config)
    assert report.theta_hat.theta[1] > 0.2
    assert report.log_likelihood >= -113420.98176207577  # coordinate search's value
    assert report.converged
    assert report.flags == ()


def stencil_information(model, counts, theta, step=1e-4):
    """The observed information as first computed: a 9-point difference
    stencil of the log-likelihood with step 1e-4."""
    m = len(theta)

    def ll(point):
        return estimation._scored(counts, model, point)[0]

    H = np.zeros((m, m))
    f0 = ll(theta)
    for i in range(m):
        ei = [0.0] * m
        ei[i] = step
        fp = ll([t + d for t, d in zip(theta, ei)])
        fm = ll([t - d for t, d in zip(theta, ei)])
        H[i, i] = (fp - 2.0 * f0 + fm) / step ** 2
        for j in range(i + 1, m):
            ej = [0.0] * m
            ej[j] = step
            fpp = ll([t + a + b for t, a, b in zip(theta, ei, ej)])
            fpm = ll([t + a - b for t, a, b in zip(theta, ei, ej)])
            fmp = ll([t - a + b for t, a, b in zip(theta, ei, ej)])
            fmm = ll([t - a - b for t, a, b in zip(theta, ei, ej)])
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step ** 2)
    return -H


def test_observed_information_matches_difference_stencil(rng):
    configs = [ProtocolConfig(n=9, m_est=2, t=1.0, q=(0.4, 0.0, 0.0, 0.6, 0.0),
                              c_plus=(1, 0, 0, 1, 1), c_minus=(1, 0, 1, 0, 0), a=3)]
    for n in (3, 8, 25, 1000):
        configs.append(ProtocolConfig.for_single_sender(n))
    for n in (5, 12, 101, 1000):
        configs.append(ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33))
        configs.append(ProtocolConfig.for_two_senders(n, a=2, q0=0.238))
    for config in configs:
        model = ThetaModel(config)
        for _ in range(8):
            theta = rng.uniform(0.05, math.pi - 0.05, config.m_est).tolist()
            # no counts on a label of structurally zero probability (q[i] = 0)
            tally = rng.integers(1, 1000, len(model.labels)) * (np.array(model.point_probs(theta)) > 0)
            counts = OutcomeCounts(dict(zip(model.labels, tally.tolist())))
            info = estimation._observed_information(model, tally.astype(float), theta,
                                                   model.point_probs(theta))
            ref = stencil_information(model, counts, theta)
            assert np.max(np.abs(info - ref)) <= 1e-5 * np.max(np.abs(ref))


EDGE_FLAG = "within 1e-06 of the domain edge 0 or pi"


def test_mle_flags_an_estimate_at_the_domain_edge():
    # every count on 'f' drives both phases to the corner (pi, pi), where
    # the log-likelihood's curvature degenerates: the observed information
    # is not positive definite, and no standard error is reported
    config = ProtocolConfig.for_two_senders(12, a=6, q0=0.33)
    report = mle_estimate(OutcomeCounts({"f": 1000}), config)
    assert report.theta_hat.theta == pytest.approx((math.pi, math.pi), abs=1e-6)
    assert all(math.isnan(se) for se in report.se_estimate)
    assert "observed information not positive definite at the estimate" in report.flags
    edge = [flag for flag in report.flags if EDGE_FLAG in flag]
    assert edge == [f"theta_1 and theta_2 {EDGE_FLAG}: the observed-information "
                    f"standard errors are unreliable"]
    # one component at the edge names only that component
    single = mle_estimate(OutcomeCounts({"0+": 1000}), ProtocolConfig.for_single_sender(5))
    assert [flag for flag in single.flags if EDGE_FLAG in flag] == [
        f"theta_1 {EDGE_FLAG}: the observed-information standard errors are unreliable"]
    # an interior estimate carries no such flag
    interior = mle_estimate(OutcomeCounts({"0+": 400, "0-": 150, "3+": 300, "f": 150}),
                            ProtocolConfig.for_two_senders(7, a=3, q0=0.33))
    assert not any(EDGE_FLAG in flag for flag in interior.flags)


def test_mle_all_counts_on_plus():
    config = ProtocolConfig.for_single_sender(5)
    report = mle_estimate(OutcomeCounts({"0+": 1000}), config)
    assert report.theta_hat.theta[0] == pytest.approx(0.0, abs=1e-6)
    assert report.converged


def test_mle_matches_binomial_closed_form():
    config = ProtocolConfig.for_single_sender(5)
    for k, N in ((500, 1000), (123, 1000), (901, 1000)):
        counts = OutcomeCounts({"0+": k, "f": N - k})
        report = mle_estimate(counts, config)
        assert report.theta_hat.theta[0] == pytest.approx(binomial_mle(k, N), abs=1e-6)


def test_mle_half_split_is_right_angle():
    config = ProtocolConfig.for_single_sender(5)
    report = mle_estimate(OutcomeCounts({"0+": 500, "f": 500}), config)
    assert report.theta_hat.theta[0] == pytest.approx(math.pi / 2, abs=1e-6)
    assert report.omega_hat[0] == pytest.approx(math.pi / 2, abs=1e-6)


def test_mle_two_sender_recovery_within_five_se():
    n, a, q0, N = 10, 5, 0.33, 100_000
    truth = (2.0, 0.5)
    config = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
    # truth as omega pair: theta2 = -0.5 even in sign
    fields = FieldVector(((truth[0] - truth[1]) / 2, (truth[0] + truth[1]) / 2), 1.0)
    dist = outcome_distribution(config, fields)
    counts = OutcomeCounts(draw_counts(dist, N, philox(12345)))
    report = mle_estimate(counts, config)
    se2 = math.sqrt(closed_form_j22(n, a, q0, truth) / N)
    config_res = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
    assert abs(report.theta_hat.theta[1] - truth[1]) <= 5 * se2
    se1 = math.sqrt((1 / q0) / N)
    assert abs(report.theta_hat.theta[0] - truth[0]) <= 5 * se1
    assert report.converged
    assert report.crb_se is not None


def test_mle_equivariant_under_label_order():
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.4)
    counts_a = OutcomeCounts({"0+": 300, "0-": 200, "3+": 400, "f": 100})
    counts_b = OutcomeCounts({"f": 100, "3+": 400, "0-": 200, "0+": 300})
    ra = mle_estimate(counts_a, config)
    rb = mle_estimate(counts_b, config)
    assert ra.theta_hat == rb.theta_hat


def test_likelihood_is_even_in_theta2():
    config = ProtocolConfig.for_two_senders(8, a=4, q0=0.25)
    counts = OutcomeCounts({"0+": 10, "0-": 7, "4+": 20, "f": 13})
    for th1, th2 in ((0.4, 1.1), (2.2, 0.6)):
        plus = log_likelihood(counts, config, PhaseParameters((th1, th2)))
        minus = log_likelihood(counts, config, PhaseParameters((th1, -th2)))
        assert plus == minus  # exact: the model depends on theta2 through cos only


def test_mle_rejects_empty_counts():
    config = ProtocolConfig.for_single_sender(5)
    with pytest.raises(ValueError):
        mle_estimate(OutcomeCounts({}), config)


def test_mle_flags_flat_axis_and_breaks_ties_low():
    # counts only on the i=0 outcomes carry no theta2 information: the
    # likelihood is flat along that axis and the tie resolves to theta2 = 0
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.4)
    counts = OutcomeCounts({"0+": 400, "0-": 600})
    report = mle_estimate(counts, config)
    assert not report.converged
    assert any("theta_2" in flag for flag in report.flags)
    assert report.theta_hat.theta[1] == pytest.approx(0.0, abs=1e-6)
    # theta1 is still identified by the 0+/0- split
    assert report.theta_hat.theta[0] == pytest.approx(2 * math.acos(math.sqrt(0.4)), abs=1e-6)


def test_recover_omegas():
    assert recover_omegas(PhaseParameters((2.0,)), t=2.0) == (1.0,)
    pair = recover_omegas(PhaseParameters((2.0, 0.5)), t=1.0)
    assert pair == pytest.approx((0.75, 1.25))
    # sign of theta2 cannot matter after sorting
    assert recover_omegas(PhaseParameters((2.0, -0.5)), t=1.0) == pytest.approx(pair)
    assert field_flags((0.0,)) != []
    assert field_flags((0.5, 1.0)) == []


def test_recover_omegas_round_trip(rng):
    for _ in range(20):
        omegas = tuple(sorted(rng.uniform(0.1, 3.0, 2)))
        t = float(rng.uniform(0.2, 2.0))
        th1 = (omegas[0] + omegas[1]) * t
        th2 = (omegas[1] - omegas[0]) * t  # estimator convention: theta2 >= 0
        back = recover_omegas(PhaseParameters((th1, th2)), t)
        assert back == pytest.approx(omegas, rel=1e-12)


def test_estimator_variance_tracks_crb_small():
    # light version of the consistency experiment (full size in acceptance)
    n, a, q0, N, reps = 10, 5, 0.33, 20_000, 60
    truth = (2.0, 0.5)
    config = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
    fields = FieldVector(((truth[0] - truth[1]) / 2, (truth[0] + truth[1]) / 2), 1.0)
    dist = outcome_distribution(config, fields)
    estimates = []
    for rep in range(reps):
        counts = OutcomeCounts(draw_counts(dist, N, philox(777, rep)))
        estimates.append(mle_estimate(counts, config).theta_hat.theta[1])
    var = float(np.var(estimates, ddof=1))
    crb = closed_form_j22(n, a, q0, truth) / N
    assert 0.3 * crb <= var <= 5.0 * crb
