import math

import numpy as np
import pytest

from anonsense.combinatorics import FieldVector
from anonsense import estimation
from anonsense.configio import dumps_json, estimate_to_dict
from anonsense.engine import ProtocolConfig, outcome_distribution
from anonsense.estimation import (
    REFINE_SWEEPS,
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
    OutcomeCounts(counts={"0+": 3, "f": 1}, N=4)
    with pytest.raises(ValueError):
        OutcomeCounts(counts={"0+": 3}, N=4)
    with pytest.raises(ValueError):
        OutcomeCounts(counts={"0+": -1, "f": 5}, N=4)
    assert OutcomeCounts.from_dict({"0+": 2, "f": 0}).N == 2


def test_log_likelihood_trivial_cases():
    config = ProtocolConfig.for_single_sender(6)
    all_plus = OutcomeCounts.from_dict({"0+": 50})
    assert log_likelihood(all_plus, config, PhaseParameters(1, (0.0,))) == 0.0
    empty = OutcomeCounts.from_dict({})
    assert log_likelihood(empty, config, PhaseParameters(1, (1.2,))) == 0.0


def test_log_likelihood_zero_probability_sentinel():
    config = ProtocolConfig.for_single_sender(6)
    counts = OutcomeCounts.from_dict({"f": 10})
    assert log_likelihood(counts, config, PhaseParameters(1, (0.0,))) == -math.inf


def test_log_likelihood_rejects_unknown_labels():
    config = ProtocolConfig.for_single_sender(6)
    with pytest.raises(ValueError):
        log_likelihood(OutcomeCounts.from_dict({"9+": 1}), config, PhaseParameters(1, (1.0,)))


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
    counts = OutcomeCounts.from_dict({"0+": 400, "0-": 150, "3+": 300, "f": 150})
    monkeypatch.setattr(ThetaModel, "__init__", counting_init)
    report = mle_estimate(counts, config)
    assert len(built) == 1
    assert report.crb_se is not None  # the Fisher matrix ran on that model
    monkeypatch.undo()
    assert report.log_likelihood == log_likelihood(counts, config, report.theta_hat)


def test_refinement_runs_on_float_points(monkeypatch):
    # probs (array set-up) runs for the grid and the Fisher matrix only;
    # every refinement and observed-SE point goes through point_probs
    probs_shapes, points = [], []
    probs, point_probs = ThetaModel.probs, ThetaModel.point_probs

    def counting_probs(self, theta):
        probs_shapes.append(np.shape(theta[0]))
        return probs(self, theta)

    def counting_point_probs(self, theta):
        points.append(tuple(theta))
        return point_probs(self, theta)

    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    counts = OutcomeCounts.from_dict({"0+": 400, "0-": 150, "3+": 300, "f": 150})
    monkeypatch.setattr(ThetaModel, "probs", counting_probs)
    monkeypatch.setattr(ThetaModel, "point_probs", counting_point_probs)
    report = mle_estimate(counts, config)
    assert probs_shapes == [(181, 181), ()]  # the grid, then _fisher_matrix
    assert len(points) > 100
    assert report.crb_se is not None


def seed_ll_point(model, observed, theta):
    """The refinement's likelihood point as first written: the grid formula on 0-d arrays."""
    p = model.probs([np.asarray(t) for t in theta])
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
    return float(sum(c * logs[x] for x, c in observed))


def report_bytes(report):
    return dumps_json(estimate_to_dict(report))


def test_mle_degenerate_counts_on_the_point_path(monkeypatch):
    # all counts on 'f' (m_est 1 and 2) or on '0-' (m_est 2) drive the -inf
    # and boundary branches of the point path: the estimate sits at theta_1 =
    # pi without a crash, and every byte equals the seed's 0-d evaluation
    cases = [(ProtocolConfig.for_single_sender(n), "f") for n in (3, 6, 9)]
    for n in (5, 6, 9):
        config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
        cases += [(config, "f"), (config, "0-")]
    for config, label in cases:
        for N in (1, 50, 100_000):
            counts = OutcomeCounts.from_dict({label: N})
            report = mle_estimate(counts, config)
            with monkeypatch.context() as patch:
                patch.setattr(estimation, "_point_log_likelihood", seed_ll_point)
                assert report_bytes(report) == report_bytes(mle_estimate(counts, config))
            assert report.theta_hat.theta[0] == pytest.approx(math.pi, abs=1e-6)
            assert math.isfinite(report.log_likelihood)
            if config.m_est == 2:
                assert report.flags  # boundary or flat-axis flags, never a crash
            if label == "0-":
                assert not report.converged
                assert "flat likelihood along theta_2" in report.flags


def count_sweeps(monkeypatch):
    calls = []
    golden = estimation._golden_max

    def counting_golden(*args):
        calls.append(args[1:])
        return golden(*args)

    monkeypatch.setattr(estimation, "_golden_max", counting_golden)
    return calls


CAP_FLAG = f"refinement stopped at the {REFINE_SWEEPS}-sweep cap"


def test_mle_flags_the_sweep_cap(monkeypatch):
    # coordinate-wise refinement still moving after the last sweep
    config = ProtocolConfig.for_two_senders(6, a=2, q0=0.238)
    counts = OutcomeCounts.from_dict({"0+": 80, "0-": 152, "2+": 491, "f": 277})
    calls = count_sweeps(monkeypatch)
    report = mle_estimate(counts, config)
    assert len(calls) == 2 * REFINE_SWEEPS
    assert not report.converged
    assert report.flags == (CAP_FLAG,)


def test_mle_converging_refinement_has_no_cap_flag(monkeypatch):
    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    counts = OutcomeCounts.from_dict({"0+": 400, "0-": 150, "3+": 300, "f": 150})
    calls = count_sweeps(monkeypatch)
    report = mle_estimate(counts, config)
    assert len(calls) < 2 * REFINE_SWEEPS
    assert report.converged
    assert CAP_FLAG not in report.flags


def test_mle_all_counts_on_plus():
    config = ProtocolConfig.for_single_sender(5)
    report = mle_estimate(OutcomeCounts.from_dict({"0+": 1000}), config)
    assert report.theta_hat.theta[0] == pytest.approx(0.0, abs=1e-6)
    assert report.converged


def test_mle_matches_binomial_closed_form():
    config = ProtocolConfig.for_single_sender(5)
    for k, N in ((500, 1000), (123, 1000), (901, 1000)):
        counts = OutcomeCounts.from_dict({"0+": k, "f": N - k})
        report = mle_estimate(counts, config)
        assert report.theta_hat.theta[0] == pytest.approx(binomial_mle(k, N), abs=1e-6)


def test_mle_half_split_is_right_angle():
    config = ProtocolConfig.for_single_sender(5)
    report = mle_estimate(OutcomeCounts.from_dict({"0+": 500, "f": 500}), config)
    assert report.theta_hat.theta[0] == pytest.approx(math.pi / 2, abs=1e-6)
    assert report.omega_hat[0] == pytest.approx(math.pi / 2, abs=1e-6)


def test_mle_two_sender_recovery_within_five_se():
    n, a, q0, N = 10, 5, 0.33, 100_000
    truth = (2.0, 0.5)
    config = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
    # truth as omega pair: theta2 = -0.5 even in sign
    fields = FieldVector(((truth[0] - truth[1]) / 2, (truth[0] + truth[1]) / 2), 1.0)
    dist = outcome_distribution(config, fields)
    counts = OutcomeCounts.from_dict(draw_counts(dist, N, philox(12345)))
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
    counts_a = OutcomeCounts.from_dict({"0+": 300, "0-": 200, "3+": 400, "f": 100})
    counts_b = OutcomeCounts.from_dict({"f": 100, "3+": 400, "0-": 200, "0+": 300})
    ra = mle_estimate(counts_a, config)
    rb = mle_estimate(counts_b, config)
    assert ra.theta_hat == rb.theta_hat


def test_likelihood_is_even_in_theta2():
    config = ProtocolConfig.for_two_senders(8, a=4, q0=0.25)
    counts = OutcomeCounts.from_dict({"0+": 10, "0-": 7, "4+": 20, "f": 13})
    for th1, th2 in ((0.4, 1.1), (2.2, 0.6)):
        plus = log_likelihood(counts, config, PhaseParameters(2, (th1, th2)))
        minus = log_likelihood(counts, config, PhaseParameters(2, (th1, -th2)))
        assert plus == minus  # exact: the model depends on theta2 through cos only


def test_mle_rejects_empty_counts():
    config = ProtocolConfig.for_single_sender(5)
    with pytest.raises(ValueError):
        mle_estimate(OutcomeCounts.from_dict({}), config)


def test_mle_flags_flat_axis_and_breaks_ties_low():
    # counts only on the i=0 outcomes carry no theta2 information: the
    # likelihood is flat along that axis and the tie resolves to theta2 = 0
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.4)
    counts = OutcomeCounts.from_dict({"0+": 400, "0-": 600})
    report = mle_estimate(counts, config)
    assert not report.converged
    assert any("theta_2" in flag for flag in report.flags)
    assert report.theta_hat.theta[1] == pytest.approx(0.0, abs=1e-6)
    # theta1 is still identified by the 0+/0- split
    assert report.theta_hat.theta[0] == pytest.approx(2 * math.acos(math.sqrt(0.4)), abs=1e-6)


def test_recover_omegas():
    assert recover_omegas(PhaseParameters(1, (2.0,)), t=2.0) == (1.0,)
    pair = recover_omegas(PhaseParameters(2, (2.0, 0.5)), t=1.0)
    assert pair == pytest.approx((0.75, 1.25))
    # sign of theta2 cannot matter after sorting
    assert recover_omegas(PhaseParameters(2, (2.0, -0.5)), t=1.0) == pytest.approx(pair)
    assert field_flags((0.0,)) != []
    assert field_flags((0.5, 1.0)) == []


def test_recover_omegas_round_trip(rng):
    for _ in range(20):
        omegas = tuple(sorted(rng.uniform(0.1, 3.0, 2)))
        t = float(rng.uniform(0.2, 2.0))
        th1 = (omegas[0] + omegas[1]) * t
        th2 = (omegas[1] - omegas[0]) * t  # estimator convention: theta2 >= 0
        back = recover_omegas(PhaseParameters(2, (th1, th2)), t)
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
        counts = OutcomeCounts.from_dict(draw_counts(dist, N, philox(777, rep)))
        estimates.append(mle_estimate(counts, config).theta_hat.theta[1])
    var = float(np.var(estimates, ddof=1))
    crb = closed_form_j22(n, a, q0, truth) / N
    assert 0.3 * crb <= var <= 5.0 * crb
