import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import reference
from anonsense.combinatorics import FieldVector
from anonsense import cli, estimation
from anonsense.configio import load_counts, parse_run_config
from anonsense.engine import ProtocolConfig, outcome_distribution
from anonsense.estimation import (
    OutcomeCounts,
    field_flags,
    log_likelihood,
    mle_estimate,
    recover_omegas,
)
from anonsense.fisher import (
    PhaseParameters,
    ThetaModel,
    UnidentifiableDirectionError,
    closed_form_j22,
    fisher_matrix,
)
from anonsense.sampling import draw_counts, philox
from test_fisher import all_switches_config

DATA = Path(__file__).parent / "data"


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
    assert OutcomeCounts({"0+": 10**23, "f": 3}).N == 10**23 + 3


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, False, np.True_,
                                 "3", None, [1], pytest.param(10**400, id="10**400")])
def test_outcome_counts_reject_every_non_count_by_label(bad):
    # an infinity, NaN, boolean, non-number or count no float holds is not a
    # tally: one ValueError naming the label, as a counts file gets from
    # configio.load_counts
    with pytest.raises(ValueError, match="count for 'f' must be a nonnegative integer"):
        OutcomeCounts({"0+": 3, "f": bad})


def test_outcome_counts_total_at_most_the_largest_float():
    # the estimator reads the total N as a float, as it reads each count
    big = int(sys.float_info.max)
    assert OutcomeCounts({"0+": big - 1, "f": 1}).N == big
    assert OutcomeCounts({"0+": 10**300, "f": 10**300}).N == 2 * 10**300
    for counts in ({"0+": big, "f": 1}, {"0+": big, "f": big}):
        with pytest.raises(ValueError, match="the counts must total at most the largest float"):
            OutcomeCounts(counts)


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


@pytest.mark.parametrize("estimator", [
    lambda counts, config: log_likelihood(counts, config, PhaseParameters((1.0,))),
    mle_estimate,
], ids=["log_likelihood", "mle_estimate"])
def test_estimators_reject_unknown_labels(estimator):
    config = ProtocolConfig.for_single_sender(6)
    with pytest.raises(ValueError, match="outside the configured outcome set"):
        estimator(OutcomeCounts({"9+": 1}), config)


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
    probs, point_probs, grid = ThetaModel.probs, ThetaModel.point_probs, estimation._grid_log_likelihood

    def counting_probs(self, theta):
        probs_shapes.append(np.shape(theta[0]))
        return probs(self, theta)

    def counting_point_probs(self, theta):
        points.append(tuple(theta))
        return point_probs(self, theta)

    def counting_grid(model, observed, axes):
        grid_shapes.append(np.broadcast(*axes).shape)
        return grid(model, observed, axes)

    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    counts = OutcomeCounts({"0+": 400, "0-": 150, "3+": 300, "f": 150})
    monkeypatch.setattr(ThetaModel, "probs", counting_probs)
    monkeypatch.setattr(ThetaModel, "point_probs", counting_point_probs)
    monkeypatch.setattr(estimation, "_grid_log_likelihood", counting_grid)
    report = mle_estimate(counts, config)
    # the grid evaluates the two best-bounded theta1 rows alone: the next
    # bound is below their maximum
    assert grid_shapes == [(2, 181)]
    assert probs_shapes == []
    assert len(points) <= 50
    assert report.converged
    assert report.crb_se is not None


def full_grid_estimate(counts, config, monkeypatch):
    """mle_estimate with the start formed on the whole grid, as the reference does."""
    with monkeypatch.context() as patch:
        patch.setattr(estimation, "_grid_start", reference.full_grid_start)
        return mle_estimate(counts, config)


def estimate_or_error(estimate, counts, config, *args):
    try:
        return repr(estimate(counts, config, *args))
    except ValueError as err:
        return f"ValueError: {err}"


# explicit weights and switches: the (0,+) projector off, so the labels free
# of theta2 are '-' labels only; i = 0 off altogether; every projector on
EXPLICIT_CONFIGS = [
    ProtocolConfig(n=9, m_est=2, t=1.0, q=(0.4, 0.0, 0.0, 0.6, 0.0),
                   c_plus=(1, 0, 0, 1, 1), c_minus=(1, 0, 1, 0, 0), a=3),
    ProtocolConfig(n=9, m_est=2, t=1.0, q=(0.3, 0.0, 0.0, 0.7, 0.0),
                   c_plus=(0, 0, 0, 1, 1), c_minus=(1, 0, 1, 1, 0), a=3),
    ProtocolConfig(n=10, m_est=2, t=0.7, q=(0.0, 0.0, 0.4, 0.0, 0.0, 0.6),
                   c_plus=(0, 0, 1, 0, 0, 1), c_minus=(0, 0, 1, 0, 1, 0), a=5),
    all_switches_config(40, 2),
]
DESIGN_CONFIGS = [ProtocolConfig.for_two_senders(n, a=a, q0=q0)
                  for n in (5, 6, 7, 9, 12, 40, 300, 3000) for a in sorted({2, n // 2})
                  for q0 in (0.05, 0.33, 0.9)]


@pytest.mark.parametrize("config", DESIGN_CONFIGS + EXPLICIT_CONFIGS,
                         ids=[f"n{c.n}-a{c.a}-q0={c.q[0]}" for c in DESIGN_CONFIGS]
                         + [f"explicit{k}" for k in range(len(EXPLICIT_CONFIGS))])
def test_bounded_start_gives_the_full_grid_estimate(config, monkeypatch):
    # the start from the theta1 rows that can hold the grid maximum leaves
    # every report byte for byte as the whole grid's start does: drawn counts
    # at every N, and all counts on 'f', on (0,+) and (0,-), or on one label;
    # and no theta1 row is evaluated twice, also where the loop goes on past
    # its stop to every row
    evaluated, grid = [], estimation._grid_log_likelihood

    def recording_grid(model, observed, axes):
        evaluated.extend(axes[0].ravel().tolist())
        return grid(model, observed, axes)

    labels = config.labels()
    truth = philox(config.n, len(labels)).uniform(0.05, 1.5, 2).tolist()
    dist = outcome_distribution(config, FieldVector(tuple(truth), config.t))
    for N in (1, 7, 50, 1000, 100_000):
        cases = [draw_counts(dist, N, philox(N, config.n)), {"f": N}]
        if N in (7, 100_000):
            cases.append({"0+": N // 3, "0-": N - N // 3})
            cases += [{label: N} for label in labels[:-1]]
        for tally in cases:
            counts = OutcomeCounts(tally)
            evaluated.clear()
            with monkeypatch.context() as patch:
                patch.setattr(estimation, "_grid_log_likelihood", recording_grid)
                ours = estimate_or_error(mle_estimate, counts, config)
            assert len(set(evaluated)) == len(evaluated)
            assert ours == estimate_or_error(full_grid_estimate, counts, config, monkeypatch)


def test_row_bounds_hold_every_rows_maximum(rng):
    # Gibbs' inequality with NORM_ATOL on the mass of the labels that depend
    # on theta2: no theta1 row of the exact grid exceeds its bound
    axis = np.linspace(0.0, math.pi, estimation.GRID_POINTS)
    grid = np.meshgrid(axis, axis, indexing="ij", sparse=True)
    for _ in range(40):
        n = int(rng.integers(5, 41))
        a = int(rng.integers(2, n // 2 + 1))
        on = rng.random(n // 2 + 1) < 0.5
        on[[0, a]] = rng.random(2) < 0.8
        if not on.any():
            on[a] = True
        c_plus = (on & (rng.random(len(on)) < 0.7)).astype(int)
        c_minus = (on & ~c_plus.astype(bool)) | (on & (rng.random(len(on)) < 0.5))
        q = rng.random(len(on)) * on * (rng.random(len(on)) < 0.9)
        if not q.any():
            q[np.flatnonzero(on)[0]] = 1.0
        config = ProtocolConfig(n=n, m_est=2, t=1.0, q=tuple(q / q.sum()), c_plus=tuple(c_plus),
                                c_minus=tuple(c_minus.astype(int)), a=a)
        model = ThetaModel(config)
        for N in (1, 40, 100_000):
            if rng.random() < 0.5:
                p = np.clip(model.point_probs(rng.uniform(0.0, math.pi, 2).tolist()), 0.0, None)
                tally = rng.multinomial(N, p / p.sum())
            else:
                tally = rng.integers(0, N + 1, len(model.labels)) * (rng.random(len(model.labels)) < 0.6)
            observed = [(x, float(c)) for x, c in enumerate(tally) if c > 0]
            bound = estimation._row_bounds(model, observed, axis)
            if bound is None:
                assert not set(model.labels_free_of(1)) & {x for x, _ in observed}
                continue
            ll = estimation._grid_log_likelihood(model, observed, grid)
            assert np.all(ll.max(axis=1) <= bound)


def test_bounded_start_evaluates_a_few_rows(monkeypatch):
    # theta1 rows of the grid evaluated, counted per grid log-likelihood
    # over the 181-point theta2 axis: at most 4 of 181 for counts drawn at
    # N = 10^5; counts that leave theta2 flat go on from the two rows the
    # stop leaves to the 179 others, 22 at a time, each row once
    rows, grid = [], estimation._grid_log_likelihood

    def counting_grid(model, observed, axes):
        assert axes[1].size == estimation.GRID_POINTS
        rows.append(axes[0].size)
        return grid(model, observed, axes)

    monkeypatch.setattr(estimation, "_grid_log_likelihood", counting_grid)
    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    dist = outcome_distribution(config, FieldVector((0.75, 1.25), 1.0))
    for seed in range(5):
        rows.clear()
        mle_estimate(OutcomeCounts(draw_counts(dist, 100_000, philox(7, seed))), config)
        assert 2 <= sum(rows) <= 4
    rows.clear()
    mle_estimate(OutcomeCounts({"0+": 400, "0-": 600}), ProtocolConfig.for_two_senders(6, a=3, q0=0.4))
    assert rows == [2] + [22] * 8 + [3]  # two rows certify no start: theta2 is flat
    assert sum(rows) == estimation.GRID_POINTS


def test_bounded_start_breaks_ties_toward_the_smallest_theta1(monkeypatch):
    # theta1 rows 40 and 100 share the maximum; row 100 has the larger bound
    # and is evaluated first, yet the start is row 40's, as on the whole grid
    axis = np.linspace(0.0, math.pi, estimation.GRID_POINTS)
    rows = np.arange(len(axis))
    grid = -10.0 * np.minimum(abs(rows - 40), abs(rows - 100))[:, None] - np.outer(rows > 40, rows)
    bound = grid.max(axis=1) + 0.5 * (rows == 100)
    evaluated = []

    def fake_grid(model, observed, axes):
        evaluated.append(np.searchsorted(axis, axes[0].ravel()).tolist())
        return grid[evaluated[-1]]

    monkeypatch.setattr(estimation, "_row_bounds", lambda model, observed, axis: bound)
    monkeypatch.setattr(estimation, "_grid_log_likelihood", fake_grid)
    two_senders = types.SimpleNamespace(m_est=2)
    assert estimation._grid_start(two_senders, [], axis, 1) == ([axis[40], 0.0], [])
    assert evaluated == [[100, 40]]
    assert np.argmax(grid) == 40 * len(axis)  # the whole grid's row-major argmax


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


def test_estimate_reaches_the_global_maximum():
    # the grid start and the refinement reach the likelihood's global maximum
    # over [0, pi]^2, found without the 181^2 grid: on the n = 7 misfit counts,
    # on 60 count sets drawn at n = 10, 12 and 40 with N from 10^2 to 10^5,
    # and on counts that leave theta2 flat, where only the likelihood is
    # defined and the two maxima may sit at different theta2
    cases = []
    for counts_file, run_file in (("counts_misfit_m2.json", "run_n7.json"),
                                  ("counts_flat_m2.json", "run_n5.json")):
        counts = load_counts(json.loads((DATA / counts_file).read_text()))
        config = parse_run_config(json.loads((DATA / run_file).read_text()), require_scenario=False)
        cases.append((counts.counts, config["config"]))
    for n in (10, 12, 40):
        config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
        for k in range(20):
            draws = philox(n, k)
            fields = FieldVector(tuple(sorted(draws.uniform(0.05, 1.5, 2))), 1.0)
            N = int(10 ** draws.uniform(2, 5))
            cases.append((draw_counts(outcome_distribution(config, fields), N, draws), config))
    assert len(cases) == 62
    for counts, config in cases:
        ll, _ = reference.global_max_log_likelihood(counts, config)
        report = mle_estimate(OutcomeCounts(counts), config)
        assert abs(report.log_likelihood - ll) <= 1e-9 * abs(ll)


def test_estimate_takes_the_derivatives_at_the_estimate_once(monkeypatch):
    # scoring forms the first derivatives once per accepted theta, the
    # observed information the first and second at the estimate, and the
    # Fisher matrix reuses those: no (theta, order) pair is evaluated twice
    calls = []
    derivatives = ThetaModel.derivatives

    def counting_derivatives(self, theta, second=False):
        calls.append((tuple(float(t) for t in theta), second))
        return derivatives(self, theta, second)

    monkeypatch.setattr(ThetaModel, "derivatives", counting_derivatives)
    cases = [(ProtocolConfig.for_two_senders(7, a=3, q0=0.33),
              {"0+": 400, "0-": 150, "3+": 300, "f": 150}),
             (ProtocolConfig.for_single_sender(5), {"0+": 3, "f": 2})]
    for config, counts in cases:
        calls.clear()
        report = mle_estimate(OutcomeCounts(counts), config)
        assert report.crb_se is not None
        assert calls[-1] == (report.theta_hat.theta, True)
        assert len(calls) == len(set(calls))


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


def stencil_information(model, observed, theta, step=1e-4):
    """The observed information as first computed: a 9-point difference
    stencil of the log-likelihood with step 1e-4."""
    m = len(theta)

    def ll(point):
        return estimation._scored(model, observed, point)[0]

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
            observed = estimation._observed(OutcomeCounts(dict(zip(model.labels, tally.tolist()))),
                                            model)
            N = sum(c for _, c in observed)
            freq = [(x, c / N) for x, c in observed]
            info = N * np.array(estimation._observed_information(
                freq, model.point_probs(theta), *model.derivatives(theta, second=True)))
            ref = stencil_information(model, observed, theta)
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


def test_simulate_and_estimate_run_no_lapack_routine(tmp_path, monkeypatch):
    # the estimator's and the Fisher matrix's 1x1 and 2x2 algebra is closed
    # form: with numpy.linalg's solve, eigh, inv, matrix_rank and svd made to
    # raise, the goldens come out byte for byte, the misfit, flat and
    # degenerate counts (every count on 'f' or '0-': the -inf, edge and 0/0
    # branches) estimate, and fisher_matrix takes every branch
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("solve", "eigh", "inv", "matrix_rank", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    goldens = Path(__file__).parent / "goldens"
    out = tmp_path / "out.json"
    assert cli.main(["simulate", "--config", str(DATA / "run_n5.json"), "--out", str(out)]) == 0
    assert out.read_text() == (goldens / "transcript_n5.json").read_text()
    assert cli.main(["estimate", "--counts", str(DATA / "counts_m1.json"),
                     "--config", str(DATA / "run_m1.json"), "--out", str(out)]) == 0
    assert out.read_text() == (goldens / "estimate_m1.json").read_text()
    runs = [(DATA / "counts_misfit_m2.json", "run_n7.json"), (DATA / "counts_flat_m2.json", "run_n5.json"),
            (DATA / "counts_float_max_m1.json", "run_m1.json")]
    for label, run in (("f", "run_m1.json"), ("f", "run_n5.json"), ("0-", "run_n5.json")):
        degenerate = tmp_path / f"{label}_{run}"
        degenerate.write_text(json.dumps({"counts": {label: 1000}}))
        runs.append((degenerate, run))
    for counts, run in runs:
        assert cli.main(["estimate", "--counts", str(counts),
                         "--config", str(DATA / run), "--out", str(out)]) == 0
        assert all(math.isfinite(t) for t in json.loads(out.read_text())["theta_hat"])
    two = ProtocolConfig.for_two_senders(12, a=6, q0=0.33)
    assert fisher_matrix(two, PhaseParameters((1.2, 0.7)), N=100).crb_diag[1] > 0.0
    assert fisher_matrix(two, PhaseParameters((math.pi, math.pi))).J.shape == (2, 2)  # 0/0 summands
    assert fisher_matrix(ProtocolConfig.for_single_sender(5), PhaseParameters((math.pi,))).J[0, 0] == 1.0
    with pytest.raises(UnidentifiableDirectionError):
        fisher_matrix(two, PhaseParameters((1.2, 0.0)))
