import dataclasses
import itertools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference
from anonsense.combinatorics import PLUS, FieldVector
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
from anonsense.protocol import run_protocol
from anonsense.sampling import draw_counts, philox
from anonsense.statevec import SenderAssignment, conditional_distributions
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
    # probs (array set-up) never runs: the design's start is its closed form,
    # so no grid is evaluated, and the Fisher matrix takes the probabilities
    # the refinement holds; the scoring iterations evaluate a few float
    # points, far fewer than the hundreds a derivative-free line search needs
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
    assert grid_shapes == []
    assert probs_shapes == []
    assert len(points) <= 50
    assert report.converged
    assert report.crb_se is not None


def grid_path_estimate(counts, config, monkeypatch):
    """mle_estimate with the start taken from the grid, on a design too."""
    with monkeypatch.context() as patch:
        patch.setattr(estimation, "_design_start", lambda model, observed: None)
        return mle_estimate(counts, config)


def full_grid_estimate(counts, config, monkeypatch):
    """mle_estimate with the start formed on the whole grid at once, as the reference does."""
    with monkeypatch.context() as patch:
        patch.setattr(estimation, "_grid_start", reference.full_grid_start)
        return grid_path_estimate(counts, config, patch)


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


SINGLE_SENDER_DESIGNS = [ProtocolConfig.for_single_sender(n) for n in (1, 2, 5, 6, 101)]


def count_sets(config):
    """Counts drawn from seeded fields at N = 1 to 10^5, and all counts on
    'f', on (0,+) and (0,-), or on one label."""
    labels = config.labels()
    truth = philox(config.n, len(labels)).uniform(0.05, 1.5, config.m_est).tolist()
    dist = outcome_distribution(config, FieldVector(tuple(truth), config.t))
    for N in (1, 7, 50, 1000, 100_000):
        yield draw_counts(dist, N, philox(N, config.n))
        yield {"f": N}
        if N in (7, 100_000):
            if config.m_est == 2:
                yield {"0+": N // 3, "0-": N - N // 3}
            yield from ({label: N} for label in labels[:-1])


@pytest.mark.parametrize("config", DESIGN_CONFIGS + EXPLICIT_CONFIGS,
                         ids=[f"n{c.n}-a{c.a}-q0={c.q[0]}" for c in DESIGN_CONFIGS]
                         + [f"explicit{k}" for k in range(len(EXPLICIT_CONFIGS))])
def test_bounded_start_gives_the_full_grid_estimate(config, monkeypatch):
    # the grid start, in products of theta1 rows bounded in size, leaves every
    # report byte for byte as the start from the whole grid at once does, on
    # a design's grid path too; a pass over the grid, keyed by the observed
    # list object it scores, evaluates each theta1 row once, in axis order, and
    # so does the second pass that tells an error's cause (a count of 1 per label)
    passes, grid = {}, estimation._grid_log_likelihood

    def recording_grid(model, observed, axes):
        passes.setdefault(id(observed), []).extend(axes[0].ravel().tolist())
        return grid(model, observed, axes)

    for tally in count_sets(config):
        counts = OutcomeCounts(tally)
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(estimation, "_grid_log_likelihood", recording_grid)
            ours = estimate_or_error(grid_path_estimate, counts, config, patch)
        assert all(rows == estimation._AXIS.tolist() for rows in passes.values())
        # an error comes before the grid (a label the config lacks) or after both passes
        assert len(passes) in ((0, 2) if ours.startswith("ValueError") else (1,))
        assert ours == estimate_or_error(full_grid_estimate, counts, config, monkeypatch)


def without_digits(flags):
    return [re.sub(r"-?[0-9][0-9.e+-]*", "#", flag) for flag in flags]


@pytest.mark.parametrize("config", DESIGN_CONFIGS + SINGLE_SENDER_DESIGNS,
                         ids=[f"n{c.n}-a{c.a}-q0={c.q[0]}" for c in DESIGN_CONFIGS]
                         + [f"n{c.n}-one-sender" for c in SINGLE_SENDER_DESIGNS])
def test_design_start_keeps_the_grid_path_estimate(config, monkeypatch):
    # on the paper's designs the refinement starts at the closed-form
    # maximum; against the grid path's estimate the flags differ at most in
    # their digits, convergence and errors are the same, the log-likelihood
    # is never lower by more than 1e-12 * max(|ll|, 1) (5.6e-15 seen) and
    # theta by at most 1e-5 (1.2e-6 seen)
    for tally in count_sets(config):
        counts = OutcomeCounts(tally)
        ours = estimate_or_error(mle_estimate, counts, config)
        try:
            grid = grid_path_estimate(counts, config, monkeypatch)
        except ValueError as err:
            assert ours == f"ValueError: {err}"
            continue
        report = mle_estimate(counts, config)
        assert without_digits(report.flags) == without_digits(grid.flags)
        assert report.converged == grid.converged
        assert report.log_likelihood >= grid.log_likelihood - 1e-12 * max(abs(grid.log_likelihood), 1.0)
        assert report.theta_hat.theta == pytest.approx(grid.theta_hat.theta, abs=1e-5)


def test_design_start_leaves_other_configs_to_the_grid():
    # for two senders the closed form is keyed on the outcome set: with any
    # other projector on, whatever the counts, the start is the grid's
    idle = with_idle_projector(ProtocolConfig.for_two_senders(7, a=3, q0=0.33), 1)
    for config in EXPLICIT_CONFIGS + [idle]:
        model = ThetaModel(config)
        for tally in count_sets(config):
            if set(tally) <= set(model.labels):
                observed = estimation._observed(OutcomeCounts(tally), model)
                assert estimation._design_start(model, observed) is None


# configs on which 'f' is impossible: index 0's projectors (0,+) and (0,-)
# span its space and leave no residual, and no other index has weight
F_FREE_CONFIGS = [
    ProtocolConfig.for_two_senders(5, a=2, q0=1.0),
    ProtocolConfig(n=5, m_est=1, t=1.0, q=(1.0, 0.0, 0.0), c_plus=(1, 0, 0), c_minus=(1, 0, 0)),
]


@pytest.mark.parametrize("config", F_FREE_CONFIGS, ids=["design-q_a=0", "one-sender-0-on"])
def test_f_count_on_an_f_free_config_is_inconsistent(config):
    # P(f) is exactly 0 at every phase, on the point and the grid path, so a
    # count on 'f' is inconsistent with the configuration
    model = ThetaModel(config)
    axis = np.linspace(0.0, math.pi, 181)
    grid = np.meshgrid(*[axis] * config.m_est, indexing="ij", sparse=True)
    assert not model.probs(grid)[-1].any()
    for theta in itertools.product(axis.tolist(), repeat=config.m_est):
        assert model.point_probs(theta)[-1] == 0.0
    for tally in ({"0+": 30, "0-": 20, "f": 1}, {"0+": 3, "f": 1}, {"f": 5}):
        with pytest.raises(ValueError, match="counts are inconsistent with the configuration"):
            mle_estimate(OutcomeCounts(tally), config)
    # without the count on 'f', theta1 is the binomial's in (0,+) and (0,-)
    report = mle_estimate(OutcomeCounts({"0+": 30, "0-": 20}), config)
    assert report.theta_hat.theta[0] == pytest.approx(binomial_mle(30, 50), abs=1e-9)


F_FREE_ASSIGNMENTS = [SenderAssignment(5, (1, 2), FieldVector((1.1, 1.25), 1.0)),
                      SenderAssignment(5, (3,), FieldVector((0.3,), 1.0))]


@pytest.mark.parametrize("config", F_FREE_CONFIGS, ids=["design-q_a=0", "one-sender-0-on"])
def test_f_free_conditionals_give_f_exactly_zero(config):
    # the simulator reads the kernel's rule: initial state 0 with (0,+) and
    # (0,-) on gives 'f' exactly 0, not 1 minus its labels' sum (up to 3.3e-16)
    rng = np.random.default_rng(4242)
    for _ in range(2000):
        positions = tuple(sorted(rng.choice(np.arange(1, 6), config.m_est, replace=False).tolist()))
        fields = FieldVector(tuple(rng.uniform(0.05, 3.0, config.m_est).tolist()), 1.0)
        conditionals = conditional_distributions(SenderAssignment(5, positions, fields), config)
        assert conditionals[0].probs["f"] == 0.0


@pytest.mark.parametrize("config, assign", zip(F_FREE_CONFIGS, F_FREE_ASSIGNMENTS),
                         ids=["design-q_a=0", "one-sender-0-on"])
def test_f_free_run_draws_no_f_count(config, assign):
    # 2^62 rounds, where 'f' rounded up to a few ulp would draw counts that
    # the estimate refuses as inconsistent
    transcript = run_protocol(assign, config, rounds=2**62, seed=1)
    assert transcript.counts["f"] == 0
    assert sum(transcript.counts.values()) == 2**62


def test_general_config_run_estimates_from_the_grid(tmp_path, monkeypatch):
    # the CI's general config (weights on i = 0, 2 and 5, (2,-) on) has no
    # closed form: estimate starts from the grid's argmax, formed in 9
    # products of theta1 rows, and reaches the likelihood's global maximum
    products, grid = [], estimation._grid_log_likelihood

    def counting_grid(model, observed, axes):
        products.append(axes[0].size)
        return grid(model, observed, axes)

    monkeypatch.setattr(estimation, "_grid_log_likelihood", counting_grid)
    out = tmp_path / "estimate.json"
    assert cli.main(["estimate", "--counts", str(DATA / "counts_general_m2.json"),
                     "--config", str(DATA / "run_n10_general.json"), "--out", str(out)]) == 0
    assert products == [22] * 8 + [5]
    report = json.loads(out.read_text())
    assert report["converged"] and report["flags"] == []
    config = parse_run_config(json.loads((DATA / "run_n10_general.json").read_text()),
                              require_scenario=False)["config"]
    counts = load_counts(json.loads((DATA / "counts_general_m2.json").read_text())).counts
    ll, _ = reference.global_max_log_likelihood(counts, config)
    assert abs(report["log_likelihood"] - ll) <= 1e-9 * abs(ll)


# one sender beyond the design: index 0's projectors spanning its space, every
# projector on, and weights on i = 0, 2 and 4 with (2,+), (2,-) and (4,-) on,
# where 'f' has both ends above 0; and (2,-) alone at n = 4, where D_2 = 0, so
# (2,-) is 0 and 'f' is 1 at every phase
MIXED_ONE_SENDER = ProtocolConfig(n=9, m_est=1, t=1.0, q=(0.5, 0.0, 0.3, 0.0, 0.2),
                                  c_plus=(1, 0, 1, 0, 0), c_minus=(0, 0, 1, 0, 1))
FLAT_ONE_SENDER = ProtocolConfig(n=4, m_est=1, t=1.0, q=(0.0, 0.0, 1.0),
                                 c_plus=(0, 0, 0), c_minus=(0, 0, 1))
ONE_SENDER_CONFIGS = SINGLE_SENDER_DESIGNS + [F_FREE_CONFIGS[1], all_switches_config(12, 1),
                                              MIXED_ONE_SENDER]
ONE_SENDER_IDS = [f"design-n{c.n}" for c in SINGLE_SENDER_DESIGNS] + [
    "0-on", "all-switches-n12", "mixed-n9"]


def label_ends(model):
    """Each label's probability at x = cos^2(theta/2) = 0 and at x = 1, as the
    kernel assembles it from the amplitudes there: v = 1 and gamma- = D, and
    v = 0 and gamma- = 0."""
    rows = len(model._coef)
    return list(zip(model._assemble([1.0] * rows, [d for _, _, d in model._coef]),
                    model._assemble([0.0] * rows, [0.0] * rows)))


@pytest.mark.parametrize("config", ONE_SENDER_CONFIGS + [FLAT_ONE_SENDER]
                         + [all_switches_config(n, 1) for n in range(1, 41)],
                         ids=ONE_SENDER_IDS + ["flat-n4"]
                         + [f"all-switches-n{n}" for n in range(1, 41)])
def test_one_sender_labels_vanish_at_the_end_of_their_sign(config):
    # every '+' label is exactly 0.0 at x = 0 and every '-' label at x = 1,
    # so only 'f' can have both ends above 0; the x = 1 ends are the kernel's
    # probabilities at theta = 0
    model = ThetaModel(config)
    ends = label_ends(model)
    for (_, sign), (lo, hi) in zip(config.outcomes, ends):
        assert (lo if sign == PLUS else hi) == 0.0
    assert [float(hi) for _, hi in ends] == model.point_probs([0.0])


def exact_score(model, tally, u):
    """The one-sender log-likelihood's slope in x = cos^2(theta/2) at
    x = 1/(1 + u), u = tan^2(theta/2), in exact rationals: each label is
    lo*(1 - x) + hi*x between the kernel's ends (:func:`label_ends`)."""
    x = 1 / (1 + Fraction(u))
    score = Fraction(0)
    for label, (lo, hi) in zip(model.labels, label_ends(model)):
        lo, hi = Fraction(float(lo)), Fraction(float(hi))
        if tally.get(label, 0) and lo != hi:
            score += tally[label] * (hi - lo) / (lo * (1 - x) + hi * x)
    return score


@pytest.mark.parametrize("config", ONE_SENDER_CONFIGS, ids=ONE_SENDER_IDS)
def test_one_sender_root_is_the_maximum_to_the_float(config):
    # the likelihood is concave in x, so its maximum is where the slope in x
    # changes sign: between the float neighbours of the computed u, or at
    # u = 0 (x = 1) or u = inf (x = 0) where the slope keeps one sign; on
    # count_sets and on 20 more draws at fields from philox(n, k), N = 10 to 10^5
    model = ThetaModel(config)
    ends = dict(zip(model.labels, label_ends(model)))
    tallies = list(count_sets(config))
    for k in range(20):
        draws = philox(config.n, k)
        dist = outcome_distribution(config, FieldVector((draws.uniform(0.05, 3.0),), config.t))
        tallies.append(draw_counts(dist, 10 ** (1 + k % 5), draws))
    roots = 0
    for tally in tallies:
        observed = estimation._observed(OutcomeCounts(tally), model)
        u = estimation._one_sender_root(model, observed)
        if u is None:  # no observed label moves with theta
            assert all(ends[label][0] == ends[label][1] for label, c in tally.items() if c)
        elif u == 0.0:
            assert exact_score(model, tally, math.nextafter(0.0, 1.0)) >= 0
        elif u == math.inf:
            assert exact_score(model, tally, sys.float_info.max) <= 0
        else:
            assert exact_score(model, tally, math.nextafter(u, 0.0)) <= 0
            assert exact_score(model, tally, math.nextafter(u, math.inf)) >= 0
            roots += 1
    assert roots >= 15


@pytest.mark.parametrize("config", ONE_SENDER_CONFIGS + [FLAT_ONE_SENDER],
                         ids=ONE_SENDER_IDS + ["flat-n4"])
def test_one_sender_estimates_without_the_grid(config, monkeypatch):
    # every count set whose likelihood is finite and moves with theta starts
    # at the quadratic's root: no grid pass, at most 2 distinct theta (the
    # root and one refinement probe), and a log-likelihood not below the grid
    # path's by more than 1e-12 * max(|ll|, 1), the bound set before the run
    # (7.2e-16 seen); flat and -inf counts give the grid path's report or
    # error, byte for byte
    grids, points = [], set()
    grid, point_probs = estimation._grid_log_likelihood, ThetaModel.point_probs

    def counting_grid(model, observed, axes):
        grids.append(len(axes[0]))
        return grid(model, observed, axes)

    def counting_point_probs(self, theta):
        points.add(tuple(theta))
        return point_probs(self, theta)

    started = 0
    for tally in count_sets(config):
        counts = OutcomeCounts(tally)
        reference_report = estimate_or_error(grid_path_estimate, counts, config, monkeypatch)
        grids.clear()
        points.clear()
        with monkeypatch.context() as patch:
            patch.setattr(estimation, "_grid_log_likelihood", counting_grid)
            patch.setattr(ThetaModel, "point_probs", counting_point_probs)
            ours = estimate_or_error(mle_estimate, counts, config)
        if ours.startswith("ValueError") or "flat likelihood" in ours:
            assert ours == reference_report
            continue
        assert grids == [] and len(points) <= 2
        ll = mle_estimate(counts, config).log_likelihood
        reference_ll = grid_path_estimate(counts, config, monkeypatch).log_likelihood
        assert ll >= reference_ll - 1e-12 * max(abs(reference_ll), 1.0)
        started += 1
    assert (started == 0) == (config is FLAT_ONE_SENDER)


def test_general_one_sender_run_estimates_without_the_grid(tmp_path, monkeypatch):
    # the CI's mixed one-sender config ('f' with both ends above 0) starts at
    # the quadratic's root, which no refinement step improves
    grids, grid = [], estimation._grid_log_likelihood

    def counting_grid(model, observed, axes):
        grids.append(len(axes[0]))
        return grid(model, observed, axes)

    monkeypatch.setattr(estimation, "_grid_log_likelihood", counting_grid)
    out = tmp_path / "estimate.json"
    assert cli.main(["estimate", "--counts", str(DATA / "counts_m1_general.json"),
                     "--config", str(DATA / "run_m1_general.json"), "--out", str(out)]) == 0
    assert grids == []
    report = json.loads(out.read_text())
    assert report["converged"] and report["flags"] == []
    config = parse_run_config(json.loads((DATA / "run_m1_general.json").read_text()),
                              require_scenario=False)["config"]
    assert config == MIXED_ONE_SENDER
    tally = load_counts(json.loads((DATA / "counts_m1_general.json").read_text())).counts
    u = math.tan(report["theta_hat"][0] / 2) ** 2
    assert exact_score(ThetaModel(config), tally, u * (1 - 1e-12)) <= 0
    assert exact_score(ThetaModel(config), tally, u * (1 + 1e-12)) >= 0


def test_float_max_counts_reach_their_maximum():
    # all but one of the largest float's worth of counts on (0,+): the
    # maximum is at u = 1/(N - 1), theta = 1.4917e-154, where the kernel's
    # P(0,+) rounds to 1 and the log-likelihood is log P(f) = -709.78; the
    # grid and refinement stopped at theta = 5.4e-7 with -1.31e295
    config = ProtocolConfig.for_single_sender(5)
    counts = load_counts(json.loads((DATA / "counts_float_max_m1.json").read_text()))
    report = mle_estimate(counts, config)
    assert report.theta_hat.theta[0] == pytest.approx(2 / math.sqrt(counts.N), rel=1e-12)
    assert report.log_likelihood == pytest.approx(-709.7827128933840, rel=1e-12)
    assert 0.0 < report.se_estimate[0] < math.inf


def test_design_start_reaches_the_maximum_at_equal_fields_and_on_the_faces():
    # the closed form clips c2 = cos(theta2/2) to [0, 1], and the refinement
    # finds the maximum on that face: 36 count sets of N = 5, 10 and 40
    # drawn at n = 5, 10 and 40 at equal fields (theta2 = 1e-9), near them
    # (theta2 = 0.1) and near the corner (pi, pi) reach the likelihood's
    # global maximum, found without the grid; most of them end on an edge
    on_edge, total = 0, 0
    for n in (5, 10, 40):
        config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
        for theta in ((1.0, 1e-9), (2.0, 0.1), (math.pi - 0.05, math.pi - 0.05)):
            fields = FieldVector(((theta[0] - theta[1]) / 2, (theta[0] + theta[1]) / 2), 1.0)
            dist = outcome_distribution(config, fields)
            for N in (5, 10, 40):
                for k in range(2 if N == 40 else 1):
                    counts = draw_counts(dist, N, philox(n, N, k))
                    ll, _ = reference.global_max_log_likelihood(counts, config)
                    report = mle_estimate(OutcomeCounts(counts), config)
                    assert report.log_likelihood >= ll - 1e-12 * max(abs(ll), 1.0)
                    on_edge += bool({0.0, math.pi} & set(report.theta_hat.theta))
                    total += 1
    assert total == 36 and on_edge > total // 2


def with_idle_projector(config, i):
    """``config`` with the (i,+) projector also on, at an index i of zero
    weight: its label has probability 0 at every phase, so the likelihood of
    counts without it is the config's, but the outcome set is not a design's,
    and the estimate starts from the grid."""
    c_plus = list(config.c_plus)
    c_plus[i] = 1
    return dataclasses.replace(config, c_plus=tuple(c_plus))


def test_refinement_evaluates_each_theta_once(monkeypatch):
    # one point_probs call per phase vector the estimate visits: the
    # log-likelihood, the score and the observed information share it, and
    # the refinement takes the closed-form start as scored.  The designs'
    # misfit (n = 7) counts start at their maximum; their theta2-flat (n = 6)
    # counts, and both with an idle projector, start from the grid; counts
    # drawn from philox(seed) fields, as below, on two explicit configs too
    points = []
    point_probs = ThetaModel.point_probs

    def counting_point_probs(self, theta):
        points.append(tuple(theta))
        return point_probs(self, theta)

    monkeypatch.setattr(ThetaModel, "point_probs", counting_point_probs)
    cases = []
    for design, tally in ((ProtocolConfig.for_two_senders(7, a=3, q0=0.33),
                           {"0+": 400, "0-": 150, "3+": 300, "f": 150}),
                          (ProtocolConfig.for_two_senders(6, a=3, q0=0.33), {"0+": 700, "0-": 300})):
        cases += [(design, tally), (with_idle_projector(design, 1), tally)]
    for config, seed in ((EXPLICIT_CONFIGS[2], 2), (EXPLICIT_CONFIGS[1], 6)):
        draws = philox(seed)
        fields = FieldVector(tuple(sorted(draws.uniform(0.05, 1.5, 2))), 1.0)
        N = int(10 ** draws.uniform(2, 5))
        cases.append((config, draw_counts(outcome_distribution(config, fields), N, draws)))
    visited = []
    for config, counts in cases:
        points.clear()
        mle_estimate(OutcomeCounts(counts), config)
        visited.append(len(points))
        assert len(points) == len(set(points))
    assert visited == [1, 19, 30, 30, 10, 6]


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
    # the score vanish: scoring alone stops there, below the maximum; the
    # observed information's negative eigenvalue leads off it.  The n = 14
    # counts reach their maximum on the design and, with an idle projector,
    # from the grid's start on theta2 = 0, as do the all-switches n = 12
    # counts, drawn at theta = (2.145, 0.401) from philox(29) (theta1, theta2
    # and log10 N uniform on [1.5, 3], [0, 0.5] and [4, 5]), where scoring
    # alone stops 0.0133 nats below
    design = ProtocolConfig.for_two_senders(14, a=2, q0=0.33)
    counts = OutcomeCounts({"0+": 3428, "0-": 46500, "2+": 10358, "f": 39714})
    twelve = OutcomeCounts({"0+": 385, "0-": 1402, "1+": 540, "1-": 1025, "2+": 734, "2-": 613,
                            "3+": 827, "3-": 322, "4+": 913, "4-": 172, "5+": 1011, "5-": 32,
                            "6+": 1013, "f": 3552})
    # the least theta2 and log-likelihood of the estimate: the n = 14 value
    # is coordinate search's, the n = 12 one 0.01 above scoring's stop
    cases = [(design, counts, 0.2, -113420.98176207577),
             (with_idle_projector(design, 1), counts, 0.2, -113420.98176207577),
             (all_switches_config(12, 2), twelve, 0.1, -28941.31358739869 + 0.01)]
    for config, tally, least_theta2, least_ll in cases:
        report = mle_estimate(tally, config)
        if config is not design:
            model = ThetaModel(config)
            start = estimation._grid_start(model, estimation._observed(tally, model), estimation._AXIS)
            assert start[0][1] == 0.0
        assert report.theta_hat.theta[1] > least_theta2
        assert report.log_likelihood >= least_ll
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
