import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
from anonsense.cli import FIG_FLAGS, _axes, main
from anonsense.combinatorics import MINUS, PLUS, FieldVector, g_coefficients
from anonsense.configio import scan_rows_to_csv
from anonsense.engine import ProtocolConfig, gamma, max_senders, outcome_distribution, weight_row
from anonsense import estimation, fisher, scancsv
from anonsense.estimation import OutcomeCounts, _grid_log_likelihood, mle_estimate
from anonsense.fisher import (
    COND_LIMIT,
    RANK_RTOL,
    DivergenceError,
    FisherResult,
    PhaseParameters,
    ScanGrid,
    SingularTermError,
    ThetaModel,
    UnidentifiableDirectionError,
    _fisher_matrix,
    _inverse,
    _rank_at_most_one,
    _solve,
    _symmetric_eigen,
    closed_form_j22,
    dilution,
    fisher_matrix,
    limit_j22,
    omega_crb_diag,
    optimal_a,
    phases_from_fields,
    scan_j22,
)
from anonsense.sampling import draw_counts, philox

LIMIT_GOLDEN = 77.05161436201963  # frozen evaluation of the large-n formula at (0.33, 2, 0.5)


def two_sender_theta(config, theta):
    return PhaseParameters(theta)


def test_phase_parameters_validation():
    assert PhaseParameters((1.0,)).m_est == 1
    assert PhaseParameters((1.0, 0.5)).m_est == 2
    for theta in ((), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="1 or 2 phase components"):
            PhaseParameters(theta)


def test_phases_from_fields():
    assert phases_from_fields(FieldVector((1.5,), 2.0)) == (3.0,)
    th1, th2 = phases_from_fields(FieldVector((0.75, 1.25), 1.0))
    assert (th1, th2) == (2.0, -0.5)


def all_switches_config(n, m_est):
    """Every projector on, uniform weights: every weight index is modelled."""
    rows = n // 2 + 1
    return ProtocolConfig(n=n, m_est=m_est, t=1.0, q=(1.0 / rows,) * rows, c_plus=(1,) * rows,
                          c_minus=(1,) * rows, a=n // 2 if m_est == 2 else None)


comb = functools.lru_cache(maxsize=None)(math.comb)  # n = 10^4 binomials are slow


def reference_gamma(n, fields, k, sign):
    """gamma as first written: complex g coefficients over math.comb ratios."""
    if 2 * k == n and sign == MINUS:
        return 0j
    m = fields.m
    g = g_coefficients(fields, PLUS if 2 * k == n else sign)
    return sum(comb(n - m, k - l) / comb(n, k) * g[l]
               for l in range(max(0, k - (n - m)), min(k, m) + 1)) / 2


def reference_distribution(config, fields):
    """q * |gamma|^2 per active outcome, and the residual 'f' as 1 - sum."""
    probs = {}
    for i in range(config.kmax + 1):
        for sign in (PLUS, MINUS):
            if (config.c_plus if sign == PLUS else config.c_minus)[i]:
                probs[f"{i}{sign}"] = config.q[i] * abs(reference_gamma(config.n, fields, i, sign)) ** 2
    probs["f"] = 1.0 - sum(probs.values())
    return probs


def explicit_configs():
    """Explicit q/c configs whose switched-on rows include q = 0 ones."""
    return [
        ProtocolConfig(n=9, m_est=2, t=1.0, q=(0.4, 0.0, 0.0, 0.6, 0.0),
                       c_plus=(1, 0, 0, 1, 1), c_minus=(1, 0, 1, 0, 0), a=3),
        ProtocolConfig(n=12, m_est=1, t=1.0, q=(0.7, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0),
                       c_plus=(1, 0, 1, 0, 0, 0, 1), c_minus=(0, 1, 0, 1, 0, 0, 1), a=None),
    ]


def test_kernel_matches_g_coefficient_reference(rng):
    # the one versine kernel against the complex g-coefficient sums it
    # replaced, for true sender counts 1..4 on both designs, so also where
    # the true m differs from m_est
    for n in list(range(3, 41)) + [1001, 10_000]:
        configs = [ProtocolConfig.for_single_sender(n)]
        if n >= 5:
            configs += [ProtocolConfig.for_two_senders(n, a=n // 2, q0=float(rng.uniform(0.1, 0.9))),
                        ProtocolConfig.for_two_senders(n, a=2, q0=float(rng.uniform(0.1, 0.9)))]
        if n in (9, 12):
            configs += explicit_configs()
        if n in (6, 7, 12, 40):  # every projector on; the central '-' of even n is live
            configs += [all_switches_config(n, 1), all_switches_config(n, 2)]
        # every weight index at small n; ends, middle and a sample at large n
        ks = range(n // 2 + 1) if n <= 40 else sorted({0, 1, n // 2 - 1, n // 2, *range(2, n // 2, n // 30)})
        for m in range(1, 5):
            if m > max_senders(n):
                continue
            fields = FieldVector(tuple(sorted(rng.uniform(0.05, 3.0, m))), t=float(rng.uniform(0.3, 1.5)))
            for k in ks:
                for sign in (PLUS, MINUS):
                    assert abs(gamma(n, fields, k, sign) - reference_gamma(n, fields, k, sign)) <= 1e-12
            for config in configs:
                dist = outcome_distribution(config, fields)
                expect = reference_distribution(config, fields)
                assert list(dist.probs) == list(expect)
                for label, p in expect.items():
                    assert dist.probs[label] == pytest.approx(p, abs=1e-12)


def test_outcome_distribution_is_the_theta_model_point(rng):
    # where the true sender count is the designed one, the generic stacks of
    # the sender-bit strings' phases and the estimator's form in 1 - B, B and
    # D give the same distribution to rounding
    configs = [config for config in explicit_configs()]
    for n in list(range(3, 41)) + [1001, 10_000, 10_001]:
        configs.append(ProtocolConfig.for_single_sender(n))
        if n >= 5:
            configs += [ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33),
                        ProtocolConfig.for_two_senders(n, a=2, q0=0.71)]
    configs += [all_switches_config(n, 1) for n in (3, 4, 7, 10, 40)]
    configs += [all_switches_config(n, 2) for n in (5, 6, 11, 12, 40)]
    for config in configs:
        model = ThetaModel(config)
        for _ in range(5):
            omegas = tuple(sorted(rng.uniform(0.05, 3.0, config.m_est)))
            fields = FieldVector(omegas, t=float(rng.uniform(0.3, 1.5)))
            dist = outcome_distribution(config, fields)
            assert list(dist.probs) == model.labels
            assert all(type(p) is float for p in dist.probs.values())
            point = model.point_probs(phases_from_fields(fields))
            assert np.abs(np.array(list(dist.probs.values())) - point).max() <= 1e-14


def test_theta_model_weights_are_exact_binomial_ratios():
    # bit-identical to the big-integer quotient, at every modelled index
    for m in (1, 2):
        for n in list(range(5, 41)) + [1001]:
            model = ThetaModel(all_switches_config(n, m))
            assert model._rows == list(range(n // 2 + 1))
            for i in model._rows:
                row = weight_row(n, m, i)
                for l in range(m + 1):
                    expect = (math.comb(n - m, i - l) / math.comb(n, i)
                              if 0 <= i - l <= n - m else 0.0)
                    assert row[l] == expect


def test_hypergeometric_weights_are_exact_quotients():
    # C(m, l)*C(n-m, i-l)/C(n, i), the Dicke means' weights, bit-identical to
    # the big-integer quotient at every index i and string weight l
    for m in range(1, 5):
        for n in list(range(5, 41)) + [1001]:
            for i in range(n + 1):
                row = weight_row(n, m, i, hypergeometric=True)
                assert row == [math.comb(m, l) * math.comb(n - m, i - l) / math.comb(n, i)
                               if 0 <= i - l <= n - m else 0.0 for l in range(m + 1)]


def test_theta_model_keeps_only_switched_rows():
    model = ThetaModel(ProtocolConfig.for_two_senders(1001, a=500, q0=0.33))
    assert model._rows == [0, 500]
    assert [len(weight_row(1001, model.m_est, i)) for i in model._rows] == [3, 3]
    assert weight_row(1001, model.m_est, 500)[1] == math.comb(999, 499) / math.comb(1001, 500)


@pytest.mark.parametrize("config, expected", [
    (ProtocolConfig.for_two_senders(5, a=2, q0=0.33), (2,)),
    (ProtocolConfig.for_two_senders(5, a=2, q0=1.0), ()),
    (ProtocolConfig.for_single_sender(5), (0,)),
    (ProtocolConfig(n=5, m_est=1, t=1.0, q=(1.0, 0.0, 0.0), c_plus=(1, 0, 0), c_minus=(1, 0, 0)), ()),
    (all_switches_config(9, 2), (1, 2, 3, 4)),
], ids=["design", "design-q_a=0", "one-sender", "one-sender-0-on", "all-switches"])
def test_residual_indices_are_the_kernels_residual_rows(config, expected):
    # every weighted index leaves a residual but index 0 with (0,+) and (0,-)
    # both on, and the kernel assembles 'f' from exactly those indices
    assert config.residual_indices == expected
    model = ThetaModel(config)
    assert [model._rows[r] for r, *_ in model._residual_terms] == list(expected)


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


@pytest.mark.parametrize("config", [
    *[ProtocolConfig.for_single_sender(n) for n in (11, 12)],
    *[ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33) for n in (11, 12)],
    *[all_switches_config(n, m) for m in (1, 2) for n in (11, 12)],
], ids=lambda config: f"n{config.n}-m{config.m_est}-{len(config.labels())}labels")
def test_labels_free_of_read_the_form(config, rng):
    # a '-' label reads theta1 alone, through D = 1 - 2i/n, and a '+' label
    # reads theta2 through B = 2i(n - i)/(n(n - 1)), which is 0 at i = 0: the
    # labels free of theta2 are every '-' label and (0,+), and the only label
    # free of theta1 is the central '-' label of even n, whose D is 0.  Moving
    # theta_j leaves exactly those labels' probabilities as they were (the
    # paper's two-sender design's closed-form estimate rests on the first)
    model = ThetaModel(config)
    labels = model.labels[:-1]
    central = f"{config.n // 2}-"
    free = {0: [central] if central in labels and config.n % 2 == 0 else []}
    if config.m_est == 2:
        free[1] = [label for label in labels if label.endswith(MINUS) or label == f"0{PLUS}"]
    for j, expect in free.items():
        for theta in rng.uniform(0.1, 3.0, (5, config.m_est)).tolist():
            moved = list(theta)
            moved[j] = theta[j] / 2
            same = np.array(model.point_probs(theta)) == np.array(model.point_probs(moved))
            assert [label for label, kept in zip(labels, same) if kept] == expect


def seed_probs(model, theta):
    """ThetaModel.probs on 0-d arrays as first written: the phase tables'
    versine and sine stacks contracted with the binomial weight rows.

    Restated here, independent of the model's form and assembly, as the
    reference the form is held to.
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

    w = np.array([weight_row(config.n, model.m_est, i) for i in model._rows])

    def contract(stack):  # the BLAS call that tensordot made for one point
        return np.dot(w, np.array(stack, dtype=float).reshape(-1, 1))[:, 0]

    v = contract(u_stack)
    gamma_m = 0.5 * contract(minus_stack)
    gamma_m = gamma_m * np.array([0.0 if 2 * i == config.n else 1.0 for i in model._rows])
    q = config.q
    rows = []
    for r, i in enumerate(model._rows):
        for sign in (PLUS, MINUS):
            if (config.c_plus if sign == PLUS else config.c_minus)[i]:
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


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_point_path_matches_the_seed_formula(rng):
    # >= 20 000 random phase vectors plus the corners of [0, pi]^m: the
    # float point path, probs on 0-d arrays and the restated seed formula
    # agree to rounding
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
        for theta in thetas:
            ref = seed_probs(model, theta)
            assert np.abs(model.probs([np.asarray(t) for t in theta]) - ref).max() <= 1e-14
            assert np.abs(np.array(model.point_probs(theta)) - ref).max() <= 1e-14
            points += 1
    assert points >= 20_000


def seed_derivatives(model, theta, second=False):
    """ThetaModel.derivatives as first written, in its broadcasting form over
    arrays of theta components: the reference of the float point path.

    The phase table lists the sender-bit strings of each weight l as entries
    (s, j), the string phase s*theta_j: [[theta], [-theta]] for one sender and
    [[theta1], [-theta2, theta2], [-theta1]] for two.  An entry's versine
    2*sin^2(theta_j/4) adds sin(theta_j/2)/2 and cos(theta_j/2)/4 to the
    first and second derivatives of the versine stack, and its sine
    -2*sin(s*theta_j/2) adds -s*cos(theta_j/2) and s*sin(theta_j/2)/2 to the
    sine stack's; the stacks are contracted with the weight rows.
    """
    theta = np.broadcast_arrays(*[np.asarray(t, dtype=float) for t in theta])
    table = ([[(1, 0)], [(-1, 0)]] if model.m_est == 1
             else [[(1, 0)], [(-1, 1), (1, 1)], [(-1, 0)]])
    half_angle = np.asarray(theta) / 2
    half_sine, cosine = np.sin(half_angle) / 2, np.cos(half_angle)
    u = [sum(2 * np.sin(theta[j] / 4) ** 2 for _, j in row) for row in table]
    s = [sum(-2 * np.sin(sign * theta[j] / 2) for sign, j in row) for row in table]
    active = [(r, plus, q) for r, plus, q, _ in model._chain]

    def contract(w, stack):
        return [sum(w[r, l] * stack[l] for l in range(len(stack))) for r in range(len(w))]

    n = model.config.n
    w = np.array([weight_row(n, model.m_est, i) for i in model._rows])
    w_minus = w * np.array([[0.0 if 2 * i == n else 0.5] for i in model._rows])
    v, gamma_m = contract(w, u), contract(w_minus, s)
    q = [qx for _, _, qx in active]
    gam = [1.0 - v[r] if plus else gamma_m[r] for r, plus, _ in active]

    def amplitudes(du, ds):
        dv, dgamma_m = contract(w, du), contract(w_minus, ds)
        return [-dv[r] if plus else dgamma_m[r] for r, plus, _ in active]

    def labelled(rows):
        return np.stack(np.broadcast_arrays(*rows, -sum(rows)))

    dgam, d2gam = [], []
    for j in range(model.m_est):
        counts = [sum(k == j for _, k in row) for row in table]
        nets = [sum(sign for sign, k in row if k == j) for row in table]
        dgam.append(amplitudes([c * half_sine[j] for c in counts], [-net * cosine[j] for net in nets]))
        if second:
            d2gam.append(amplitudes([c * cosine[j] / 4 for c in counts], [net * half_sine[j] for net in nets]))
    dp = np.stack([labelled([2.0 * qx * g * dg for qx, g, dg in zip(q, gam, dgam[j])])
                   for j in range(model.m_est)], axis=1)
    if not second:
        return dp, None
    return dp, np.stack([np.stack([labelled([
        2.0 * qx * (di * dj + g * d2 if i == j else di * dj)
        for qx, g, di, dj, d2 in zip(q, gam, dgam[i], dgam[j], d2gam[j])])
        for j in range(model.m_est)], axis=1) for i in range(model.m_est)], axis=1)


def test_point_derivatives_match_the_broadcasting_ones(rng):
    # the chain rule of the form against the table arithmetic it replaced:
    # first and second derivatives, random points plus 0 and pi on every
    # axis, both CLI designs and every switch on
    configs = []
    for n in range(5, 41):
        configs += [ProtocolConfig.for_single_sender(n),
                    ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33),
                    all_switches_config(n, 1), all_switches_config(n, 2)]
    arrays = 0
    for config in configs:
        model = ThetaModel(config)
        m = config.m_est
        edges = [(0.0,), (math.pi,)] if m == 1 else [
            (0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi), (0.0, 1.3), (2.1, math.pi)]
        for theta in edges + [tuple(row) for row in rng.uniform(0.0, math.pi, (8, m)).tolist()]:
            dp, d2p = (np.array(d) for d in model.derivatives(theta, second=True))
            ref_dp, ref_d2p = seed_derivatives(model, theta, second=True)
            assert dp.shape == ref_dp.shape and d2p.shape == ref_d2p.shape
            assert np.abs(dp - ref_dp).max() <= 1e-14 and np.abs(d2p - ref_d2p).max() <= 1e-14
            assert bits(model.dprobs(theta)) == bits(dp)
            arrays += 3
    assert arrays >= 4000


GRID_CONFIGS = [
    *[ProtocolConfig.for_single_sender(n) for n in (5, 12)],
    *[ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33) for n in (7, 12)],
    *[all_switches_config(n, m) for m in (1, 2) for n in (11, 12)],
]


@pytest.mark.parametrize("config", GRID_CONFIGS)
def test_sparse_grid_axes_keep_the_full_grid_bits(config):
    # the grid enters probs as its axes; the form broadcasts them elementwise,
    # so every probability keeps the bits of the full mesh
    model = ThetaModel(config)
    axes = [np.linspace(0.0, math.pi, 181)] * config.m_est
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    full = np.meshgrid(*axes, indexing="ij")
    assert [t.shape for t in sparse] == ([(181,)] if config.m_est == 1 else [(181, 1), (1, 181)])
    assert bits(model.probs(sparse)) == bits(model.probs(full))


def where_log_grid(model, observed, axes):
    """The grid log-likelihood as first written: log of the positive
    probabilities, -inf put back where P is 0."""
    p = model.probs(axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
    return sum(c * logs[x] for x, c in observed)


@pytest.mark.parametrize("config", GRID_CONFIGS)
def test_grid_log_likelihood_keeps_the_masked_log_bits(config):
    model = ThetaModel(config)
    axes = np.meshgrid(*[np.linspace(0.0, math.pi, 181)] * config.m_est,
                       indexing="ij", sparse=True)
    everything = [(x, 10 * x + 3) for x in range(len(model.labels))]
    for observed in (everything, everything[:1]):
        assert bits(_grid_log_likelihood(model, observed, axes)) == \
            bits(where_log_grid(model, observed, axes))


@pytest.mark.parametrize("config", GRID_CONFIGS + [all_switches_config(40, 2)])
def test_per_label_grid_keeps_the_masked_log_bits(config):
    # each observed label's row is logged at its own shape (a theta1 column
    # for the (i,-) labels) and added into the grid in place: the bits of the
    # stacked grid, with every label observed, with zero counts on most
    # labels and with the residual alone, which is 0 (log -inf) where every
    # phase is 0
    model = ThetaModel(config)
    axes = np.meshgrid(*[np.linspace(0.0, math.pi, 181)] * config.m_est,
                       indexing="ij", sparse=True)
    labels = len(model.labels)
    for observed in ([(x, 10 * x + 3) for x in range(labels)],
                     [(x, 7 * x + 1) for x in range(1, labels, 3)],
                     [(labels - 1, 5)]):
        ll = _grid_log_likelihood(model, observed, axes)
        assert bits(ll) == bits(where_log_grid(model, observed, axes))
    assert ll.flat[0] == -math.inf and np.isfinite(ll.flat[1:]).any()


@pytest.mark.parametrize("config", GRID_CONFIGS + [all_switches_config(40, 2)])
def test_blocked_grid_keeps_the_single_block_bits(config, monkeypatch):
    # every grid cell is formed elementwise, whatever the product of theta1
    # rows it is in: the estimator's loop, over every row in axis order at a
    # cap of 22 rows (181 = 8 * 22 + 5), 7 rows (25 * 7 + 6), 2 rows
    # (90 * 2 + 1) or 1 row, gives the probability and log-likelihood bits
    # of one evaluation of the whole grid, and its start
    model = ThetaModel(config)
    axis = np.linspace(0.0, math.pi, 181)
    axes = np.meshgrid(*[axis] * config.m_est, indexing="ij", sparse=True)
    observed = [(x, 10 * x + 3) for x in range(len(model.labels))]
    whole = model.probs(axes)
    whole_ll = _grid_log_likelihood(model, observed, axes)
    products, grid = [], estimation._grid_log_likelihood

    def checked_grid(model, observed, product):
        rows = np.searchsorted(axis, product[0].ravel())
        products.append(len(rows))
        assert bits(model.probs(product)) == bits(whole[:, rows])
        ll = grid(model, observed, product)
        assert bits(ll) == bits(whole_ll[rows])
        return ll

    monkeypatch.setattr(estimation, "_grid_log_likelihood", checked_grid)
    for cap in (22, 7, 2, 1):
        products.clear()
        monkeypatch.setattr(estimation, "_GRID_BLOCK_POINTS", cap * whole[0].size // 181)
        start = estimation._grid_start(model, observed, axis)
        assert products == [cap] * (181 // cap) + ([181 % cap] if 181 % cap else [])
        if not np.isfinite(whole_ll).any():  # a label observed that no phase can give
            assert start is None
        else:
            argmax = np.unravel_index(int(np.argmax(whole_ll)), whole_ll.shape)
            assert start[0] == [axis[i] for i in argmax]


def test_one_estimate_holds_a_bounded_grid_in_memory():
    # every switch on at n = 40 models 43 labels; the whole 181^2 grid of
    # their probabilities alone is 10.7 MiB, and one estimate peaked at 22 MiB
    # when the grid was evaluated at once
    config = all_switches_config(40, 2)
    assert len(config.labels()) == 43
    dist = outcome_distribution(config, FieldVector((0.4, 1.1), 1.0))
    counts = OutcomeCounts(draw_counts(dist, 100_000, philox(3)))
    # a count on the central (20,-), whose D = 0, is inconsistent, and telling
    # so stays under the same bound
    central = OutcomeCounts({**counts.counts, "20-": 1})
    for tally, error in ((counts, None), (central, "counts are inconsistent")):
        tracemalloc.start()
        try:
            if error is None:
                mle_estimate(tally, config)
            else:
                with pytest.raises(ValueError, match=error):
                    mle_estimate(tally, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


def test_grid_log_likelihood_is_minus_inf_where_an_observed_label_has_zero_probability():
    # one sender: the residual 'f' is 2*sin^2(theta/4)*(2 - 2*sin^2(theta/4)),
    # exactly 0 at theta = 0, the first grid point
    model = ThetaModel(ProtocolConfig.for_single_sender(5))
    axis = np.linspace(0.0, math.pi, 181)
    assert model.labels == ["0+", "f"] and model.probs([axis])[1, 0] == 0.0
    observed = [(0, 7), (1, 2)]
    ll = _grid_log_likelihood(model, observed, [axis])
    assert ll[0] == -math.inf and np.isfinite(ll[1:]).all()
    assert bits(ll) == bits(where_log_grid(model, observed, [axis]))


def test_single_sender_fisher_is_unity():
    # unity independent of both the participant count and the phase
    for n in (1, 3, 8, 50):
        config = ProtocolConfig.for_single_sender(n)
        # at 0 and pi one outcome's probability is 0: its summand is the 0/0 limit
        for theta in [0.0, math.pi, *np.linspace(0.05, math.pi - 0.05, 25)]:
            res = fisher_matrix(config, PhaseParameters((float(theta),)), N=100)
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
        res = fisher_matrix(config, PhaseParameters(theta))
        assert res.J_inv[0, 0] == pytest.approx(1.0 / q0, abs=1e-10)


def fd_derivatives(model, theta, second=False, step=1e-5):
    """Central differences of ThetaModel.probs in place of the first
    derivatives of ThetaModel.derivatives; no second derivatives."""
    cols = []
    for j in range(model.m_est):
        hi, lo = list(theta), list(theta)
        hi[j] += step
        lo[j] -= step
        cols.append((model.probs(hi) - model.probs(lo)) / (2 * step))
    return np.stack(cols, axis=1), None


def test_finite_difference_agrees_with_analytic(rng, monkeypatch):
    for _ in range(20):
        n = int(rng.integers(5, 30))
        config = ProtocolConfig.for_two_senders(n, a=int(rng.integers(2, n // 2 + 1)),
                                                q0=float(rng.uniform(0.15, 0.85)))
        theta = (float(rng.uniform(0.3, 2.9)), float(rng.uniform(0.3, 2.9)))
        params = PhaseParameters(theta)
        ja = fisher_matrix(config, params).J
        with monkeypatch.context() as mp:
            mp.setattr(ThetaModel, "derivatives", fd_derivatives)
            jf = fisher_matrix(config, params).J
        assert np.max(np.abs(ja - jf)) / np.max(np.abs(ja)) <= 1e-6


def test_derivatives_match_finite_differences(rng):
    config = ProtocolConfig.for_two_senders(11, a=4, q0=0.4)
    model = ThetaModel(config)
    step = 1e-6
    for _ in range(100):
        theta = rng.uniform(0.3, 2.9, 2)
        dp = np.array(model.dprobs(tuple(theta)))
        for j in range(2):
            hi, lo = theta.copy(), theta.copy()
            hi[j] += step
            lo[j] -= step
            fd = (model.probs(tuple(hi)) - model.probs(tuple(lo))) / (2 * step)
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(dp[:, j] - fd) / denom) <= 1e-6


def test_second_derivatives_match_differences_of_dprobs(rng):
    # the analytic d2P/dtheta_i dtheta_j against central differences of the
    # analytic first derivatives, for both designs, the explicit q/c config
    # and n up to 1000
    configs = [ProtocolConfig(n=9, m_est=2, t=1.0, q=(0.4, 0.0, 0.0, 0.6, 0.0),
                              c_plus=(1, 0, 0, 1, 1), c_minus=(1, 0, 1, 0, 0), a=3)]
    for n in (3, 6, 11, 100, 1000):
        configs.append(ProtocolConfig.for_single_sender(n))
    for n in (5, 6, 11, 100, 1000):
        configs.append(ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33))
        configs.append(ProtocolConfig.for_two_senders(n, a=2, q0=0.238))
    configs += [all_switches_config(12, 1), all_switches_config(12, 2)]
    step = 1e-6
    for config in configs:
        model = ThetaModel(config)
        for _ in range(20):
            theta = rng.uniform(0.05, math.pi - 0.05, config.m_est)
            dp, d2p = (np.array(d) for d in model.derivatives(tuple(theta), second=True))
            assert np.array_equal(dp, model.dprobs(tuple(theta)))
            assert np.array_equal(d2p, np.swapaxes(d2p, 1, 2))
            for j in range(config.m_est):
                hi, lo = theta.copy(), theta.copy()
                hi[j] += step
                lo[j] -= step
                fd = (np.array(model.dprobs(tuple(hi))) - np.array(model.dprobs(tuple(lo)))) / (2 * step)
                denom = np.maximum(np.abs(fd), 1e-3)
                assert np.max(np.abs(d2p[:, :, j] - fd) / denom) <= 1e-6
    # without second, no second derivatives are formed
    assert model.derivatives((1.0, 2.0))[1] is None


def test_removable_zero_probability_is_skipped():
    # at theta = pi the (0,+) outcome hits the removable 0/0; its summand
    # (dp)^2/p enters as its limit 2*d2p, the whole information
    config = ProtocolConfig.for_single_sender(5)
    res = fisher_matrix(config, PhaseParameters((math.pi,)))
    assert res.J[0, 0] == 1.0
    res = fisher_matrix(config, PhaseParameters((math.pi - 1e-6,)))
    assert res.J[0, 0] == pytest.approx(1.0, abs=1e-9)
    # two senders at the corner (pi, pi): (0,+) and (6,+) vanish together,
    # and the bound is continuous with the points just inside
    config = ProtocolConfig.for_two_senders(12, a=6, q0=0.33)
    corner = fisher_matrix(config, PhaseParameters((math.pi, math.pi)), N=1000)
    for step in (1e-7, 1e-4):
        inside = fisher_matrix(config, PhaseParameters((math.pi - step,) * 2), N=1000)
        assert corner.crb_diag == pytest.approx(inside.crb_diag, rel=1e-9)
    assert [math.sqrt(v) for v in corner.crb_diag] == pytest.approx([0.055048, 0.084386], abs=1e-6)


def test_zero_probability_with_real_slope_raises(monkeypatch):
    # unreachable for the physical model (p = q*gamma^2 forces dp = 0 at zeros),
    # so force a bad derivative to prove the guard trips
    config = ProtocolConfig.for_single_sender(5)

    def bad_derivatives(self, theta, second=False):
        out = np.ones((len(self.labels), 1))
        return out, None

    monkeypatch.setattr(ThetaModel, "derivatives", bad_derivatives)
    with pytest.raises(SingularTermError):
        fisher_matrix(config, PhaseParameters((math.pi,)))


def test_singular_fisher_at_theta2_zero():
    config = ProtocolConfig.for_two_senders(8, a=4, q0=0.33)
    with pytest.raises(UnidentifiableDirectionError) as err:
        fisher_matrix(config, PhaseParameters((1.2, 0.0)))
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
                    res = fisher_matrix(config, PhaseParameters((th1, th2)))
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
    grid = scan_j22([5, 7], [0.33], [2.0], [0.5, 0.1])
    assert grid.theta1 == (2.0,) and grid.theta2 == (0.5, 0.1)
    assert grid.designs == ((5, 2, 0.33), (7, 3, 0.33))
    assert grid.j22.shape == (2, 1, 2) and not np.isnan(grid.j22).any()
    for (n, a, _), block in zip(grid.designs, grid.j22):
        for j, th2 in enumerate(grid.theta2):
            expect = closed_form_j22(n, a, 0.33, (2.0, th2))
            assert block[0, j] == pytest.approx(expect, rel=1e-15)
    first = scan_text(grid).splitlines()[1].split(",")
    assert first[-1] == "ok"
    assert float(first[6]) == pytest.approx(math.log10(float(first[5])), abs=1e-15)


def test_scan_flags_divergent_rows():
    (block,) = scan_j22([6], [0.33], [1.0], [0.0, 0.5]).j22
    assert np.isnan(block).tolist() == [[True, False]]
    assert block[0, 1] == closed_form_j22(6, 3, 0.33, (1.0, 0.5))


def test_scan_monotone_in_n_same_parity():
    for th2 in (0.5, 0.1, 0.05):
        grid = scan_j22(list(range(5, 200)), [0.33], [2.0], [th2])
        values = {n: block[0, 0] for (n, _, _), block in zip(grid.designs, grid.j22)}
        for n in range(5, 198):
            assert values[n + 2] >= values[n] - 1e-9


def test_scan_supports_limit_rows():
    grid = scan_j22([math.inf], [0.33], [2.0], [0.5])
    ((n, _, _),) = grid.designs
    assert math.isinf(n) and grid.j22[0, 0, 0] == pytest.approx(LIMIT_GOLDEN, rel=1e-12)


def test_bound_diverges_where_sin2_underflows():
    # sin^2(theta2/2) underflows to 0 at 1e-300; at 1e-160 it is subnormal
    # and the bound overflows: both raise, neither divides by zero
    for th2 in (1e-300, 1e-160, 0.0):
        with pytest.raises(DivergenceError):
            closed_form_j22(5, 2, 0.33, (2.0, th2))
        with pytest.raises(DivergenceError):
            limit_j22(0.33, (2.0, th2))
    grid = scan_j22([5, math.inf], [0.33], [2.0], [1e-300, 1e-160, 1e-100])
    for block in grid.j22:
        assert np.isnan(block).tolist() == [[True, True, False]]


def test_scan_checks_every_block_before_evaluating():
    with pytest.raises(ValueError, match="n >= 5, got 4"):
        scan_j22([5, 4], [0.33], [math.inf], [0.5])
    with pytest.raises(ValueError, match="q0=0"):
        scan_j22([math.inf], [0.33, 0.0], [2.0], [0.5])


def scan_text(grid: ScanGrid) -> str:
    """The scan's CSV chunks joined as one text."""
    return b"".join(scan_rows_to_csv(grid)).decode("ascii")


def reference_blocks(n_values, q0_values, theta1_values, theta2_values) -> list:
    """(n, a, q0, j22, divergent) per (n, q0) block, cell by cell from
    closed_form_j22 / limit_j22; NaN where they raise DivergenceError."""
    blocks = []
    shape = (len(theta1_values), len(theta2_values))
    for n_raw in n_values:
        n = math.inf if math.isinf(n_raw) else int(n_raw)
        a = math.inf if math.isinf(n_raw) else int(n_raw) // 2
        for q0 in q0_values:
            j22 = np.full(shape, math.nan)
            divergent = np.zeros(shape, dtype=bool)
            for i, th1 in enumerate(theta1_values):
                for k, th2 in enumerate(theta2_values):
                    try:
                        if math.isinf(n):
                            j22[i, k] = limit_j22(q0, (th1, th2))
                        else:
                            j22[i, k] = closed_form_j22(n, a, q0, (th1, th2))
                    except DivergenceError:
                        divergent[i, k] = True
            blocks.append((n, a, q0, j22, divergent))
    return blocks


def row_csv(blocks, theta1_values, theta2_values) -> str:
    """The CSV as formatted row by row before the scan ran on whole axes."""
    def count(x):
        return "inf" if math.isinf(x) else str(int(x))

    def number(x):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"

    lines = ["n,a,q0,theta1,theta2,j22,log10_j22,flag"]
    for n, a, q0, j22, divergent in blocks:
        for i, th1 in enumerate(theta1_values):
            for k, th2 in enumerate(theta2_values):
                value = float(j22[i, k])
                tail = ([number(math.nan)] * 2 + ["divergent"] if divergent[i, k] else
                        [number(value), number(math.log10(value)), "ok"])
                lines.append(",".join([count(n), count(a), number(q0), number(th1),
                                       number(th2), *tail]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("axes", [
    *(_axes(FIG_FLAGS[fig]) for fig in (2, 3, 4, 5)),
    {"n": [*range(5, 301), math.inf], "q0": [0.1, 0.33, 0.9],
     "theta1": [0.0, 1e-9, 0.5, 2.0, math.pi, 4.0, -1.0],
     "theta2": [0.0, 1e-300, 1e-160, 1e-8, 0.1, 0.5, 2.0, math.pi, 5.0]},
    # underflow and overflow, not only theta2 = 0, make cells divergent here
    {"n": [5, 6, 1000, 10 ** 6, 10 ** 12, math.inf], "q0": [1e-300, 1e-20, 0.5, 0.999999, 1 - 2 ** -53],
     "theta1": [0.0, 5e-324, 1e-160, 1.0, math.pi, 1e8, -3.0],
     "theta2": [0.0, 5e-324, 1e-310, 1e-160, 1e-8, 0.5, math.pi, 1e300, -2.0]},
], ids=["fig2", "fig3", "fig4", "fig5", "n5-300", "extreme"])
def test_scan_grid_is_bitwise_the_per_cell_closed_form(axes):
    # the grid takes the trig once per axis value and runs + - * / on
    # broadcast arrays; every cell must carry the scalar path's exact bits
    grid = scan_j22(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])
    ref = reference_blocks(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])

    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    assert grid.theta1 == tuple(axes["theta1"]) and grid.theta2 == tuple(axes["theta2"])
    assert list(grid.designs) == [(n, a, q0) for n, a, q0, _, _ in ref]
    assert grid.j22.shape == (len(ref), len(grid.theta1), len(grid.theta2))
    for block, (_, _, _, j22, divergent) in zip(grid.j22, ref):
        assert np.array_equal(np.isnan(block), divergent)
        assert np.array_equal(bits(block[~divergent]), bits(j22[~divergent]))
    assert grid.n_rows == sum(j22.size for _, _, _, j22, _ in ref)
    assert grid.n_divergent == sum(int(d.sum()) for _, _, _, _, d in ref)
    assert scan_text(grid) == row_csv(ref, axes["theta1"], axes["theta2"])


@pytest.mark.parametrize("axes", [
    {"n": [5, 6, math.inf], "q0": [0.2, 0.5], "theta1": [0.0, 0.5, 2.0, math.pi, 4.0],
     "theta2": [0.0, 1e-8, 0.1, 2.0]},
    _axes(FIG_FLAGS[5]),  # 40 blocks of one theta1 line each
], ids=["6x5lines", "fig5"])
@pytest.mark.parametrize("chunk", ["1", "rows-1", "rows", "rows+1", "2rows", "whole"])
def test_scan_csv_chunks_end_anywhere_with_the_row_references_text(monkeypatch, axes, chunk):
    # a chunk's lines run on across block ends; a chunk may end on one, just
    # before or after it, or hold a single line or the whole scan
    rows, columns = len(axes["theta1"]), len(axes["theta2"])
    lines = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1, "2rows": 2 * rows,
             "whole": len(axes["n"]) * len(axes["q0"]) * rows}[chunk]
    # the most rows that still give that many lines (rows - 1 = 0 gives one)
    monkeypatch.setattr(scancsv, "_CSV_CHUNK_ROWS", lines * columns + columns - 1)
    grid = scan_j22(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])
    ref = reference_blocks(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])
    assert scan_text(grid) == row_csv(ref, axes["theta1"], axes["theta2"])


def test_scan_writes_each_chunk_to_out_as_it_is_formed(monkeypatch, tmp_path, capsys):
    specs = {"n": "5,6,inf", "q0": "0.2,0.5", "theta1": "0:4:5", "theta2": "0,1e-8,0.1,2"}
    argv = ["scan", *(arg for name, spec in specs.items() for arg in (f"--{name}", spec))]
    axes = _axes(specs)
    monkeypatch.setattr(scancsv, "_CSV_CHUNK_ROWS", 12)  # 3 lines each: 10 chunks of 30 lines
    out = tmp_path / "scan.csv"
    writes = []
    open_path = Path.open

    class Spy:
        """``out`` opened for the scan, recording the size of each write."""

        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            writes.append(len(data))
            return self.file.write(data)

    def spy_open(path, mode="r", *args, **kwargs):
        file = open_path(path, mode, *args, **kwargs)
        return Spy(file) if path == out else file

    with monkeypatch.context() as patch:
        patch.setattr(Path, "open", spy_open)
        assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    ref = reference_blocks(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])
    assert text == row_csv(ref, axes["theta1"], axes["theta2"])
    # the header, then one write per chunk of 3 lines of 4 rows, none longer
    widest = max(len(line) + 1 for line in text.splitlines())
    assert len(writes) == 1 + 10 and writes[0] == text.index("\n") + 1
    assert max(writes[1:]) <= 12 * widest
    assert main(argv) == 0
    assert capsys.readouterr().out == text


def hand_built_grid(j22) -> ScanGrid:
    """One n = 5 block over two theta1 and three theta2 values holding ``j22``."""
    return ScanGrid((0.5, 2.0), (0.1, 1e-7, 3.0), ((5, 2, 0.33),), np.array(j22, dtype=float)[None])


def grid_blocks(grid: ScanGrid) -> list:
    """(n, a, q0, j22, divergent) per block of ``grid``, as :func:`reference_blocks` gives them."""
    return [(*design, block, np.isnan(block)) for design, block in zip(grid.designs, grid.j22)]


@pytest.mark.parametrize("j22", [
    # 1e-300, 1e17 and 1e300 print in scientific notation, log10(1.0) = 0 as
    # '0', and 5e-05 sits below the fixed range while its log10 is inside it
    [[1e-300, 5e-05, 1.0], [1e17, 1e300, math.nan]],
    # an infinite bound (no NaN, so not divergent) prints as itself twice
    [[0.25, 2.0, math.inf], [0.5, 99999999999999984.0, 7.0]],
])
def test_scan_csv_formats_values_outside_fixed_notation_as_the_row_reference(j22):
    grid = hand_built_grid(j22)
    assert scan_text(grid) == row_csv(grid_blocks(grid), grid.theta1, grid.theta2)


@pytest.mark.parametrize("bad", [0.0, -0.0, -2.5, -math.inf])
def test_scan_csv_raises_as_the_row_reference_on_a_bound_without_a_log(bad):
    grid = hand_built_grid([[2.0, 3.0, 4.0], [5.0, bad, 6.0]])
    with pytest.raises(ValueError) as expected:
        row_csv(grid_blocks(grid), grid.theta1, grid.theta2)
    with pytest.raises(ValueError) as raised:  # raised as the chunks are formed
        scan_text(grid)
    assert str(raised.value) == str(expected.value)


def test_finite_n_bounded_by_limit():
    for th1 in (0.5, 2.0, 3.0):
        for th2 in (0.5, 0.1):
            lim = limit_j22(0.33, (th1, th2))
            for n in (5, 6, 10, 100, 10 ** 4):
                assert closed_form_j22(n, n // 2, 0.33, (th1, th2)) <= lim + 1e-9


def test_omega_crb_transform():
    config = ProtocolConfig.for_two_senders(10, a=5, q0=0.33)
    res = fisher_matrix(config, PhaseParameters((2.0, 0.5)), N=1000)
    var = omega_crb_diag(res, t=2.0)
    expect = np.array([[1, 1], [1, -1]]) / 4.0 @ (res.J_inv / 1000) @ (np.array([[1, 1], [1, -1]]) / 4.0).T
    assert var[0] == pytest.approx(expect[0, 0], rel=1e-12)
    assert var[1] == pytest.approx(expect[1, 1], rel=1e-12)
    # one sender: omega = theta / t, so Var(omega) = J_inv / (N t^2)
    res = fisher_matrix(ProtocolConfig.for_single_sender(10), PhaseParameters((1.3,)), N=1000)
    (var,) = omega_crb_diag(res, t=2.0)
    assert var == pytest.approx(res.J_inv[0, 0] / (1000 * 2.0 ** 2), rel=1e-12)


def test_fisher_requires_matching_m_est():
    config = ProtocolConfig.for_single_sender(5)
    with pytest.raises(ValueError):
        fisher_matrix(config, PhaseParameters((1.0, 0.5)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phases_are_rejected_by_axis(bad):
    for name, theta in (("theta1", (bad, 0.5)), ("theta2", (2.0, bad))):
        message = f"{name}={bad!r} is not a finite phase"
        with pytest.raises(ValueError, match=message):
            closed_form_j22(5, 2, 0.33, theta)
        with pytest.raises(ValueError, match=message):
            limit_j22(0.33, theta)
        with pytest.raises(ValueError, match=message):
            scan_j22([5, math.inf], [0.33], [2.0, theta[0]], [0.0, theta[1]])


# -- the closed-form 1x1 and 2x2 algebra against numpy.linalg (tests/reference.py)

EPS = np.finfo(float).eps


def symmetric(rng, eigvals) -> list[list[float]]:
    """A symmetric 2x2 matrix with the eigenvalues ``eigvals`` in a random
    orthonormal basis, as the nested float lists the closed forms take; its
    off-diagonal entries are one float, so it is exactly symmetric."""
    angle = rng.uniform(0.0, math.pi)
    V = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    M = (V * np.asarray(eigvals, dtype=float)) @ V.T
    return [[float(M[0, 0]), float(M[0, 1])], [float(M[0, 1]), float(M[1, 1])]]


def spectra(rng):
    """Seeded eigenvalue pairs: positive definite up to a condition number of
    1e14, indefinite (the refinement's saddle) and negative definite, both
    sides of COND_LIMIT, and every scale from 1e-150 to 1e150."""
    out = []
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-150, 150)
        top = scale * rng.uniform(0.5, 2.0)
        out.append((top / 10.0 ** rng.uniform(0, 14), top))           # positive definite
        out.append((-top * rng.uniform(1e-6, 2.0), top))               # indefinite
        out.append((-top, -top / 10.0 ** rng.uniform(0, 6)))           # negative definite
        out.append((top / (COND_LIMIT * rng.choice([0.95, 1.05])), top))  # about COND_LIMIT
    return out


def test_closed_form_eigenpair_matches_eigh(rng):
    # eigenvalues within a few ulps of the largest; the smallest's eigenvector
    # up to sign, within the same error over the eigenvalue gap
    cases = [symmetric(rng, pair) for pair in spectra(rng)]
    cases += [[[2.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, -1.0]],
              [[-1.0, 0.0], [0.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.0, 1e-300], [1e-300, 0.0]]]
    for M in cases:
        values, vector = _symmetric_eigen(M)
        ref_values, ref_vector = reference.linalg_eigen(M)
        size = np.abs(ref_values).max()
        assert np.abs(np.array(values) - ref_values).max() <= 8 * EPS * size
        assert math.hypot(*vector) == pytest.approx(1.0, abs=4 * EPS)
        gap = ref_values[1] - ref_values[0]
        if gap > 0.0:
            miss = min(np.abs(np.array(vector) - ref_vector).max(),
                       np.abs(np.array(vector) + ref_vector).max())
            assert miss <= 16 * EPS * size / gap
    for a in (3.5, -2.0, 0.0):  # 1x1
        assert _symmetric_eigen([[a]]) == ([a], [1.0])


def test_closed_form_solve_matches_lapack(rng):
    # the damped step on positive definite blocks, the only ones scoring
    # solves, within a few ulps times the damped block's condition number
    for low, top in spectra(rng):
        if low <= 0.0:
            continue
        M, score = symmetric(rng, (low, top)), rng.normal(size=2).tolist()
        for lam in (1e-3, 1.0, 1e3):
            damped = [[M[i][j] + lam * M[i][j] if i == j else M[i][j] for j in range(2)]
                      for i in range(2)]
            ref = reference.linalg_step(M, score, lam)
            cond = np.linalg.cond(np.array(damped))
            assert np.abs(np.array(_solve(damped, score)) - ref).max() <= (
                16 * EPS * cond * np.abs(ref).max())
    for a, y in ((2.0, 3.0), (1e-200, 1e-100), (7.0, -1.0)):
        assert _solve([[a + 1e-3 * a]], [y]) == pytest.approx(
            reference.linalg_step([[a]], [y], 1e-3).tolist(), rel=2 * EPS)


def test_closed_form_inverse_matches_lapack(rng):
    for low, top in spectra(rng):
        M = symmetric(rng, (low, top))
        ref = reference.linalg_inverse(M)
        cond = np.linalg.cond(np.array(M))
        assert np.abs(np.array(_inverse(M)) - ref).max() <= 16 * EPS * cond * np.abs(ref).max()
    assert _inverse([[4.0]]) == [[0.25]]
    with pytest.raises(ZeroDivisionError):
        _inverse([[1.0, 2.0], [2.0, 4.0]])


def test_closed_form_rank_test_matches_matrix_rank(rng):
    # rank-1 Hessians +-g g^T, and rank-2 ones whose smaller singular value is
    # 0.1 to 10 times the tolerance RANK_RTOL * (largest entry), never within
    # a factor 2 of it, where the rounding of either form could tip the test
    cases = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]]
    for _ in range(300):
        g = rng.normal(size=2) * 10.0 ** rng.uniform(-100, 100)
        sign = rng.choice([-1.0, 1.0])
        cases.append([[sign * g[0] * g[0], sign * g[0] * g[1]], [sign * g[0] * g[1], sign * g[1] * g[1]]])
        top = 10.0 ** rng.uniform(-100, 100) * rng.choice([-1.0, 1.0])
        for factor in (0.1, 0.5, 2.0, 10.0):
            M = symmetric(rng, (top, rng.choice([-1.0, 1.0]) * factor * RANK_RTOL * abs(top)))
            # the tolerance is on the largest entry, not the largest eigenvalue
            ratio = min(abs(v) for v in reference.linalg_eigen(M)[0]) / (
                RANK_RTOL * np.abs(np.array(M)).max())
            if not 0.5 <= ratio <= 2.0:
                cases.append(M)
    decisions = [_rank_at_most_one(M) for M in cases]
    assert decisions == [reference.linalg_rank_at_most_one(M) for M in cases]
    assert True in decisions and False in decisions
    assert _rank_at_most_one([[-3.0]]) and _rank_at_most_one([[0.0]])


def test_fisher_eigen_check_matches_eigh_about_cond_limit(rng):
    # J = sum of two rank-1 summands dp dp^T (p = 1) with a condition number
    # 5% either side of COND_LIMIT, or singular: the closed-form check raises
    # where eigh's eigenvalues say it must, with eigh's null vector up to sign.
    # A J that passes has its eigenvectors on the axes, as the model's J has
    # them nearly so where theta2 -> 0; rotated ones pass in
    # test_fisher_matrix_inverts_a_rotated_j_up_to_cond_limit
    for factor in [0.95, 1.05] * 20 + [math.inf] * 4:
        top = 10.0 ** rng.uniform(-3, 3)
        low = top / (COND_LIMIT * factor)
        angle = rng.uniform(0.0, math.pi) if factor > 1.0 else rng.choice([0.0, math.pi / 2])
        v1, v2 = (math.cos(angle), math.sin(angle)), (-math.sin(angle), math.cos(angle))
        dp = [[math.sqrt(low) * x for x in v1], [math.sqrt(top) * x for x in v2]]
        J = np.outer(dp[0], dp[0]) + np.outer(dp[1], dp[1])
        values, null = reference.linalg_eigen(J)
        singular = values[0] <= 0.0 or values[1] > COND_LIMIT * values[0]
        assert singular == (factor > 1.0)
        if singular:
            with pytest.raises(UnidentifiableDirectionError) as err:
                _fisher_matrix(["a", "b"], 1, [1.0, 1.0], dp, None)
            assert min(np.abs(err.value.null_vector - null).max(),
                       np.abs(err.value.null_vector + null).max()) <= 1e-6
        else:
            res = _fisher_matrix(["a", "b"], 1, [1.0, 1.0], dp, None)
            ref_inv = reference.linalg_inverse(res.J)
            assert np.abs(res.J_inv - ref_inv).max() <= 1e-3 * np.abs(ref_inv).max()


@pytest.mark.parametrize("cond", [1e10, 1e11, 0.95 * COND_LIMIT])
def test_fisher_matrix_inverts_a_rotated_j_up_to_cond_limit(rng, cond):
    # J = R diag(1, 1/cond) R^T as a sum of dp dp^T / p with p = 1: its
    # adjugate inverse misses the identity by about eps * cond, and a fixed
    # bound of 1e-8 on that raised AssertionError for most rotations
    for _ in range(200):
        angle = rng.uniform(0.0, math.pi)
        c, s, small = math.cos(angle), math.sin(angle), math.sqrt(1.0 / cond)
        res = _fisher_matrix(["a", "b"], 1, [1.0, 1.0], [[c, s], [-s * small, c * small]], None)
        assert isinstance(res, FisherResult)
        assert all(v > 0.0 for v in res.crb_diag)


def test_a_wrong_fisher_inverse_is_an_arithmetic_error(monkeypatch):
    # an inverse with one entry off by 1e-6 of itself fails the residual check,
    # under python -O too, as an ArithmeticError that mle_estimate flags
    config = ProtocolConfig.for_two_senders(5, a=2, q0=0.33)
    counts = OutcomeCounts({"0+": 400, "0-": 150, "2+": 300, "f": 150})
    assert mle_estimate(counts, config).crb_se is not None
    real = fisher._inverse

    def shifted(M):
        inv = real(M)
        inv[0][0] *= 1.0 + 1e-6
        return inv

    monkeypatch.setattr(fisher, "_inverse", shifted)
    for design, theta in ((ProtocolConfig.for_single_sender(6), (1.2,)), (config, (2.0, 0.5))):
        with pytest.raises(ArithmeticError, match="misses the identity"):
            fisher_matrix(design, PhaseParameters(theta))
    report = mle_estimate(counts, config)
    assert report.crb_se is None
    assert "expected information singular at the estimate" in report.flags
