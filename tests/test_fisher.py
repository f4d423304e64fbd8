import functools
import math
import tracemalloc

import numpy as np
import pytest

from anonsense.cli import FIG_FLAGS, _axes
from anonsense.combinatorics import MINUS, PLUS, FieldVector, g_coefficients
from anonsense.configio import scan_rows_to_csv
from anonsense.engine import ProtocolConfig, gamma, max_senders, outcome_distribution
from anonsense import engine, estimation, scancsv
from anonsense.estimation import OutcomeCounts, _grid_log_likelihood, mle_estimate
from anonsense.fisher import (
    DivergenceError,
    PhaseParameters,
    ScanBlock,
    ScanGrid,
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
    g = g_coefficients(fields, PLUS if 2 * k == n else sign).values
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
    # where the true sender count is the designed one, the distribution the
    # simulator samples is, bit for bit, the point the estimator evaluates
    configs = [config for config in explicit_configs()]
    for n in list(range(3, 41)) + [1001, 10_000]:
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
            assert bits(list(dist.probs.values())) == bits(point)


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


def test_point_path_is_bitwise_equal_to_seed_formula(rng):
    # >= 20 000 random phase vectors plus the corners of [0, pi]^m: the
    # float point path, probs on 0-d arrays and the restated seed formula
    # agree in every bit
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
            assert bits(model.probs([np.asarray(t) for t in theta])) == bits(ref)
            assert bits(model.point_probs(theta)) == bits(ref)
            points += 1
    assert points >= 20_000


def seed_derivatives(model, theta, second=False):
    """ThetaModel.derivatives in its broadcasting form, over arrays of theta
    components: the bitwise reference of the float point path."""
    theta = np.broadcast_arrays(*[np.asarray(t, dtype=float) for t in theta])
    table = engine._THETA_TABLES[model.m_est]
    u, s = engine._stacks(theta, table)
    v, gamma_m = engine._contract(model._w, u), engine._contract(model._w_minus, s)
    half_angle = np.asarray(theta) / 2
    half_sine, cosine = np.sin(half_angle) / 2, np.cos(half_angle)
    zero = np.zeros(np.shape(theta[0]))
    active = model._active
    q = [model.config.q[i] for _, i, _ in active]
    gam = [1.0 - v[r] if sign == PLUS else gamma_m[r] for r, _, sign in active]

    def amplitudes(du, ds):
        dv, dgamma_m = engine._contract(model._w, du), engine._contract(model._w_minus, ds)
        return [-dv[r] if sign == PLUS else dgamma_m[r] for r, _, sign in active]

    def labelled(rows):
        return np.stack(np.broadcast_arrays(*rows, -sum(rows)))

    dgam, d2gam = [], []
    for j in range(model.m_est):
        counts = [sum(k == j for _, k in row) for row in table]
        nets = [sum(sign for sign, k in row if k == j) for row in table]
        dgam.append(amplitudes([c * half_sine[j] if c else zero for c in counts],
                               [-net * cosine[j] if net else zero for net in nets]))
        if second:
            d2gam.append(amplitudes([c * cosine[j] / 4 if c else zero for c in counts],
                                    [net * half_sine[j] if net else zero for net in nets]))
    dp = np.stack([labelled([2.0 * qx * g * dg for qx, g, dg in zip(q, gam, dgam[j])])
                   for j in range(model.m_est)], axis=1)
    if not second:
        return dp, None
    return dp, np.stack([np.stack([labelled([
        2.0 * qx * (di * dj + g * d2 if i == j else di * dj)
        for qx, g, di, dj, d2 in zip(q, gam, dgam[i], dgam[j], d2gam[j])])
        for j in range(model.m_est)], axis=1) for i in range(model.m_est)], axis=1)


def test_point_derivatives_are_bitwise_equal_to_the_broadcasting_ones(rng):
    # the float point path of derivatives and dprobs against the broadcasting
    # form it replaced: first and second derivatives, random points plus 0
    # and pi on every axis, both CLI designs and every switch on
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
            dp, d2p = model.derivatives(theta, second=True)
            ref_dp, ref_d2p = seed_derivatives(model, theta, second=True)
            assert dp.shape == ref_dp.shape and d2p.shape == ref_d2p.shape
            assert dp.flags.c_contiguous and d2p.flags.c_contiguous
            assert bits(dp) == bits(ref_dp) and bits(d2p) == bits(ref_d2p)
            assert bits(model.dprobs(theta)) == bits(seed_derivatives(model, theta)[0])
            arrays += 3
    assert arrays >= 4000

@pytest.mark.parametrize("m", [1, 2])
def test_no_theta_table_fact_is_derived_after_import(m, monkeypatch):
    # the versine counts, net signs and live sine rows of the theta tables
    # are module constants: building a model, a point, its derivatives, a
    # grid, the labels free of a component and a distribution of another
    # sender count derive none of them again
    calls = []
    nets = engine._nets

    def counting_nets(row, j):
        calls.append((row, j))
        return nets(row, j)

    monkeypatch.setattr(engine, "_nets", counting_nets)
    config = ProtocolConfig.for_single_sender(7) if m == 1 else ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    model = ThetaModel(config)
    theta = [1.1, 0.4][:m]
    model.point_probs(theta)
    model.derivatives(theta, second=True)
    model.label_rows(np.meshgrid(*[np.linspace(0.0, math.pi, 5)] * m, indexing="ij", sparse=True))
    for j in range(m):
        model.labels_free_of(j)
    outcome_distribution(config, FieldVector((0.7, 1.2)[:3 - m], 1.0))
    assert calls == []


@pytest.mark.parametrize("config", [ProtocolConfig.for_single_sender(9),
                                    ProtocolConfig.for_two_senders(9, a=4, q0=0.33),
                                    all_switches_config(12, 1), all_switches_config(12, 2)])
def test_derivatives_reuse_the_held_columns_bit_for_bit(config, monkeypatch):
    # derivatives at a phase vector point_probs has evaluated, another one
    # evaluated since, reuse its amplitude columns and equal a fresh model's
    # in every bit; the columns are kept by the vector's bits, so -0.0 forms
    # its own stacks where 0.0 was evaluated
    m = config.m_est
    theta_a, theta_b = [1.3, 0.6][:m], [2.2, 0.1][:m]
    zero, minus_zero = [0.0, 0.9][:m], [-0.0, 0.9][:m]
    passes, stacks = [], engine._stacks

    def counting_stacks(phases, table):
        passes.append(tuple(phases))
        return stacks(phases, table)

    monkeypatch.setattr(engine, "_stacks", counting_stacks)
    model = ThetaModel(config)
    model.point_probs(theta_a)
    model.point_probs(theta_b)
    dp, d2p = model.derivatives(theta_a, second=True)
    assert len(passes) == 2
    model.point_probs(zero)
    held_dp, held_d2p = model.derivatives(minus_zero, second=True)
    assert len(passes) == 4 and math.copysign(1.0, passes[-1][0]) == -1.0
    for theta, (first, second) in ((theta_a, (dp, d2p)), (minus_zero, (held_dp, held_d2p))):
        ref_dp, ref_d2p = ThetaModel(config).derivatives(theta, second=True)
        assert bits(first) == bits(ref_dp) and bits(second) == bits(ref_d2p)
        assert bits(model.dprobs(theta)) == bits(ref_dp)


@pytest.mark.parametrize("m, contractions", [(1, (6, 4)), (2, (8, 5))])
def test_derivatives_contract_no_sine_of_a_component_it_does_not_read(m, contractions, monkeypatch):
    # at a fresh phase vector: v and gamma-, then per component a versine and a
    # sine contraction per order; no sine row reads theta2 of two senders (its
    # net signs are 0), so its gamma- contractions, of zeros, are not made
    calls, contract = [], engine._contract

    def counting_contract(w, stack, shape=None):
        calls.append(len(w))
        return contract(w, stack, shape)

    monkeypatch.setattr(engine, "_contract", counting_contract)
    config = ProtocolConfig.for_single_sender(7) if m == 1 else ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    model = ThetaModel(config)
    model.derivatives([1.1, 0.4][:m], second=True)
    second = len(calls)
    model.dprobs([2.2, 0.1][:m])
    assert (second, len(calls) - second) == contractions


GRID_CONFIGS = [
    *[ProtocolConfig.for_single_sender(n) for n in (5, 12)],
    *[ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33) for n in (7, 12)],
    *[all_switches_config(n, m) for m in (1, 2) for n in (11, 12)],
]


@pytest.mark.parametrize("config", GRID_CONFIGS)
def test_sparse_grid_axes_keep_the_full_grid_bits(config):
    # the grid enters probs as its axes; the stacks broadcast only at the
    # contraction, so every probability keeps the bits of the full mesh
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


@pytest.mark.parametrize("config", [ProtocolConfig.for_two_senders(12, a=6, q0=0.33),
                                    all_switches_config(40, 2)])
def test_grid_contracts_gamma_minus_once_on_the_theta1_axis(config, monkeypatch):
    # the middle sine row of two senders (-x + x) is 0 on finite axes, so
    # gamma- is contracted once per product, on its theta1 rows alone, and
    # the versine stack over the product's grid: for the whole grid and for
    # one product of 23 theta1 rows gathered in descending order
    model = ThetaModel(config)
    calls, contract = [], engine._contract

    def counting_contract(w, stack, shape=None):
        out = contract(w, stack, shape)
        calls.append(("-" if w is model._w_minus else "+", out.shape[1:]))
        return out

    monkeypatch.setattr(engine, "_contract", counting_contract)
    axis = np.linspace(0.0, math.pi, 181)
    _grid_log_likelihood(model, [(0, 3)], np.meshgrid(axis, axis, indexing="ij", sparse=True))
    assert calls == [("-", (181, 1)), ("+", (181, 181))]
    calls.clear()
    rows = axis[np.arange(0, 181, 8)[::-1]]
    _grid_log_likelihood(model, [(0, 3)], np.meshgrid(rows, axis, indexing="ij", sparse=True))
    assert calls == [("-", (23, 1)), ("+", (23, 181))]


def test_an_infinite_theta2_is_nan_for_every_label():
    # the grid's axis rule holds on finite axes only: at theta2 = inf the
    # middle sine row is inf - inf, and every label is NaN on every path,
    # the label rows of a product of theta1 rows in any order among them
    model = ThetaModel(ProtocolConfig.for_two_senders(7, a=3, q0=0.33))
    axes = [np.array([[0.5], [1.0]]), np.array([[0.3, math.inf]])]
    with np.errstate(invalid="ignore"):
        assert np.isnan(model.point_probs((1.0, math.inf))).all()
        assert np.isnan(model.probs((1.0, math.inf))).all()
        whole = model.probs(axes)
        reversed_rows = model.label_rows([axes[0][::-1], axes[1]])
    assert np.isnan(whole[..., 1]).all() and np.isfinite(whole[..., 0]).all()
    assert np.array_equal(np.stack(np.broadcast_arrays(*reversed_rows)), whole[:, ::-1],
                          equal_nan=True)


@pytest.mark.parametrize("config", GRID_CONFIGS + [all_switches_config(40, 2)])
def test_blocked_grid_keeps_the_single_block_bits(config, monkeypatch):
    # every grid column goes through the same matrix product whatever the
    # product of theta1 rows it is in: the estimator's loop, over every row
    # in axis order at a cap of 22 rows (181 = 8 * 22 + 5), 7 rows
    # (25 * 7 + 6) or 2 rows (89 * 2 + 3: a lone last row would be a
    # matrix-vector product, the point path's, so the last product takes
    # three), gives the probability and log-likelihood bits of one
    # evaluation of the whole grid, and its start
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

    monkeypatch.setattr(estimation, "_row_bounds", lambda model, observed, axis: None)
    monkeypatch.setattr(estimation, "_grid_log_likelihood", checked_grid)
    for cap in (22, 7, 2):
        products.clear()
        monkeypatch.setattr(estimation, "_GRID_BLOCK_POINTS", cap * whole[0].size // 181)
        start = estimation._grid_start(model, observed, axis, 1)
        last = 181 % cap + (cap if cap == 2 else 0)
        assert products == [cap] * ((181 - last) // cap) + [last]
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
    tracemalloc.start()
    try:
        mle_estimate(counts, config)
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
        dp = model.dprobs(tuple(theta))
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
            dp, d2p = model.derivatives(tuple(theta), second=True)
            assert np.array_equal(dp, model.dprobs(tuple(theta)))
            assert np.array_equal(d2p, np.swapaxes(d2p, 1, 2))
            for j in range(config.m_est):
                hi, lo = theta.copy(), theta.copy()
                hi[j] += step
                lo[j] -= step
                fd = (model.dprobs(tuple(hi)) - model.dprobs(tuple(lo))) / (2 * step)
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
    assert [(b.n, b.a, b.q0) for b in grid.blocks] == [(5, 2, 0.33), (7, 3, 0.33)]
    for block in grid.blocks:
        assert block.j22.shape == (1, 2) and not block.divergent.any()
        for j, th2 in enumerate(grid.theta2):
            expect = closed_form_j22(block.n, block.a, 0.33, (2.0, th2))
            assert block.j22[0, j] == pytest.approx(expect, rel=1e-15)
    first = scan_rows_to_csv(grid).splitlines()[1].split(",")
    assert first[-1] == "ok"
    assert float(first[6]) == pytest.approx(math.log10(float(first[5])), abs=1e-15)


def test_scan_flags_divergent_rows():
    (block,) = scan_j22([6], [0.33], [1.0], [0.0, 0.5]).blocks
    assert block.divergent.tolist() == [[True, False]]
    assert math.isnan(block.j22[0, 0])
    assert block.j22[0, 1] == closed_form_j22(6, 3, 0.33, (1.0, 0.5))


def test_scan_monotone_in_n_same_parity():
    for th2 in (0.5, 0.1, 0.05):
        grid = scan_j22(list(range(5, 200)), [0.33], [2.0], [th2])
        values = {block.n: block.j22[0, 0] for block in grid.blocks}
        for n in range(5, 198):
            assert values[n + 2] >= values[n] - 1e-9


def test_scan_supports_limit_rows():
    (block,) = scan_j22([math.inf], [0.33], [2.0], [0.5]).blocks
    assert math.isinf(block.n) and block.j22[0, 0] == pytest.approx(LIMIT_GOLDEN, rel=1e-12)


def test_bound_diverges_where_sin2_underflows():
    # sin^2(theta2/2) underflows to 0 at 1e-300; at 1e-160 it is subnormal
    # and the bound overflows: both raise, neither divides by zero
    for th2 in (1e-300, 1e-160, 0.0):
        with pytest.raises(DivergenceError):
            closed_form_j22(5, 2, 0.33, (2.0, th2))
        with pytest.raises(DivergenceError):
            limit_j22(0.33, (2.0, th2))
    grid = scan_j22([5, math.inf], [0.33], [2.0], [1e-300, 1e-160, 1e-100])
    for block in grid.blocks:
        assert block.divergent.tolist() == [[True, True, False]]
        assert np.isnan(block.j22[block.divergent]).all()


def test_scan_checks_every_block_before_evaluating():
    with pytest.raises(ValueError, match="n >= 5, got 4"):
        scan_j22([5, 4], [0.33], [math.inf], [0.5])
    with pytest.raises(ValueError, match="q0=0"):
        scan_j22([math.inf], [0.33, 0.0], [2.0], [0.5])


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
], ids=["fig2", "fig3", "fig4", "fig5", "n5-300"])
def test_scan_grid_is_bitwise_the_per_cell_closed_form(axes):
    # the grid takes the trig once per axis value and runs + - * / on
    # broadcast arrays; every cell must carry the scalar path's exact bits
    grid = scan_j22(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])
    ref = reference_blocks(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])

    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    assert grid.theta1 == tuple(axes["theta1"]) and grid.theta2 == tuple(axes["theta2"])
    assert [(b.n, b.a, b.q0) for b in grid.blocks] == [(n, a, q0) for n, a, q0, _, _ in ref]
    for block, (_, _, _, j22, divergent) in zip(grid.blocks, ref):
        assert np.array_equal(block.divergent, divergent)
        assert np.isnan(block.j22[divergent]).all()
        assert np.array_equal(bits(block.j22[~divergent]), bits(j22[~divergent]))
    assert grid.n_rows == sum(j22.size for _, _, _, j22, _ in ref)
    assert grid.n_divergent == sum(int(d.sum()) for _, _, _, _, d in ref)
    assert scan_rows_to_csv(grid) == row_csv(ref, axes["theta1"], axes["theta2"])


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
    assert scan_rows_to_csv(grid) == row_csv(ref, axes["theta1"], axes["theta2"])


def hand_built_grid(j22, divergent) -> ScanGrid:
    """One n = 5 block over two theta1 and three theta2 values holding ``j22``."""
    block = ScanBlock(5, 2, 0.33, np.array(j22, dtype=float), np.array(divergent, dtype=bool))
    return ScanGrid((0.5, 2.0), (0.1, 1e-7, 3.0), (block,))


@pytest.mark.parametrize("j22", [
    # 1e-300, 1e17 and 1e300 print in scientific notation, log10(1.0) = 0 as
    # '0', and 5e-05 sits below the fixed range while its log10 is inside it
    [[1e-300, 5e-05, 1.0], [1e17, 1e300, math.nan]],
    # a NaN or infinite bound that is not flagged prints as itself twice
    [[math.nan, 2.0, math.inf], [0.5, 99999999999999984.0, 7.0]],
])
def test_scan_csv_formats_values_outside_fixed_notation_as_the_row_reference(j22):
    grid = hand_built_grid(j22, [[False, False, False], [False, False, math.isnan(j22[1][2])]])
    ref = [(b.n, b.a, b.q0, b.j22, b.divergent) for b in grid.blocks]
    assert scan_rows_to_csv(grid) == row_csv(ref, grid.theta1, grid.theta2)


@pytest.mark.parametrize("bad", [0.0, -0.0, -2.5, -math.inf])
def test_scan_csv_raises_as_the_row_reference_on_a_bound_without_a_log(bad):
    grid = hand_built_grid([[2.0, 3.0, 4.0], [5.0, bad, 6.0]], np.zeros((2, 3), dtype=bool))
    ref = [(b.n, b.a, b.q0, b.j22, b.divergent) for b in grid.blocks]
    with pytest.raises(ValueError) as expected:
        row_csv(ref, grid.theta1, grid.theta2)
    with pytest.raises(ValueError) as raised:
        scan_rows_to_csv(grid)
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
