"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Criteria with a stated runtime budget assert it.
"""

import json
import math
import time

import numpy as np
import pytest

from anonsense.cli import main
from anonsense.combinatorics import FieldVector
from anonsense.engine import (
    ProtocolConfig,
    max_senders,
    outcome_distribution,
)
from anonsense.estimation import OutcomeCounts, mle_estimate
from anonsense.fisher import (
    PhaseParameters,
    closed_form_j22,
    fisher_matrix,
    limit_j22,
    optimal_a,
    scan_j22,
)
from anonsense.protocol import negative_control, verify_tracelessness
from anonsense.sampling import draw_counts, philox
from anonsense.statevec import SenderAssignment
from reference import oracle_distribution


def report(criterion: int, message: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def random_valid_config(n: int, rng) -> ProtocolConfig:
    """A uniformly random valid configuration: random switches and weights."""
    kmax = n // 2
    while True:
        c_plus = rng.integers(0, 2, kmax + 1)
        c_minus = rng.integers(0, 2, kmax + 1)
        active = [i for i in range(kmax + 1) if c_plus[i] or c_minus[i]]
        if active:
            break
    raw = rng.dirichlet(np.ones(len(active)))
    q = [0.0] * (kmax + 1)
    for i, w in zip(active, raw):
        q[i] = float(w)
    q[active[0]] += 1.0 - sum(q)  # exact renormalization against float drift
    return ProtocolConfig(n=n, m_est=1, t=1.0, q=tuple(q),
                          c_plus=tuple(int(x) for x in c_plus),
                          c_minus=tuple(int(x) for x in c_minus), a=None)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    draws_per_case = 50
    worst = 0.0
    cases = 0
    for n in range(2, 13):
        for m in (1, 2):
            if m > max_senders(n):
                continue
            rng = np.random.default_rng(1000 + 10 * n + m)
            for draw in range(draws_per_case):
                t = float(rng.uniform(0.2, 2.0))
                omegas = tuple(sorted(rng.uniform(0.1, 3.0, m).tolist()))
                fields = FieldVector(omegas, t)
                family = draw % 3
                if family == 0 or n < 5:
                    config = ProtocolConfig.for_single_sender(n, t=t)
                elif family == 1:
                    config = ProtocolConfig.for_two_senders(
                        n, a=int(rng.integers(2, n // 2 + 1)),
                        q0=float(rng.uniform(0.05, 0.95)), t=t)
                else:
                    base = random_valid_config(n, rng)
                    config = ProtocolConfig(n=n, m_est=1, t=t, q=base.q,
                                            c_plus=base.c_plus, c_minus=base.c_minus)
                positions = tuple(sorted(rng.choice(np.arange(1, n + 1), m, replace=False).tolist()))
                dense = oracle_distribution(SenderAssignment(n, positions, fields), config)
                closed = outcome_distribution(config, fields)
                err = max(abs(dense.probs[k] - closed.probs[k]) for k in closed.probs)
                worst = max(worst, err)
                cases += 1
                assert err <= 1e-10, (
                    f"oracle/analytic mismatch {err:.3e} at n={n} m={m} "
                    f"omegas={omegas} t={t} config={config}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    report(1, f"oracle equivalence over {cases} draws (n in [2,12], m in {{1,2}}): "
              f"max |closed - dense| = {worst:.3e} <= 1e-10 in {elapsed:.1f}s")


def test_criterion_2_exact_tracelessness_and_control():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in range(3, 11):
        for m in (1, 2):
            if m > max_senders(n):
                continue
            rng = np.random.default_rng(2000 + 10 * n + m)
            configs = [ProtocolConfig.for_single_sender(n)]
            if n >= 5:
                configs.append(ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33))
            for _ in range(20):
                fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m).tolist())), t=1.0)
                for config in configs:
                    rep = verify_tracelessness(config, fields)
                    worst = max(worst, rep.max_tv_distance)
                    checked += 1
                    assert rep.max_tv_distance <= 1e-10, (
                        f"tracelessness violated: n={n} m={m} fields={fields} "
                        f"TV={rep.max_tv_distance:.3e}"
                    )
    # verifier sensitivity: the planted leak must be detected for generic fields
    control_cases = [
        (4, FieldVector((math.pi / 2,), 1.0)),
        (5, FieldVector((0.9, 1.7), 1.0)),
        (8, FieldVector((0.6, 2.1), 1.0)),
    ]
    detected = []
    for n, fields in control_cases:
        rep = negative_control(n, fields)
        detected.append(rep.max_tv_distance)
        assert rep.max_tv_distance > 0.01, (
            f"negative control failed to detect the leak at n={n}: "
            f"TV={rep.max_tv_distance:.3e}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 120s"
    report(2, f"exact tracelessness over {checked} subset sweeps: max TV {worst:.3e} "
              f"<= 1e-10; control leaks detected (min TV {min(detected):.3f} > 0.01) "
              f"in {elapsed:.1f}s")


def test_criterion_3_single_sender_baseline():
    n, N = 7, 1000
    config = ProtocolConfig.for_single_sender(n)
    # 181 interior grid points; at the endpoints one outcome's probability is 0
    # and its summand a 0/0 limit, checked in test_single_sender_fisher_is_unity
    grid = np.linspace(0.0, math.pi, 183)[1:-1]
    assert len(grid) == 181
    worst_p = worst_j = worst_crb = 0.0
    for theta in grid:
        dist = outcome_distribution(config, FieldVector((float(theta),), 1.0))
        worst_p = max(worst_p, abs(dist.probs["0+"] - math.cos(theta / 2) ** 2))
        res = fisher_matrix(config, PhaseParameters((float(theta),)), N=N)
        worst_j = max(worst_j, abs(res.J[0, 0] - 1.0))
        worst_crb = max(worst_crb, abs(res.crb_diag[0] - 1.0 / N))
    assert worst_p <= 1e-12
    assert worst_j <= 1e-12
    assert worst_crb <= 1e-12
    report(3, f"single-sender baseline on 181 thetas: max |P - cos^2| = {worst_p:.1e}, "
              f"max |J - 1| = {worst_j:.1e}, max |crb - 1/N| = {worst_crb:.1e} (<= 1e-12)")


def test_criterion_4_two_sender_closed_forms():
    worst_11 = worst_22 = 0.0
    for n in (5, 6, 10, 100):
        a = n // 2
        for q0 in (0.2, 0.33, 0.5):
            config = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
            for th1 in (0.3, 1.0, 2.0, 3.0):
                for th2 in (0.3, 1.0, 2.0, 3.0):
                    res = fisher_matrix(config, PhaseParameters((th1, th2)))
                    err11 = abs(res.J_inv[0, 0] - 1.0 / q0)
                    cf = closed_form_j22(n, a, q0, (th1, th2))
                    err22 = abs(res.J_inv[1, 1] - cf) / cf
                    worst_11 = max(worst_11, err11)
                    worst_22 = max(worst_22, err22)
                    assert err11 <= 1e-10, f"(J^-1)_11 off by {err11:.2e} at n={n} q0={q0}"
                    assert err22 <= 1e-6, f"(J^-1)_22 off by {err22:.2e} at n={n} q0={q0}"
    report(4, f"two-sender closed forms on the full grid: max |(J^-1)_11 - 1/q0| = "
              f"{worst_11:.1e} (<= 1e-10), max rel (J^-1)_22 error = {worst_22:.1e} (<= 1e-6)")


def test_criterion_5_minimizer():
    rng = np.random.default_rng(5005)
    checked = 0
    for n in range(5, 41):
        for _ in range(10):
            q0 = float(rng.uniform(0.1, 0.9))
            theta = (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 3.0)))
            values = {a: closed_form_j22(n, a, q0, theta) for a in range(2, n // 2 + 1)}
            brute = min(values, key=lambda a: (values[a], a))
            assert brute == optimal_a(n) == n // 2, (
                f"argmin over a at n={n}, q0={q0}, theta={theta}: got {brute}"
            )
            checked += 1
    report(5, f"brute-force a-scan over n in [5,40] x {checked // 36} draws: "
              f"argmin always floor(n/2)")


def test_criterion_6_limit_and_divergence():
    limit = limit_j22(0.33, (2.0, 0.5))
    assert limit == pytest.approx(77.05161436201963, rel=1e-12)
    finite = closed_form_j22(10 ** 6, 10 ** 6 // 2, 0.33, (2.0, 0.5))
    rel = abs(finite - limit) / limit
    assert rel <= 1e-3

    # scan columns nondecreasing in n at same parity
    n_grid = list(range(5, 201)) + [10 ** 3, 10 ** 3 + 1, 10 ** 4, 10 ** 4 + 1]
    for th2 in (0.5, 0.1, 0.05):
        grid = scan_j22(n_grid, [0.33], [2.0], [th2])
        values = {n: block[0, 0] for (n, _, _), block in zip(grid.designs, grid.j22)}
        for n in range(5, 199):
            assert values[n + 2] >= values[n] - 1e-9

    # divergence ~ 1/theta2^2: scaled values stabilize to the series coefficient
    scaled = [limit_j22(0.33, (2.0, eps)) * eps ** 2 for eps in (1e-2, 1e-3)]
    coeff = (math.sin(1.0) ** 2 + 0.33 * (2 - 2 * math.cos(1.0))) / (0.67 * 0.33 * 0.25)
    assert scaled[1] == pytest.approx(coeff, rel=1e-4)
    assert scaled[0] == pytest.approx(coeff, rel=3e-3)
    report(6, f"limit value {limit:.2f} matched by n=10^6 closed form (rel {rel:.1e} "
              f"<= 1e-3); columns nondecreasing in n; 1/theta2^2 divergence confirmed")


def test_criterion_7_figure_scans(tmp_path):
    theta_axis = np.linspace(0.0, math.pi, 65).tolist()
    finite_grids = {}
    for fig, n in ((2, 10), (3, 10 ** 4)):
        (block,) = scan_j22([n], [0.33], theta_axis, theta_axis).j22
        assert block.shape == (65, 65)
        finite_grids[fig] = block
    (limit,) = scan_j22([math.inf], [0.33], theta_axis, theta_axis).j22
    # finite-n cells bounded above by the limit cell (monotonicity in n)
    for fig, block in finite_grids.items():
        divergent = np.isnan(block)
        ok = ~divergent
        assert not np.isnan(limit[ok]).any()
        above = [(theta_axis[i], theta_axis[k])
                 for i, k in np.argwhere(ok & (block > limit + 1e-9))]
        assert not above, f"fig {fig} cells (theta1, theta2) exceed the limit: {above}"
        # the theta2 = 0 column is flagged divergent, nothing else
        assert theta_axis[0] == 0.0
        assert divergent.sum() == 65 and divergent[:, 0].all()
    # fig 5 slices and exact n=5 spot value via the CLI
    out = tmp_path / "fig5.csv"
    assert main(["scan", "--fig", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()[1:]
    by_theta2: dict[str, list[tuple[int, float]]] = {}
    for line in lines:
        cells = line.split(",")
        by_theta2.setdefault(cells[4], []).append((int(cells[0]), float(cells[5])))
    assert len(by_theta2) == 3
    for slice_rows in by_theta2.values():
        same_parity = {0: [], 1: []}
        for n, value in slice_rows:
            same_parity[n % 2].append((n, value))
        for series in same_parity.values():
            for (n1, v1), (n2, v2) in zip(series, series[1:]):
                assert v2 >= v1 - 1e-9
    n5 = [v for n, v in by_theta2["0.5"] if n == 5]
    assert n5[0] == pytest.approx(closed_form_j22(5, 2, 0.33, (2.0, 0.5)), rel=1e-15)
    report(7, "figure grids reproduced (n=10, n=10^4, limit, and n-sweep slices); "
              "finite-n cells bounded by the limit; divergent cells flagged")


def test_criterion_8_estimator_consistency():
    start = time.perf_counter()
    n, a, q0, N, reps = 10, 5, 0.33, 100_000, 200
    truth = (2.0, 0.5)
    config = ProtocolConfig.for_two_senders(n, a=a, q0=q0)
    fields = FieldVector(((truth[0] - truth[1]) / 2, (truth[0] + truth[1]) / 2), 1.0)
    dist = outcome_distribution(config, fields)
    estimates = []
    for rep in range(reps):
        counts = OutcomeCounts(draw_counts(dist, N, philox(8080, rep)))
        estimates.append(mle_estimate(counts, config).theta_hat.theta[1])
    var = float(np.var(estimates, ddof=1))
    crb = closed_form_j22(n, a, q0, truth) / N
    ratio = var / crb
    assert 0.5 * crb <= var <= 3.0 * crb, (
        f"Var(theta2_hat) = {var:.3e} outside [0.5, 3] x CRB ({crb:.3e})"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 8 runtime {elapsed:.1f}s exceeds 5 min"
    report(8, f"estimator consistency over {reps} replicas of N={N}: "
              f"Var(theta2_hat)/CRB = {ratio:.2f} in [0.5, 3] in {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    run_config = {
        "protocol": {"n": 5, "m_est": 2, "t": 1.0, "a": 2, "q0": 0.33},
        "scenario": {"sender_positions": [2, 4], "omegas": [0.75, 1.25]},
        "run": {"rounds": 5000, "seed": 42},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    counts_path = tmp_path / "counts.json"
    counts_path.write_text(json.dumps({"counts": {"0+": 120, "0-": 260, "2+": 430, "f": 190}}))
    commands = {
        "verify": ["verify", "--n", "5", "--m", "2", "--trials", "5", "--seed", "3"],
        "verify-above-cap": ["verify", "--n", "25", "--m", "2", "--trials", "2", "--seed", "3"],
        "scan": ["scan", "--n", "5,9", "--q0", "0.33", "--theta1", "1.0,2.0",
                 "--theta2", "0.5"],
        "simulate": ["simulate", "--config", str(config_path)],
        "estimate": ["estimate", "--counts", str(counts_path), "--config", str(config_path)],
    }
    for verb, args in commands.items():
        outputs = []
        for attempt in "abc":
            out = tmp_path / f"{verb}_{attempt}.out"
            code = main(args + ["--out", str(out)])
            assert code == 0, f"{verb} exited {code}"
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], (
            f"{verb} output not byte-identical across runs"
        )
    report(9, "all four CLI verbs byte-identical across repeated seeded runs")
