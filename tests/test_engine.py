import math
from dataclasses import replace

import numpy as np
import pytest

from anonsense import cli, protocol
from anonsense.combinatorics import MINUS, PLUS, FieldVector
from anonsense.engine import (
    ConfigError,
    ProtocolConfig,
    ThetaModel,
    gamma,
    max_senders,
    outcome_distribution,
)
from anonsense.statevec import SenderAssignment, apply_sender_unitary, phi_state
from reference import oracle_distribution

# golden n=5 two-sender distribution at omegas=(0.75, 1.25), t=1, a=2, q0=0.33,
# frozen from the hand-expanded probability formulas (theta1=2, theta2=-0.5)
GOLDEN_N5 = {
    "0+": 0.09633577196972154,
    "0-": 0.2336642280302785,
    "2+": 0.42609039251312186,
    "f": 0.24390960748687807,
}


def test_gamma_zero_fields_collapse():
    fields = FieldVector(omegas=(0.0, 0.0), t=1.0)
    for n in (5, 6, 9):
        for k in range(n // 2 + 1):
            assert gamma(n, fields, k, PLUS) == pytest.approx(1.0, abs=1e-12)
            assert gamma(n, fields, k, MINUS) == pytest.approx(0.0, abs=1e-12)


def test_gamma_single_sender_cosine():
    w, t = 1.7, 0.6
    for n in (1, 4, 11, 200):
        g = gamma(n, FieldVector((w,), t), 0, PLUS)
        assert g == pytest.approx(math.cos(w * t / 2), abs=1e-13)


def test_gamma_against_dense_inner_product(rng):
    n, m = 6, 2
    omegas = tuple(sorted(rng.uniform(0.1, 3.0, m)))
    fields = FieldVector(omegas, t=1.2)
    assign = SenderAssignment(n, (2, 5), fields)
    for k in range(n // 2 + 1):
        for sign in (PLUS, MINUS):
            bra = phi_state(n, k, PLUS)
            ket = phi_state(n, k, sign)
            dense = np.vdot(bra, apply_sender_unitary(ket, assign))
            assert abs(gamma(n, fields, k, sign) - dense) <= 1e-10


def test_gamma_conjugation_and_magnitude(rng):
    for n in (4, 5, 8):
        for m in (1, 2):
            fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=0.9)
            for k in range(n // 2 + 1):
                gp = gamma(n, fields, k, PLUS)
                gm = gamma(n, fields, k, MINUS)
                assert abs(gp.conjugate() - gp) <= 1e-14
                assert abs(gm.conjugate() + gm) <= 1e-14
                assert abs(gp) <= 1 + 1e-12
                assert abs(gm) <= 1 + 1e-12
                if 2 * k == n:
                    assert gm == 0


def test_gamma_rejects_bad_args():
    fields = FieldVector((1.0,), 1.0)
    with pytest.raises(ValueError):
        gamma(5, fields, 3, PLUS)
    with pytest.raises(ValueError):
        gamma(3, FieldVector((1.0, 2.0, 3.0), 1.0), 1, PLUS)


def test_gamma_large_n_big_integer_path():
    # binomial ratios at n = 10^4 stay exact; zero fields must still collapse to 1
    fields = FieldVector(omegas=(0.0, 0.0), t=1.0)
    assert gamma(10_000, fields, 5_000, PLUS) == pytest.approx(1.0, abs=1e-12)
    g = gamma(10_000, FieldVector((0.7, 1.3), 1.0), 4_999, PLUS)
    assert abs(g) <= 1.0


def test_distribution_single_sender_cases():
    config = ProtocolConfig.for_single_sender(6)
    flat = outcome_distribution(config, FieldVector((0.0,), 1.0))
    assert flat.probs == {"0+": 1.0, "f": 0.0}
    w, t = 1.1, 1.0
    dist = outcome_distribution(config, FieldVector((w,), t))
    assert dist.probs["0+"] == pytest.approx(math.cos(w * t / 2) ** 2, abs=1e-14)
    assert dist.probs["f"] == pytest.approx(math.sin(w * t / 2) ** 2, abs=1e-14)


def test_distribution_golden_n5():
    config = ProtocolConfig.for_two_senders(5, a=2, q0=0.33)
    fields = FieldVector((0.75, 1.25), 1.0)
    dist = outcome_distribution(config, fields)
    assert set(dist.probs) == set(GOLDEN_N5)
    for label, expect in GOLDEN_N5.items():
        assert dist.probs[label] == pytest.approx(expect, abs=1e-14)
    # the dense oracle must land on the same golden values
    oracle = oracle_distribution(SenderAssignment(5, (2, 4), fields), config)
    for label, expect in GOLDEN_N5.items():
        assert oracle.probs[label] == pytest.approx(expect, abs=1e-12)


def test_distribution_matches_oracle_randomized(rng):
    for n in range(2, 9):
        for m in (1, 2):
            if m > max_senders(n):
                continue
            configs = [ProtocolConfig.for_single_sender(n)]
            if n >= 5:
                configs.append(
                    ProtocolConfig.for_two_senders(n, a=int(rng.integers(2, n // 2 + 1)), q0=float(rng.uniform(0.1, 0.9)))
                )
            fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=float(rng.uniform(0.3, 1.8)))
            positions = tuple(sorted(rng.choice(np.arange(1, n + 1), m, replace=False).tolist()))
            for config in configs:
                closed = outcome_distribution(config, fields)
                dense = oracle_distribution(SenderAssignment(n, positions, fields), config)
                for label in closed.probs:
                    assert closed.probs[label] == pytest.approx(dense.probs[label], abs=1e-10)


def test_distribution_even_in_each_phase():
    # swapping the amplitudes flips theta2; negating both flips theta1 (mod 2pi)
    config = ProtocolConfig.for_two_senders(8, a=4, q0=0.33)
    base = outcome_distribution(config, FieldVector((0.7, 1.3), 1.0))
    swapped = outcome_distribution(config, FieldVector((1.3, 0.7), 1.0))
    negated = outcome_distribution(config, FieldVector((-0.7, -1.3), 1.0))
    assert base.tv_distance(swapped) <= 1e-12
    assert base.tv_distance(negated) <= 1e-12


def test_distribution_translation_symmetries():
    # the cross term cos(theta1/2)cos(theta2/2) makes each phase 4*pi-periodic
    # on its own; the joint 2*pi shift of both phases is a symmetry
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.4)
    t = 1.0
    base = outcome_distribution(config, FieldVector((0.7, 1.3), t))
    # omega1 + 2*pi/t: theta1 and theta2 both move by 2*pi
    joint = outcome_distribution(config, FieldVector((0.7 + 2 * math.pi / t, 1.3), t))
    assert base.tv_distance(joint) <= 1e-12
    # both amplitudes + 2*pi/t: theta1 moves by 4*pi, theta2 fixed
    axis1 = outcome_distribution(config, FieldVector((0.7 + 2 * math.pi / t, 1.3 + 2 * math.pi / t), t))
    assert base.tv_distance(axis1) <= 1e-12
    # opposite 2*pi/t shifts: theta2 moves by 4*pi, theta1 fixed
    axis2 = outcome_distribution(config, FieldVector((0.7 - 2 * math.pi / t, 1.3 + 2 * math.pi / t), t))
    assert base.tv_distance(axis2) <= 1e-12


def test_central_minus_outcome_kept_with_zero_probability():
    base = ProtocolConfig.for_two_senders(6, a=3, q0=0.4)
    config = ProtocolConfig(n=6, m_est=2, t=1.0, q=base.q, c_plus=base.c_plus,
                            c_minus=(1, 0, 0, 1), a=3)
    dist = outcome_distribution(config, FieldVector((0.5, 1.5), 1.0))
    assert "3-" in dist.probs
    assert dist.probs["3-"] == 0.0


def test_distribution_with_more_senders_than_designed(rng):
    # true m may exceed m_est; the distribution is still defined and must
    # keep matching the dense simulator
    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    fields = FieldVector((0.4, 0.9, 1.7), 1.0)
    dist = outcome_distribution(config, fields)
    assert abs(sum(dist.probs.values()) - 1.0) <= 1e-10
    for positions in ((1, 2, 3), (2, 5, 7), (4, 6, 7)):
        dense = oracle_distribution(SenderAssignment(7, positions, fields), config)
        for label in dist.probs:
            assert dist.probs[label] == pytest.approx(dense.probs[label], abs=1e-10)
    # and the same with four live senders against the single-sender design
    config1 = ProtocolConfig.for_single_sender(8)
    fields4 = FieldVector(tuple(sorted(rng.uniform(0.2, 2.5, 4))), t=0.8)
    closed = outcome_distribution(config1, fields4)
    dense = oracle_distribution(SenderAssignment(8, (1, 3, 5, 8), fields4), config1)
    for label in closed.probs:
        assert closed.probs[label] == pytest.approx(dense.probs[label], abs=1e-10)


def test_validate_config_examples():
    with pytest.raises(ConfigError) as err:
        ProtocolConfig.for_two_senders(4, a=2, q0=0.5)
    assert any("n >= 5" in v for v in err.value.violations)

    # weight on an index whose switches are both off
    with pytest.raises(ConfigError) as err:
        ProtocolConfig(n=4, m_est=1, t=1.0, q=(0.5, 0.5, 0.0),
                       c_plus=(1, 0, 0), c_minus=(0, 0, 0), a=None)
    assert any("q[1]" in v for v in err.value.violations)

    # valid configs construct; a replace is checked like a construction
    good = ProtocolConfig.for_two_senders(9, a=4, q0=0.33)
    ProtocolConfig.for_single_sender(3)
    with pytest.raises(ConfigError) as err:
        replace(good, t=0.0, a=5)
    assert err.value.violations == ["t must be positive and finite, got 0.0",
                                    "a=5 outside [2, floor(n/2)=4]"]


def test_validate_config_reports_each_invariant():
    cases = [
        (dict(n=5, m_est=2, t=-1.0, q=(0.6, 0.2, 0.1), c_plus=(1, 0, 2), c_minus=(0, 0, 0), a=1),
         ["t must be positive", "sum(q)", "not 0/1", "a=1"]),
        # a fractional switch was truncated to a valid 0 before it was checked
        (dict(n=5, m_est=1, t=1.0, q=(1.0, 0.0, 0.0), c_plus=(1, 0.7, 0), c_minus=(0, 0, 0)),
         ["c_plus[1] = 0.7 is not 0/1"]),
    ]
    for bad in (math.nan, math.inf):
        cases.append((dict(n=4, m_est=1, t=bad, q=(bad, 0.0, 1.0), c_plus=(1, 0, 1),
                           c_minus=(0, 0, 0)),
                      ["t must be positive and finite",
                       f"q[0] = {bad} is negative or not finite"]))
    for fields, expected in cases:
        with pytest.raises(ConfigError) as err:
            ProtocolConfig(**fields)
        violations = err.value.violations
        for fragment in expected:
            assert any(fragment in v for v in violations), (fragment, violations)


def test_outcome_distribution_rejects_invalid_config():
    with pytest.raises(ConfigError) as err:
        config = ProtocolConfig.for_two_senders(4, a=2, q0=0.5)
        outcome_distribution(config, FieldVector((0.5, 1.0), 1.0))
    assert "n >= 5" in str(err.value)


def test_labels_order_is_canonical():
    config = ProtocolConfig.for_two_senders(9, a=3, q0=0.2)
    assert config.labels() == ["0+", "0-", "3+", "f"]


def test_every_entry_point_reports_too_many_senders_alike(capsys):
    message = "m=3 exceeds floor((n+1)/2)=2 for n=4"
    fields = FieldVector((0.5, 1.0, 1.5), 1.0)
    config = ProtocolConfig.for_single_sender(4)
    calls = [
        lambda: ThetaModel(config, m=3),
        lambda: gamma(4, fields, 0, PLUS),
        lambda: SenderAssignment(4, (1, 2, 3), fields),
        lambda: protocol.verify_tracelessness(config, fields),
        lambda: protocol.negative_control(4, fields),
    ]
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message
    assert cli.main(["verify", "--n", "4", "--m", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
