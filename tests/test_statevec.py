import itertools
import math
import tracemalloc

import numpy as np
import pytest
import reference

from anonsense import statevec
from anonsense.combinatorics import MINUS, PLUS, SIGNS, FieldVector
from anonsense.engine import PROB_ATOL, OutcomeDistribution, ProtocolConfig, max_senders, outcome_distribution
from anonsense.statevec import (
    OracleLimitError,
    SenderAssignment,
    _hamming_weights,
    apply_sender_unitary,
    conditional_distributions,
    dicke_state,
    oracle_distribution,
    phi_state,
)
from reference import _sender_phases, h_coefficient, tv_distance


def bitflip_all(state, n):
    """Reverse each basis index bitwise: |x> -> |~x & mask>."""
    out = np.zeros_like(state)
    mask = (1 << n) - 1
    for x in range(1 << n):
        out[x ^ mask] = state[x]
    return out


def test_dicke_trivial_cases():
    assert np.allclose(dicke_state(1, 0), [1, 0])
    v = dicke_state(3, 1)
    expect = np.zeros(8)
    expect[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(v, expect)


def test_dicke_norm_and_support():
    for n in range(1, 9):
        for k in range(n + 1):
            v = dicke_state(n, k)
            assert abs(np.linalg.norm(v) - 1) < 1e-12
            support = np.flatnonzero(np.abs(v) > 0)
            assert len(support) == math.comb(n, k)
            assert all(int(x).bit_count() == k for x in support)


@pytest.mark.parametrize("n", range(1, 9))
def test_dicke_bitflip_complement(n):
    for k in range(n + 1):
        assert np.allclose(bitflip_all(dicke_state(n, k), n), dicke_state(n, n - k), atol=1e-12)


def test_dicke_bitwise_equal_to_popcount_reference():
    for n in range(1, 11):
        for k in range(n + 1):
            expect = np.zeros(1 << n, dtype=np.complex128)
            expect[[x for x in range(1 << n) if x.bit_count() == k]] = 1.0 / math.sqrt(math.comb(n, k))
            assert np.array_equal(dicke_state(n, k).view(np.uint64), expect.view(np.uint64))


def test_hamming_weights_shared_read_only():
    weights = _hamming_weights(6)
    assert _hamming_weights(6) is weights
    with pytest.raises(ValueError):
        weights[0] = 1


def test_dicke_rejects_out_of_range():
    with pytest.raises(ValueError):
        dicke_state(3, 4)
    with pytest.raises(OracleLimitError):
        dicke_state(25, 1)


def test_phi_ghz():
    v = phi_state(4, 0, PLUS)
    expect = np.zeros(16)
    expect[0] = expect[15] = 1 / math.sqrt(2)
    assert np.allclose(v, expect)


def dicke_phi(n, k, sign):
    """(|D_k> + sign |D_{n-k}>)/sqrt(2) summed from the two Dicke vectors: the reference formula."""
    if 2 * k == n:
        return dicke_state(n, k) if sign == PLUS else np.zeros(1 << n, dtype=np.complex128)
    s = 1.0 if sign == PLUS else -1.0
    return (dicke_state(n, k) + s * dicke_state(n, n - k)) / math.sqrt(2)


def test_phi_bitwise_equal_to_dicke_sum():
    for n in range(1, 15):
        for k in range(n // 2 + 1):
            for sign in SIGNS:
                got, expect = phi_state(n, k, sign), dicke_phi(n, k, sign)
                assert got.dtype == expect.dtype
                assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_phi_central_minus_is_null():
    assert np.allclose(phi_state(4, 2, MINUS), 0.0)
    assert np.allclose(phi_state(4, 2, PLUS), dicke_state(4, 2))


@pytest.mark.parametrize("n", range(2, 9))
def test_phi_orthonormality(n):
    states = {}
    for k in range(n // 2 + 1):
        for sign in (PLUS, MINUS):
            states[(k, sign)] = phi_state(n, k, sign)
    for (k1, s1), (k2, s2) in itertools.combinations_with_replacement(states, 2):
        v1, v2 = states[(k1, s1)], states[(k2, s2)]
        inner = np.vdot(v1, v2)
        if np.linalg.norm(v1) == 0 or np.linalg.norm(v2) == 0:
            assert abs(inner) < 1e-14  # the non-existent central '-' state
        elif (k1, s1) == (k2, s2):
            assert abs(inner - 1) < 1e-12
        else:
            assert abs(inner) < 1e-12


def test_dicke_split_identity():
    # rebuilding |D^n_k> from the two-block decomposition reproduces the dense vector
    for n in range(2, 9):
        for m in range(1, n):
            r = n - m
            for k in range(n + 1):
                rebuilt = np.zeros(1 << n, dtype=complex)
                for l in range(max(0, k - r), min(k, m) + 1):
                    # senders on the low m bits: index = x_R * 2^m + x_S
                    block = np.kron(dicke_state(r, k - l), dicke_state(m, l))
                    rebuilt += math.sqrt(math.comb(m, l)) * math.sqrt(math.comb(r, k - l)) * block
                rebuilt /= math.sqrt(math.comb(n, k))
                assert np.max(np.abs(rebuilt - dicke_state(n, k))) <= 1e-12


def per_state_phases(assign):
    """The diagonal of U evaluated basis state by basis state: the reference formula."""
    idx = np.arange(1 << assign.n)
    acc = np.zeros(1 << assign.n)
    for pos, w in zip(assign.sender_positions, assign.fields.omegas):
        bit = (idx >> (pos - 1)) & 1
        acc = acc + w * (1.0 - 2.0 * bit)
    return np.exp(-0.5j * assign.fields.t * acc)


def test_sender_phases_bitwise_equal_per_state_formula(rng):
    for n in range(1, 17):
        for m in range(1, max_senders(n) + 1):
            for _ in range(3):
                positions = tuple(rng.permutation(np.arange(1, n + 1))[:m].tolist())
                fields = FieldVector(tuple(rng.uniform(-3.0, 3.0, m)), t=float(rng.uniform(0.1, 5.0)))
                assign = SenderAssignment(n, positions, fields)
                got = _sender_phases(assign)
                assert np.array_equal(got.view(np.uint64), per_state_phases(assign).view(np.uint64))


def test_unitary_bitwise_equal_per_state_formula(rng):
    for n in range(1, 13):
        for m in range(1, max_senders(n) + 1):
            positions = tuple(rng.permutation(np.arange(1, n + 1))[:m].tolist())
            fields = FieldVector(tuple(rng.uniform(-3.0, 3.0, m)), t=float(rng.uniform(0.1, 5.0)))
            assign = SenderAssignment(n, positions, fields)
            got = apply_sender_unitary(np.ones(1 << n, dtype=complex), assign)
            assert np.array_equal(got.view(np.uint64), per_state_phases(assign).view(np.uint64))


def test_unitary_identity_for_zero_fields():
    fields = FieldVector(omegas=(0.0, 0.0), t=1.0)
    assign = SenderAssignment(4, (1, 3), fields)
    state = phi_state(4, 1, PLUS)
    assert np.allclose(apply_sender_unitary(state, assign), state)


def test_unitary_single_qubit_relative_phase():
    w, t = 1.3, 0.7
    assign = SenderAssignment(1, (1,), FieldVector(omegas=(w,), t=t))
    plus = np.array([1, 1]) / math.sqrt(2)
    out = apply_sender_unitary(plus.astype(complex), assign)
    # up to global phase: (|0> + e^{i w t}|1>)/sqrt(2)
    rel = out[1] / out[0]
    assert abs(rel - np.exp(1j * w * t)) < 1e-12


def test_unitary_is_diagonal_and_norm_preserving(rng):
    fields = FieldVector(omegas=(0.4, 2.2), t=1.1)
    assign = SenderAssignment(5, (2, 4), fields)
    state = rng.normal(size=32) + 1j * rng.normal(size=32)
    state /= np.linalg.norm(state)
    out = apply_sender_unitary(state.copy(), assign)
    assert np.max(np.abs(np.abs(out) - np.abs(state))) <= 1e-12
    assert abs(np.linalg.norm(out) - 1) <= 1e-12


def test_dicke_diagonal_elements_decompose_over_h(rng):
    # <D_k|U|D_k> = sum_l C(n-m, k-l) h(l) / C(n, k): the identity behind
    # every closed-form amplitude, checked against dense inner products
    for n in (4, 6, 7):
        for m in (1, 2, 3):
            if m > (n + 1) // 2:
                continue
            omegas = tuple(sorted(rng.uniform(0.1, 3.0, m)))
            fields = FieldVector(omegas, t=1.1)
            positions = tuple(sorted(rng.choice(np.arange(1, n + 1), m, replace=False).tolist()))
            assign = SenderAssignment(n, positions, fields)
            for k in range(n + 1):
                dk = dicke_state(n, k)
                dense = np.vdot(dk, apply_sender_unitary(dk, assign))
                hsum = sum(
                    math.comb(n - m, k - l) * h_coefficient(fields, l)
                    for l in range(max(0, k - (n - m)), min(k, m) + 1)
                ) / math.comb(n, k)
                assert abs(dense - hsum) <= 1e-12


def test_unitary_conjugation_under_global_bitflip(rng):
    # <D_{n-k}|U|D_{n-k}> equals the conjugate of <D_k|U|D_k>
    for n in range(2, 9):
        m = min(2, (n + 1) // 2)
        omegas = tuple(sorted(rng.uniform(0.1, 3.0, m)))
        assign = SenderAssignment(n, tuple(range(1, m + 1)), FieldVector(omegas, t=1.3))
        for k in range(n + 1):
            dk = dicke_state(n, k)
            dnk = dicke_state(n, n - k)
            lhs = np.vdot(dnk, apply_sender_unitary(dnk, assign))
            rhs = np.vdot(dk, apply_sender_unitary(dk, assign)).conjugate()
            assert abs(lhs - rhs) <= 1e-12


def test_sender_assignment_validation():
    fields = FieldVector(omegas=(1.0, 2.0), t=1.0)
    with pytest.raises(ValueError):
        SenderAssignment(4, (1, 1), fields)
    with pytest.raises(ValueError):
        SenderAssignment(4, (0, 2), fields)
    with pytest.raises(ValueError):
        SenderAssignment(4, (1,), fields)  # m mismatch
    with pytest.raises(ValueError):
        SenderAssignment(3, (1, 2, 3), FieldVector((1.0, 2.0, 3.0), 1.0))  # m > floor((n+1)/2)


def test_oracle_ghz_pi_phase():
    # theta = pi makes the (0,+) outcome impossible
    config = ProtocolConfig.for_single_sender(4)
    assign = SenderAssignment(4, (2,), FieldVector(omegas=(math.pi,), t=1.0))
    dist = oracle_distribution(assign, config)
    assert dist.probs["0+"] == pytest.approx(0.0, abs=1e-12)
    assert dist.probs["f"] == pytest.approx(1.0, abs=1e-12)


def test_single_sender_state_is_position_independent(rng):
    # stronger than distribution equality: the evolved pure state itself
    for n in range(2, 9):
        w = float(rng.uniform(0.2, 3.0))
        ghz = phi_state(n, 0, PLUS)
        states = [
            apply_sender_unitary(ghz, SenderAssignment(n, (j,), FieldVector((w,), 1.0)))
            for j in range(1, n + 1)
        ]
        for other in states[1:]:
            assert abs(abs(np.vdot(states[0], other)) - 1.0) <= 1e-12


def test_oracle_permutation_symmetry(rng):
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.4)
    fields = FieldVector(omegas=(0.8, 1.9), t=1.0)
    base = oracle_distribution(SenderAssignment(6, (2, 5), fields), config)
    for positions in [(5, 2), (1, 6), (3, 4)]:
        # swapped positions carry swapped amplitudes: same multiset
        flipped = FieldVector(omegas=(1.9, 0.8), t=1.0) if positions == (5, 2) else fields
        other = oracle_distribution(SenderAssignment(6, positions, flipped), config)
        assert tv_distance(base, other) <= 1e-12


def test_oracle_limit_guard():
    # the cap guards the dense vectors only: one subset's distribution runs above it
    config = ProtocolConfig.for_single_sender(25)
    fields = FieldVector((1.0,), 1.0)
    dist = oracle_distribution(SenderAssignment(25, (1,), fields), config)
    closed = outcome_distribution(config, fields)
    assert list(dist.probs) == list(closed.probs)
    for label, p in closed.probs.items():
        assert abs(dist.probs[label] - p) <= 1e-12
    with pytest.raises(OracleLimitError):
        dicke_state(25, 1)


def test_conditional_distributions_mix_to_oracle():
    config = ProtocolConfig.for_two_senders(6, a=2, q0=0.25)
    fields = FieldVector(omegas=(0.6, 1.4), t=1.0)
    assign = SenderAssignment(6, (1, 4), fields)
    conditionals = conditional_distributions(assign, config)
    mixture = oracle_distribution(assign, config)
    for label in mixture.probs:
        mixed = sum(config.q[i] * conditionals[i].probs[label] for i in conditionals)
        assert mixed == pytest.approx(mixture.probs[label], abs=1e-12)


def test_conditional_distributions_equal_dense_reference(rng):
    # each initial state's conditional from the Dicke means of the one subset
    for n in range(2, 15):
        configs = [ProtocolConfig.for_single_sender(n)]
        if n >= 5:
            configs += [ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33), all_switches_config(n)]
        for config in configs:
            for m in range(1, min(3, max_senders(n)) + 1):
                positions = tuple(sorted(rng.choice(np.arange(1, n + 1), m, replace=False).tolist()))
                fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=1.0)
                assign = SenderAssignment(n, positions, fields)
                got = conditional_distributions(assign, config)
                dense = reference.conditional_distributions(assign, config)
                assert list(got) == list(dense)
                for ip, dist in dense.items():
                    assert list(got[ip].probs) == list(dist.probs)
                    for label, p in dist.probs.items():
                        assert abs(got[ip].probs[label] - p) <= 1e-12


def test_conditional_distributions_mix_to_closed_form_at_large_n():
    fields = FieldVector(omegas=(0.75, 1.25), t=1.0)
    for n in (300, 3000, 10_000):
        config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
        conditionals = conditional_distributions(SenderAssignment(n, (2, n - 7), fields), config)
        for label, p in outcome_distribution(config, fields).probs.items():
            mixed = sum(config.q[i] * conditionals[i].probs[label] for i in conditionals)
            assert abs(mixed - p) <= 1e-12


def all_switches_config(n):
    """Two senders, every projector on (the central '-' of even n too); q = 0 on row 1."""
    rows = n // 2 + 1
    q = [0.0 if i == 1 else 1.0 / (rows - 1) for i in range(rows)]
    return ProtocolConfig(n=n, m_est=2, t=1.0, q=tuple(q), c_plus=(1,) * rows,
                          c_minus=(1,) * rows, a=n // 2)


def reference_weights(config):
    """(support, conj(bra) ket) per label and i' with q[i'] > 0, from full reference vectors;
    the support holds the basis states of Hamming weight i' or n - i'."""
    n = config.n
    weights = np.array([x.bit_count() for x in range(1 << n)])
    out = []
    for i, sign in config.outcomes:
        row = []
        for ip in range(config.kmax + 1):
            if config.q[ip] > 0.0:
                support = np.flatnonzero((weights == ip) | (weights == n - ip))
                row.append((support, dicke_phi(n, i, sign)[support].conj()
                            * dicke_phi(n, ip, PLUS)[support]))
        out.append(row)
    return out


def reference_amplitudes(assign, pair_weights):
    """<phi_{i,s}|U|phi_{i',+}> per label and i': one sum of U(x) conj(bra) ket over the support."""
    phases = per_state_phases(assign)
    return np.array([[(phases[support] * w).sum() for support, w in row] for row in pair_weights])


@pytest.mark.parametrize("rows", [1, 3, None])  # one row per block, several, all rows in one
def test_amplitudes_bitwise_equal_to_a_sum_over_each_support(rng, monkeypatch, rows):
    for n in range(5, 12):
        for config in (ProtocolConfig.for_single_sender(n),
                       ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33),
                       all_switches_config(n)):
            basis = reference._DenseBasis(config)
            support = max(len(states) for states, _, _ in basis.blocks)
            entries = 1 << 30 if rows is None else rows * support
            monkeypatch.setattr(reference, "_PHASE_BLOCK_ENTRIES", entries)
            fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, 2))), t=1.0)
            subsets = list(itertools.combinations(range(1, n + 1), 2))
            # a pair overlaps when i = i', but for the null central '-'
            overlap = np.array([[i == ip and not (sign == MINUS and 2 * i == n)
                                 for ip in basis.order] for i, sign in config.outcomes])
            got = basis.amplitudes(fields, np.array(subsets))
            pair_weights = reference_weights(config)
            for subset, amps in zip(subsets, got):
                expect = reference_amplitudes(SenderAssignment(n, subset, fields), pair_weights)
                assert np.array_equal(amps[overlap].view(np.uint64),
                                      expect[overlap].view(np.uint64))
                assert not amps[~overlap].any() and not expect[~overlap].any()


def with_residual(measured):
    """The residual 'f' after a label-by-label loop over one row: the reference formula."""
    probs = {}
    total = 0.0
    for label, p in measured:
        probs[label] = min(p, 1.0)
        total += p
    residual = 1.0 - total
    if residual < -PROB_ATOL:
        raise ValueError(f"active probabilities exceed 1 by {-residual}")
    probs["f"] = max(residual, 0.0)
    return OutcomeDistribution(probs=probs)


def test_vectorized_residual_bitwise_equal_to_row_loop(rng):
    # 12 labels, as many as numpy's pairwise row sums would regroup
    labels = [f"{i}{sign}" for i in range(6) for sign in SIGNS]
    for size in (1, 2, 17):
        measured = rng.dirichlet(np.ones(13), size=size)[:, :12]
        # rows summing to just above 1 and a label just above 1, within PROB_ATOL
        measured[0] *= (1.0 + 5e-13) / measured[0].sum()
        if size > 1:
            measured[1] = [1.0 + 5e-13] + [0.0] * 11
        got = statevec._with_residual(measured)
        for row, measured_row in zip(got, measured.tolist()):
            expect = list(with_residual(zip(labels, measured_row)).probs.values())
            assert row.view(np.uint64).tolist() == np.array(expect).view(np.uint64).tolist()
    over = np.array([[0.5, 0.25], [0.75, 0.5]])
    with pytest.raises(ValueError, match=r"^active probabilities exceed 1 by 0.25$"):
        statevec._with_residual(over)
    with pytest.raises(ValueError, match="not normalized: total=nan"):
        statevec._with_residual(np.array([[0.5, 0.25], [math.nan, 0.5]]))


def test_dense_basis_builds_no_full_vector():
    # one 2^18 complex vector is 4 MiB; the basis holds C(18, 9) weights per pair
    statevec._hamming_weights.cache_clear()
    tracemalloc.start()
    try:
        basis = reference._DenseBasis(ProtocolConfig.for_two_senders(18, a=9, q0=0.33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(states) for states, _, _ in basis.blocks] == [2, math.comb(18, 9)]
    assert peak < 16 * 2 ** 18 // 2
