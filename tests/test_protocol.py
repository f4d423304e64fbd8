import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import reference

from anonsense import protocol, statevec
from anonsense.combinatorics import MINUS, PLUS, SIGNS, FieldVector
from anonsense.configio import dumps_json, transcript_to_dict
from anonsense.engine import (
    ConfigError,
    OutcomeDistribution,
    ProtocolConfig,
    max_senders,
    outcome_distribution,
)
from anonsense.estimation import OutcomeCounts, log_likelihood
from anonsense.fisher import PhaseParameters, fisher_matrix, omega_crb_diag, optimal_a, phases_from_fields
from anonsense.protocol import (
    Transcript,
    eavesdropper_view,
    negative_control,
    run_protocol,
    sender_subsets,
    verify_tracelessness,
)
from anonsense.sampling import draw_counts, philox
from anonsense.statevec import SenderAssignment, apply_sender_unitary, phi_state
from reference import oracle_distribution


def test_run_protocol_zero_field_all_plus():
    config = ProtocolConfig.for_single_sender(4)
    assign = SenderAssignment(4, (3,), FieldVector((0.0,), 1.0))
    transcript = run_protocol(assign, config, rounds=500, seed=1)
    assert transcript.counts == {"0+": 500, "f": 0}


def test_identical_transcripts_across_sender_sets():
    # the executable form of the anonymity claim: same seed, different senders,
    # bit-identical transcripts
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.33)
    fields = FieldVector((0.8, 1.6), 1.0)
    serialized = set()
    for positions in itertools.combinations(range(1, 7), 2):
        transcript = run_protocol(SenderAssignment(6, positions, fields), config,
                                  rounds=5000, seed=99)
        serialized.add(dumps_json(transcript_to_dict(transcript)))
    assert len(serialized) == 1


def test_oracle_and_analytic_paths_have_same_statistics():
    # the per-initial-state draws meet the closed-form mixture's statistics,
    # on either side of the dense cap
    fields = FieldVector((0.75, 1.25), 1.0)
    n_rounds = 200_000
    for n in (5, 25):
        config = ProtocolConfig.for_two_senders(n, a=2, q0=0.33)
        transcript = run_protocol(SenderAssignment(n, (1, 3), fields), config,
                                  rounds=n_rounds, seed=5)
        dist = outcome_distribution(config, fields)
        for label, p in dist.probs.items():
            sigma = math.sqrt(max(p * (1 - p), 1e-12) * n_rounds)
            assert abs(transcript.counts[label] - p * n_rounds) <= 5 * sigma + 1


def test_dense_cap_selects_no_path(monkeypatch):
    # simulate writes the same bytes with the cap at its value and with a cap
    # that refuses every dense vector
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.33)
    assign = SenderAssignment(6, (1, 3), FieldVector((0.75, 1.25), 1.0))
    docs = []
    for limit in (statevec.DENSE_LIMIT, 0):
        monkeypatch.setattr(statevec, "DENSE_LIMIT", limit)
        docs.append(dumps_json(transcript_to_dict(run_protocol(assign, config, rounds=5000, seed=1))))
    assert docs[0] == docs[1]


def test_run_protocol_at_ten_thousand_participants():
    # the north star's n: each initial state's conditional from the Dicke means
    n, rounds = 10_000, 20_000
    config = ProtocolConfig.for_two_senders(n, a=optimal_a(n), q0=0.33)
    fields = FieldVector((0.75, 1.25), 1.0)
    transcript = run_protocol(SenderAssignment(n, (17, 9001), fields), config,
                              rounds=rounds, seed=3)
    counts = transcript.counts
    assert sum(counts.values()) == rounds
    assert list(counts) == config.labels()
    ll_hat = log_likelihood(OutcomeCounts(counts), config, transcript.broadcast.theta_hat)
    truth = PhaseParameters(phases_from_fields(fields))
    assert ll_hat >= log_likelihood(OutcomeCounts(counts), config, truth)


def test_run_protocol_estimates_near_truth():
    config = ProtocolConfig.for_two_senders(5, a=2, q0=0.33)
    fields = FieldVector((0.75, 1.25), 1.0)
    transcript = run_protocol(SenderAssignment(5, (2, 4), fields), config,
                              rounds=100_000, seed=42)
    est = transcript.broadcast
    assert est.crb_se is not None
    # amplitude-space bound from the phase-space Fisher matrix
    res = fisher_matrix(config, PhaseParameters((2.0, 0.5)), N=transcript.rounds)
    omega_se = [math.sqrt(v) for v in omega_crb_diag(res, t=1.0)]
    for truth, got, se in zip((0.75, 1.25), est.omega_hat, omega_se):
        assert abs(got - truth) <= 3 * se


def test_seed_determinism_bytes():
    config = ProtocolConfig.for_two_senders(5, a=2, q0=0.33)
    assign = SenderAssignment(5, (2, 4), FieldVector((0.75, 1.25), 1.0))
    a = run_protocol(assign, config, rounds=10_000, seed=7)
    b = run_protocol(assign, config, rounds=10_000, seed=7)
    assert dumps_json(transcript_to_dict(a)) == dumps_json(transcript_to_dict(b))
    c = run_protocol(assign, config, rounds=10_000, seed=8)
    assert dumps_json(transcript_to_dict(a)) != dumps_json(transcript_to_dict(c))


def test_transcript_schema_has_no_sender_fields():
    field_names = {f.name for f in dataclasses.fields(Transcript)}
    assert field_names == {"config", "rounds", "counts", "broadcast", "seed"}
    config = ProtocolConfig.for_single_sender(3)
    assign = SenderAssignment(3, (2,), FieldVector((1.0,), 1.0))
    transcript = run_protocol(assign, config, rounds=10, seed=0)
    assert eavesdropper_view(transcript) is transcript
    doc = dumps_json(transcript_to_dict(transcript))
    assert "position" not in doc and "sender" not in doc


def test_exact_tracelessness_sweep(rng):
    for n in range(3, 8):
        for m in (1, 2):
            if m > max_senders(n):
                continue
            config = (ProtocolConfig.for_two_senders(n, a=2, q0=0.33)
                      if (n >= 5 and m == 2) else ProtocolConfig.for_single_sender(n))
            fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=1.0)
            report = verify_tracelessness(config, fields)
            assert report.n_subsets == math.comb(n, m)
            assert report.max_tv_distance <= 1e-10
            assert report.verdict


def cli_configs(n):
    """The two designs the verify command sweeps."""
    return [ProtocolConfig.for_single_sender(n), ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)]


def dense_distributions(config, fields, subsets):
    """The dense sweep's per-subset distributions, in ``subsets`` order."""
    labels, probs = reference._DenseBasis(config).mixtures(fields, np.array(subsets))
    assert labels == config.labels()
    return [OutcomeDistribution.from_row(labels, row) for row in probs]


def loop_oracle(assign, config):
    """Dense mixture distribution with every vector built afresh for one subset."""
    n = config.n
    idx = np.arange(1 << n)
    acc = np.zeros(1 << n)
    for pos, w in zip(assign.sender_positions, assign.fields.omegas):
        acc = acc + w * (1.0 - 2.0 * ((idx >> (pos - 1)) & 1))
    phase = np.exp(-0.5j * assign.fields.t * acc)
    evolved = {
        ip: phi_state(n, ip, PLUS) * phase for ip in range(config.kmax + 1) if config.q[ip] > 0.0
    }
    probs = {}
    for i in range(config.kmax + 1):
        for sign in SIGNS:
            if (config.c_plus if sign == PLUS else config.c_minus)[i]:
                proj = phi_state(n, i, sign)
                p = sum(config.q[ip] * abs(np.vdot(proj, st)) ** 2 for ip, st in evolved.items())
                probs[f"{i}{sign}"] = min(float(p), 1.0)
    probs["f"] = max(1.0 - sum(probs.values()), 0.0)
    return probs


def test_sweep_distributions_equal_per_subset_oracle(rng):
    # the dense sweep skips the exactly-zero terms and sums in another order
    # than the full-vector inner products, so it meets them within the
    # exact-path bound
    for n in range(5, 11):
        for config in cli_configs(n):
            for m in (1, 2):
                fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=1.0)
                dists = dense_distributions(config, fields, sender_subsets(n, m))
                assert len(dists) == math.comb(n, m)
                for subset, dist in zip(sender_subsets(n, m), dists):
                    assign = SenderAssignment(n, subset, fields)
                    assert dist.probs == oracle_distribution(assign, config).probs
                    reference = loop_oracle(assign, config)
                    assert list(dist.probs) == list(reference)
                    for label, p in reference.items():
                        assert abs(dist.probs[label] - p) <= 1e-12


def test_sweep_builds_basis_once(monkeypatch):
    calls = []
    real = statevec._phi_entries
    monkeypatch.setattr(statevec, "_phi_entries", lambda *args: calls.append(args) or real(*args))
    config = ProtocolConfig.for_two_senders(8, a=4, q0=0.33)
    dists = dense_distributions(config, FieldVector((0.6, 1.7), 1.0), sender_subsets(8, 2))
    assert len(dists) == 28
    # initial states (0,+) and (4,+); projectors (0,+), (0,-) and (4,+), each
    # evaluated on its initial state's support: 2 and C(8, 4) basis states
    assert sorted((*args[:3], len(args[3])) for args in calls) == sorted(
        [(8, 0, PLUS, 2), (8, 4, PLUS, 70), (8, 0, PLUS, 2), (8, 0, MINUS, 2), (8, 4, PLUS, 70)])


def block_rows(subsets):
    """Rows per block that split ``subsets`` into several blocks, the last of one subset."""
    return next(rows for rows in range(2, subsets) if (subsets - 1) % rows == 0)


def test_blocked_sweep_keeps_every_subsets_bits(rng, monkeypatch):
    real = reference._subset_phases
    entries = []

    def spy(fields, positions, states):
        entries.append((len(positions), len(states)))
        return real(fields, positions, states)

    monkeypatch.setattr(reference, "_subset_phases", spy)
    for n in range(9, 15):
        subsets = sender_subsets(n, 2)
        fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, 2))), t=1.0)
        for config in cli_configs(n):
            # the largest initial-state support runs in several blocks
            support = max(len(s) for s, _, _ in reference._DenseBasis(config).blocks)
            rows = block_rows(len(subsets))
            bound = rows * support + support - 1  # floor division leaves ``rows`` rows
            monkeypatch.setattr(reference, "_PHASE_BLOCK_ENTRIES", bound)
            entries.clear()
            dists = dense_distributions(config, fields, subsets)
            assert [r for r, states in entries if states == support] == (
                [rows] * (len(subsets) // rows) + [1])
            for k, subset in enumerate(subsets):
                alone = oracle_distribution(SenderAssignment(n, subset, fields), config)
                assert dists[k].probs == alone.probs
            assert all(r * states <= bound for r, states in entries)


def test_sweep_detects_a_phase_on_participant_one(monkeypatch):
    # an extra phase on participant 1's qubit breaks the permutation symmetry;
    # the dense sweep sees it only if every subset gets its own phases; at
    # n = 14 it runs in several blocks
    real = reference._subset_phases
    monkeypatch.setattr(
        reference, "_subset_phases",
        lambda fields, positions, states: real(fields, positions, states) * np.exp(0.3j * (states & 1)),
    )
    for n in (6, 14):
        config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
        _, probs = reference._DenseBasis(config).mixtures(FieldVector((0.7, 1.6), 1.0),
                                                          np.array(sender_subsets(n, 2)))
        max_tv = protocol._max_pairwise_tv(probs)
        assert not max_tv <= protocol.EXACT_TV_TOL
        assert max_tv > 1e-3


def all_switches_config(n, m_est, zero_row):
    """Every projector on, so the central '-' of even n too; q = 0 on ``zero_row``."""
    rows = n // 2 + 1
    q = [0.0 if i == zero_row else 1.0 / (rows - 1) for i in range(rows)]
    return ProtocolConfig(n=n, m_est=m_est, t=1.0, q=tuple(q), c_plus=(1,) * rows,
                          c_minus=(1,) * rows, a=n // 2 if m_est == 2 else None)


def test_dicke_sweep_equals_dense_oracle(rng):
    # verify runs on Dicke-state products; the dense sweep it is compared with
    # is bitwise the dense reference's oracle_distribution per subset
    # (test_blocked_sweep_keeps_every_subsets_bits)
    checked = 0
    for n in range(5, 13):
        for config in cli_configs(n) + [all_switches_config(n, 1, 1), all_switches_config(n, 2, 1)]:
            for m in (1, 2, 3):
                if m > max_senders(n):
                    continue
                fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=1.0)
                report = verify_tracelessness(config, fields)
                assert report.verdict
                dense = dense_distributions(config, fields, sender_subsets(n, m))
                for dist, exact in zip(report.distributions, dense, strict=True):
                    assert list(dist.probs) == list(exact.probs)
                    for label, p in exact.probs.items():
                        assert abs(dist.probs[label] - p) <= 1e-12
                    checked += 1
    assert checked > 4000


# the widest real type of the platform (x86 long double), in which the
# reference's own rounding stays far below the sweep's
EXTENDED = np.longdouble if np.finfo(np.longdouble).eps < np.finfo(float).eps else float


def reference_dicke_sweep(config, fields, subsets, leak=None, real=float):
    """The Dicke-mean sweep with one SenderAssignment per subset and each
    participant's phases formed in a step of their own, participant by
    participant; ``leak(j, phases)`` may change participant j's bit-0 and
    bit-1 phases (2 x S) before they fold in.  The phases are the sweep's
    doubles; the means and the measured probabilities are formed in ``real``
    (EXTENDED costs about 6x the time of doubles) and rounded once to doubles,
    and 'f' adds those as the sweep adds its own."""
    positions = np.array([SenderAssignment(config.n, s, fields).sender_positions for s in subsets])
    outcomes = config.outcomes
    k = np.arange(outcomes[-1][0] + 1, dtype=real)
    means = np.broadcast_to(k == 0, (2, len(subsets), len(k))).astype(np.result_type(real, 1j))
    for j in range(1, config.n + 1):
        half = ((positions == j) * (0.5j * fields.t * np.asarray(fields.omegas))).sum(axis=1)
        phases = np.stack([np.exp(-half), np.exp(half)])
        a, b = (phases if leak is None else leak(j, phases)).astype(means.dtype)
        nxt = means * (np.stack([a, b])[:, :, None] * ((j - k) / j))
        nxt[:, :, 1:] += means[:, :, :-1] * (np.stack([b, a])[:, :, None] * (k[1:] / j))
        means = nxt
    direct, swapped = means
    amplitudes = {PLUS: (direct + swapped) / 2, MINUS: (direct - swapped) / 2}
    rows = np.array([config.q[i] * np.abs(amplitudes[sign][:, i]) ** 2 for i, sign in outcomes]).T
    return config.labels(), statevec._with_residual(rows.astype(float))


def list_every_participant(n, listed, phases):
    """The phase seam's rows with all n participants listed, in position order:
    each participant a row did not list gets phases exactly 1."""
    every = np.ones((2, n, len(listed)), dtype=complex)
    every[:, listed.T - 1, np.arange(len(listed))] = phases
    return np.broadcast_to(np.arange(1, n + 1), (len(listed), n)), every


def leak_into_phases(monkeypatch, leak):
    """Pass every participant j's phases through ``leak(j, phases)``, as
    :func:`reference_dicke_sweep` does, at the sweep's phase seam."""
    real = statevec._participant_phases

    def leaky(n, fields, subsets):
        listed, phases = list_every_participant(n, *real(n, fields, subsets))
        for j in range(1, n + 1):
            phases[:, j - 1] = leak(j, phases[:, j - 1])
        return listed, phases

    monkeypatch.setattr(statevec, "_participant_phases", leaky)


# the sweep folds the participants the phase seam lists alone and spreads their
# means over the unlisted ones; the reference folds every participant in
# position order, so the two round apart, within a few ulps of 1.0 on the
# residual of many labels and far less on the measured labels
SWEEP_ATOL = 4 * math.ulp(1.0)


def sweep_verdict(probs):
    """Whether the largest pairwise TV of ``probs`` is within EXACT_TV_TOL.

    Half the largest spread of one label bounds that distance from below and
    half the sum of the spreads from above; the pairs are compared only when
    the tolerance lies between the two, since with many labels that takes
    seconds.
    """
    spread = probs.max(axis=0) - probs.min(axis=0)
    if 0.5 * spread.sum() <= protocol.EXACT_TV_TOL or 0.5 * spread.max() > protocol.EXACT_TV_TOL:
        return 0.5 * spread.sum() <= protocol.EXACT_TV_TOL
    return protocol._max_pairwise_tv(probs) <= protocol.EXACT_TV_TOL


def assert_sweep_matches_reference(config, fields, subsets, leak=None, real=float):
    labels, probs = statevec.dicke_sweep(config, fields, subsets)
    ref_labels, ref_probs = reference_dicke_sweep(config, fields, subsets, leak, real)
    assert labels == ref_labels
    assert probs.shape == ref_probs.shape
    assert np.abs(probs - ref_probs).max() <= SWEEP_ATOL
    assert sweep_verdict(probs) == sweep_verdict(ref_probs)


def test_dicke_sweep_within_sweep_atol_of_the_extended_reference(rng):
    # within SWEEP_ATOL of the reference; the reference runs in EXTENDED, so
    # the gap is the sweep's own rounding
    checked = 0
    for n in [*range(1, 15), 25, 40, 60, 100]:
        configs = [ProtocolConfig.for_single_sender(n)]
        if n >= 2:
            configs.append(all_switches_config(n, 1, 1))
        if n >= 5:
            configs += [ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33),
                        all_switches_config(n, 2, 1)]
        for config in configs:
            for m in range(1, min(3 if n <= 40 else 2, max_senders(n)) + 1):
                fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=1.0)
                assert_sweep_matches_reference(config, fields, sender_subsets(n, m), real=EXTENDED)
                checked += 1
    assert checked == 155 + 16


def nudge_one_free_participant(n):
    """A one-ulp change to the bit-1 phase of participant ceil(n/2) wherever it hosts no field."""
    def leak(j, phases):
        if j == (n + 1) // 2:
            phases[1] = np.where(phases[1] == 1, np.nextafter(1.0, 2.0), phases[1])
        return phases
    return leak


def distinct_phases(n):
    """A phase of its own on every participant: no participant is field-free."""
    return lambda j, phases: phases * np.exp([[-0.01j * j], [0.01j * j]])


@pytest.mark.parametrize("n", [5, 14, 40, 100])
@pytest.mark.parametrize("leak", [nudge_one_free_participant, distinct_phases])
def test_dicke_sweep_matches_the_reference_under_a_leaky_seam(rng, monkeypatch, n, leak):
    fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, 2))), t=1.0)
    subsets = sender_subsets(n, 2)
    config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
    with monkeypatch.context() as identity:
        leak_into_phases(identity, lambda j, phases: phases)
        listed = statevec.dicke_means(n, fields, subsets, range(n // 2 + 1))
    leak_into_phases(monkeypatch, leak(n))
    assert_sweep_matches_reference(config, fields, subsets, leak(n))
    # the same seam without the leak gives other bits: the leaked phases are read
    assert (statevec.dicke_means(n, fields, subsets, range(n // 2 + 1)) != listed).any()


@pytest.mark.parametrize("n", [40, 100])
@pytest.mark.parametrize("leak", [nudge_one_free_participant, distinct_phases])
def test_dicke_means_fold_stops_at_the_largest_index_with_the_same_bits(rng, monkeypatch, n, leak):
    # A_i reads the folded means P_l for l <= i only, so the fold stops at the
    # largest index, half of c = n where every participant carries a phase
    fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, 2))), t=1.0)
    subsets = sender_subsets(n, 2)
    indices = [0, n // 2]  # the two-sender design's measured indices
    leak_into_phases(monkeypatch, leak(n))
    capped = statevec.dicke_means(n, fields, subsets, indices)
    monkeypatch.setattr(statevec, "_fold_means", reference.uncapped_fold_means)
    uncapped = statevec.dicke_means(n, fields, subsets, indices)
    assert np.array_equal(capped.view(np.uint64), uncapped.view(np.uint64))


@pytest.mark.parametrize("n", [14, 60, 100])
def test_a_subsets_row_has_the_same_bits_alone_as_among_all(rng, n):
    # the sweep's bits hang on its expression form: at n = 100 its arrays pass
    # numpy's 256 KiB threshold for reusing temporaries in place
    fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, 2))), t=1.0)
    subsets = sender_subsets(n, 2)
    drawn = range(len(subsets)) if n <= 14 else rng.choice(len(subsets), 40, replace=False)
    for config in cli_configs(n):
        _, probs = statevec.dicke_sweep(config, fields, subsets)
        for k in drawn:
            _, alone = statevec.dicke_sweep(config, fields, [subsets[k]])
            assert (alone[0] == probs[k]).all()


def test_single_sender_rows_are_the_same_bits_from_the_shared_pass(rng):
    for n in (5, 14, 60):
        fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, 2))), t=1.0)
        subsets = sender_subsets(n, 2)
        single, double = cli_configs(n)
        indices = [0, double.a]  # the indices either design measures, as verify passes them
        means = statevec.dicke_means(n, fields, subsets, indices)
        assert means.shape == (2, len(subsets), 2)
        _, shared = statevec.dicke_sweep(single, fields, subsets, means[:, :, :1])
        _, own = statevec.dicke_sweep(single, fields, subsets)
        assert (shared == own).all()
        with pytest.raises(ValueError, match="do not cover"):
            statevec.dicke_sweep(double, fields, subsets, means)


def test_dicke_means_of_zero_fields_have_the_same_bits_on_every_subset():
    # with every phase exactly 1 the listed senders fold in like any others:
    # each mean is within 1 ulp of 1, and no subset's bits differ from another's
    for n, m in ((1, 1), (2, 1), (7, 2), (60, 2), (1000, 1)):
        subsets = sender_subsets(n, m)
        means = statevec.dicke_means(n, FieldVector((0.0,) * m, 1.0), subsets, range(n + 1))
        assert means.shape == (2, len(subsets), n + 1)
        assert np.abs(means - 1).max() <= math.ulp(1.0)
        assert (means == means[:, :1]).all()


def test_phase_seam_lists_each_row_in_position_order():
    # an unsorted row folds its senders in position order
    listed, phases = statevec._participant_phases(12, FieldVector((0.7, 1.6), 1.0), [(5, 2)])
    assert listed.tolist() == [[2, 5]] and phases.shape == (2, 2, 1)
    unsorted = statevec.dicke_means(12, FieldVector((0.7, 1.6), 1.0), [(5, 2)], range(13))
    ordered = statevec.dicke_means(12, FieldVector((1.6, 0.7), 1.0), [(2, 5)], range(13))
    assert np.array_equal(unsorted.view(np.uint64), ordered.view(np.uint64))


def test_dicke_means_hold_no_array_as_wide_as_the_participants():
    # the phase seam lists each subset's senders only: 2 x m x S phases, where a
    # dense 2 x n x S array would take 430 MB here
    n, subsets = 300, sender_subsets(300, 2)
    tracemalloc.start()
    try:
        statevec.dicke_means(n, FieldVector((0.7, 1.6), 1.0), subsets, [0, n // 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_dicke_means_columns_follow_the_indices(rng):
    # each column is formed on its own: a repeated or unsorted index gives the
    # bits of that index in a pass over every index, and of a pass over it alone
    for n, m in ((6, 2), (9, 3), (40, 2)):
        fields = FieldVector(tuple(sorted(rng.uniform(0.1, 3.0, m))), t=1.0)
        subsets = sender_subsets(n, m)
        every = statevec.dicke_means(n, fields, subsets, range(n + 1))
        indices = [n // 2, 0, n, n // 2, 1, 0]
        means = statevec.dicke_means(n, fields, subsets, indices)
        assert means.shape == (2, len(subsets), len(indices))
        assert (means == every[:, :, indices]).all()
        for column, i in enumerate(indices):
            alone = statevec.dicke_means(n, fields, subsets, [i])
            assert (alone[:, :, 0] == means[:, :, column]).all()
    for bad in ([], [-1], [0, 7]):
        with pytest.raises(ValueError, match=r"are not one or more in \[0, 6\]$"):
            statevec.dicke_means(6, FieldVector((0.7, 1.6), 1.0), sender_subsets(6, 2), bad)


def test_dicke_sweep_rejects_subsets_as_sender_assignment_does():
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.33)
    fields = FieldVector((0.7, 1.6), 1.0)
    for bad in [(2, 2), (0, 3), (3, 7), (1, 2, 3), (1,)]:
        with pytest.raises(ValueError) as expected:
            SenderAssignment(6, bad, fields)
        with pytest.raises(ValueError) as got:
            statevec.dicke_sweep(config, fields, [(1, 2), bad, (4, 6)])
        assert str(got.value) == str(expected.value)
    # the first rejected subset speaks, whichever check it fails
    with pytest.raises(ValueError, match=r"^sender position 9 outside \[1, 6\]$"):
        statevec.dicke_sweep(config, fields, [(1, 2), (1, 9), (5, 5)])
    with pytest.raises(ValueError, match=r"^m=4 exceeds floor\(\(n\+1\)/2\)=3 for n=6$"):
        statevec.dicke_sweep(config, FieldVector((0.1, 0.2, 0.3, 0.4), 1.0), [(1, 2, 3, 4)])
    with pytest.raises(ValueError, match="^no sender subsets$"):
        statevec.dicke_sweep(config, fields, [])


@pytest.mark.parametrize("n", [6, 14, 25, 40, 1000])
def test_dicke_sweep_detects_a_phase_on_participant_one(monkeypatch, n):
    config = ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33)
    fields = FieldVector((0.7, 1.6), 1.0)
    clean = verify_tracelessness(config, fields)
    assert clean.verdict
    assert clean.n_subsets == math.comb(n, 2)
    real = statevec._participant_phases

    def leaky(n, fields, subsets):
        # participant 1 listed first on every row; a row that listed it already
        # keeps its width with its own column field-free (phases exactly 1)
        listed, phases = real(n, fields, subsets)
        own = listed[:, 0] == 1
        first = np.where(own, phases[:, 0], 1)
        first[1] *= np.exp(0.3j)  # participant 1's bit-1 phase
        phases[:, 0, own] = 1
        return (np.concatenate([np.ones((len(listed), 1), dtype=int), listed], axis=1),
                np.concatenate([first[:, None], phases], axis=1))

    monkeypatch.setattr(statevec, "_participant_phases", leaky)
    report = verify_tracelessness(config, fields)
    assert not report.verdict
    assert report.max_tv_distance > 1e-3


@pytest.mark.parametrize("n", [6, 40])
def test_dicke_means_fold_once_per_call_under_a_leaky_seam(monkeypatch, n):
    # one fold per dicke_means call, for the clean seam and for the leaky one of
    # test_dicke_sweep_detects_a_phase_on_participant_one, whose rows that list
    # participant 1 already carry a column of phases exactly 1
    calls = []
    means, fold = statevec.dicke_means, statevec._fold_means
    monkeypatch.setattr(statevec, "dicke_means", lambda *args: calls.append("means") or means(*args))
    monkeypatch.setattr(statevec, "_fold_means", lambda *args: calls.append("fold") or fold(*args))
    test_dicke_sweep_detects_a_phase_on_participant_one(monkeypatch, n)
    assert calls == ["means", "fold"] * 2


def test_dicke_sweep_single_sender_at_large_n():
    # the phases of 1100 participants: the products' raw coefficients (2^-n
    # scale) would underflow, their means do not
    n = 1100
    config = ProtocolConfig.for_single_sender(n)
    fields = FieldVector((1.3,), 1.0)
    report = verify_tracelessness(config, fields)
    assert report.verdict
    assert report.n_subsets == n
    closed = outcome_distribution(config, fields)
    for dist in report.distributions:
        for label, p in closed.probs.items():
            assert abs(dist.probs[label] - p) <= 1e-12


def test_sweep_rejects_bad_inputs():
    fields = FieldVector((0.7, 1.6), 1.0)
    with pytest.raises(ConfigError):
        verify_tracelessness(ProtocolConfig.for_two_senders(5, a=1, q0=0.33), fields)
    # NaN phases made every distribution NaN, and the sweep passed with distance 0
    with pytest.raises(ValueError, match="not normalized: total=nan"):
        verify_tracelessness(ProtocolConfig.for_two_senders(5, a=2, q0=0.33),
                             FieldVector((math.nan, 1.0), 1.0))


def loop_max_tv(dists):
    max_tv = 0.0
    for d1, d2 in itertools.combinations(dists, 2):
        max_tv = max(max_tv, d1.tv_distance(d2))
    return max_tv


@pytest.mark.parametrize("max_labels", [1, 7, 1 << 20])
def test_max_pairwise_tv_equals_pairwise_loop(rng, monkeypatch, max_labels):
    # 1 compares every case pair by pair, 1 << 20 takes projections for all
    monkeypatch.setattr(protocol, "_TV_MAX_LABELS", max_labels)
    # the L1 diameter adds each projection's labels in another order than a
    # pair's distance adds them, so the two meet within a few ulps of 1.0
    labels = ["0+", "0-", "3+", "f"]
    for size in (2, 3, 17, 60):
        probs = rng.dirichlet(np.ones(4), size=size)
        dists = [OutcomeDistribution(probs=dict(zip(labels, row.tolist()))) for row in probs]
        assert abs(protocol._max_pairwise_tv(probs) - loop_max_tv(dists)) <= SWEEP_ATOL
    for n_labels in (2, 3, 4, 5, 8):
        for size in (1, 2, 9, 300):
            probs = rng.dirichlet(np.ones(n_labels), size=size)
            dists = [OutcomeDistribution(probs={f"{x}+": p for x, p in enumerate(row.tolist())})
                     for row in probs]
            assert abs(protocol._max_pairwise_tv(probs) - loop_max_tv(dists)) <= SWEEP_ATOL
    # distances of a true sweep sit at rounding level: the reference's rows
    # differ in their last bits, the sweep's are one row's bits over again
    config = ProtocolConfig.for_two_senders(9, a=4, q0=0.33)
    fields = FieldVector((0.4, 2.1), 1.0)
    labels, probs = reference_dicke_sweep(config, fields, sender_subsets(9, 2))
    dists = [OutcomeDistribution.from_row(labels, row) for row in probs]
    assert loop_max_tv(dists) > 0.0
    assert abs(protocol._max_pairwise_tv(probs) - loop_max_tv(dists)) <= SWEEP_ATOL
    report = verify_tracelessness(config, fields)
    assert abs(report.max_tv_distance - loop_max_tv(report.distributions)) <= SWEEP_ATOL


def test_max_pairwise_tv_edge_cases():
    assert protocol._max_pairwise_tv(np.array([[0.25, 0.75]])) == 0.0
    assert protocol._max_pairwise_tv(np.array([[0.25, 0.75], [0.75, 0.25]])) == 0.5
    # the distributions a report hands out compare only on one label set
    one = OutcomeDistribution(probs={"0+": 0.25, "f": 0.75})
    other = OutcomeDistribution(probs={"0-": 0.25, "f": 0.75})
    with pytest.raises(ValueError, match="label sets differ"):
        one.tv_distance(other)


def test_tracelessness_with_more_senders_than_designed(rng):
    # three live fields against a two-sender design: estimation is invalid but
    # the outcome distribution still cannot depend on the subset
    config = ProtocolConfig.for_two_senders(7, a=3, q0=0.33)
    fields = FieldVector(tuple(sorted(rng.uniform(0.2, 2.5, 3))), t=1.0)
    report = verify_tracelessness(config, fields)
    assert report.m == 3
    assert report.n_subsets == math.comb(7, 3)
    assert report.max_tv_distance <= 1e-10


def test_sampling_matches_analytic_frequencies():
    config = ProtocolConfig.for_two_senders(6, a=3, q0=0.4)
    fields = FieldVector((0.9, 1.4), 1.0)
    dist = outcome_distribution(config, fields)
    N = 1_000_000
    counts = draw_counts(dist, N, philox(2024))
    for label, p in dist.probs.items():
        sigma = math.sqrt(max(p * (1 - p), 1e-12) * N)
        assert abs(counts[label] - p * N) <= 5 * sigma + 1


def test_negative_control_detects_leak():
    report = negative_control(4, FieldVector((math.pi / 2,), 1.0))
    assert report.max_tv_distance > 0.01
    assert not report.verdict  # 'fail' = leak detected = control works


def loop_control(n, subset, fields):
    """The control's X-readout rate on participant 1, with |+>^n built for one subset."""
    assign = SenderAssignment(n, subset, fields)
    state = apply_sender_unitary(np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex), assign)
    idx = np.arange(1 << n)
    minus = (state[(idx & 1) == 0] - state[(idx & 1) == 1]) / math.sqrt(2.0)
    p_minus = min(max(float(np.sum(np.abs(minus) ** 2)), 0.0), 1.0)
    return {"pos1-": p_minus, "pos1+": 1.0 - p_minus}


def blocked_control(n, subsets, fields, block_entries):
    """:func:`loop_control` for every subset, with U from the reference phase
    seam in blocks of subset rows of at most ``block_entries`` phases."""
    states = np.arange(1 << n)
    positions = np.array(subsets)
    step = max(1, block_entries // len(states))  # subset rows per block
    rates = []
    for lo in range(0, len(positions), step):
        amps = reference._subset_phases(fields, positions[lo:lo + step], states) / math.sqrt(1 << n)
        minus = (amps[:, 0::2] - amps[:, 1::2]) / math.sqrt(2.0)
        rates.extend(np.clip(np.sum(np.abs(minus) ** 2, axis=1), 0.0, 1.0))
    return [{"pos1-": float(p), "pos1+": 1.0 - float(p)} for p in rates]


@pytest.mark.parametrize("block_entries", [1, 3 << 9, 1 << 15])
def test_negative_control_equals_per_subset_loop(rng, block_entries):
    # the closed form |a_1 - b_1|^2 / 4 of the product state meets the sum over
    # 2^n amplitudes within rounding, built one subset at a time and in blocks
    # of subset rows of any size
    for n in (5, 8, 11):
        for m in (1, 2):
            fields = FieldVector(tuple(sorted(rng.uniform(0.5, 2.5, m))), t=1.0)
            subsets = sender_subsets(n, m)
            report = negative_control(n, fields)
            loops = [loop_control(n, subset, fields) for subset in subsets]
            blocked = blocked_control(n, subsets, fields, block_entries)
            assert len(report.distributions) == len(loops) == len(blocked)
            for dist, loop, block in zip(report.distributions, loops, blocked):
                assert list(dist.probs) == list(loop) == list(block)
                for label, p in loop.items():
                    assert abs(dist.probs[label] - p) <= 1e-15
                    assert abs(dist.probs[label] - block[label]) <= 1e-15


def test_negative_control_silent_at_zero_field():
    report = negative_control(4, FieldVector((0.0,), 1.0))
    assert report.max_tv_distance <= 1e-12
    assert report.verdict


def test_negative_control_two_senders(rng):
    fields = FieldVector(tuple(sorted(rng.uniform(0.5, 2.5, 2))), t=1.0)
    report = negative_control(5, fields)
    assert report.max_tv_distance > 0.01
    assert not report.verdict


def test_sender_subsets_enumeration():
    subsets = sender_subsets(5, 2)
    assert len(subsets) == 10
    assert subsets[0] == (1, 2) and subsets[-1] == (4, 5)


def test_run_protocol_validates_inputs():
    config = ProtocolConfig.for_single_sender(4)
    assign = SenderAssignment(4, (1,), FieldVector((1.0,), 1.0))
    with pytest.raises(ValueError):
        run_protocol(assign, config, rounds=0, seed=0)
    other = SenderAssignment(5, (1,), FieldVector((1.0,), 1.0))
    for call in (lambda: run_protocol(other, config, rounds=10, seed=0),
                 lambda: statevec.oracle_distribution(other, config),
                 lambda: statevec.conditional_distributions(other, config)):
        with pytest.raises(ValueError, match="config.n=4 != assignment n=5"):
            call()
