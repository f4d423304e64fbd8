import hashlib
import json
import math
import sys
import weakref
from pathlib import Path

import warnings

import pytest

from anonsense import cli, protocol, statevec
from anonsense.cli import main
from anonsense.combinatorics import FieldVector
from anonsense.configio import RunConfigError, load_counts
from anonsense.engine import OutcomeDistribution

DATA = Path(__file__).parent / "data"
GOLDENS = Path(__file__).parent / "goldens"


def run_cli(args):
    return main(args)


def read(path: Path) -> str:
    return path.read_text()


# --------------------------------------------------------------------------
# byte determinism and goldens

def test_verify_golden_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", "--n", "5", "--m", "2", "--trials", "3", "--seed", "7",
                    "--out", str(out1)]) == 0
    assert run_cli(["verify", "--n", "5", "--m", "2", "--trials", "3", "--seed", "7",
                    "--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    assert read(out1) == read(GOLDENS / "verify_n5.json")


def test_scan_golden_and_determinism(tmp_path):
    args = ["scan", "--n", "5,10", "--q0", "0.33", "--theta1", "2.0",
            "--theta2", "0.5,0.1,0.0"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    assert read(out1) == read(GOLDENS / "scan_small.csv")


def test_simulate_golden_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    config = str(DATA / "run_n5.json")
    assert run_cli(["simulate", "--config", config, "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--config", config, "--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    assert read(out1) == read(GOLDENS / "transcript_n5.json")


def test_estimate_golden_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["estimate", "--counts", str(DATA / "counts_m1.json"),
            "--config", str(DATA / "run_m1.json")]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    assert read(out1) == read(GOLDENS / "estimate_m1.json")


# the first call sets options the second leaves at their defaults: --seed,
# --negative-control and --out
PARSER_REUSE = [
    (["verify", "--negative-control", "--n", "5", "--seed", "3"],
     ["verify", "--n", "5", "--trials", "2"]),
    (["simulate", "--config", str(DATA / "run_n5.json"), "--seed", "9"],
     ["estimate", "--counts", str(DATA / "counts_m1.json"), "--config", str(DATA / "run_m1.json")]),
]


@pytest.mark.parametrize("first, second", PARSER_REUSE)
def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, first, second):
    # main builds its parser once per process; two calls in a row must each
    # give the bytes of the same call on a freshly built parser
    def run(argv, out):
        code = run_cli(argv if out is None else [*argv, "--out", str(out)])
        captured = capsys.readouterr()
        return code, None if out is None else out.read_bytes(), captured.out, captured.err

    alone = []
    for argv, out in ((first, tmp_path / "alone.out"), (second, None)):
        cli._build_parser.cache_clear()
        alone.append(run(argv, out))
    cli._build_parser.cache_clear()
    together = [run(first, tmp_path / "together.out"), run(second, None)]
    assert cli._build_parser.cache_info().misses == 1
    assert together == alone
    assert alone[1][0] == 0 and alone[1][2]


# --------------------------------------------------------------------------
# behavior

def test_estimate_half_split_is_right_angle(tmp_path):
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--counts", str(DATA / "counts_m1.json"),
                    "--config", str(DATA / "run_m1.json"), "--out", str(out)]) == 0
    report = json.loads(read(out))
    assert report["theta_hat"][0] == pytest.approx(math.pi / 2, abs=1e-6)


def test_estimate_consumes_transcript(tmp_path):
    transcript_path = tmp_path / "t.json"
    est_path = tmp_path / "e.json"
    config = str(DATA / "run_n5.json")
    assert run_cli(["simulate", "--config", config, "--out", str(transcript_path)]) == 0
    transcript = json.loads(read(transcript_path))
    assert run_cli(["estimate", "--counts", str(transcript_path),
                    "--config", config, "--out", str(est_path)]) == 0
    report = json.loads(read(est_path))
    # same code path: the stand-alone estimate equals the transcript broadcast
    assert report["theta_hat"] == transcript["broadcast"]["theta_hat"]
    assert report["omega_hat"] == transcript["broadcast"]["omega_hat"]


def test_verify_and_negative_control_run_above_the_dense_cap(tmp_path):
    # neither the sweep nor the control builds a dense vector, so both run at
    # n = 25, above the 20 qubits a dense vector is capped at
    out = tmp_path / "x.json"
    assert run_cli(["verify", "--n", "25", "--trials", "2", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert doc["verdict"] == "pass"
    assert [rep["n_subsets"] for rep in doc["tracelessness"]] == [300, 300]
    assert run_cli(["verify", "--negative-control", "--n", "25", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert doc["leak_detected"] is True
    assert doc["negative_control"]["n_subsets"] == 300


def test_verify_at_field_free_phases(tmp_path):
    # at t = 5e-324 every phase t*omega/2 underflows to 0: the senders the
    # phase seam lists have phases exactly 1, and no subset differs from another
    _, phases = statevec._participant_phases(7, FieldVector((0.75, 1.25), 5e-324), [(2, 4)])
    assert (phases == 1).all()
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--n", "7", "--trials", "2", "--t", "5e-324", "--out", str(out)]) == 0
    assert json.loads(read(out))["max_tv_distance"] == 0.0


def test_verify_builds_no_second_basis(tmp_path, monkeypatch):
    # the oracle/analytic cross-check reads the sweep's distributions, and the
    # sweep runs on Dicke-state means at every n: both designs of a trial read
    # their rows from one means pass
    passes, sweeps = [], []
    real_means, real_sweep = statevec.dicke_means, protocol.dicke_sweep

    def means_spy(n, fields, subsets, indices):
        passes.append((n, len(subsets), indices))
        return real_means(n, fields, subsets, indices)

    def sweep_spy(configs, fields, subsets):
        sweeps.append(([config.m_est for config in configs], len(subsets)))
        return real_sweep(configs, fields, subsets)

    monkeypatch.setattr(statevec, "dicke_means", means_spy)
    monkeypatch.setattr(protocol, "dicke_sweep", sweep_spy)
    assert run_cli(["verify", "--n", "8", "--trials", "2", "--out", str(tmp_path / "v.json")]) == 0
    # two trials, each one pass at the indices either design measures (0, and
    # a = 4 of the two-sender design), read by both for the 28 two-sender subsets
    assert passes == [(8, 28, [0, 4])] * 2
    assert sweeps == [([1, 2], 28)] * 2


def test_verify_frees_each_means_pass_before_the_next(tmp_path, monkeypatch):
    # at n = 200 one pass is tens of MB: a trial's pass still bound while the
    # next one forms would raise the peak by that much
    passes = []
    real_means = statevec.dicke_means

    def means_spy(*args):
        assert [ref() for ref in passes] == [None] * len(passes)
        means = real_means(*args)
        passes.append(weakref.ref(means))
        return means

    monkeypatch.setattr(statevec, "dicke_means", means_spy)
    assert run_cli(["verify", "--n", "8", "--trials", "3", "--out", str(tmp_path / "v.json")]) == 0
    assert len(passes) == 3


def test_verify_frees_each_trials_reports_before_the_next_sweep(tmp_path, monkeypatch):
    # a report holds its design's rows (16 MB at n = 1000): one still bound
    # while the next trial's sweep forms would raise the peak by that much,
    # and so would a view of its rows that the cross-check left bound
    reports, rows = [], []
    real_designs = cli.verify_designs

    def designs_spy(*args):
        assert [ref() for ref in reports] == [None] * len(reports)
        assert [ref() is None for ref in rows] == [True] * len(rows)
        out = real_designs(*args)
        reports.extend(weakref.ref(report) for report in out)
        rows.extend(weakref.ref(report.probs) for report in out)
        return out

    monkeypatch.setattr(cli, "verify_designs", designs_spy)
    assert run_cli(["verify", "--n", "8", "--trials", "3", "--out", str(tmp_path / "v.json")]) == 0
    assert len(reports) == 6


def test_verify_lists_the_sender_subsets_once_per_run(tmp_path, monkeypatch):
    # both designs of every trial read the one list the run builds: at
    # n = 1000 each listing is 499 500 tuples
    listings = []
    real_subsets = protocol.sender_subsets

    def subsets_spy(n, m):
        listings.append((n, m))
        return real_subsets(n, m)

    monkeypatch.setattr(cli, "sender_subsets", subsets_spy)
    monkeypatch.setattr(protocol, "sender_subsets", subsets_spy)
    assert run_cli(["verify", "--n", "8", "--trials", "3", "--out", str(tmp_path / "v.json")]) == 0
    assert listings == [(8, 2)]


def test_negative_control_needs_two_sender_subsets(capsys):
    # with C(1, 1) = 1 subset there is no pair to tell apart, so the control
    # cannot detect a leak: an error before any output, not a failed detection
    assert run_cli(["verify", "--negative-control", "--n", "1", "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the negative control needs at least two sender subsets "
                            "to tell apart; n=1 and m=1 have C(1, 1) = 1\n")
    assert run_cli(["verify", "--negative-control", "--n", "2", "--m", "1"]) == 0


def test_negative_control_rejects_trials(capsys):
    # the control makes one draw, so a --trials beside it was dropped without a word
    assert run_cli(["verify", "--negative-control", "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --trials 5: not read by --negative-control, "
                            "which makes one draw\n")


def test_verify_negative_control_exit_zero(tmp_path):
    out = tmp_path / "nc.json"
    assert run_cli(["verify", "--negative-control", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert doc["leak_detected"] is True
    assert doc["negative_control"]["verdict"] == "fail"
    assert doc["negative_control"]["max_tv_distance"] > 0.01


def test_negative_control_reports_an_undetected_leak(tmp_path, capsys):
    # at t = 0.05 the field of 0.87 on participant 1 plants a distance of
    # sin^2(0.05 * 0.87 / 2) = 0.00047, below the line of 0.01: the failure
    # names the distance and the line, as a detection does
    out = tmp_path / "nc.json"
    assert run_cli(["verify", "--negative-control", "--n", "5", "--t", "0.05",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("negative control FAILED to detect the planted leak: "
                                       "max TV distance 0.000469 <= 0.01\n")
    doc = json.loads(read(out))
    assert doc["leak_detected"] is False
    assert doc["negative_control"]["max_tv_distance"] == pytest.approx(
        math.sin(0.05 * doc["negative_control"]["omegas"][0] / 2) ** 2, rel=1e-12)


def test_malformed_counts_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"counts": {"0+": 5,}}')
    code = run_cli(["estimate", "--counts", str(bad), "--config", str(DATA / "run_m1.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("which", ["--counts", "--config"])
def test_a_file_not_in_utf8_is_named(tmp_path, capsys, which):
    # the decode error escaped with no path, so nothing said which file was bad
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"counts": {"0+": 5}}\xff')
    files = {"--counts": str(DATA / "counts_m1.json"), "--config": str(DATA / "run_m1.json"),
             which: str(bad)}
    assert run_cli(["estimate", *[arg for pair in files.items() for arg in pair]]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("value", [True, 2.7, "3"])
def test_counts_must_be_json_integers(tmp_path, capsys, value):
    # int() read true as 1 and truncated 2.7 to 2
    bad = tmp_path / "counts.json"
    bad.write_text(json.dumps({"counts": {"0+": value, "f": 3}}))
    assert run_cli(["estimate", "--counts", str(bad), "--config", str(DATA / "run_m1.json")]) == 2
    assert f"error: $.counts.0+: must be an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("counts, err", [
    ({"0+": -1, "f": 3}, "$.counts: count for '0+' must be a nonnegative integer"),
    ([5, 3], "$.counts: expected a JSON object, got list"),
    # a count no float holds raised OverflowError in the estimator (exit 1)
    ({"0+": 10**400, "f": 3}, "$.counts: count for '0+' must be a nonnegative integer "
                              "that a float can hold"),
])
def test_counts_errors_report_their_path(tmp_path, capsys, counts, err):
    bad = tmp_path / "counts.json"
    bad.write_text(json.dumps({"counts": counts}))
    assert run_cli(["estimate", "--counts", str(bad), "--config", str(DATA / "run_m1.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {err}")


def test_counts_over_the_largest_float_are_a_counts_error(tmp_path, capsys):
    # a total of the largest float plus one: the estimator reads N as a
    # float, and two counts of the largest float raised OverflowError in the
    # grid's margin (exit 1); both are $.counts errors, with no warning
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"counts": {"0+": int(sys.float_info.max), "f": int(sys.float_info.max)}}))
    for counts in (DATA / "counts_over_float_max_m1.json", over):
        assert run_cli(["estimate", "--counts", str(counts), "--config", str(DATA / "run_m1.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: $.counts: the counts must total at most the largest float, "
            f"{sys.float_info.max!r}; these total more\n")


def test_counts_up_to_the_largest_float_estimate_near_their_phase(tmp_path):
    # a total of exactly the largest float, all but one count on (0,+): the
    # start is the counts' own maximum, 2*atan(sqrt(1/(N - 1))) ~ 1.5e-154,
    # where P(f) ~ 5.6e-309; the score and the information are formed per
    # observation, with dp divided by p first where f/p/p overflows, so
    # nothing overflows
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--counts", str(DATA / "counts_float_max_m1.json"),
                    "--config", str(DATA / "run_m1.json"), "--out", str(out)]) == 0
    report = json.loads(read(out))
    assert 0.0 <= report["theta_hat"][0] < 1e-6
    assert math.isfinite(report["log_likelihood"]) and report["log_likelihood"] < 0.0
    assert 0.0 < report["se_estimate"][0] < 1e-150
    assert report["flags"] == ["theta_1 within 1e-06 of the domain edge 0 or pi: the "
                               "observed-information standard errors are unreliable"]
    # and 10^300 on each label lands on pi/2, as it did before
    even = tmp_path / "even.json"
    even.write_text(json.dumps({"counts": {"0+": 10**300, "f": 10**300}}))
    assert run_cli(["estimate", "--counts", str(even), "--config", str(DATA / "run_m1.json"),
                    "--out", str(out)]) == 0
    report = json.loads(read(out))
    assert report["theta_hat"] == [math.pi / 2] and report["flags"] == []
    assert report["se_estimate"] == pytest.approx([1 / math.sqrt(2e300)], rel=1e-12)


def test_counts_too_many_to_score_are_not_called_inconsistent(tmp_path, capsys):
    # a third of the largest float on each of (0,+), (0,-) and 'f' fits the
    # n = 5 design, but the log-likelihood is below the most negative float
    # on the whole grid; it was reported as counts inconsistent with the design
    assert run_cli(["estimate", "--counts", str(DATA / "counts_float_max_thirds_m2.json"),
                    "--config", str(DATA / "run_n5.json")]) == 2
    assert capsys.readouterr().err == (
        "error: log-likelihood is below the most negative float over the whole domain; the "
        "counts are consistent with the configuration but too many to score\n")
    # (3,-) at n = 6 and a = 3 has D_3 = 0, so P(3,-) = 0 at every phase
    config, counts = tmp_path / "run.json", tmp_path / "counts.json"
    config.write_text(json.dumps({"protocol": {"n": 6, "m_est": 2, "a": 3, "q0": 0.33,
                                               "c": {"3-": 1}}}))
    counts.write_text(json.dumps({"counts": {"3-": 5}}))
    assert run_cli(["estimate", "--counts", str(counts), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: likelihood is -inf over the whole domain; counts are inconsistent with "
        "the configuration\n")


def data_json(name):
    return json.loads((DATA / name).read_text())


DESIGN_ON_INDEX_0 = {"protocol": {"n": 5, "m_est": 2, "a": 2, "q": [1.0, 0, 0]}}


@pytest.mark.parametrize("config, counts", [
    (DESIGN_ON_INDEX_0, {"counts": {"2+": 1, "f": 4}}),
    (DESIGN_ON_INDEX_0, {"counts": {"0+": 3, "0-": 2, "2+": 1, "f": 4}}),
    (DESIGN_ON_INDEX_0, {"counts": {"0+": 30, "0-": 20, "f": 1}}),
    (data_json("run_m1_0minus.json"), data_json("counts_f_m1_0minus.json")),
], ids=["counts0", "counts1", "counts2", "counts3"])
def test_design_counts_no_phase_gives_are_inconsistent(tmp_path, capsys, config, counts):
    # on the n = 5 design with all weight on index 0, (2,+) and 'f' have
    # probability 0 at every phase, and so does 'f' on one sender with (0,-)
    # on: a count on either exits 2 as inconsistent
    paths = [tmp_path / "run.json", tmp_path / "counts.json"]
    for path, doc in zip(paths, (config, counts)):
        path.write_text(json.dumps(doc))
    assert run_cli(["estimate", "--counts", str(paths[1]), "--config", str(paths[0])]) == 2
    assert capsys.readouterr().err == (
        "error: likelihood is -inf over the whole domain; counts are inconsistent with "
        "the configuration\n")


def test_zero_total_counts_rejected(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"counts": {}}')
    assert run_cli(["estimate", "--counts", str(empty),
                    "--config", str(DATA / "run_m1.json")]) == 2


def test_unknown_config_keys_rejected(tmp_path, capsys):
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc["protocol"]["mystery"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(bad)]) == 2
    assert "$.protocol" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["simulate", "estimate"])
def test_a_scan_section_is_an_unknown_key(tmp_path, capsys, verb):
    # scan takes its axes from its flags; no verb reads a config's scan section
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc["scan"] = {"n": [5], "q0": [0.33], "theta1": [2.0], "theta2": [0.5]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {"simulate": ["simulate"],
            "estimate": ["estimate", "--counts", str(DATA / "counts_m1.json")]}[verb]
    assert run_cli([*argv, "--config", str(bad)]) == 2
    assert capsys.readouterr().err == ("error: $: unknown keys ['scan']; "
                                       "allowed: ['protocol', 'run', 'scenario']\n")


@pytest.mark.parametrize("verb, section, err", [
    ("simulate", "protocol", "$.protocol: section is required"),
    ("estimate", "protocol", "$.protocol: section is required"),
    ("simulate", "scenario", "$.scenario: section is required for simulation"),
])
def test_a_missing_section_reports_its_path(tmp_path, capsys, verb, section, err):
    doc = json.loads((DATA / "run_n5.json").read_text())
    del doc[section]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {"simulate": ["simulate"],
            "estimate": ["estimate", "--counts", str(DATA / "counts_m1.json")]}[verb]
    assert run_cli([*argv, "--config", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_simulate_rejects_zero_rounds(tmp_path):
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc["run"]["rounds"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("section, key, value, path", [
    ("protocol", "t", [1], "$.protocol.t"),
    ("protocol", "t", "abc", "$.protocol.t"),
    ("protocol", "q0", [0.33], "$.protocol.q0"),
    ("protocol", "q", [[0.33], 0.0, 0.67], "$.protocol.q[0]"),
    ("protocol", "c", {"2-": [1]}, "$.protocol.c.2-"),
    ("scenario", "omegas", [0.75, [1.25]], "$.scenario.omegas[1]"),
    ("scenario", "sender_positions", [[2], 4], "$.scenario.sender_positions[0]"),
    ("run", "seed", [42], "$.run.seed"),
    # non-finite numbers: NaN slipped past every '<= 0' check
    ("protocol", "t", "nan", "$.protocol.t: must be finite"),
    ("protocol", "t", math.inf, "$.protocol.t: must be finite"),
    ("protocol", "q0", "nan", "$.protocol.q0: must be finite"),
    ("protocol", "q", ["nan", 0, "nan"], "$.protocol.q[0]: must be finite"),
    ("scenario", "omegas", ["nan", 1.25], "$.scenario.omegas: omegas[0] = nan"),
    ("scenario", "omegas", [0.75, "inf"], "$.scenario.omegas: omegas[1] = inf"),
    # keys the protocol section would validate and then drop
    ("protocol", "m_est", 1, "$.protocol.a: read only when m_est is 2"),
    ("protocol", "q", [0.33, 0.0, 0.67], "$.protocol.q0: not read when q is given"),
    # fractional integers ran truncated: positions [1, 3], seed 2, switch 0
    ("scenario", "sender_positions", [1.9, 3.5],
     "$.scenario.sender_positions[0]: must be an integer, got 1.9"),
    ("run", "seed", 2.9, "$.run.seed: must be an integer, got 2.9"),
    ("protocol", "c", {"1+": 0.5}, "$.protocol.c.1+: must be an integer, got 0.5"),
    # a negative seed stopped with numpy's bare 'expected non-negative integer'
    ("run", "seed", -3, "$.run.seed: must be >= 0, got -3"),
    # numpy's multinomial raised OverflowError past a 64-bit count (exit 1)
    ("run", "rounds", 2**63, "$.run.rounds"),
    ("protocol", "m_est", 3, "$.protocol.m_est: must be 1 or 2, got 3"),
    ("protocol", "q", [0.5, 0.5], "$.protocol.q: must be a list of 3 weights"),
    ("protocol", "c", {"x+": 1}, "$.protocol.c.x+: keys must look like '0+' with index <= 2"),
    ("protocol", "c", {"3-": 1}, "$.protocol.c.3-: keys must look like '0+' with index <= 2"),
    ("scenario", "sender_positions", "2,4", "$.scenario.sender_positions: a list is required"),
    ("scenario", "sender_positions", [2, 6], "$.scenario: sender position 6 outside [1, 5]"),
])
def test_wrong_value_types_report_their_path(tmp_path, capsys, section, key, value, path):
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(bad)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("protocol, path", [
    ({"n": 5, "m_est": 1, "a": 2, "q0": 0.9}, "$.protocol.a: read only when m_est is 2"),
    ({"n": 5, "m_est": 1, "q0": 0.9}, "$.protocol.q0: read only when m_est is 2"),
])
def test_single_sender_protocol_rejects_the_two_sender_keys(tmp_path, capsys, protocol, path):
    # both ran the single-sender design with a and q0 dropped
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"protocol": protocol}))
    assert run_cli(["estimate", "--counts", str(DATA / "counts_m1.json"),
                    "--config", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {path}\n"


@pytest.mark.parametrize("protocol, err", [
    # n >= 1 was reported without its path
    ({"n": 0, "m_est": 1}, "error: $.protocol: n must be >= 1, got 0\n"),
    # the design and the file's q and c are checked once, as the final config:
    # never the design's q before the override (its sum is 0.5 at a = 5), nor
    # the override's q[2] before c switches index 2 on
    ({"n": 7, "m_est": 2, "a": 5, "q": [0.5, 0, 0, 0.5]},
     "error: $.protocol: q[3] = 0.5 must be 0 when both switches c[3,+-] are 0; "
     "$.protocol: a=5 outside [2, floor(n/2)=3]\n"),
    ({"n": 7, "m_est": 2, "a": 3, "q": [0.3, 0, 0.2, 0.5], "c": {"2+": 1}},
     "estimate: N=1000 theta_hat="),
    ({"m_est": 1}, "error: $.protocol.n: required\n"),
    ({"n": 5, "m_est": 2, "a": 2},
     "error: $.protocol.q0: required for m_est=2 (or give a full q vector)\n"),
])
def test_protocol_section_is_checked_as_one_config(tmp_path, capsys, protocol, err):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"protocol": protocol}))
    code = run_cli(["estimate", "--counts", str(DATA / "counts_m1.json"), "--config", str(path)])
    assert code == (2 if err.startswith("error:") else 0)
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("verb, section, key, value, path", [
    ("simulate", "protocol", "t", True, "$.protocol.t"),
    ("simulate", "scenario", "sender_positions", [True, 3], "$.scenario.sender_positions[0]"),
])
def test_json_booleans_report_their_path(tmp_path, capsys, verb, section, key, value, path):
    # bool is an int subclass: true was read as 1 (t = 1.0, a sender at participant 1)
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli([verb, "--config", str(bad)]) == 2
    assert f"{path}: must be a number, got True" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["nan", "inf"])
@pytest.mark.parametrize("control", [[], ["--negative-control"]])
def test_verify_rejects_non_finite_time(capsys, t, control):
    # --t nan passed with TV 0.0 and wrote a NaN token into the report
    assert run_cli(["verify", "--n", "6", "--t", t, "--trials", "1", *control]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --t must be finite, got {float(t)}\n"


@pytest.mark.parametrize("n, a", [(5, 2), (50, 25)])
def test_simulate_rejects_an_overflowing_phase_on_both_paths(tmp_path, capsys, n, a):
    # t and both omegas are finite but theta1 = t*(w1 + w2) is not: the dense
    # path (n = 5) exited 0 with omega_hat [0.0, -0.0], the closed form
    # (n = 50) warned in sin and exited 2 on a NaN total
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc["protocol"].update(n=n, a=a, t=1e308)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["simulate", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: $.scenario.omegas: phase t*sum(omegas) = "
                            "1e+308 * 2.0 is not finite\n")


@pytest.mark.parametrize("argv", [["--n", "30", "--trials", "1"],
                                  ["--n", "8", "--negative-control"]])
def test_verify_rejects_a_time_whose_phase_overflows(capsys, argv):
    # 'max oracle/analytic error 7.341e-01 -> FAIL' instead of rejecting --t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["verify", "--t", "1e308", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t 1e+308: phase t*sum(omegas) = ")


@pytest.mark.parametrize("t", ["1e8", "1e10"])
def test_verify_cross_check_allows_the_rounding_of_large_phases(capsys, t):
    # the oracle and the closed form round the phases t*w differently: at
    # t = 1e10 they differ by 9.1e-7, which failed against EXACT_TV_TOL
    assert run_cli(["verify", "--n", "30", "--trials", "2", "--t", t]) == 0
    assert capsys.readouterr().err.endswith("-> pass\n")


def test_verify_rejects_a_time_too_large_to_cross_check(capsys):
    # at t = 1e300 one ulp of a phase is 1e285: no tolerance below the
    # control's distance could separate rounding from a real disagreement
    assert run_cli(["verify", "--n", "30", "--trials", "2", "--t", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t 1e+300: phases up to t*m*3.0 = 6e+300 ")


def test_verify_cross_check_still_fails_a_planted_disagreement(capsys, monkeypatch):
    real = cli.outcome_distribution

    def planted(config, fields):  # 1e-9 of the residual moved to the first label
        probs = real(config, fields).probs
        first = next(iter(probs))
        return OutcomeDistribution({**probs, first: probs[first] + 1e-9, "f": probs["f"] - 1e-9})

    monkeypatch.setattr(cli, "outcome_distribution", planted)
    assert run_cli(["verify", "--n", "30", "--trials", "2", "--t", "1"]) == 2
    assert capsys.readouterr().err.endswith("-> FAIL\n")


def test_verify_cross_check_reads_every_subsets_row(tmp_path, capsys, monkeypatch):
    # 1e-6 of one subset's row moved from 'f' to the first label after the
    # sweep took its TV: only the closed-form cross-check sees it, and it
    # names that subset.  With seed 0 the one-subset-per-design check drew
    # (2, 6) and (3, 4), and passed
    planted = (5, 7)
    real_designs = cli.verify_designs

    def designs_spy(configs, fields, subsets):
        out = real_designs(configs, fields, subsets)
        k = subsets.index(planted)
        for report in out:
            report.probs[k, 0] += 1e-6
            report.probs[k, -1] -= 1e-6
        return out

    monkeypatch.setattr(cli, "verify_designs", designs_spy)
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--n", "8", "--trials", "1", "--seed", "0", "--out", str(out)]) == 2
    doc = json.loads(read(out))
    assert doc["verdict"] == "fail" and doc["max_tv_distance"] == 0.0
    assert doc["failing_case"]["subset"] == list(planted)
    assert doc["max_oracle_analytic_error"] == pytest.approx(1e-6, rel=1e-6)
    assert capsys.readouterr().err.endswith("-> FAIL\n")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_too_few_trials(capsys, trials):
    assert run_cli(["verify", "--n", "5", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["0", "-1"])
@pytest.mark.parametrize("control", [[], ["--negative-control"]])
def test_verify_rejects_fewer_than_one_sender(capsys, m, control):
    # 'error: at least one field amplitude is required' named no flag
    assert run_cli(["verify", "--n", "5", "--m", m, *control]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --m must be >= 1, got {m}\n"


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("control", [[], ["--negative-control"]])
def test_verify_rejects_fewer_than_one_participant(capsys, n, control):
    # 'm=1 exceeds floor((n+1)/2)=0 for n=0' blamed the sender count
    assert run_cli(["verify", "--n", n, *control]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n must be >= 1, got {n}\n"


@pytest.mark.parametrize("m", ["1", "3"])
def test_verify_passes_for_a_true_sender_count_off_the_design(tmp_path, m):
    # a true m other than 2 differs from m_est on at least one design, so the
    # closed form's cross-check runs on the any-m string contraction
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--n", "9", "--m", m, "--trials", "2", "--out", str(out)]) == 0
    assert json.loads(read(out))["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", str(DATA / "run_n5.json"), "--seed", "-3"],
    ["verify", "--n", "5", "--seed", "-1"],
    ["verify", "--negative-control", "--seed", "-1"],
])
def test_negative_seed_names_its_flag(capsys, argv):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: --seed {argv[-1]}: must be >= 0\n"


def test_counts_label_mismatch_rejected(tmp_path):
    bad = tmp_path / "bad_counts.json"
    bad.write_text('{"counts": {"7+": 10}}')
    assert run_cli(["estimate", "--counts", str(bad),
                    "--config", str(DATA / "run_m1.json")]) == 2


def test_scan_fig_presets(tmp_path):
    for fig, expect_n in ((2, "10"), (3, "10000"), (4, "inf")):
        out = tmp_path / f"fig{fig}.csv"
        assert run_cli(["scan", "--fig", str(fig), "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "n,a,q0,theta1,theta2,j22,log10_j22,flag"
        assert len(lines) == 1 + 65 * 65
        assert all(line.split(",")[0] == expect_n for line in lines[1:])
        # theta2 = 0 column is flagged, everything else computes
        divergent = [line for line in lines[1:] if line.endswith("divergent")]
        assert len(divergent) == 65
    out5 = tmp_path / "fig5.csv"
    assert run_cli(["scan", "--fig", "5", "--out", str(out5)]) == 0
    lines = read(out5).strip().splitlines()
    assert all(line.split(",")[4] in ("0.5", "0.10000000000000001", "0.050000000000000003")
               for line in lines[1:])
    assert all(line.endswith("ok") for line in lines[1:])



# sha256 of `scan --fig N` stdout, pinned when the scan moved to whole axes
FIG_SHA256 = {
    2: "d828f980b36d7552277c064fada1104f237d993d1d44ce4df97188610481df1c",
    3: "51198200f900d4c32cc9073715b744700dbfce287412567cdd06e19a18f1aa74",
    4: "ee0cc377e1b17d69070c152876834278b1e727359a5a57dc78981bb4aea3ec0f",
    5: "70fefa4eb690c53781452ce39b14fdcf3c5d5f21cd22cb351e18aff90d495e4c",
}


@pytest.mark.parametrize("fig", sorted(FIG_SHA256))
def test_scan_fig_bytes_pinned(fig, capsys):
    assert run_cli(["scan", "--fig", str(fig)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FIG_SHA256[fig]


@pytest.mark.parametrize("n", ["5", "inf"])
@pytest.mark.parametrize("theta2", ["1e-300", "1e-160"])
def test_scan_flags_underflowing_theta2(n, theta2, capsys):
    # 1e-300: sin^2(theta2/2) underflows to 0 (was a ZeroDivisionError);
    # 1e-160: the bound overflows (was printed as inf,inf,ok)
    assert run_cli(["scan", "--n", n, "--theta1", "2", "--theta2", theta2]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",nan,nan,divergent")
    assert "1 rows (1 divergent)" in captured.err


@pytest.mark.parametrize("axis, value", [("--theta1", "nan"), ("--theta1", "inf"),
                                         ("--theta2", "0.5,-inf"), ("--theta2", "0.5,nan")])
def test_scan_rejects_non_finite_phases(axis, value, capsys):
    # a NaN phase was printed as an ok cell; an infinite one failed in math.sin
    argv = {"--n": "5", "--theta1": "2", "--theta2": "0.5,0"}
    argv[axis] = value
    assert run_cli(["scan", *[x for kv in argv.items() for x in kv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{axis[2:]}={value.split(',')[-1]} is not a finite phase" in captured.err


@pytest.mark.parametrize("q0, bad", [("nan", "nan"), ("0.33,inf", "inf")])
def test_scan_rejects_a_non_finite_q0(q0, bad, capsys):
    assert run_cli(["scan", "--n", "5", "--q0", q0, "--theta1", "2", "--theta2", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q0={bad} outside (0, 1)\n"


@pytest.mark.parametrize("axis", [["--theta1", "0:1:0"], ["--theta2", "log:0.1:1:0"],
                                  ["--n", "log:5:10:0"], ["--theta1", "0:1:-2"]])
def test_scan_rejects_axis_count_below_one(axis, capsys):
    argv = {"--n": "4", "--theta1": "2", "--theta2": "0.5"}
    argv.update([axis])
    assert run_cli(["scan", *[x for kv in argv.items() for x in kv]]) == 2
    assert "count must be >= 1" in capsys.readouterr().err

@pytest.mark.parametrize("axis, spec", [("--n", "nan"), ("--theta1", "1:2"),
                                        ("--n", "log:5:inf:3"), ("--n", "5,5.7"),
                                        ("--n", "inf,nan"), ("--n", "1e999"),
                                        ("--theta2", "0.5,abc"), ("--n", "log:-5:10:3"),
                                        ("--theta1", "log:-1:1:3"), ("--theta2", "log:0:1:3")])
def test_scan_axis_errors_name_the_axis(axis, spec, capsys):
    # the bare int()/unpacking messages did not say which option was wrong,
    # an infinite log range raised OverflowError past the exit-code handler,
    # and a log range through a bound <= 0 warned from numpy's log10
    argv = {"--n": "5", "--theta1": "1", "--theta2": "1"}
    argv[axis] = spec
    assert run_cli(["scan", *[x for kv in argv.items() for x in kv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {axis} {spec!r}: " in captured.err


@pytest.mark.parametrize("argv, flags", [
    (["--fig", "5", "--n", "7", "--theta1", "1", "--theta2", "1"], "--fig --n --theta1 --theta2"),
    (["--fig", "2", "--q0", "0.5"], "--fig --q0"),
])
def test_scan_takes_its_axes_from_one_source(capsys, argv, flags):
    # the flags beside --fig were dropped without a word
    assert run_cli(["scan", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: scan takes its axes from --fig or from the axis flags, "
                            f"not both; got {flags}\n")


@pytest.mark.parametrize("argv", [
    ["scan", "--fig", "2"],
    ["estimate", "--counts", str(DATA / "counts_m1.json"), "--config", str(DATA / "run_m1.json")],
])
def test_seed_is_rejected_where_nothing_reads_it(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--seed", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_scan_single_cell(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli(["scan", "--n", "5", "--q0", "0.33", "--theta1", "2.0",
                    "--theta2", "0.5", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert len(lines) == 2


def test_scan_requires_axes_or_fig(capsys):
    assert run_cli(["scan"]) == 2


def test_scan_n_axis_mixes_finite_n_and_the_limit(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli(["scan", "--n", "5,10,inf", "--q0", "0.33", "--theta1", "2.0",
                    "--theta2", "0.5", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "10", "inf"]
    assert lines[3].startswith("inf,inf,")


@pytest.mark.parametrize("spec", ["5:6:5", "log:5:6:5"])
def test_scan_n_range_keeps_each_n_once(tmp_path, spec):
    # the linear range rounded 5, 5.25, 5.5, 5.75, 6 to n = 5, 5, 6, 6, 6 and
    # wrote a row for each: five rows for two designs
    out = tmp_path / "scan.csv"
    assert run_cli(["scan", "--n", spec, "--theta1", "1", "--theta2", "1", "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in read(out).splitlines()[1:]] == ["5", "6"]


def test_load_counts_from_plain_and_transcript():
    counts = load_counts({"counts": {"0+": 3, "f": 2}})
    assert counts.N == 5
    counts2 = load_counts({"counts": {"0+": 1}, "rounds": 1, "seed": 0, "broadcast": {}})
    assert counts2.N == 1
    with pytest.raises(RunConfigError):
        load_counts({"tallies": {}})
