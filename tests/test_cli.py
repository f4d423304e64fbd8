import hashlib
import json
import math
import weakref
from pathlib import Path

import warnings

import pytest

from anonsense import cli, protocol
from anonsense.cli import main
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


def test_verify_builds_no_second_basis(tmp_path, monkeypatch):
    # the oracle/analytic cross-check reads the sweep's distributions, and the
    # sweep runs on Dicke-state means at every n: both designs of a trial read
    # their rows from one means pass
    passes, sweeps = [], []
    real_means, real_sweep = cli.dicke_means, protocol.dicke_sweep

    def means_spy(n, fields, subsets, indices):
        passes.append((n, len(subsets), indices))
        return real_means(n, fields, subsets, indices)

    def sweep_spy(config, fields, subsets, means=None):
        sweeps.append((config.m_est, len(subsets), means is not None))
        return real_sweep(config, fields, subsets, means)

    monkeypatch.setattr(cli, "dicke_means", means_spy)
    monkeypatch.setattr(protocol, "dicke_sweep", sweep_spy)
    assert run_cli(["verify", "--n", "8", "--trials", "2", "--out", str(tmp_path / "v.json")]) == 0
    # two trials, each one pass at the indices either design measures (0, and
    # a = 4 of the two-sender design), read by both for the 28 two-sender subsets
    assert passes == [(8, 28, [0, 4])] * 2
    assert sweeps == [(1, 28, True), (2, 28, True)] * 2


def test_verify_frees_each_means_pass_before_the_next(tmp_path, monkeypatch):
    # at n = 200 one pass is tens of MB: a trial's pass still bound while the
    # next one forms would raise the peak by that much
    passes = []
    real_means = cli.dicke_means

    def means_spy(*args):
        assert [ref() for ref in passes] == [None] * len(passes)
        means = real_means(*args)
        passes.append(weakref.ref(means))
        return means

    monkeypatch.setattr(cli, "dicke_means", means_spy)
    assert run_cli(["verify", "--n", "8", "--trials", "3", "--out", str(tmp_path / "v.json")]) == 0
    assert len(passes) == 3


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


def test_malformed_counts_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"counts": {"0+": 5,}}')
    code = run_cli(["estimate", "--counts", str(bad), "--config", str(DATA / "run_m1.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("value", [True, 2.7, "3"])
def test_counts_must_be_json_integers(tmp_path, capsys, value):
    # int() read true as 1 and truncated 2.7 to 2
    bad = tmp_path / "counts.json"
    bad.write_text(json.dumps({"counts": {"0+": value, "f": 3}}))
    assert run_cli(["estimate", "--counts", str(bad), "--config", str(DATA / "run_m1.json")]) == 2
    assert f"error: $.counts.0+: must be an integer, got {value!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_too_few_trials(capsys, trials):
    assert run_cli(["verify", "--n", "5", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


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
                                        ("--theta2", "0.5,abc")])
def test_scan_axis_errors_name_the_axis(axis, spec, capsys):
    # the bare int()/unpacking messages did not say which option was wrong,
    # and an infinite log range raised OverflowError past the exit-code handler
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


def test_load_counts_from_plain_and_transcript():
    counts = load_counts({"counts": {"0+": 3, "f": 2}})
    assert counts.N == 5
    counts2 = load_counts({"counts": {"0+": 1}, "rounds": 1, "seed": 0, "broadcast": {}})
    assert counts2.N == 1
    with pytest.raises(RunConfigError):
        load_counts({"tallies": {}})
