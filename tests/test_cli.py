import hashlib
import json
import math
from pathlib import Path

import pytest

from anonsense import statevec
from anonsense.cli import main
from anonsense.combinatorics import MINUS, PLUS
from anonsense.configio import RunConfigError, load_counts

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


def test_verify_oracle_limit_exit_code(tmp_path, monkeypatch):
    # the sweep runs at any n; only the dense negative control is capped
    out = tmp_path / "x.json"
    assert run_cli(["verify", "--n", "25", "--trials", "2", "--out", str(out)]) == 0
    doc = json.loads(read(out))
    assert doc["verdict"] == "pass"
    assert [rep["n_subsets"] for rep in doc["tracelessness"]] == [300, 300]
    assert run_cli(["verify", "--negative-control", "--n", "25", "--out", str(out)]) == 3
    monkeypatch.setenv("ANONSENSE_ORACLE_LIMIT", "4")
    assert run_cli(["verify", "--negative-control", "--n", "6", "--out", str(out)]) == 3


def test_verify_builds_no_second_basis(tmp_path, monkeypatch):
    # the oracle/analytic cross-check reads the sweep's distributions
    calls = []
    real = statevec.phi_state
    monkeypatch.setattr(statevec, "phi_state", lambda *args: calls.append(args) or real(*args))
    assert run_cli(["verify", "--n", "8", "--trials", "1", "--out", str(tmp_path / "v.json")]) == 0
    # single sender: (0,+) initial state and projector; two senders, a = 4:
    # initial states (0,+) and (4,+), projectors (0,+), (0,-) and (4,+)
    assert sorted(calls) == sorted([(8, 0, PLUS)] * 2 + [
        (8, 0, PLUS), (8, 4, PLUS), (8, 0, PLUS), (8, 0, MINUS), (8, 4, PLUS)])


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
])
def test_wrong_value_types_report_their_path(tmp_path, capsys, section, key, value, path):
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(bad)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("verb, section, key, value, path", [
    ("simulate", "protocol", "t", True, "$.protocol.t"),
    ("simulate", "scenario", "sender_positions", [True, 3], "$.scenario.sender_positions[0]"),
    ("scan", "scan", "n", [True], "$.scan.n[0]"),
])
def test_json_booleans_report_their_path(tmp_path, capsys, verb, section, key, value, path):
    # bool is an int subclass: true was read as 1 (t = 1.0, a sender at participant 1)
    doc = json.loads((DATA / "run_n5.json").read_text())
    doc["scan"] = {"n": [5], "q0": [0.33], "theta1": [2.0], "theta2": [0.5]}
    doc[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli([verb, "--config", str(bad)]) == 2
    assert f"{path}: must be a number, got True" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_too_few_trials(capsys, trials):
    assert run_cli(["verify", "--n", "5", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


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


@pytest.mark.parametrize("axis, values, path", [
    ("n", [[5]], "$.scan.n[0]"),
    ("n", [5, 5.7], "$.scan.n[1]"),
    ("n", ["inf", "nan"], "$.scan.n[1]"),
    ("q0", [{}], "$.scan.q0[0]"),
    ("theta1", [None], "$.scan.theta1[0]"),
    ("theta2", [0.5, "abc"], "$.scan.theta2[1]"),
])
def test_scan_axis_entries_report_their_path(tmp_path, capsys, axis, values, path):
    doc = {"protocol": {"n": 5, "m_est": 1, "t": 1.0},
           "scan": {"n": [5], "q0": [0.33], "theta1": [2.0], "theta2": [0.5]}}
    doc["scan"][axis] = values
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli(["scan", "--config", str(bad)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("axis", [["--theta1", "0:1:0"], ["--theta2", "log:0.1:1:0"],
                                  ["--n", "log:5:10:0"], ["--theta1", "0:1:-2"]])
def test_scan_rejects_axis_count_below_one(axis, capsys):
    argv = {"--n": "4", "--theta1": "2", "--theta2": "0.5"}
    argv.update([axis])
    assert run_cli(["scan", *[x for kv in argv.items() for x in kv]]) == 2
    assert "count must be >= 1" in capsys.readouterr().err

@pytest.mark.parametrize("axis, spec", [("--n", "nan"), ("--theta1", "1:2"),
                                        ("--n", "log:5:inf:3")])
def test_scan_axis_errors_name_the_axis(axis, spec, capsys):
    # the bare int()/unpacking messages did not say which option was wrong,
    # and an infinite log range raised OverflowError past the exit-code handler
    argv = {"--n": "5", "--theta1": "1", "--theta2": "1"}
    argv[axis] = spec
    assert run_cli(["scan", *[x for kv in argv.items() for x in kv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {axis} {spec!r}: " in captured.err


def test_scan_single_cell(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli(["scan", "--n", "5", "--q0", "0.33", "--theta1", "2.0",
                    "--theta2", "0.5", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert len(lines) == 2


def test_scan_requires_axes_or_fig(capsys):
    assert run_cli(["scan"]) == 2


def test_scan_from_config_file(tmp_path):
    doc = {
        "protocol": {"n": 5, "m_est": 1, "t": 1.0},
        "scan": {"n": [5, 10, "inf"], "q0": [0.33], "theta1": [2.0], "theta2": [0.5]},
    }
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "scan.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert len(lines) == 4
    assert lines[3].startswith("inf,inf,")
    # a scan section with no axes is rejected
    bad = tmp_path / "noscan.json"
    bad.write_text(json.dumps({"protocol": {"n": 5, "m_est": 1, "t": 1.0}}))
    assert run_cli(["scan", "--config", str(bad)]) == 2


def test_load_counts_from_plain_and_transcript():
    counts = load_counts({"counts": {"0+": 3, "f": 2}})
    assert counts.N == 5
    counts2 = load_counts({"counts": {"0+": 1}, "rounds": 1, "seed": 0, "broadcast": {}})
    assert counts2.N == 1
    with pytest.raises(RunConfigError):
        load_counts({"tallies": {}})
