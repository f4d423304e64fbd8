"""Self-test of the benchmark (not collected by a plain ``pytest``; name it):

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at the tiny size, end to end and traced, and checks the
contract of the output: every metric named in BENCHMARK.json is printed with
its unit, planted wrong outputs are counted as failures, traced counts repeat
exactly, and the benchmark refuses to run outside a checkout.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@functools.cache
def result(workload, trace, plant=False):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"] + (["--plant-fault"] if plant else [])
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    comments, doc = result(workload, trace)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.startswith(f"# {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in comments)
        if not trace:
            assert got["value"] > 0
    if not trace:
        for name in ("op_p50_s", "op_tail_s"):
            assert any(line.startswith(f"# {name}: ") for line in comments)
    assert any(line.startswith("# fail_ratio: 0.0 ratio") for line in comments)
    assert any(line.startswith("# machine: ") for line in comments)
    assert any(line.startswith("# inputs: ") for line in comments)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_outputs_count_as_failures(workload):
    comments, doc = result(workload, 0, plant=True)
    assert doc["correct"] is False
    assert doc["failed"] == doc["attempted"] // 2  # every other output is corrupted
    assert any(line.startswith(f"# fail_ratio: {doc['failed'] / doc['attempted']} ratio")
               for line in comments)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result(workload, 1)[1]["metrics"]
    again = result.__wrapped__(workload, 1)[1]["metrics"]  # a fresh run, same seed
    counts = [m["name"] for m in BENCH["per_layer"]
              if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}
    assert first["cli.main.calls"]["value"] > 0


def test_independent_model_matches_the_package():
    import checks
    from anonsense.combinatorics import FieldVector
    from anonsense.engine import ProtocolConfig, outcome_distribution

    for n in (5, 8, 13, 301):
        omegas = (0.4, 1.1)
        config = {"n": n, "m_est": 2, "t": 1.0, "a": n // 2, "q0": 0.33}
        ours = checks.outcome_probs(config, [omegas[0] + omegas[1], omegas[1] - omegas[0]])
        theirs = outcome_distribution(ProtocolConfig.for_two_senders(n, a=n // 2, q0=0.33),
                                      FieldVector(omegas=omegas, t=1.0)).probs
        assert ours.keys() == theirs.keys()
        assert max(abs(ours[k] - theirs[k]) for k in ours) < 1e-12
        ours = checks.outcome_probs({"n": n, "m_est": 1, "t": 1.0}, [0.9])
        theirs = outcome_distribution(ProtocolConfig.for_single_sender(n),
                                      FieldVector(omegas=(0.9,), t=1.0)).probs
        assert max(abs(ours[k] - theirs[k]) for k in ours) < 1e-12


def test_refuses_to_run_without_the_package():
    bare = ROOT / "perfbench" / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
        proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert proc.stdout == ""
