import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DATA = ROOT / "tests" / "data"


def load_tracer():
    """perfbench/tracer.py as a standalone module, without installing its spans."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # the traced benchmark run replaces each (module, attribute) it names; a
    # renamed, moved or deleted target must fail here, not break that run
    targets = load_tracer().TARGETS
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"anonsense.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"anonsense.{module}.{attr}"


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only dependency: every verb runs with scipy unimportable
    script = f"""
import sys
sys.modules["scipy"] = None
from anonsense.cli import main
runs = [
    ["verify", "--n", "6", "--trials", "1"],
    ["verify", "--n", "25", "--trials", "1"],
    ["verify", "--negative-control", "--n", "5"],
    ["scan", "--n", "5", "--theta1", "2.0", "--theta2", "0.5"],
    ["simulate", "--config", {str(DATA / "run_n5.json")!r}],
    ["estimate", "--counts", {str(DATA / "counts_m1.json")!r},
     "--config", {str(DATA / "run_m1.json")!r}],
]
for k, argv in enumerate(runs):
    assert main(argv + ["--out", {str(tmp_path)!r} + f"/{{k}}.out"]) == 0, argv
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
