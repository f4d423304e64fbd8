import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from anonsense.configio import parse_run_config
from anonsense.engine import ProtocolConfig

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DATA = ROOT / "tests" / "data"
README = ROOT / "README.md"


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


def run_python(script: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_parser_is_built_on_first_call_not_at_import():
    # import time is the benchmark's set-up cost; the parser is built by main
    done = run_python("""
from anonsense import cli
assert cli._build_parser.cache_info().currsize == 0
assert cli.main(["scan", "--n", "5", "--theta1", "2.0", "--theta2", "0.5"]) == 0
assert cli.main(["scan", "--n", "6", "--theta1", "2.0", "--theta2", "0.5"]) == 0
info = cli._build_parser.cache_info()
assert (info.misses, info.hits) == (1, 1), info
""")
    assert done.returncode == 0, done.stderr


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
    done = run_python(script)
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs(capsys):
    # a signature change that leaves the README's example stale fails here
    section = README.read_text().split("## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}:Library example", "exec"), {})
    assert capsys.readouterr().out.startswith("(")


def test_every_shipped_run_config_parses():
    # a config is checked when it is constructed: no shipped file may fail that
    paths = sorted(ROOT.glob("configs/*.json")) + sorted(DATA.glob("run_*.json"))
    assert len(paths) >= 3
    for path in paths:
        parsed = parse_run_config(json.loads(path.read_text()), require_scenario=False)
        assert isinstance(parsed["config"], ProtocolConfig), path
