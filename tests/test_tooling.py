import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from anonsense import cli, statevec
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
    # import time is the benchmark's set-up cost; the parser is built by main,
    # numpy.random (about 5 MiB and 15 ms) is loaded by the first simulate and
    # the scan writer by the first scan
    done = run_python("""
import sys
from anonsense import cli
assert cli._build_parser.cache_info().currsize == 0
assert "numpy.random" not in sys.modules and "anonsense.scancsv" not in sys.modules
assert cli.main(["scan", "--n", "5", "--theta1", "2.0", "--theta2", "0.5"]) == 0
assert cli.main(["scan", "--n", "6", "--theta1", "2.0", "--theta2", "0.5"]) == 0
info = cli._build_parser.cache_info()
assert (info.misses, info.hits) == (1, 1), info
assert "numpy.random" not in sys.modules and "anonsense.scancsv" in sys.modules
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


def test_no_verb_builds_a_dense_vector(tmp_path, monkeypatch):
    # the dense vectors are the tests' reference: every verb runs without them
    def refuse(*args, **kwargs):
        raise AssertionError("a verb built a 2^n vector")

    for name in ("dicke_state", "phi_state", "apply_sender_unitary", "_hamming_weights"):
        monkeypatch.setattr(statevec, name, refuse)
    runs = [
        ["simulate", "--config", str(DATA / "run_n5.json")],
        ["estimate", "--counts", str(DATA / "counts_m1.json"), "--config", str(DATA / "run_m1.json")],
        ["scan", "--n", "5", "--theta1", "2.0", "--theta2", "0.5"],
        ["verify", "--n", "8"],
        ["verify", "--negative-control", "--n", "5"],
    ]
    for k, argv in enumerate(runs):
        assert cli.main(argv + ["--out", str(tmp_path / f"{k}.out")]) == 0, argv


def test_verify_takes_one_path_at_every_n(tmp_path, monkeypatch):
    # the dense cap picks no anonymity path: verify writes the same bytes with
    # the cap at its value and with a cap that refuses every dense vector
    outs = []
    for limit in (statevec.DENSE_LIMIT, 0):
        monkeypatch.setattr(statevec, "DENSE_LIMIT", limit)
        out = tmp_path / f"verify_{limit}.json"
        assert cli.main(["verify", "--n", "8", "--trials", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["verdict"] == "pass"


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


def readme_section(title: str) -> str:
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def table_rows(section: str, header: str) -> dict[str, str]:
    """The rows of the markdown table under ``header`` in ``section``: first cell -> second."""
    lines = section.split(header + "\n", 1)[1].splitlines()[1:]  # past the |---| rule
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        first, second = (cell.strip() for cell in line.strip("|").split("|"))
        rows[first.strip("`")] = second
    return rows


def verb_parsers() -> dict:
    actions = cli._build_parser()._subparsers._group_actions
    return dict(next(a for a in actions if a.choices).choices)


def test_readme_flag_table_lists_each_verbs_flags():
    # every verb takes --out, which the table states once above it
    table = table_rows(readme_section("Command line"), "| verb | flags |")
    parsers = verb_parsers()
    assert sorted(table) == sorted(parsers)
    for verb, sub in parsers.items():
        defined = {flag for action in sub._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
        assert set(re.findall(r"--[a-z][a-z0-9-]*", table[verb])) | {"--out"} == defined, verb


def test_readme_command_lines_parse():
    section = readme_section("Command line")
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("anonsense ")]
    assert len(commands) >= 8
    for argv in commands:
        cli._build_parser().parse_args(argv[1:])  # argparse exits 2 on a stale flag
    # each preset row spells the axes of its --fig
    presets = table_rows(section, "| preset | flags |")
    assert sorted(presets) == [f"--fig {fig}" for fig in sorted(cli.FIG_FLAGS)]
    for preset, flags in presets.items():
        args = cli._build_parser().parse_args(["scan", *shlex.split(flags.strip("`"))])
        specs = {name: getattr(args, name) for name in cli.AXES
                 if getattr(args, name) is not None}
        assert cli._axes(specs) == cli._axes(cli.FIG_FLAGS[int(preset.split()[1])]), preset
