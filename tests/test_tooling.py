import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
