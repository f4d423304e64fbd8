"""Run-configuration files and deterministic JSON/CSV emission.

Reports are serialized with sorted keys and plain ``repr`` floats, as
``json.dumps(obj, indent=2, sort_keys=True)`` writes them, and CSV floats are
printed with 17 significant digits (:mod:`anonsense.scancsv`), so identical
inputs always produce byte-identical outputs.  A scan's CSV comes in ASCII
chunks, to be written one at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from typing import Any

from .combinatorics import FieldVector
from .engine import ConfigError, ProtocolConfig, design_fields
from .estimation import EstimateReport, OutcomeCounts
from .fisher import ScanGrid
from .protocol import TracelessnessReport, Transcript
from .sampling import MAX_ROUNDS
from .statevec import SenderAssignment

class RunConfigError(ValueError):
    """A run-configuration document failed validation; message carries the path."""


# --------------------------------------------------------------------------
# reading

def parse_run_config(doc: dict, require_scenario: bool = True) -> dict[str, Any]:
    """Validate a run-configuration document and build the value objects.

    Returns a dict with keys ``config`` (ProtocolConfig), ``assignment``
    (SenderAssignment or None), ``rounds`` and ``seed``.  Unknown keys
    anywhere are rejected with the offending path; ``scan`` takes its axes
    from its flags, so a ``scan`` section is one of them.
    """
    _reject_unknown(doc, {"protocol", "scenario", "run"}, "$")
    if "protocol" not in doc:
        raise RunConfigError("$.protocol: section is required")
    config = _parse_protocol(doc["protocol"])
    assignment = None
    if "scenario" in doc:
        assignment = _parse_scenario(doc["scenario"], config)
    elif require_scenario:
        raise RunConfigError("$.scenario: section is required for simulation")
    rounds, seed = _parse_run(doc.get("run"))
    return {"config": config, "assignment": assignment, "rounds": rounds, "seed": seed}


def _parse_protocol(section) -> ProtocolConfig:
    path = "$.protocol"
    _require_mapping(section, path)
    _reject_unknown(section, {"n", "m_est", "t", "a", "q0", "q", "c"}, path)
    n = _require_int(section, "n", path)
    m_est = _require_int(section, "m_est", path)
    t = _real(section.get("t", 1.0), f"{path}.t")
    if m_est == 1:
        for key in ("a", "q0"):
            if key in section:
                raise RunConfigError(f"{path}.{key}: read only when m_est is 2")
        fields = design_fields(n)
    elif m_est == 2:
        a = _require_int(section, "a", path)
        if "q" not in section and "q0" not in section:
            raise RunConfigError(f"{path}.q0: required for m_est=2 (or give a full q vector)")
        # a q vector replaces the design's weights, so any q0 builds the design
        q0 = 0.5 if "q" in section else _real(section["q0"], f"{path}.q0")
        fields = design_fields(n, a, q0)
    else:
        raise RunConfigError(f"{path}.m_est: must be 1 or 2, got {m_est}")
    size = len(fields["q"])
    if "q" in section:
        q = section["q"]
        if not isinstance(q, list) or len(q) != size:
            raise RunConfigError(f"{path}.q: must be a list of {size} weights")
        fields["q"] = [_real(x, f"{path}.q[{i}]") for i, x in enumerate(q)]
        if "q0" in section:
            raise RunConfigError(f"{path}.q0: not read when q is given")
    if "c" in section:
        overrides = section["c"]
        _require_mapping(overrides, f"{path}.c")
        for key, value in overrides.items():
            try:
                i, sign = int(key[:-1]), key[-1]
                if sign not in "+-" or not 0 <= i < size:
                    raise ValueError
            except (ValueError, IndexError):
                raise RunConfigError(
                    f"{path}.c.{key}: keys must look like '0+' with index <= {size - 1}"
                ) from None
            switches = fields["c_plus" if sign == "+" else "c_minus"]
            switches[i] = _number(value, int, f"{path}.c.{key}")
    # one construction checks the final vectors, never the design before its overrides
    try:
        return ProtocolConfig(t=t, **fields)
    except ConfigError as exc:
        raise RunConfigError("; ".join(f"{path}: {v}" for v in exc.violations)) from None


def _parse_scenario(section, config: ProtocolConfig) -> SenderAssignment:
    path = "$.scenario"
    _require_mapping(section, path)
    _reject_unknown(section, {"sender_positions", "omegas"}, path)
    for key in ("sender_positions", "omegas"):
        if key not in section or not isinstance(section[key], list):
            raise RunConfigError(f"{path}.{key}: a list is required")
    omegas = tuple(_number(w, float, f"{path}.omegas[{j}]")
                   for j, w in enumerate(section["omegas"]))
    fields = FieldVector(omegas=omegas, t=config.t)
    for violation in fields.violations():
        raise RunConfigError(f"{path}.omegas: {violation}")
    positions = tuple(_number(p, int, f"{path}.sender_positions[{j}]")
                      for j, p in enumerate(section["sender_positions"]))
    try:
        return SenderAssignment(n=config.n, sender_positions=positions, fields=fields)
    except ValueError as exc:
        raise RunConfigError(f"{path}: {exc}") from None


def _parse_run(section) -> tuple[int, int]:
    if section is None:
        return 1, 0
    path = "$.run"
    _require_mapping(section, path)
    _reject_unknown(section, {"rounds", "seed"}, path)
    rounds = _require_int(section, "rounds", path)
    seed = _number(section.get("seed", 0), int, f"{path}.seed")
    if not 1 <= rounds <= MAX_ROUNDS:
        raise RunConfigError(f"{path}.rounds: must be in [1, {MAX_ROUNDS}], got {rounds}")
    if seed < 0:
        raise RunConfigError(f"{path}.seed: must be >= 0, got {seed}")
    return rounds, seed


def load_counts(doc) -> OutcomeCounts:
    """Read an outcome-counts document ({'counts': {...}} or a full transcript)."""
    _require_mapping(doc, "$")
    if "counts" not in doc:
        raise RunConfigError("$.counts: section is required")
    counts = doc["counts"]
    _require_mapping(counts, "$.counts")
    parsed = {label: _require_int(counts, label, "$.counts") for label in counts}
    try:
        return OutcomeCounts(parsed)
    except ValueError as exc:
        raise RunConfigError(f"$.counts: {exc}") from None


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise RunConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")


def _number(value, kind, path):
    """``kind(value)`` for a JSON number or numeric string; any other value (a
    list, an object or a boolean), or a fractional number where ``kind`` is
    int (which would truncate it), is an error naming ``path``."""
    try:
        if isinstance(value, (list, dict, bool)):
            raise TypeError
        x = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise RunConfigError(f"{path}: must be a number, got {value!r}") from None
    if kind is int and isinstance(value, float) and x != value:
        raise RunConfigError(f"{path}: must be an integer, got {value!r}")
    return x


def _real(value, path) -> float:
    """:func:`_number` as a float that must be finite; NaN and infinities name ``path``."""
    x = _number(value, float, path)
    if not math.isfinite(x):
        raise RunConfigError(f"{path}: must be finite, got {value!r}")
    return x


def _require_int(section, key, path):
    if key not in section:
        raise RunConfigError(f"{path}.{key}: required")
    value = section[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise RunConfigError(f"{path}.{key}: must be an integer, got {value!r}")
    return value


def _reject_unknown(obj, allowed, path):
    _require_mapping(obj, path)
    unknown = set(obj) - allowed
    if unknown:
        raise RunConfigError(f"{path}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


# --------------------------------------------------------------------------
# writing

def dumps_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The stdlib formats an indented document in pure Python, item by item;
    this writer recurses only into dicts and lists (and tuples), writes a list
    of plain ints and finite floats as one join over their reprs, and escapes
    strings with the stdlib's C encoder.  It raises TypeError where
    ``json.dumps`` does, for a value it cannot write.  Two differences: a dict
    key that is not a str raises TypeError (``json.dumps`` writes an int,
    float, bool or None key as a string), and a document that contains itself
    recurses until RecursionError (``json.dumps`` raises ValueError).
    """
    return _json_text(obj, "\n") + "\n"


_PLAIN_NUMBERS = {int, float}
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, newline: str) -> str:
    """``obj`` as indented JSON; ``newline`` is a line break and the indent
    of the line ``obj`` starts on."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    inner = newline + "  "
    separator = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _PLAIN_NUMBERS:
            items = separator.join(map(repr, obj))
            if "n" not in items:  # no nan or inf, which JSON spells otherwise
                return "[" + inner + items + newline + "]"
        items = separator.join([_json_text(item, inner) for item in obj])
        return "[" + inner + items + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = separator.join([encode_basestring_ascii(key) + ": " + _json_text(value, inner)
                                for key, value in sorted(obj.items())])
        return "{" + inner + items + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def config_to_dict(config: ProtocolConfig) -> dict:
    return {
        "n": config.n,
        "m_est": config.m_est,
        "t": config.t,
        "q": list(config.q),
        "c_plus": list(config.c_plus),
        "c_minus": list(config.c_minus),
        "a": config.a,
    }


def estimate_to_dict(report: EstimateReport) -> dict:
    return {
        "m_est": report.theta_hat.m_est,
        "theta_hat": list(report.theta_hat.theta),
        "omega_hat": list(report.omega_hat),
        "log_likelihood": _jsonable_float(report.log_likelihood),
        "se_estimate": [_jsonable_float(v) for v in report.se_estimate],
        "crb_se": None if report.crb_se is None else list(report.crb_se),
        "converged": report.converged,
        "flags": list(report.flags),
    }


def transcript_to_dict(transcript: Transcript) -> dict:
    return {
        "config": config_to_dict(transcript.config),
        "rounds": transcript.rounds,
        "counts": dict(transcript.counts),
        "broadcast": estimate_to_dict(transcript.broadcast),
        "seed": transcript.seed,
    }


def tracelessness_to_dict(report: TracelessnessReport) -> dict:
    return {
        "n": report.n,
        "m": report.m,
        "omegas": list(report.fields.omegas),
        "t": report.fields.t,
        "mode": report.mode,
        "n_subsets": report.n_subsets,
        "max_tv_distance": report.max_tv_distance,
        "tolerance": report.tolerance,
        "verdict": "pass" if report.verdict else "fail",
    }


def scan_rows_to_csv(grid: ScanGrid) -> Iterator[bytes]:
    """The scan as CSV, one row per cell: :func:`anonsense.scancsv.scan_csv`,
    whose ASCII chunks are formed one at a time as they are iterated.

    The writer is imported on its first use, so the verbs that never write a
    scan do not compile it.  That matters only to perfbench's ``peak_rss_mb``,
    whose children compile the package from source where
    PYTHONDONTWRITEBYTECODE is set; once that metric leaves the compile out,
    this import belongs at the top of the module.
    """
    from .scancsv import scan_csv

    return scan_csv(grid)


def _jsonable_float(x: float):
    # JSON has no NaN/Infinity; the stdlib would emit non-standard tokens
    return None if (isinstance(x, float) and not math.isfinite(x)) else x
