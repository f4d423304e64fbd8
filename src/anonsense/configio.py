"""Run-configuration files and deterministic JSON/CSV emission.

Reports are serialized with sorted keys and plain ``repr`` floats, and CSV
floats are printed with 17 significant digits, so identical inputs always
produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

from .combinatorics import FieldVector
from .engine import ConfigError, ProtocolConfig, design_fields
from .estimation import EstimateReport, OutcomeCounts
from .fisher import ScanGrid
from .protocol import TracelessnessReport, Transcript
from .statevec import SenderAssignment

SCAN_CSV_HEADER = "n,a,q0,theta1,theta2,j22,log10_j22,flag"


class RunConfigError(ValueError):
    """A run-configuration document failed validation; message carries the path."""


# --------------------------------------------------------------------------
# reading

def parse_run_config(doc: dict, require_scenario: bool = True) -> dict[str, Any]:
    """Validate a run-configuration document and build the value objects.

    Returns a dict with keys ``config`` (ProtocolConfig), ``assignment``
    (SenderAssignment or None), ``rounds``, ``seed``, and ``scan`` (axis dict
    or None).  Unknown keys anywhere are rejected with the offending path.
    """
    _reject_unknown(doc, {"protocol", "scenario", "run", "scan"}, "$")
    if "protocol" not in doc:
        raise RunConfigError("$.protocol: section is required")
    config = _parse_protocol(doc["protocol"])
    assignment = None
    if "scenario" in doc:
        assignment = _parse_scenario(doc["scenario"], config)
    elif require_scenario:
        raise RunConfigError("$.scenario: section is required for simulation")
    rounds, seed = _parse_run(doc.get("run"))
    scan = _parse_scan(doc.get("scan"))
    return {"config": config, "assignment": assignment, "rounds": rounds,
            "seed": seed, "scan": scan}


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
    if rounds < 1:
        raise RunConfigError(f"{path}.rounds: must be >= 1, got {rounds}")
    if seed < 0:
        raise RunConfigError(f"{path}.seed: must be >= 0, got {seed}")
    return rounds, seed


def _parse_scan(section) -> Optional[dict]:
    if section is None:
        return None
    path = "$.scan"
    _require_mapping(section, path)
    _reject_unknown(section, {"n", "q0", "theta1", "theta2"}, path)
    out = {}
    for key in ("n", "q0", "theta1", "theta2"):
        if key not in section or not isinstance(section[key], list) or not section[key]:
            raise RunConfigError(f"{path}.{key}: a nonempty list is required")
        # only n takes the literal 'inf' (the large-n limit); anything else
        # non-finite is an error naming its entry
        out[key] = [math.inf if key == "n" and v == "inf" else _real(v, f"{path}.{key}[{j}]")
                    for j, v in enumerate(section[key])]
    for j, v in enumerate(out["n"]):
        if v != math.inf and not v.is_integer():
            raise RunConfigError(f"{path}.n[{j}]: must be an integer or 'inf', "
                                 f"got {section['n'][j]!r}")
    return out


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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def scan_rows_to_csv(grid: ScanGrid) -> str:
    """The scan as CSV, one row per cell, axes nested as (n, q0, theta1, theta2).

    A cell's row is ``n,a,q0,theta1,theta2,j22,log10_j22,flag`` with flag
    ``ok``, or ``nan,nan,divergent`` in place of the last three where the
    block marks it divergent.  Written column by column: the n, a, q0 prefix
    once per block and each theta once per axis value; per cell only j22
    and math.log10(j22) are formatted.
    """
    lines = [SCAN_CSV_HEADER + "\n"]
    theta2 = [f",{_format_float(th2)}," for th2 in grid.theta2]
    for block in grid.blocks:
        prefix = f"{_format_count(block.n)},{_format_count(block.a)},{_format_float(block.q0)},"
        for th1, values, flags in zip(grid.theta1, block.j22.tolist(), block.divergent.tolist()):
            head = prefix + _format_float(th1)
            lines += [f"{head}{th2}nan,nan,divergent\n" if divergent else
                      f"{head}{th2}{j22:.17g},{math.log10(j22):.17g},ok\n"
                      for th2, j22, divergent in zip(theta2, values, flags)]
    return "".join(lines)


def _format_count(x: float) -> str:
    return "inf" if math.isinf(x) else str(int(x))


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _jsonable_float(x: float):
    # JSON has no NaN/Infinity; the stdlib would emit non-standard tokens
    return None if (isinstance(x, float) and not math.isfinite(x)) else x
