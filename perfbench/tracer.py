"""Spans around the package's public functions, recorded from outside the package.

Each target is replaced, in every ``anonsense`` module namespace that holds
it (methods on their class), by a wrapper that records a span: name, start,
end and parent span, with ``time.perf_counter``.  A span's self time is its
duration minus the time its child spans cover.  Some wrappers also count
work from the arguments and results they see (the derived counters below).
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) of every traced function; 'Class.method' for methods
TARGETS = [
    ("cli", "main"),
    ("configio", "parse_run_config"),
    ("configio", "load_counts"),
    ("configio", "dumps_json"),
    ("configio", "scan_rows_to_csv"),
    ("protocol", "run_protocol"),
    ("protocol", "verify_tracelessness"),
    ("protocol", "negative_control"),
    ("estimation", "mle_estimate"),
    ("estimation", "log_likelihood"),
    ("fisher", "ThetaModel.__init__"),
    ("fisher", "ThetaModel.probs"),
    ("fisher", "ThetaModel.dprobs"),
    ("fisher", "fisher_matrix"),
    ("fisher", "scan_j22"),
    ("engine", "outcome_distribution"),
    ("engine", "gamma"),
    ("combinatorics", "g_coefficients"),
    ("statevec", "oracle_distribution"),
    ("statevec", "conditional_distributions"),
    ("statevec", "phi_state"),
    ("statevec", "dicke_state"),
    ("statevec", "apply_sender_unitary"),
    ("sampling", "draw_counts"),
]

# name -> (unit, better) of every counter derived from arguments and results
DERIVED = {
    "fisher.weight_rows": ("count", "lower"),
    "fisher.weight_rows_used_ratio": ("ratio", "higher"),
    "estimation.grid_bytes": ("B", "lower"),
    "statevec.dense_bytes": ("B", "lower"),
    "statevec.dicke_state.distinct_ratio": ("ratio", "higher"),
    "protocol.subsets": ("count", "higher"),
    "protocol.tv_pairs": ("count", "lower"),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.init')}"


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    out = []
    for module, attr in TARGETS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    out.append(("trace.overhead_ratio", "ratio", "higher"))
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names = [span_name(m, a) for m, a in TARGETS]
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.rows_built = 0
        self.rows_used = 0
        self.grid_bytes = 0
        self.dense_bytes = 0
        self.dicke_calls = 0
        self.dicke_pairs: set = set()
        self.subsets = 0
        self.tv_pairs = 0

    # -- derived counters, fed by the wrappers

    def _on_theta_model(self, args, kwargs, result):
        config = _arg(args, kwargs, 1, "config")
        self.rows_built += config.kmax + 1
        self.rows_used += sum(
            1 for i in range(config.kmax + 1)
            if config.q[i] > 0 or config.c_plus[i] or config.c_minus[i])

    def _on_mle(self, args, kwargs, result):
        config = _arg(args, kwargs, 1, "config")
        grid = kwargs.get("grid_points", args[2] if len(args) > 2 else 181)
        self.grid_bytes += 2 * 8 * (config.kmax + 1) * grid ** config.m_est

    def _on_vector(self, args, kwargs, result):
        self.dense_bytes += result.nbytes

    def _on_dicke(self, args, kwargs, result):
        self.dicke_calls += 1
        self.dicke_pairs.add((_arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "k")))
        self.dense_bytes += result.nbytes

    def _on_report(self, args, kwargs, result):
        self.subsets += result.n_subsets
        self.tv_pairs += math.comb(result.n_subsets, 2)

    def _hooks(self):
        return {
            "fisher.ThetaModel.init": self._on_theta_model,
            "estimation.mle_estimate": self._on_mle,
            "statevec.dicke_state": self._on_dicke,
            "statevec.phi_state": self._on_vector,
            "statevec.apply_sender_unitary": self._on_vector,
            "protocol.verify_tracelessness": self._on_report,
            "protocol.negative_control": self._on_report,
        }

    # -- spans

    def _wrap(self, ix: int, fn, hook):
        stack, name_ix, parent, start, end = (
            self._stack, self.name_ix, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every target in every loaded anonsense namespace."""
        hooks = self._hooks()
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "anonsense" or name.startswith("anonsense.")]
        for ix, (module, attr) in enumerate(TARGETS):
            owner = importlib.import_module(f"anonsense.{module}")
            hook = hooks.get(self.names[ix])
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(ix, getattr(cls, method), hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(ix, original, hook)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict[str, float]:
        name_ix = np.frombuffer(self.name_ix, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        calls = np.bincount(name_ix, minlength=len(self.names))
        self_s = np.bincount(name_ix, weights=dur - covered, minlength=len(self.names))
        out: dict[str, float] = {}
        for ix, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[ix])
            out[f"{name}.self_s"] = float(self_s[ix])
        out["fisher.weight_rows"] = self.rows_built
        out["fisher.weight_rows_used_ratio"] = self.rows_used / self.rows_built if self.rows_built else 0.0
        out["estimation.grid_bytes"] = self.grid_bytes
        out["statevec.dense_bytes"] = self.dense_bytes
        out["statevec.dicke_state.distinct_ratio"] = (
            len(self.dicke_pairs) / self.dicke_calls if self.dicke_calls else 0.0)
        out["protocol.subsets"] = self.subsets
        out["protocol.tv_pairs"] = self.tv_pairs
        return out
