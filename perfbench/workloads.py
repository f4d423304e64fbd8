"""Seeded operation plans for the three benchmark workloads.

A plan is a list of passes; a pass is a fixed mix of operations, each one
``anonsense`` CLI argv plus the spec its output check needs.  A run executes
a fixed number of whole passes, so every run sees the same mix, and each mix
is built so that the latency percentiles fall inside one kind of operation
rather than on the border between two.  Every input file is written here,
before any timing.

The seed changes sender positions, fields, per-run seeds and drawn counts;
the mix of a pass and every n are fixed, so seeds agree on how much work a
pass is.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("simulate-large-n", "estimate-small-n", "verify-anonymity")
ORACLE_CAP = 20  # anonsense.statevec.DEFAULT_ORACLE_LIMIT
ROUNDS = 100_000
Q0 = 0.33
# (n, m_est) of the estimate-small-n configurations: fixed, because the cost
# of an m = 2 estimate grows with n, and seeds must agree on the work
SMALL_CONFIGS = ((5, 2), (7, 2), (9, 2), (12, 2), (6, 1), (10, 1))
THETA_AXIS = f"0:{math.pi!r}:{checks.FIG_AXIS_POINTS}"  # the figures' 65-point phase axis
# Wall time of one full-size pass on the reference machine (2 cores, Python
# 3.11, numpy 2.4); sets how many passes a run makes.
NOMINAL_PASS_S = {"simulate-large-n": 12.0, "estimate-small-n": 1.3, "verify-anonymity": 2.3}


class Plan:
    def __init__(self, workload: str, seed: int, size: str, work: Path, passes: int):
        self.size, self.work = size, work
        self.out = str(work / "out")
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self._files = 0
        build = {"simulate-large-n": self._simulate_large_n,
                 "estimate-small-n": self._estimate_small_n,
                 "verify-anonymity": self._verify_anonymity}[workload]
        self.passes = [build(p) for p in range(passes)]

    def to_dict(self) -> dict:
        return {"out": self.out, "passes": self.passes}

    # -- inputs

    def _write(self, doc: dict) -> str:
        self._files += 1
        path = self.work / f"in{self._files}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _run_seed(self) -> int:
        return int(self.rng.integers(2 ** 31))

    def _fields(self, m: int) -> tuple[list[float], list[float]]:
        """Sorted field amplitudes (t = 1) and their phase vector, phases in (0, pi)."""
        if m == 1:
            th = float(self.rng.uniform(0.4, 2.8))
            return [th], [th]
        th1 = float(self.rng.uniform(1.2, 2.8))
        th2 = float(self.rng.uniform(0.3, 0.8 * th1))
        omegas = [(th1 - th2) / 2, (th1 + th2) / 2]
        return omegas, [omegas[0] + omegas[1], omegas[1] - omegas[0]]

    def _config(self, n: int, m: int) -> dict:
        if m == 1:
            return {"n": n, "m_est": 1, "t": 1.0}
        return {"n": n, "m_est": 2, "t": 1.0, "a": n // 2, "q0": Q0}

    def _scenario(self, config: dict) -> tuple[dict, list[float]]:
        n, m = config["n"], config["m_est"]
        positions = sorted(int(p) + 1 for p in self.rng.choice(n, size=m, replace=False))
        omegas, theta = self._fields(m)
        return {"sender_positions": positions, "omegas": omegas}, theta

    def _op(self, argv: list, spec: dict, n: int | None, key) -> dict:
        return {"argv": [str(a) for a in argv] + ["--out", self.out],
                "check": spec, "n": n, "key": json.dumps(key, sort_keys=True)}

    def _simulate(self, config: dict, scenario: dict, theta: list[float]) -> dict:
        path = self._write({"protocol": config, "scenario": scenario,
                            "run": {"rounds": ROUNDS, "seed": 0}})
        spec = {"kind": "simulate", "config": config, "rounds": ROUNDS, "theta": theta}
        return self._op(["simulate", "--config", path, "--seed", self._run_seed()],
                        spec, config["n"], config)

    # -- workloads

    def _simulate_large_n(self, p: int) -> list[dict]:
        """Analytic-path simulate runs over a log ladder of n, each after a
        closed-form scan of the figures' theta grid at the same n, plus the
        four figure scans.

        n = rung - pass index keeps every n in a run distinct (no repeated
        configuration), and n stays above the dense-oracle cap.
        """
        if self.size == "full":
            rungs = [round(x) for x in np.geomspace(300, 3000, 9)]
        else:
            rungs = [2 * ORACLE_CAP + 4]
        ops = [self._op(["scan", "--fig", fig], {"kind": "scan", "grid": fig != 5}, None,
                        {"fig": fig}) for fig in (2, 3, 4, 5)]
        for rung in rungs:
            config = self._config(rung - p, 2)
            scenario, theta = self._scenario(config)
            ops.append(self._op(["scan", "--n", config["n"], "--q0", Q0,
                                 "--theta1", THETA_AXIS, "--theta2", THETA_AXIS],
                                {"kind": "scan", "grid": True}, None, {"scan": config["n"]}))
            ops.append(self._simulate(config, scenario, theta))
        return ops

    def _estimate_small_n(self, p: int) -> list[dict]:
        """Oracle-path simulate runs and estimates on a few reused configurations.

        Every pass reuses the same protocol configurations; the fields and
        the counts are fresh for every operation,
        so no two operations see the same data and the data-dependent cost of
        the refinement averages out over a run.  Two thirds of the operations
        are m = 2, so the median lands inside the m = 2 estimates.
        """
        if p == 0:
            self.small_configs = []
            for n, m in SMALL_CONFIGS if self.size == "full" else SMALL_CONFIGS[2::3]:
                config = self._config(n, m)
                self.small_configs.append((config, self._write({"protocol": config})))
        estimates = 3 if self.size == "full" else 1
        ops = []
        for config, path in self.small_configs:
            scenario, theta = self._scenario(config)
            ops.append(self._simulate(config, scenario, theta))
            for _ in range(estimates):
                _, theta = self._scenario(config)
                probs = checks.outcome_probs(config, theta)
                drawn = self.rng.multinomial(ROUNDS, list(probs.values()))
                counts = {label: int(c) for label, c in zip(probs, drawn)}
                counts_path = self._write({"counts": counts})
                spec = {"kind": "estimate", "config": config, "theta": theta, "counts": counts}
                ops.append(self._op(["estimate", "--counts", counts_path, "--config", path],
                                    spec, config["n"], config))
        return ops

    def _verify_anonymity(self, p: int) -> list[dict]:
        """Exhaustive m = 2 anonymity sweeps for n = 6..14, plus negative controls.

        n = 10 three times and n = 14 twice place the median and the tail
        inside one n each.
        """
        if self.size == "full":
            ns, controls = [6, 7, 8, 9, 10, 10, 10, 11, 12, 13, 14, 14], (8, 12)
        else:
            ns, controls = [6, 7], (6,)
        ops = [self._op(["verify", "--negative-control", "--n", n, "--m", 2,
                         "--seed", self._run_seed()],
                        {"kind": "negative-control"}, n, {"control": n})
               for n in controls]
        ops += [self._op(["verify", "--n", n, "--m", 2, "--trials", 1,
                          "--seed", self._run_seed()],
                         {"kind": "verify", "n": n}, n, {"verify": n})
                for n in ns]
        return ops


def passes_for(workload: str, seconds: float, size: str, trace: bool) -> int:
    """Whole passes in a run: the count that takes about ``seconds`` on the
    reference machine (half that for each of the two children of a traced
    run).  The count depends on nothing measured, so every run of a workload,
    on every commit, does the same operations: percentile ranks stay put and
    traced counts repeat exactly."""
    if size != "full":
        return 1 if trace else 2
    share = 2 if trace else 1
    return max(1, round(seconds / (share * NOMINAL_PASS_S[workload])))


def input_properties(ops: list[dict]) -> dict:
    """n range, share above the oracle cap, repeated-config share, largest dense vector."""
    ns = [op["n"] for op in ops if op["n"] is not None]
    seen: set = set()
    repeated = 0
    for op in ops:
        repeated += op["key"] in seen
        seen.add(op["key"])
    dense = [n for op in ops if (n := op["n"]) is not None and n <= ORACLE_CAP
             and op["check"]["kind"] != "estimate"]
    return {
        "n_min": min(ns, default=0),
        "n_max": max(ns, default=0),
        "above_cap_share": sum(n > ORACLE_CAP for n in ns) / len(ops),
        "repeated_config_share": repeated / len(ops),
        "dense_bytes_max": 16 * 2 ** max(dense) if dense else 0,
    }


def ops_of(plan: dict) -> list[dict]:
    return [op for ops in plan["passes"] for op in ops]

