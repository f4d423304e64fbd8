"""anonsense benchmark: three CLI workloads, end to end or traced per layer.

Run from the root of an anonsense checkout:

    python3 perfbench/run.py --workload simulate-large-n --seed 1 --seconds 20 --trace 0

Every operation is an in-process ``anonsense.cli.main(argv)`` call in a fresh
child process per run, closed loop with one client.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  Lines before it (prefixed
'#') describe the machine, the inputs, every metric with its unit, and any
failed operation.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = "perfbench/.work"
SETUP_SAMPLES = 5  # fresh imports per run; set-up is their median
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
BUDGET_S = 170  # a run ends before 180 s or fails
# the end-to-end metrics of the JSON result; op latency percentiles and the
# failure ratio are reported on '#' lines only (see README.md)
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations per pass (self-test)")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt every other output before its check (self-test)")
    return parser.parse_args(argv)


def spawn(root: Path, work: Path, deadline: float, plan_path: Path | None = None,
          cpu: int | None = None) -> dict:
    """Start child.py (on one CPU if given), wait for it, and return its result
    with its set-up time."""
    result = Path(tempfile.mkstemp(dir=work, suffix=".result")[1])
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(result)]
    if plan_path is not None:
        cmd.append(str(plan_path))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=max(1.0, deadline - started),
                              preexec_fn=pin)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process passed the {BUDGET_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"child process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    doc = json.loads(result.read_text())
    doc["setup_s"] = doc["import_done"] - started  # both clocks are CLOCK_MONOTONIC
    return doc


def latency_stats(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    # never below the median, which short self-test runs would otherwise give
    rank = max(len(lat) - TAIL_BEYOND, (len(lat) + 1) // 2)
    return {"p50": statistics.median(lat), "tail": lat[rank - 1],
            "tail_pct": 100.0 * rank / len(lat), "count": len(lat)}


def machine_facts(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(root),
    }


def git_sha(root: Path) -> str:
    """HEAD commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args, root: Path, work: Path, deadline: float) -> dict:
    passes = workloads.passes_for(args.workload, args.seconds, args.size, bool(args.trace))
    plan = workloads.Plan(args.workload, args.seed, args.size, work, passes)
    (work / "warm").mkdir()
    warm = workloads.Plan(args.workload, args.seed, "tiny", work / "warm", 1)
    doc = plan.to_dict()
    doc.update(warmup=warm.passes[0], plant_fault=args.plant_fault)
    plan_path = work / "plan.json"

    def child(trace: bool) -> dict:
        plan_path.write_text(json.dumps(dict(doc, trace=trace)))
        return spawn(root, work, deadline, plan_path)

    info = {"machine": machine_facts(root)}
    if not args.trace:
        samples = SETUP_SAMPLES if args.size == "full" else 1
        cpus = sorted(os.sched_getaffinity(0))  # the samples take the CPUs in turn
        setups = [spawn(root, work, deadline, cpu=cpus[i % len(cpus)])["setup_s"]
                  for i in range(samples - 1)]
        res = child(False)
        setups.append(res["setup_s"])
        stats = latency_stats(res["latencies"])
        failed, attempted = res["failed"], len(res["latencies"])
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (attempted - failed) / sum(res["latencies"]),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
        units = dict(END_TO_END)
        info["setup"] = f"median of {len(setups)} fresh imports: " + ", ".join(
            f"{s:.3f}" for s in setups)
        info["op_p50_s"] = f"{stats['p50']} s"
        info["op_tail_s"] = (f"{stats['tail']} s (p{stats['tail_pct']:.1f} of "
                             f"{stats['count']} ops)")
        failures = res["failures"]
    else:
        ref = child(False)
        res = child(True)
        failed = ref["failed"] + res["failed"]
        attempted = len(ref["latencies"]) + len(res["latencies"])
        metrics = dict(res["trace"])
        metrics["trace.overhead_ratio"] = sum(ref["latencies"]) / sum(res["latencies"])
        units = {name: unit for name, unit, _ in tracer.layer_metrics()}
        info["trace"] = (f"{passes} pass(es), {len(res['latencies'])} ops traced; "
                         f"overhead_ratio = untraced / traced op time")
        failures = ref["failures"] + res["failures"]
    ops = workloads.ops_of(doc)
    info["inputs"] = dict(workload=args.workload, seed=args.seed, passes=passes,
                          ops=len(ops), **workloads.input_properties(ops))
    info["fail_ratio"] = f"{failed / attempted} ratio ({failed} of {attempted} ops failed)"
    for reason in failures:
        info.setdefault("failures", []).append(reason)
    return {"info": info, "units": units, "metrics": metrics,
            "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills the running child and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "anonsense" / "cli.py").is_file():
        print("error: run from the root of an anonsense checkout "
              "(src/anonsense/cli.py not found)", file=sys.stderr)
        return 2
    (root / WORK_DIR).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / WORK_DIR))
    try:
        out = run(args, root, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / WORK_DIR).iterdir()):
            (root / WORK_DIR).rmdir()
    for key, value in out["info"].items():
        print(f"# {key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
    for name, value in out["metrics"].items():
        print(f"# {name} = {value} {out['units'][name]}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": out["units"][name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
