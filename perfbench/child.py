"""One benchmark process: import the package, then run operations closed-loop.

Usage: child.py ROOT RESULT [PLAN]

The first statements import ``anonsense.cli`` from ROOT/src and take the
time, so the parent can measure set-up from the moment it started this
process.  Without PLAN the process stops there.  With PLAN it runs the warm-up
operations, then every pass of the plan, one ``anonsense.cli.main(argv)``
call at a time, checking every output before the next call, and writes
latencies, failures, peak RSS and (when asked) the trace summary to RESULT.
"""

import sys
import time

sys.path.insert(0, f"{sys.argv[1]}/src")
import anonsense.cli  # noqa: E402

IMPORT_DONE = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_REPORTED_FAILURES = 5
CPU_SLICE_S = 0.5


class Runner:
    def __init__(self, plan: dict):
        self.plan = plan
        self.out = Path(plan["out"])
        self.sink = io.StringIO()
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        # The speed of each vCPU of the reference machine drifts by up to 30%
        # over seconds, independently, and the scheduler leaves a lone busy
        # process on one CPU.  Moving on to the next CPU after every
        # CPU_SLICE_S of ops averages a run over all CPUs instead of the one
        # it landed on; a time slice, not a fixed op count, so that no kind
        # of op in a pass's repeating order stays on one CPU.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = 0
        self.slice_start = time.perf_counter()

    def _next_cpu(self):
        if time.perf_counter() - self.slice_start >= CPU_SLICE_S:
            self.cpu = (self.cpu + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.cpu]})
            self.slice_start = time.perf_counter()

    def execute(self, op: dict, index: int, record: bool = True):
        """One operation: time the CLI call alone, then check its output."""
        self._next_cpu()
        self.out.unlink(missing_ok=True)
        self.sink.seek(0)
        self.sink.truncate()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
                code = anonsense.cli.main(op["argv"])
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            code, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if not record:
            return
        if error is None and code != 0:
            error = f"exit code {code}: {self.sink.getvalue().strip()[-200:]}"
        if error is None:
            text = self.out.read_text()
            if self.plan.get("plant_fault") and index % 2 == 1:
                text = checks.plant_fault(text, op["check"])
            error = checks.check(text, op["check"])
        self.latencies.append(elapsed)
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{' '.join(op['argv'][:3])}...: {error}")

    def run(self):
        for index, op in enumerate(op for ops in self.plan["passes"] for op in ops):
            self.execute(op, index)


def main():
    result_path = Path(sys.argv[2])
    result = {"import_done": IMPORT_DONE}
    if len(sys.argv) > 3:
        plan = json.loads(Path(sys.argv[3]).read_text())
        runner = Runner(plan)
        for op in plan["warmup"]:
            runner.execute(op, 0, record=False)
        tracer = None
        if plan["trace"]:
            tracer = Tracer()
            tracer.install()
        runner.run()
        result.update(
            latencies=runner.latencies,
            failed=runner.failed,
            failures=runner.failures,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            trace=tracer.summary() if tracer else None,
        )
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
