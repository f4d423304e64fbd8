"""Command-line front end.

Four verbs:

* ``verify``    -- exhaustive anonymity check plus closed-form-vs-sweep
                   cross-validation (or the negative control).
* ``scan``      -- CSV grids of the two-sender variance bound (figure data),
                   over the axes of the --n/--q0/--theta1/--theta2 flags or of
                   a --fig preset, which is written as the flags it equals.
* ``simulate``  -- full protocol run from a JSON run configuration.
* ``estimate``  -- maximum-likelihood estimation from an outcome-counts file.

Exit codes: 0 success, 2 validation/assertion failure.
All outputs are byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .combinatorics import FieldVector
from .configio import (
    RunConfigError,
    config_to_dict,
    dumps_json,
    estimate_to_dict,
    load_counts,
    parse_run_config,
    scan_rows_to_csv,
    tracelessness_to_dict,
    transcript_to_dict,
)
from .engine import ProtocolConfig, check_senders, outcome_distribution
from .estimation import mle_estimate
from .fisher import optimal_a, scan_j22
from .protocol import (
    CONTROL_TV_TOL,
    EXACT_TV_TOL,
    negative_control,
    run_protocol,
    sender_subsets,
    verify_tracelessness,
)
from .sampling import philox
from .statevec import dicke_means

EXIT_OK = 0
EXIT_FAIL = 2

# the paper's weight on i = 0 for two senders: verify's design and the q0
# axis of every scan that does not name one
Q0 = 0.33
_FIG_THETA = f"0:{math.pi!r}:65"
# each --fig preset as the axis flags it equals
FIG_FLAGS = {
    2: {"n": "10", "theta1": _FIG_THETA, "theta2": _FIG_THETA},
    3: {"n": "10000", "theta1": _FIG_THETA, "theta2": _FIG_THETA},
    4: {"n": "inf", "theta1": _FIG_THETA, "theta2": _FIG_THETA},
    5: {"n": "log:5:10000:40", "theta1": "2.0", "theta2": "0.5,0.1,0.05"},  # bound against n
}
AXES = ("n", "q0", "theta1", "theta2")
VERIFY_TRIALS = 20  # field draws of a verify sweep
# the ranges verify draws its field amplitudes from, for its trials and for
# the negative control
TRIAL_OMEGAS = (0.1, 3.0)
CONTROL_OMEGAS = (0.5, 2.5)
# ulps of the largest drawn phase the oracle/analytic cross-check allows on
# top of EXACT_TV_TOL; at t = 1e3..1e13 the two paths differed by at most
# 0.25 of one
CROSS_CHECK_ULPS = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # RunConfigError and ConfigError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call of a process
    and reused by the later ones; parsing keeps its state in a fresh
    namespace per call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=None,
                        help="output file (default: stdout)")

    parser = argparse.ArgumentParser(prog="anonsense",
                                     description="anonymous-sensing simulator and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="exhaustive anonymity and cross-validation checks")
    p_verify.add_argument("--n", type=int, default=5, help="participant count")
    p_verify.add_argument("--m", type=int, default=2, help="true sender count")
    p_verify.add_argument("--trials", type=int, default=None,
                          help=f"random field draws (default {VERIFY_TRIALS}; "
                               f"not read by --negative-control)")
    p_verify.add_argument("--t", type=float, default=1.0, help="interaction time")
    p_verify.add_argument("--seed", type=int, default=0, help="seed of the field draws")
    p_verify.add_argument("--negative-control", action="store_true",
                          help="run only the deliberately leaky control scheme")
    p_verify.set_defaults(handler=_cmd_verify)

    p_scan = sub.add_parser("scan", parents=[common],
                            help="grid scan of the two-sender variance bound (CSV)")
    p_scan.add_argument("--fig", type=int, choices=sorted(FIG_FLAGS), default=None,
                        help="preset grid reproducing one of the figures")
    p_scan.add_argument("--n", type=str, default=None,
                        help="n axis, e.g. '10' or '5,10,100' or 'log:5:10000:40' or 'inf'")
    p_scan.add_argument("--q0", type=str, default=None,
                        help=f"q0 axis (comma list; default {Q0})")
    p_scan.add_argument("--theta1", type=str, default=None,
                        help="theta1 axis: comma list or 'lo:hi:count'")
    p_scan.add_argument("--theta2", type=str, default=None,
                        help="theta2 axis: comma list or 'lo:hi:count'")
    p_scan.set_defaults(handler=_cmd_scan)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run the full protocol from a JSON run configuration")
    p_sim.add_argument("--config", type=Path, required=True, help="run-configuration JSON file")
    p_sim.add_argument("--seed", type=int, help="master seed (overrides the config's $.run.seed)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_est = sub.add_parser("estimate", parents=[common],
                           help="maximum-likelihood estimation from observed counts")
    p_est.add_argument("--counts", type=Path, required=True,
                       help="counts JSON file (or a transcript containing counts)")
    p_est.add_argument("--config", type=Path, required=True, help="run-configuration JSON file")
    p_est.set_defaults(handler=_cmd_estimate)
    return parser


# --------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    n, m = args.n, args.m
    check_senders(n, m)
    _check_seed(args.seed)
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    lo, hi = CONTROL_OMEGAS if args.negative_control else TRIAL_OMEGAS
    # the largest fields a draw can reach bound every drawn phase t*sum(omegas)
    for violation in FieldVector(omegas=(hi,) * m, t=args.t).violations():
        raise ValueError(f"--t {args.t}: {violation} (verify draws fields up to {hi})")
    if args.negative_control:
        if args.trials is not None:
            raise ValueError(f"--trials {args.trials}: not read by --negative-control, "
                             f"which makes one draw")
        rng = philox(args.seed, 0xC0)
        omegas = tuple(sorted(rng.uniform(lo, hi, size=m).tolist()))
        report = negative_control(n, FieldVector(omegas=omegas, t=args.t))
        doc = {"command": "verify", "negative_control": tracelessness_to_dict(report),
               "leak_detected": not report.verdict}
        _emit(dumps_json(doc), args.out)
        if report.verdict:
            print("negative control FAILED to detect the planted leak", file=sys.stderr)
            return EXIT_FAIL
        print(f"negative control detected leakage: max TV distance "
              f"{report.max_tv_distance:.6f} > {report.tolerance}", file=sys.stderr)
        return EXIT_OK

    trials = VERIFY_TRIALS if args.trials is None else args.trials
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    # the oracle forms each sender's phase on its own, the closed form their
    # sums t*(w1 +- w2): the rounding of the largest phase alone moves a
    # probability by a fraction of that phase's ulp
    phase = args.t * m * hi
    cross_tol = EXACT_TV_TOL + CROSS_CHECK_ULPS * math.ulp(phase)
    if cross_tol >= CONTROL_TV_TOL:
        raise ValueError(f"--t {args.t}: phases up to t*m*{hi} = {phase:.6g} have an ulp of "
                         f"{math.ulp(phase):.3g}, too coarse for the oracle/analytic "
                         f"cross-check (its tolerance {cross_tol:.3g} reaches {CONTROL_TV_TOL})")
    configs = [ProtocolConfig.for_single_sender(n, t=args.t)]
    if n >= 5:
        configs.append(ProtocolConfig.for_two_senders(n, a=optimal_a(n), q0=Q0, t=args.t))
    subsets = sender_subsets(n, m)
    indices = sorted({i for config in configs for i, _ in config.outcomes})  # either design measures
    worst_tv = 0.0
    worst_err = 0.0
    failing_case = None
    reports = []
    for trial in range(trials):
        rng = philox(args.seed, trial)
        omegas = tuple(sorted(rng.uniform(lo, hi, size=m).tolist()))
        fields = FieldVector(omegas=omegas, t=args.t)
        means = dicke_means(n, fields, subsets, indices)  # one pass for both designs
        for config in configs:
            own = means[:, :, [indices.index(i) for i, _ in config.outcomes]]
            report = verify_tracelessness(config, fields, own)
            worst_tv = max(worst_tv, report.max_tv_distance)
            drawn = int(rng.integers(len(subsets)))
            subset = subsets[drawn]
            oracle = report.distribution(drawn)
            closed = outcome_distribution(config, fields)
            err = max(abs(oracle.probs[k] - closed.probs[k]) for k in oracle.probs)
            worst_err = max(worst_err, err)
            if (not report.verdict or err > cross_tol) and failing_case is None:
                failing_case = {
                    "trial": trial,
                    "omegas": list(omegas),
                    "t": args.t,
                    "config": config_to_dict(config),
                    "subset": list(subset),
                    "max_tv_distance": report.max_tv_distance,
                    "oracle_analytic_error": err,
                }
            if trial == trials - 1:
                reports.append(tracelessness_to_dict(report))
        del means  # freed before the next trial forms its pass
    passed = worst_tv <= EXACT_TV_TOL and worst_err <= cross_tol
    doc = {
        "command": "verify",
        "n": n,
        "m": m,
        "trials": trials,
        "seed": args.seed,
        "max_tv_distance": worst_tv,
        "max_oracle_analytic_error": worst_err,
        "tracelessness": reports,
        "verdict": "pass" if passed else "fail",
    }
    if failing_case is not None:
        doc["failing_case"] = failing_case
    _emit(dumps_json(doc), args.out)
    print(f"verify n={n} m={m} trials={trials}: "
          f"max TV {worst_tv:.3e}, max oracle/analytic error {worst_err:.3e} "
          f"-> {'pass' if passed else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_FAIL


# --------------------------------------------------------------------------
# scan

def _cmd_scan(args) -> int:
    specs = {name: getattr(args, name) for name in AXES if getattr(args, name) is not None}
    if args.fig is not None:
        if specs:
            raise ValueError(f"scan takes its axes from --fig or from the axis flags, not both; "
                             f"got --fig {' '.join(f'--{name}' for name in specs)}")
        axes = _axes(FIG_FLAGS[args.fig])
    else:
        missing = [name for name in ("n", "theta1", "theta2") if name not in specs]
        if missing:
            raise ValueError(f"scan needs --fig or explicit axes; missing {missing}")
        axes = _axes(specs)
    grid = scan_j22(axes["n"], axes["q0"], axes["theta1"], axes["theta2"])
    _emit(scan_rows_to_csv(grid), args.out)
    print(f"scan: {grid.n_rows} rows ({grid.n_divergent} divergent)", file=sys.stderr)
    return EXIT_OK


def _axes(specs: dict) -> dict:
    """Each axis of :data:`AXES` parsed from its flag's spec; q0 is :data:`Q0`
    where ``specs`` gives none."""
    specs = {"q0": repr(Q0), **specs}
    return {name: _parse_axis(f"--{name}", specs[name], integer=name == "n") for name in AXES}


def _parse_axis(name: str, spec: str, integer: bool = False) -> list[float]:
    """The values of the axis option ``name``: a comma list, 'lo:hi:count' or
    'log:lo:hi:count'; a malformed spec is a ValueError naming the option."""
    try:
        return _axis_values(spec.strip(), integer)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{name} {spec!r}: {exc}") from None


def _axis_values(spec: str, integer: bool) -> list[float]:
    if ":" in spec:
        log = spec.startswith("log:")
        bounds = spec[4:].split(":") if log else spec.split(":")
        if len(bounds) != 3:
            raise ValueError("a range must look like 'lo:hi:count' or 'log:lo:hi:count'")
        lo, hi, count = float(bounds[0]), float(bounds[1]), int(bounds[2])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("range bounds must be finite")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        values = (np.geomspace if log else np.linspace)(lo, hi, count).tolist()
        if not integer:
            return values
        rounded = [int(round(v)) for v in values]
        return sorted(set(rounded)) if log else rounded
    out: list[float] = []
    for token in spec.split(","):
        token = token.strip()
        if token == "inf":
            out.append(math.inf)
        elif integer:
            out.append(int(token))
        else:
            out.append(float(token))
    return out


# --------------------------------------------------------------------------
# simulate / estimate

def _cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    parsed = parse_run_config(doc, require_scenario=True)
    if args.seed is not None:
        _check_seed(args.seed)
    seed = parsed["seed"] if args.seed is None else args.seed
    transcript = run_protocol(parsed["assignment"], parsed["config"],
                              rounds=parsed["rounds"], seed=seed)
    _emit(dumps_json(transcript_to_dict(transcript)), args.out)
    est = transcript.broadcast
    print(f"simulate: N={transcript.rounds} seed={seed} "
          f"omega_hat={[round(w, 6) for w in est.omega_hat]}", file=sys.stderr)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    counts = load_counts(_load_json(args.counts))
    parsed = parse_run_config(_load_json(args.config), require_scenario=False)
    report = mle_estimate(counts, parsed["config"])
    _emit(dumps_json(estimate_to_dict(report)), args.out)
    print(f"estimate: N={counts.N} theta_hat={[round(v, 6) for v in report.theta_hat.theta]}",
          file=sys.stderr)
    return EXIT_OK


def _check_seed(seed: int):
    if seed < 0:
        raise ValueError(f"--seed {seed}: must be >= 0")


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise RunConfigError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RunConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


if __name__ == "__main__":
    sys.exit(main())
