"""Output checks for benchmark operations, independent of the package under test.

Outcome probabilities are recomputed here from the physics rather than from
``anonsense``: the sender phases are diagonal in the computational basis, so
Dicke states of different weight stay orthogonal and only the diagonal
elements A_k = <D_k|U|D_k> matter.  A_k averages the phase of every weight-k
bit string, which for m <= 2 senders reduces to a few exact rational
weights (no big-integer binomials).  The measured state |phi_k,s> =
(|D_k> + s|D_{n-k}>)/sqrt(2) then has amplitude (A_k + s A_{n-k})/2, and an
outcome (k, s) has probability q_k |amplitude|^2; the residual 'f' takes the
rest.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

VERIFY_TOL = 1e-10
FIG_AXIS_POINTS = 65
# relative slack on log-likelihood comparisons; far below the drop a wrong
# estimate causes (hundreds of nats at N = 1e5) and far above float noise
LL_RTOL = 1e-9


def labels(config: dict) -> list[str]:
    """Active outcome labels of a one- or two-sender design, plus 'f'."""
    if config["m_est"] == 1:
        return ["0+", "f"]
    return ["0+", "0-", f"{config['a']}+", "f"]


def weights(config: dict) -> dict[int, float]:
    """Initial-state weights q_k of the design (nonzero entries only)."""
    if config["m_est"] == 1:
        return {0: 1.0}
    return {0: config["q0"], config["a"]: 1.0 - config["q0"]}


def diagonal(n: int, k: int, theta: list[float]) -> complex:
    """A_k = <D_k|U|D_k> for m = len(theta) senders with phase vector theta.

    One sender: theta = (omega t,).  Two senders: theta = ((w1+w2)t, |w1-w2|t).
    """
    if len(theta) == 1:
        (th,) = theta
        # sender bit 0 (weight (n-k)/n) gets exp(-i th/2), bit 1 the conjugate
        return ((n - k) * cmath.exp(-0.5j * th) + k * cmath.exp(0.5j * th)) / n
    th1, th2 = theta
    pairs = n * (n - 1)
    both0 = (n - k) * (n - k - 1) / pairs
    both1 = k * (k - 1) / pairs
    mixed = k * (n - k) / pairs  # each of the two one-bit patterns
    return (both0 * cmath.exp(-0.5j * th1) + both1 * cmath.exp(0.5j * th1)
            + 2 * mixed * math.cos(0.5 * th2))


def outcome_probs(config: dict, theta: list[float]) -> dict[str, float]:
    n = config["n"]
    probs = {}
    for k, q in weights(config).items():
        a_k, a_rev = diagonal(n, k, theta), diagonal(n, n - k, theta)
        for sign in (1, -1):
            label = f"{k}{'+' if sign > 0 else '-'}"
            if label not in labels(config):
                continue
            amp = a_k if 2 * k == n else (a_k + sign * a_rev) / 2
            probs[label] = q * abs(amp) ** 2
    probs["f"] = max(0.0, 1.0 - sum(probs.values()))
    return probs


def log_likelihood(config: dict, theta: list[float], counts: dict[str, int]) -> float:
    probs = outcome_probs(config, theta)
    total = 0.0
    for label, c in counts.items():
        if c == 0:
            continue
        if probs[label] <= 0.0:
            return -math.inf
        total += c * math.log(probs[label])
    return total


def _dominates(config, theta_hat, theta_true, counts) -> str | None:
    """The MLE must score at least the truth under the independent model."""
    ll_hat = log_likelihood(config, theta_hat, counts)
    ll_true = log_likelihood(config, theta_true, counts)
    if not ll_hat >= ll_true - LL_RTOL * abs(ll_true):
        return f"log-likelihood at theta_hat {ll_hat:.6f} < at truth {ll_true:.6f}"
    return None


def check_simulate(text: str, spec: dict) -> str | None:
    doc = json.loads(text)
    counts = doc["counts"]
    if doc["rounds"] != spec["rounds"] or sum(counts.values()) != spec["rounds"]:
        return f"counts sum to {sum(counts.values())}, expected {spec['rounds']}"
    if sorted(counts) != sorted(labels(spec["config"])):
        return f"labels {sorted(counts)} != {sorted(labels(spec['config']))}"
    return _dominates(spec["config"], doc["broadcast"]["theta_hat"], spec["theta"], counts)


def check_estimate(text: str, spec: dict) -> str | None:
    doc = json.loads(text)
    se = doc["se_estimate"]
    if len(se) != spec["config"]["m_est"] or not all(
            v is not None and math.isfinite(v) for v in se):
        return f"standard errors not finite: {se}"
    return _dominates(spec["config"], doc["theta_hat"], spec["theta"], spec["counts"])


def check_verify(text: str, spec: dict) -> str | None:
    doc = json.loads(text)
    if doc["n"] != spec["n"] or doc["verdict"] != "pass":
        return f"verdict {doc['verdict']!r} for n={doc['n']}"
    for key in ("max_tv_distance", "max_oracle_analytic_error"):
        if not doc[key] <= VERIFY_TOL:
            return f"{key} = {doc[key]} > {VERIFY_TOL}"
    return None


def check_negative_control(text: str, spec: dict) -> str | None:
    doc = json.loads(text)
    if doc["leak_detected"] is not True:
        return "negative control did not detect the planted leak"
    return None


def check_scan(text: str, spec: dict) -> str | None:
    rows = list(csv.DictReader(io.StringIO(text)))
    divergent = [r for r in rows if r["flag"] == "divergent"]
    bad = [r for r in rows if r["flag"] == "ok" and not 0.0 < float(r["j22"]) < math.inf]
    if bad:
        return f"{len(bad)} ok rows with a non-positive or infinite bound"
    if not spec["grid"]:  # figure 5: three theta2 slices along an n axis
        n_values = {r["n"] for r in rows}
        if divergent or len(rows) != 3 * len(n_values) or len(rows) < 3:
            return f"figure 5: {len(rows)} rows over {len(n_values)} n values, {len(divergent)} divergent"
        return None
    if len(rows) != FIG_AXIS_POINTS ** 2:
        return f"{len(rows)} rows, expected {FIG_AXIS_POINTS ** 2}"
    if len(divergent) != FIG_AXIS_POINTS or any(float(r["theta2"]) != 0.0 for r in divergent):
        return f"{len(divergent)} divergent rows, expected the theta2 = 0 column"
    return None


CHECKS = {
    "simulate": check_simulate,
    "estimate": check_estimate,
    "verify": check_verify,
    "negative-control": check_negative_control,
    "scan": check_scan,
}


def check(text: str, spec: dict) -> str | None:
    """None when the output passes, else a one-line reason."""
    try:
        return CHECKS[spec["kind"]](text, spec)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def plant_fault(text: str, spec: dict) -> str:
    """A deliberately wrong version of a correct output (benchmark self-test)."""
    kind = spec["kind"]
    if kind == "scan":
        return text.replace(",ok\n", ",divergent\n", 1)
    doc = json.loads(text)
    if kind == "simulate":
        est = doc["broadcast"]
    elif kind == "estimate":
        est = doc
    elif kind == "verify":
        doc["max_tv_distance"] = 1e-3
        return json.dumps(doc)
    else:
        doc["leak_detected"] = False
        return json.dumps(doc)
    th = est["theta_hat"][0]
    est["theta_hat"][0] = th - 0.3 if th > math.pi / 2 else th + 0.3
    return json.dumps(doc)
