import enum
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from anonsense.combinatorics import FieldVector
from anonsense.configio import (
    config_to_dict,
    dumps_json,
    estimate_to_dict,
    parse_run_config,
    tracelessness_to_dict,
    transcript_to_dict,
)
from anonsense.engine import ProtocolConfig
from anonsense.protocol import negative_control, run_protocol, verify_tracelessness

GOLDENS = Path(__file__).parent / "goldens"


def stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["verify_n5.json", "transcript_n5.json", "estimate_m1.json"])
def test_dumps_json_writes_the_parsed_goldens_as_the_stdlib(name):
    doc = json.loads((GOLDENS / name).read_text())
    assert dumps_json(doc) == stdlib_json(doc)


@pytest.mark.parametrize("n", [5, 12, 300, 3000])
def test_dumps_json_writes_every_report_kind_as_the_stdlib(n):
    run = parse_run_config({
        "protocol": {"n": n, "m_est": 2, "t": 1.0, "a": n // 2, "q0": 0.33},
        "scenario": {"sender_positions": [1, n], "omegas": [0.4, 1.1]},
        "run": {"rounds": 100_000, "seed": n},
    })
    transcript = run_protocol(run["assignment"], run["config"], rounds=run["rounds"],
                              seed=run["seed"])
    reports = [transcript_to_dict(transcript), estimate_to_dict(transcript.broadcast),
               config_to_dict(run["config"]),
               config_to_dict(ProtocolConfig.for_single_sender(n))]
    if n <= 12:  # the sweeps list every sender pair
        fields = FieldVector((0.4, 1.1), 1.0)
        reports += [tracelessness_to_dict(verify_tracelessness(run["config"], fields)),
                    tracelessness_to_dict(negative_control(n, fields))]
    for report in reports:
        assert dumps_json(report) == stdlib_json(report)


class Level(enum.IntEnum):
    """An int subclass whose repr is not its JSON number."""
    HIGH = 3


LEAVES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, 0.1, 1 / 3,
          2 ** 60, -2 ** 60, 10 ** 20, 0, -7, Level.HIGH, True, False, None, np.float64(0.1),
          np.float64(math.nan), np.float64(-2.5e-8), "", "plain", 'quote " and \\ slash',
          "tab\tnew\nline\x00\x1f\x7f", "café θ₂ \U0001d70b", "\ud800"]
NUMBERS = [0.0, -0.0, 0.5, 1e-7, 1e16, 1e300, 5e-324, -3.25, 0, 1, -1, 2 ** 60, 10 ** 20]


def random_document(rng: random.Random, depth: int):
    """A nested document of dicts, lists and tuples over :data:`LEAVES`; some
    lists hold numbers only, with now and then one leaf that JSON writes
    otherwise (NaN, infinity, a bool, an int subclass or an np.float64)."""
    kind = rng.random()
    if depth == 0 or kind < 0.3:
        return rng.choice(LEAVES)
    size = rng.choice([0, 1, 2, 3, 5, 8])
    if kind < 0.5:
        items = [rng.choice(NUMBERS) for _ in range(size + 1)]
        if rng.random() < 0.5:
            items[rng.randrange(len(items))] = rng.choice(LEAVES)
        return items if rng.random() < 0.8 else tuple(items)
    if kind < 0.75:
        items = [random_document(rng, depth - 1) for _ in range(size)]
        return items if rng.random() < 0.8 else tuple(items)
    keys = [rng.choice(["a", "b", "B", "_", "z9", "é", "\n", "", "\"k\""]) + str(i)
            for i in range(size)]
    return {key: random_document(rng, depth - 1) for key in keys}


def test_dumps_json_writes_random_documents_as_the_stdlib():
    rng = random.Random(20261019)
    for _ in range(10_000):
        doc = random_document(rng, rng.randrange(5))
        assert dumps_json(doc) == stdlib_json(doc), doc


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, object(), np.bool_(True), b"bytes"])
@pytest.mark.parametrize("where", ["top", "in a list", "in a number list", "in a dict"])
def test_dumps_json_raises_type_error_where_the_stdlib_does(bad, where):
    doc = {"top": bad, "in a list": ["x", [bad]], "in a number list": [1, 2.5, bad, 3],
           "in a dict": {"a": {"b": bad}}}[where]
    with pytest.raises(TypeError) as expected:
        stdlib_json(doc)
    with pytest.raises(TypeError) as raised:
        dumps_json(doc)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("key", [1, 2.5, None, True])
def test_dumps_json_rejects_a_key_that_is_not_a_str(key):
    # reports have str keys only; json.dumps would write this key as a string
    with pytest.raises(TypeError):
        dumps_json({"report": {key: 1}})
