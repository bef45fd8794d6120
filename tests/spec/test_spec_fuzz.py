"""Malformed specs fail with one clean error, never a traceback.

Mutations of ``examples/smoke.json`` — wrong-typed values, unknown keys,
nulls, and the names removed from the spec (``capacity.backend:
"failures"``, ``capacity.options``, ``learner.engine: "per_channel"``) —
must either parse or raise ``ValueError``/``KeyError``: the exceptions
``repro run`` reports as a single ``repro: error:`` line.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec import ExperimentSpec

SMOKE = json.loads(
    (Path(__file__).resolve().parents[2] / "examples" / "smoke.json").read_text()
)

SECTIONS = sorted(
    key for key, value in ExperimentSpec().to_dict().items()
    if isinstance(value, dict)
)
FIELD_PATHS = [
    (section, field)
    for section in SECTIONS
    for field in ExperimentSpec().to_dict()[section]
] + [("name",), ("backend",), ("rounds",), ("seed",), ("sweep",)]
UNKNOWN_PATHS = [("bogus",), ("topology", "bogus"), ("learner", "shard")]
REMOVED = [
    (("capacity", "backend"), "failures"),
    (("capacity", "backend"), "correlated_failures"),
    (("capacity", "backend"), "oscillating"),
    (("capacity", "options"), {"failure_rate": 0.5}),
    (("learner", "engine"), "per_channel"),
]

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 5), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 5), max_size=2),
)

MUTATION = st.one_of(
    st.tuples(st.sampled_from(FIELD_PATHS), JUNK),
    st.tuples(st.sampled_from([(section,) for section in SECTIONS]), JUNK),
    st.tuples(st.sampled_from(UNKNOWN_PATHS), JUNK),
    st.sampled_from(REMOVED),
)


def mutate(data, path, value):
    node = data
    for part in path[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[path[-1]] = value


@settings(max_examples=300, deadline=None)
@given(st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_smoke_spec_parses_or_fails_cleanly(mutations):
    data = copy.deepcopy(SMOKE)
    for path, value in mutations:
        mutate(data, path, value)
    try:
        spec = ExperimentSpec.from_dict(data)
    except (ValueError, KeyError):
        return
    assert isinstance(spec, ExperimentSpec)


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("rounds",), "10", "top-level"),
        (("learner", "epsilon"), "x", "'learner'"),
        (("topology", "num_peers"), "120", "'topology'"),
        (("capacity", "stay_probability"), "0.9", "'capacity'"),
        (("churn", "arrival_rate"), "2", "'churn'"),
    ],
)
def test_wrong_typed_field_names_its_section(path, value, where):
    data = copy.deepcopy(SMOKE)
    mutate(data, path, value)
    with pytest.raises(ValueError, match=f"spec .*{where}.*wrong-typed"):
        ExperimentSpec.from_dict(data)
