"""Malformed specs fail with one clean error, never a traceback.

Mutations of ``examples/smoke.json`` — wrong-typed values, unknown keys,
nulls, and the names removed from the spec (``capacity.backend:
"failures"``, ``capacity.options``, ``learner.engine: "per_channel"``) —
and of ``examples/eval_matrix.json`` must either parse or raise
``ValueError``/``KeyError``: the exceptions ``repro run`` and ``repro
eval`` report as a single ``repro: error:`` line.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.eval import EvalSpec
from repro.spec import ExecutionSpec, ExperimentSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SMOKE = json.loads((EXAMPLES / "smoke.json").read_text())
MATRIX = json.loads((EXAMPLES / "eval_matrix.json").read_text())

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


def test_numpy_seed_is_an_int_seed():
    spec = ExperimentSpec.from_dict(dict(SMOKE, seed=np.int64(7)))
    assert type(spec.seed) is int
    assert spec.result_digest() == ExperimentSpec.from_dict(SMOKE).result_digest()
    matrix = EvalSpec.from_dict(dict(MATRIX, seed=np.uint8(0)))
    assert type(matrix.seed) is int
    assert matrix.eval_digest() == EvalSpec.from_dict(MATRIX).eval_digest()


def test_valid_examples_keep_their_digests():
    """Store keys: validating a field must not change a valid spec's key."""
    assert ExperimentSpec.from_dict(SMOKE).result_digest() == "fb8c05658e6e"
    assert EvalSpec.from_dict(MATRIX).eval_digest() == "8058290cd88c"


EVAL_FIELD_PATHS = [
    (name,) for name in EvalSpec().to_dict()
] + [("execution", name) for name in ExecutionSpec().to_dict()] + [
    ("scenario_options", scenario, option)
    for scenario, options in MATRIX["scenario_options"].items()
    for option in options
]
EVAL_UNKNOWN_PATHS = [
    ("bogus",), ("execution", "bogus"), ("scenario_options", "bogus"),
]
EVAL_NAMES = st.lists(
    st.sampled_from(["rths", "sticky", "oscillating_capacity", "nope"]),
    max_size=3,
)

EVAL_MUTATION = st.one_of(
    st.tuples(st.sampled_from(EVAL_FIELD_PATHS), JUNK),
    st.tuples(st.sampled_from(EVAL_UNKNOWN_PATHS), JUNK),
    st.tuples(st.sampled_from([("scenarios",), ("learners",)]), EVAL_NAMES),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(EVAL_MUTATION, min_size=1, max_size=4))
def test_mutated_eval_matrix_parses_or_fails_cleanly(mutations):
    data = copy.deepcopy(MATRIX)
    for path, value in mutations:
        mutate(data, path, value)
    try:
        spec = EvalSpec.from_dict(data)
    except (ValueError, KeyError):
        return
    assert EvalSpec.from_json(spec.to_json()).eval_digest() == spec.eval_digest()


BAD_SEEDS = ["x", 1.5, -1, None, True]

#: Every float-valued spec field ("leaf"), list-valued ones included.
RUN_FLOAT_LEAVES = [
    "topology.channel_bitrates",
    "topology.channel_popularity",
    "topology.channel_switch_rate",
    "topology.round_duration",
    "topology.popularity_drift_rate",
    "topology.popularity_drift_period",
    "capacity.levels",
    "capacity.stay_probability",
    "capacity.server_capacity",
    "network.latency_matrix",
    "network.helper_classes",
    "network.latency_ms",
    "network.jitter_ms",
    "network.loss_rate",
    "network.rtt_reference_ms",
    "learner.epsilon",
    "learner.delta",
    "learner.mu",
    "learner.u_max",
    "churn.arrival_rate",
    "churn.mean_lifetime",
    "execution.cell_timeout",
    "execution.backoff_base",
    "execution.backoff_max",
    "execution.heartbeat_interval",
]
EVAL_FLOAT_LEAVES = [
    leaf for leaf in RUN_FLOAT_LEAVES if leaf.startswith("execution.")
]
#: Values Python's json reads that no float field may hold.
BAD_FLOATS = [float("nan"), float("inf"), float("-inf"), True]


@pytest.mark.parametrize(
    "command, field, value",
    [("run", "seed", seed) for seed in BAD_SEEDS]
    + [("eval", "seed", seed) for seed in BAD_SEEDS]
    + [
        ("eval", "scenarios", "oscillating_capacity"),
        ("eval", "window", "ten"),
        ("eval", "learners", 5),
        ("eval", "learners", None),
        ("run", "rounds", 12.5),
        ("run", "topology.num_peers", 120.5),
        ("run", "topology.num_helpers", 8.0),
        ("run", "topology.num_channels", True),
        ("run", "network.viewer_region", 0.0),
        ("run", "sweep.replications", 2.5),
        ("run", "churn.initial_peer_lifetimes", "false"),
        ("run", "metrics.record_peers", "no"),
        ("run", "telemetry.enabled", "False"),
        ("run", "learner.topk", True),
        ("run", "learner.shards", True),
        ("run", "telemetry.flush_interval", True),
        ("run", "telemetry.sample_period", False),
        ("run", "execution.max_retries", True),
        ("run", "capacity.levels", [700.0, float("nan")]),
        ("run", "topology.channel_bitrates", [100.0, float("inf")]),
        ("run", "network.helper_classes", {"seedbox": float("nan")}),
        ("run", "capacity.levels", [-5, 700]),
        ("run", "capacity.levels", [0, 0]),
        ("run", "learner.mu", 0),
        ("run", "learner.mu", -1),
        ("run", "learner.u_max", 0),
        ("run", "topology.channel_popularity", [1, 2, 3]),
        ("run", "topology.channel_popularity", [1, -1]),
        ("run", "topology.channel_popularity", [0, 0]),
        ("run", "topology.channel_bitrates", [100, 200, 300]),
        ("run", "topology.channel_bitrates", [100]),
        ("run", "capacity.levels", [700]),
        ("run", "learner.shards", 2),
    ]
    + [("run", leaf, bad) for leaf in RUN_FLOAT_LEAVES for bad in BAD_FLOATS]
    + [("eval", leaf, bad) for leaf in EVAL_FLOAT_LEAVES for bad in BAD_FLOATS],
)
def test_malformed_field_is_one_cli_error(command, field, value, tmp_path, capsys):
    """Never a traceback, a fresh-entropy run (null seed), seed 1 (true
    seed), one-letter scenario names (a bare string), a fractional count
    that fails only in ``build()``, a truthy string taken for a flag, a
    NaN, an infinity or a boolean taken for a float, or a number out of
    its range (a negative level, a zero ``mu``, a popularity weight or
    bitrate vector of the wrong length, a single level for the built-in
    birth-death backends) that ran or failed only in ``build()``.
    """
    example = copy.deepcopy({"run": SMOKE, "eval": MATRIX}[command])
    mutate(example, field.split("."), value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(example))
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--spec", str(path), "--dump-spec"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = err.strip().splitlines()[-1]
    leaf = field.split(".")[-1]
    assert error.startswith("repro: error:") and f"{leaf} must be" in error


def test_unknown_transform_option_is_one_cli_error(capsys):
    """Transform options bind to the factory when the spec is built."""
    item = 'capacity.transforms=[{"name": "clamp", "options": {"floor": 5}}]'
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--spec", str(EXAMPLES / "smoke.json"), "--set", item,
              "--dump-spec"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = err.strip().splitlines()[-1]
    assert error.startswith("repro: error:")
    assert "'clamp'" in error and "'floor'" in error


@pytest.mark.parametrize(
    "item",
    [
        "churn.initial_peer_lifetimes=False",
        "metrics.record_peers=no",
        "telemetry.enabled=off",
    ],
)
def test_non_json_flag_value_is_one_cli_error(item, capsys):
    """A non-JSON ``--set`` VALUE is a string, which a flag refuses."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--set", item, "--dump-spec"])
    assert excinfo.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error.startswith("repro: error:") and "must be a bool" in error
