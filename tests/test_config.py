"""Strict-schema tests for the JSON run configuration."""

import json

import pytest

from plurisym.config import DEFAULT_GRID, parse_config
from plurisym.errors import ConfigError
from plurisym.flow import FlowConfig

# every numeric key: (message path, range as printed, a value below it, a
# value above it, integer?); mode_cutoff's range is that of the default grid 16
NUMERIC_KEYS = [
    ("grid", "[4, 64]", 3, 65, True),
    ("initial.epsilon", "[0.0, 0.999]", -0.1, 1.0, False),
    ("initial.seed", "[0, 18446744073709551615]", -1, 2 ** 64, True),
    ("initial.mode_cutoff", "[1, 5]", 0, 6, True),
    ("flow.dt", "[1e-12, 1.0]", 0.0, 2.0, False),
    ("flow.steps", "[0, 10000000]", -1, 10 ** 7 + 1, True),
    ("flow.sample_every", "[1, 1000000]", 0, 10 ** 6 + 1, True),
    ("flow.safety", "[1e-06, 1.0]", 1e-7, 1.5, False),
    ("tolerances.constraint_abort", "[1e-16, 1000000.0]", 0.0, 1e7, False),
    ("tolerances.beta_residual", "[1e-16, 1.0]", 0.0, 2.0, False),
    ("tolerances.identity_rel", "[1e-16, 1.0]", 0.0, 2.0, False),
    ("tolerances.resolution_guard", "[1e-16, 1.0]", 0.0, 2.0, False),
    ("tolerances.fit_residual", "[1e-16, 1.0]", 0.0, 2.0, False),
    ("tolerances.a0_rel", "[1e-16, 1.0]", 0.0, 2.0, False),
    ("tolerances.a1_rel", "[1e-16, 1.0]", 0.0, 2.0, False),
    ("tolerances.a2_rel", "[1e-16, 1.0]", 0.0, 2.0, False),
]


def rejected_values(path, bounds, below, above, integral):
    """(value, full error message) pairs for every kind of bad value of a key."""
    cases = [
        (below, f"{path} must lie in {bounds}, got {below}"),
        (above, f"{path} must lie in {bounds}, got {above}"),
        (True, f"{path} must be a number, got True"),
    ]
    if integral:
        cases.append((2.5, f"{path} must be an integer, got 2.5"))
    return cases


@pytest.mark.parametrize("row", NUMERIC_KEYS, ids=[row[0] for row in NUMERIC_KEYS])
def test_numeric_key_messages_are_frozen(row):
    path = row[0]
    for value, message in rejected_values(*row):
        raw = {"dimension": 2}
        *section, key = path.split(".")
        (raw.setdefault(section[0], {}) if section else raw)[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(raw))
        assert str(info.value) == message


FLOW_KEYS = [row for row in NUMERIC_KEYS
             if row[0].startswith("flow.") or row[0] == "tolerances.constraint_abort"]


@pytest.mark.parametrize("row", FLOW_KEYS, ids=[row[0] for row in FLOW_KEYS])
def test_flowconfig_rejects_what_the_schema_rejects(row):
    name = row[0].split(".")[1]
    for value, message in rejected_values(*row):
        with pytest.raises(ConfigError) as info:
            FlowConfig(**{name: value})
        assert str(info.value) == message


def test_minimal_config_fills_every_default():
    cfg = parse_config('{"dimension": 2}')
    assert cfg.dimension == 2
    assert cfg.grid == 16
    assert cfg.initial.type == "perturbed_flat"
    assert cfg.initial.epsilon == 0.05
    assert cfg.initial.seed == 42
    assert cfg.initial.mode_cutoff == 2
    assert cfg.flow.dt == 1e-4
    assert cfg.flow.steps == 2000
    assert cfg.flow.sample_every == 5
    assert cfg.flow.safety == 0.25
    assert cfg.flow.constraint_abort == 1e-3
    assert cfg.output is None
    assert cfg.format == "csv"


def test_grid_default_follows_dimension():
    assert parse_config('{"dimension": 3}').grid == DEFAULT_GRID[3] == 8


def test_dimension_is_required():
    with pytest.raises(ConfigError, match="dimension is required"):
        parse_config("{}")


def test_dimension_out_of_range_names_supported_values():
    with pytest.raises(ConfigError, match=r"supported: 2, 3"):
        parse_config('{"dimension": 5}')


@pytest.mark.parametrize("dim", ["2.0", "3.0"])
def test_dimension_must_be_an_integer(dim):
    with pytest.raises(ConfigError, match=f"dimension must be an integer, got {dim}"):
        parse_config(f'{{"dimension": {dim}}}')


def test_negative_steps_names_flow_steps():
    with pytest.raises(ConfigError, match=r"flow\.steps"):
        parse_config('{"dimension": 2, "flow": {"steps": -1}}')


@pytest.mark.parametrize(
    "text, offender",
    [
        ('{"dimension": 2, "florw": {}}', "florw"),
        ('{"dimension": 2, "initial": {"sead": 1}}', r"initial\.sead"),
        ('{"dimension": 2, "flow": {"dts": 1}}', r"flow\.dts"),
        ('{"dimension": 2, "tolerances": {"beta": 1}}', r"tolerances\.beta"),
    ],
)
def test_unknown_keys_rejected_at_every_level(text, offender):
    with pytest.raises(ConfigError, match=f"unknown config key: {offender}"):
        parse_config(text)


def test_malformed_json_is_a_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config('{"dimension": 2,}')
    with pytest.raises(ConfigError, match="must be a JSON object"):
        parse_config("[1, 2]")


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match=r"flow\.dt must be a number"):
        parse_config('{"dimension": 2, "flow": {"dt": true}}')


def test_non_integer_rejected_for_integral_fields():
    with pytest.raises(ConfigError, match=r"flow\.steps must be an integer"):
        parse_config('{"dimension": 2, "flow": {"steps": 2.5}}')


def test_numeric_ranges_enforced():
    with pytest.raises(ConfigError, match=r"flow\.dt"):
        parse_config('{"dimension": 2, "flow": {"dt": 0}}')
    with pytest.raises(ConfigError, match=r"flow\.safety"):
        parse_config('{"dimension": 2, "flow": {"safety": 2}}')
    with pytest.raises(ConfigError, match=r"initial\.epsilon"):
        parse_config('{"dimension": 2, "initial": {"epsilon": -0.1}}')
    with pytest.raises(ConfigError, match=r"initial\.seed"):
        parse_config('{"dimension": 2, "initial": {"seed": -1}}')
    with pytest.raises(ConfigError, match="grid"):
        parse_config('{"dimension": 2, "grid": 2}')


def test_mode_cutoff_capped_by_dealias_band():
    # grid 8 keeps modes up to 8 // 3 = 2
    parse_config('{"dimension": 3, "initial": {"mode_cutoff": 2}}')
    with pytest.raises(ConfigError, match=r"initial\.mode_cutoff"):
        parse_config('{"dimension": 3, "initial": {"mode_cutoff": 3}}')


def test_mode_cutoff_default_shrinks_with_tiny_grids():
    assert parse_config('{"dimension": 2, "grid": 4}').initial.mode_cutoff == 1


def test_initial_type_vocabulary():
    cfg = parse_config('{"dimension": 2, "initial": {"type": "flat_kahler"}}')
    assert cfg.initial.type == "flat_kahler"
    with pytest.raises(ConfigError, match=r"initial\.type"):
        parse_config('{"dimension": 2, "initial": {"type": "bumpy"}}')


def test_format_vocabulary_and_output_type():
    assert parse_config('{"dimension": 2, "format": "json"}').format == "json"
    with pytest.raises(ConfigError, match="format must be csv or json"):
        parse_config('{"dimension": 2, "format": "yaml"}')
    with pytest.raises(ConfigError, match="output must be a string path"):
        parse_config('{"dimension": 2, "output": 7}')


def test_tolerances_round_trip():
    cfg = parse_config(
        '{"dimension": 2, "tolerances": {"constraint_abort": 1e-2,'
        ' "identity_rel": 1e-3, "resolution_guard": 0.01}}'
    )
    assert cfg.flow.constraint_abort == 1e-2
    assert cfg.tolerances.identity_rel == 1e-3
    assert cfg.tolerances.resolution_guard == 0.01
    # untouched fields keep their defaults
    assert cfg.tolerances.beta_residual == 1e-8
