import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitydescent.errors import ConfigError
from densitydescent.runconfig import echo_config, load_config, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


@pytest.mark.parametrize("name", ["moons_ssl", "moons_density"])
def test_config_echo_matches_golden(name, tmp_path):
    # recorded echoes of the shipped configs: a default that moves changes them
    cfg = load_config(os.path.join(ROOT, "configs", f"{name}.json"))
    echo_config(cfg, tmp_path / "config.json")
    with open(os.path.join(GOLDEN, f"{name}.config.json"), "rb") as fh:
        assert (tmp_path / "config.json").read_bytes() == fh.read()


SECTION_KEYS = {name: sorted(section)
                for name, section in parse_config({}).effective.items()
                if isinstance(section, dict)}

json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([0, 1, 2, -1, 0.5, 1e400, 10 ** 400, "moons",
                                   "uniform-noise", ""]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


def section(name):
    keys = st.sampled_from(SECTION_KEYS[name] + ["seed", "bogus"])
    return st.dictionaries(keys, json_values, max_size=5) | json_values


documents = st.fixed_dictionaries(
    {}, optional={"seed": json_values, "bogus": json_values,
                  **{name: section(name) for name in SECTION_KEYS}}) | json_values


@settings(max_examples=300, deadline=None)
@given(documents)
def test_random_document_parses_or_is_config_error(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    # the echo is a complete document that parses to the same run
    echo = json.loads(json.dumps(cfg.effective))
    assert json.dumps(parse_config(echo).effective, sort_keys=True) == \
        json.dumps(cfg.effective, sort_keys=True)


@pytest.mark.parametrize("section,key,value", [
    ("ssl", "lr", 10 ** 400),
    ("fit", "grid_bounds", [0, 10 ** 400]),
], ids=["lr", "grid-bounds"])
def test_number_too_large_for_a_float_is_config_error(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_config({section: {key: value}})


def test_list_default_is_not_shared_between_documents():
    a, b = parse_config({}), parse_config({})
    a.effective["verify"]["dims"].append(4)
    assert b.effective["verify"]["dims"] == [2, 8]
