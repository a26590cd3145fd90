import json
import math
import os
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitydescent.errors import ConfigError
from densitydescent.runconfig import KEYS, echo_config, load_config, parse_config

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


def document(path, value):
    """A config that sets one key, given by its path, and leaves the rest."""
    section, _, key = path.rpartition(".")
    return {section: {key: value}} if section else {key: value}


def edge_values(rule, integer):
    """(accepted, rejected) scalars at a rule's edges: each closed bound and
    the nearest value outside it, the nearest value inside each open bound
    and the bound itself, every choice and a non-choice, the ``also``
    values, and an odd value inside an even rule's bounds."""
    def nearest(x, toward):
        return x + (1 if toward > x else -1) if integer else float(np.nextafter(x, toward))
    accepted, rejected = list(rule.choices) + list(rule.also), []
    for bound, out, closed in ((rule.ge, -math.inf, True), (rule.le, math.inf, True),
                               (rule.gt, -math.inf, False), (rule.lt, math.inf, False)):
        if bound is None:
            continue
        if closed:
            accepted.append(bound)
            rejected.append(nearest(bound, out))
        else:
            accepted.append(nearest(bound, -out))
            rejected.append(bound)
    if rule.choices:
        rejected.append("not-a-choice")
    if rule.even:
        rejected.append(rule.ge + 1)
    return accepted, rejected


def edge_cases():
    """(path, value, accepted) for each key with a rule, read from
    ``runconfig.KEYS``, the table a generator of documents imports."""
    for path, k in KEYS.items():
        if k.valid is None:
            continue
        args = typing.get_args(k.hint)
        hint = [a for a in args if a is not type(None)][0] if type(None) in args else k.hint
        if typing.get_origin(hint) is tuple:
            accepted, rejected = edge_values(k.valid, typing.get_args(hint)[0] is int)
            accepted = [[v] for v in accepted]
            rejected = [[v] for v in rejected]
            if k.valid.length is not None:
                # a length edge of one entry may repeat an entry edge's list
                counts = edge_values(k.valid.length, integer=True)
                accepted += [v for v in ([k.default[0]] * n for n in counts[0])
                             if v not in accepted]
                rejected += [v for v in ([k.default[0]] * n for n in counts[1])
                             if v not in rejected]
        else:
            accepted, rejected = edge_values(k.valid, hint is int)
        yield from ((path, v, True) for v in accepted)
        yield from ((path, v, False) for v in rejected)


def case_id(path, value, ok):
    """``path-value-outcome``, a list written out as ``[v]``, ``[]`` or
    ``[v]*n``: an id that stays with its case when keys come or go."""
    if isinstance(value, list):   # one entry, none, or n copies of one
        value = f"[{value[0]}]*{len(value)}" if len(value) > 1 else str(value)
    return f"{path}-{value}-{ok}"


@pytest.mark.parametrize("path,value,ok",
                         [pytest.param(*case, id=case_id(*case)) for case in edge_cases()])
def test_key_edges(path, value, ok):
    # each key's declared range, at its edges: a closed edge and the nearest
    # value inside an open one parse, the nearest value outside is rejected
    # with a message that names the key
    if ok:
        parse_config(document(path, value))
    else:
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\b"):
            parse_config(document(path, value))


def test_every_ranged_key_has_edges():
    tested = {path for path, _, _ in edge_cases()}
    assert tested == {path for path, k in KEYS.items() if k.valid is not None}
    assert len(tested) >= 40


def readme_rows():
    """The config reference table's rows in README.md, after its header."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Config reference\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def rendered_row(path, k):
    text = k.valid.text() if k.valid else "any"
    if k.valid and type(None) in typing.get_args(k.hint):
        text += " or null"
    return f"| `{path}` | `{json.dumps(k.default)}` | {text} |"


def test_readme_table_matches_declared_ranges():
    assert readme_rows() == [rendered_row(path, k) for path, k in KEYS.items()]
