import glob
import json
import math
import os
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from badinput import json_file, rejected, small
from densitydescent.errors import ConfigError, Valid
from densitydescent.cli import write_json
from densitydescent.runconfig import KEYS, Key, load_config, load_sweep, parse_config
from densitydescent.semisup import cells

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


@pytest.mark.parametrize("name", ["moons_ssl", "moons_density"])
def test_config_echo_matches_golden(name, tmp_path):
    # recorded echoes of the shipped configs: a default that moves changes them
    cfg = load_config(os.path.join(ROOT, "configs", f"{name}.json"))
    write_json(tmp_path / "config.json", cfg.effective)
    with open(os.path.join(GOLDEN, f"{name}.config.json"), "rb") as fh:
        assert (tmp_path / "config.json").read_bytes() == fh.read()


@pytest.mark.parametrize("name, count", [
    ("sweep_eps", 25), ("sweep_kinds", 20), ("sweep_loss_weight", 25)])
def test_shipped_sweep_builds_its_cells(name, count):
    # building a cell validates it against the shipped config; nothing trains
    cfg = load_config(os.path.join(ROOT, "configs", "moons_ssl.json"))
    runs = cells(cfg.ssl, load_sweep(os.path.join(ROOT, "configs", f"{name}.json")))
    assert len(runs) == count
    assert len({(r.perturb.kind, r.perturb.eps, r.lambda_ft, r.seed) for r in runs}) == count


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


@settings(max_examples=300, deadline=None, derandomize=True)
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


def test_list_default_is_not_shared_between_documents():
    a, b = parse_config({}), parse_config({})
    a.effective["verify"]["dims"].append(4)
    assert b.effective["verify"]["dims"] == [2, 8]


TOO_LARGE = 10 ** 400   # an int that no float holds


@pytest.mark.parametrize("section,key,value", [
    ("ssl", "lr", TOO_LARGE),
    ("fit", "grid_bounds", [0, TOO_LARGE]),
], ids=["lr", "grid-bounds"])
def test_number_too_large_for_a_float_is_config_error(section, key, value, tmp_path,
                                                      monkeypatch, capsys):
    argv = ["fit-density", "--config", small(**{section: {key: value}})(tmp_path / "c.json"),
            "--out", str(tmp_path / "run")]
    err = rejected(argv, monkeypatch, capsys)
    assert f"{section}.{key}" in err and f"{TOO_LARGE} is too large for a number" in err


# The single-key table: every key's rule at its edges, and NaN and the two
# infinities in every number key and list entry, derived from runconfig.KEYS
# so that a new key's range is covered with no entry written by hand.


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


def entry_type(hint):
    """The scalar type of a key, or of its list's entries."""
    args = typing.get_args(hint)
    hint = [a for a in args if a is not type(None)][0] if type(None) in args else hint
    return typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else hint


def edge_cases(keys=KEYS):
    """(path, value, accepted) for each key with a rule, and NaN, Infinity
    and -Infinity for each number key, read from ``runconfig.KEYS``, the
    table a generator of documents imports, or from another such table."""
    for path, k in keys.items():
        item = entry_type(k.hint)
        accepted, rejected = edge_values(k.valid, item is int) if k.valid else ([], [])
        if item is float:   # Python's json reads these words
            rejected += [math.nan, math.inf, -math.inf]
        if typing.get_origin(k.hint) is tuple:
            accepted = [[v] for v in accepted]
            rejected = [[v] for v in rejected]
            if k.valid is not None and k.valid.length is not None:
                # a length edge of one entry may repeat an entry edge's list
                counts = edge_values(k.valid.length, integer=True)
                accepted += [v for v in ([k.default[0]] * n for n in counts[0])
                             if v not in accepted]
                rejected += [v for v in ([k.default[0]] * n for n in counts[1])
                             if v not in rejected]
        yield from ((path, v, True) for v in accepted)
        yield from ((path, v, False) for v in rejected)


# Keys that became constants of optim and perturb, each with the type, default
# and rule it had as a key. Their edges are documents that once ran (accepted)
# or once failed on the key's range: every one must now fail as an unknown
# key, so that an old config is never read as if the key were absent.
FORMER_KEYS = {
    "ssl.sgd_momentum": Key(float, 0.9, Valid(ge=0, lt=1)),
    "ssl.poly_power": Key(float, 0.9, Valid(ge=0)),
    "flow_train.beta1": Key(float, 0.9, Valid(ge=0, lt=1)),
    "flow_train.beta2": Key(float, 0.999, Valid(ge=0, lt=1)),
    "flow_train.adam_eps": Key(float, 1e-8, Valid(gt=0)),
    "flow_train.decay_fractions": Key(tuple[float, ...], [1.0 / 3.0, 2.0 / 3.0],
                                      Valid(length=Valid(le=8))),
    "flow_train.decay_gamma": Key(float, 0.5, Valid(gt=0)),
    "perturb.dropout_rate": Key(float, 0.5, Valid(gt=0, lt=1)),
    "perturb.vat_xi": Key(float, 1e-2, Valid(gt=0)),
    "perturb.vat_power_iters": Key(int, 1, Valid(ge=1)),
}


def case_id(path, value, ok):
    """``path-value-outcome``, a list written out as ``[v]``, ``[]`` or
    ``[v]*n``: an id that stays with its case when keys come or go."""
    if isinstance(value, list):   # one entry, none, or n copies of one
        value = f"[{value[0]}]*{len(value)}" if len(value) > 1 else str(value)
    return f"{path}-{value}-{ok}"


@pytest.mark.parametrize("path,value,ok",
                         [pytest.param(*case, id=case_id(*case))
                          for case in [*edge_cases(), *edge_cases(FORMER_KEYS)]])
def test_key_edges(path, value, ok, tmp_path, monkeypatch, capsys):
    # a closed edge and the nearest value inside an open one parse; the
    # nearest value outside, and a number that is not finite, fail
    # fit-density under the contract of badinput.rejected, with a line that
    # starts with the key's path; a former key fails at every value, with a
    # line that names it as unknown
    if ok and path in KEYS:
        parse_config(document(path, value))
    else:
        config = json_file(document(path, value))(tmp_path / "config.json")
        err = rejected(["fit-density", "--config", config, "--out", str(tmp_path / "run")],
                       monkeypatch, capsys)
        if path in FORMER_KEYS:
            assert err == f"config error: unknown config key {path!r}", err
        else:
            assert re.match(rf"config error: {re.escape(path)}\b", err), err


def test_every_ranged_key_has_edges():
    # the counts are written by hand, as the layout table's process counts
    # are: a rule dropped from a key, or added to one, changes them
    cases = list(edge_cases())
    assert {path for path, _, _ in cases} == {
        path for path, k in KEYS.items() if k.valid is not None or entry_type(k.hint) is float}
    assert [sum(ok is outcome for *_, ok in cases) for outcome in (True, False)] == [51, 88]
    assert not FORMER_KEYS.keys() & KEYS.keys()


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


def readme_module_list():
    """The .py files that the code block of README.md's "Design" section, its
    one module list, names: an indented name lies in the folder above it."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## Design\n", 1)[1].split("```")[1]
    named, folder = [], ""
    for line in filter(str.strip, block.splitlines()):
        name = line.split()[0]
        if not line.startswith(" "):
            folder, name = (name, "") if name.endswith("/") else ("", name)
        if name.endswith(".py"):
            named.append(folder + name)
    return named


def test_readme_module_list_names_every_module():
    files = [os.path.relpath(path, ROOT) for pattern in ("src/densitydescent/*.py", "scripts/*.py")
             for path in glob.glob(os.path.join(ROOT, pattern))]
    assert sorted(readme_module_list()) == sorted(files)
