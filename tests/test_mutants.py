"""``scripts/mutants.py``'s list stays applicable: each mutant's old text
occurs exactly once in its file, so the edit lands where it was meant to.
The mutants themselves run only under the script, not here."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("name, file, old, new", load_mutants(),
                         ids=[m[0] for m in load_mutants()])
def test_old_text_occurs_once(name, file, old, new):
    with open(os.path.join(ROOT, file), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1, (name, file, old)
    assert old != new
