"""Which modules of the package build on the ``diffcore`` tape.

The training loop takes every gradient by hand, and the tape references
that the tests check it against live under ``tests/reference/``. Only the
flow-side forwards that the benchmark's tracer wraps by name still build on
the tape, in ``flow``, ``latent`` and ``estimator``.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "densitydescent")


def imports_diffcore(tree: ast.Module) -> bool:
    """Whether the module imports ``diffcore`` or a name from it, in any form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(m.split(".")[-1] == "diffcore" for m in modules):
            return True
    return False


def test_only_the_flow_side_modules_import_diffcore():
    importers = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                if imports_diffcore(ast.parse(fh.read(), name)):
                    importers.add(name.removesuffix(".py"))
    assert importers == {"flow", "latent", "estimator"}
