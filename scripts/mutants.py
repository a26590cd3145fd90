"""Apply each committed mutant to a copy of the checkout and run the tests.

    python scripts/mutants.py

A mutant is a one-place edit of the package that the tests should catch:
(name, file, old text, new text), the old text occurring exactly once in
its file (``tests/test_mutants.py`` checks that it still does). Each mutant
is applied to a fresh temporary copy of the checkout (without ``.git``
and caches), and the Tier-1 command runs there without the slow criteria
5 and 9-11 of ``tests/test_acceptance.py`` and without
``tests/test_mutants.py``, which fails on every applied mutant. One line
per mutant reads ``caught`` with the count of failing tests, or
``uncaught``. The script exits 1 if any mutant is uncaught. It is not part
of Tier-1: each mutant costs one run of the tests.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    ("sgd-momentum", "src/densitydescent/optim.py",
     "SGD_MOMENTUM = 0.9", "SGD_MOMENTUM = 0.8"),
    ("decay-gamma", "src/densitydescent/optim.py",
     "DECAY_GAMMA = 0.5", "DECAY_GAMMA = 0.25"),
    ("adam-betas", "src/densitydescent/optim.py",
     "ADAM_BETAS = (0.9, 0.999)", "ADAM_BETAS = (0.9, 0.99)"),
    ("dropout-rate", "src/densitydescent/perturb.py",
     "DROPOUT_RATE = 0.5", "DROPOUT_RATE = 0.25"),
    ("vat-xi", "src/densitydescent/perturb.py",
     "VAT_XI = 1e-2", "VAT_XI = 1e-1"),
    ("vat-power-iters", "src/densitydescent/perturb.py",
     "VAT_POWER_ITERS = 1", "VAT_POWER_ITERS = 2"),
    ("csv-line-end", "src/densitydescent/cli.py",
     'end: str = "\\n"', 'end: str = "\\r\\n"'),
    ("flow-progress", "src/densitydescent/semisup.py",
     "trainer.step(pool, (epoch - 1) / epochs)", "trainer.step(pool, epoch / epochs)"),
    ("fd-minus-step", "src/densitydescent/oracle.py",
     "vm.flat[i] -= h", "vm.flat[i] -= 2 * h"),
    ("fd-zero-step", "src/densitydescent/oracle.py",
     "if h <= 0:", "if h < 0:"),
]

SLOW = ["tests/test_acceptance.py::test_criterion_5_density_learning",
        "tests/test_acceptance.py::test_criterion_9_component_trend",
        "tests/test_acceptance.py::test_criterion_10_kind_trend",
        "tests/test_acceptance.py::test_criterion_11_eps_trend"]


def mutated_copy(dest: str, file: str, old: str, new: str) -> None:
    """Copy the checkout to ``dest`` and apply one edit there."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work",
        "*.egg-info"))
    path = os.path.join(dest, file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.replace(old, new))


def failing_tests(dest: str) -> tuple[int, int]:
    """Run the tests in ``dest``: (failed or erred, passed)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--ignore=tests/test_mutants.py",
            *(f"--deselect={t}" for t in SLOW)]
    done = subprocess.run(argv, cwd=dest, env=env, capture_output=True, text=True)
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""

    def count(word: str) -> int:
        found = re.search(rf"(\d+) {word}", tail)
        return int(found.group(1)) if found else 0
    return count("failed") + count("error"), count("passed")


def main() -> int:
    uncaught = 0
    for name, file, old, new in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            dest = os.path.join(tmp, "checkout")
            mutated_copy(dest, file, old, new)
            failed, passed = failing_tests(dest)
        if failed:
            print(f"{name}: caught, {failed} failed, {passed} passed", flush=True)
        else:
            uncaught += 1
            print(f"{name}: uncaught, {passed} passed", flush=True)
    print(f"{len(MUTANTS) - uncaught} of {len(MUTANTS)} mutants caught")
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
