"""Output checks for the files and exit codes the CLI documents.

Every check appends what it finds wrong to a shared ``problems`` list
(empty when the output is right), so one run reports all defects instead of
stopping at the first.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re

import numpy as np

METRIC_COLUMNS = ["epoch", "L_sup", "L_im", "L_ft", "L_flow",
                  "pseudo_retention", "test_acc"]
LOSS_COLUMNS = ["iteration", "flow_loss", "lr"]
GRID_COLUMNS = ["x", "y", "logp"]
SWEEP_COLUMNS = ["kind", "eps", "lambda_ft", "seed", "test_acc"]

VERIFY_LINE = re.compile(r"^(PASS|FAIL)  (\S+): (.*)$")
VERIFY_SUMMARY = re.compile(r"^verify: (\d+)/(\d+) checks passed$")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _table(path, columns, n_rows, problems) -> np.ndarray | None:
    """Parse a numeric CSV with the given header into an array, or record why not."""
    try:
        header, rows = read_csv(path)
    except OSError as e:
        problems.append(f"{path}: {e}")
        return None
    if header != columns:
        problems.append(f"{path}: header {header} != {columns}")
        return None
    if len(rows) != n_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {n_rows}")
        return None
    try:
        table = np.array([[float(c) for c in r] for r in rows], dtype=np.float64)
    except ValueError as e:
        problems.append(f"{path}: {e}")
        return None
    if table.shape != (n_rows, len(columns)) or not np.isfinite(table).all():
        problems.append(f"{path}: ragged or non-finite values")
        return None
    return table


def check_metrics(path, epochs: int, problems: list) -> float:
    """metrics_seed<S>.csv: one finite row per epoch; returns the final test_acc."""
    t = _table(path, METRIC_COLUMNS, epochs, problems)
    if t is None:
        return math.nan
    if not np.array_equal(t[:, 0], np.arange(1, epochs + 1)):
        problems.append(f"{path}: epochs are not 1..{epochs}")
    acc = t[:, -1]
    if acc.min() < 0.0 or acc.max() > 1.0:
        problems.append(f"{path}: test_acc outside [0, 1]")
    return float(acc[-1])


def check_loss(path, steps: int, problems: list) -> None:
    """loss.csv: one finite row per estimator step with a positive lr."""
    t = _table(path, LOSS_COLUMNS, steps, problems)
    if t is None:
        return
    if not np.array_equal(t[:, 0], np.arange(steps)):
        problems.append(f"{path}: iterations are not 0..{steps - 1}")
    if (t[:, 2] <= 0).any():
        problems.append(f"{path}: non-positive learning rate")


def check_grid(path, bounds, resolution: int, problems: list) -> np.ndarray | None:
    """grid.csv: cell centers row-major with x fastest; returns the logp column."""
    t = _table(path, GRID_COLUMNS, resolution * resolution, problems)
    if t is None:
        return None
    lo, hi = bounds
    centers = lo + (np.arange(resolution) + 0.5) * (hi - lo) / resolution
    if not (np.array_equal(t[:, 0], np.tile(centers, resolution))
            and np.array_equal(t[:, 1], np.repeat(centers, resolution))):
        problems.append(f"{path}: cell centers are not row-major with x fastest")
    return t[:, 2]


def check_checkpoint(path, grid_logp, bounds, resolution: int, dd,
                     scratch: str, problems: list) -> None:
    """The checkpoint loads back bit-identical to the model that wrote grid.csv.

    grid.csv holds repr() floats from the in-memory model, so re-evaluating
    the grid from the loaded checkpoint must reproduce every value exactly;
    a save/load round trip of the loaded model must also be lossless.
    """
    try:
        model, latent = dd.flow.load_checkpoint(path)
    except Exception as e:  # any load failure is an output defect
        problems.append(f"{path}: load failed: {e!r}")
        return
    if grid_logp is not None:
        dump = dd.oracle.grid_density_dump(model, latent, (bounds, bounds), resolution)
        if not np.array_equal(dump.logp, grid_logp):
            problems.append(f"{path}: reloaded model does not reproduce grid.csv")
    dd.flow.save_checkpoint(scratch, model, latent)
    model2, latent2 = dd.flow.load_checkpoint(scratch)
    same = (np.array_equal(latent.means, latent2.means)
            and np.array_equal(latent.log_weights, latent2.log_weights)
            and all(np.array_equal(a.data, b.data)
                    for a, b in zip(model.params(), model2.params())))
    if not same:
        problems.append(f"{path}: save/load round trip is not bit-identical")


def check_sweep(path, kind: str, problems: list) -> float:
    """sweep.csv of a one-cell ablate: returns that cell's test_acc."""
    try:
        header, rows = read_csv(path)
    except OSError as e:
        problems.append(f"{path}: {e}")
        return math.nan
    if header != SWEEP_COLUMNS or len(rows) != 1 or rows[0][0] != kind:
        problems.append(f"{path}: expected one {kind} row under {SWEEP_COLUMNS}")
        return math.nan
    acc = float(rows[0][4])
    if not 0.0 <= acc <= 1.0:
        problems.append(f"{path}: test_acc {acc} outside [0, 1]")
    return acc


def parse_verify(stdout: str, code: int, expected: int,
                 problems: list) -> list[tuple[str, bool, str]]:
    """PASS/FAIL lines of `verify`; exit code must be 1 iff a check failed."""
    checks = []
    summary = None
    for line in stdout.splitlines():
        m = VERIFY_LINE.match(line)
        if m:
            checks.append((m.group(2), m.group(1) == "PASS", m.group(3)))
        m = VERIFY_SUMMARY.match(line)
        if m:
            summary = (int(m.group(1)), int(m.group(2)))
    passed = sum(ok for _, ok, _ in checks)
    if len(checks) != expected:
        problems.append(f"verify printed {len(checks)} checks, expected {expected}")
    if summary != (passed, len(checks)):
        problems.append(f"verify summary {summary} does not match its lines")
    if code != (0 if passed == len(checks) else 1):
        problems.append(f"verify exit code {code} with {len(checks) - passed} failed checks")
    return checks


def log_fields(text: str, prefix: str) -> list[dict[str, str]]:
    """key=value fields of the log lines (run.log or stdout) starting with prefix."""
    out = []
    for line in text.splitlines():
        msg = line.split("] ", 1)[-1].strip()
        if msg.startswith(prefix):
            pairs = (kv.split("=", 1) for kv in msg.split() if "=" in kv)
            out.append({k: v.rstrip(":") for k, v in pairs})
    return out


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()
