"""Per-layer spans recorded from outside the program.

The tracer replaces each layer's public function (or method) with a timing
wrapper for the duration of a traced operation and puts the original back
afterwards. Modules import helpers by name (``from .perturb import
density_gradient``), so every binding of the original object inside the
package is swapped, not only the defining module's attribute.

Spans are kept in memory as one aggregate per call path (the chain of
traced callers), which is enough to give calls, inclusive time and self
time per layer and per caller; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

def _rows(v):
    shape = np.shape(v)
    return shape[0] if len(shape) == 2 else 1


def _flow_step_flops(args):
    """Computed flops of one flow step: 9*N*d*H per block (18*N*H at d = 2).

    Each coupling conditioner multiplies (N, d/2) by (d/2, H) and (N, H) by
    (H, d): 1.5*N*d*H multiply-adds, 3*N*d*H flops forward; the backward
    pass costs twice the forward. Elementwise work (tanh, exp, the mixture)
    is left out, so this is a computed count, not a measured one.
    """
    pool, model = args[0], args[1]
    return 9 * pool.total * model.d * model.hidden * len(model.blocks)


# (module, attribute, work): ``work`` is None or (kind, extractor over the
# call's positional args). "rows" sums the batch size (the perturbed-row
# count), "bucket" splits the layer by batch size, "flops" sums a computed
# operation count.
LAYERS = [
    ("semisup", "train_ssl", None),
    ("estimator", "fit_density", None),
    ("estimator", "flow_train_step", ("flops", _flow_step_flops)),
    ("estimator", "flow_loss", None),
    ("estimator", "sample_feature_pool", None),
    ("diffcore", "grad", None),
    ("perturb", "density_gradient", ("rows", lambda a: _rows(a[0]))),
    ("perturb", "uniform_noise_perturbation",
     ("rows", lambda a: a[0][0] if len(a[0]) == 2 else 1)),
    ("perturb", "channel_dropout_perturbation", ("rows", lambda a: _rows(a[0]))),
    ("perturb", "vat_perturbation", ("rows", lambda a: _rows(a[0]))),
    ("optim", "MomentumSGD.step", None),
    ("optim", "Adam.step", None),
    ("semisup", "ema_update", None),
    ("semisup", "evaluate", None),
    ("latent", "marginal_loglik", ("bucket", lambda a: _rows(getattr(a[0], "data", a[0])))),
    ("oracle", "mc_normalization", None),
    ("oracle", "finite_diff_grad", None),
    ("oracle", "numeric_jacobian_logdet", None),
    ("flow", "flow_inverse", None),
    ("oracle", "grid_density_dump", None),
    ("flow", "save_checkpoint", None),
]

PACKAGE = "densitydescent"


class PathStats:
    __slots__ = ("calls", "total", "self_time", "rows", "flops")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0
        self.flops = 0


class Tracer:
    """Aggregated span tree plus tape-size counts, keyed by call path."""

    def __init__(self):
        self.stack: list[list] = []          # [path, child seconds]
        self.paths: dict[tuple, PathStats] = {}
        self.tape_nodes: dict[str, list[int]] = {}   # grad caller -> [records, nodes]

    def span(self, name, fn, work=None):
        kind, extract = work if work else (None, None)
        stack, paths = self.stack, self.paths

        def traced(*args, **kwargs):
            label = name
            amount = 0
            if kind is not None:
                amount = extract(args)
                if kind == "bucket":
                    label = f"{name}[{amount}]"
            path = (stack[-1][0] if stack else ()) + (label,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = paths.get(path)
                if st is None:
                    st = paths[path] = PathStats()
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[1]
                if kind == "flops":
                    st.flops += amount
                elif kind is not None:
                    st.rows += amount
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        return traced

    def _count_tape(self, record):
        stack, counts = self.stack, self.tape_nodes

        def traced_record(cls, root):
            tape = record(cls, root)
            # stack[-1] is diffcore.grad; the layer that asked for it is below
            caller = stack[-2][0][-1] if len(stack) > 1 else "(root)"
            c = counts.setdefault(caller, [0, 0])
            c[0] += 1
            c[1] += len(tape.nodes)
            return tape

        return classmethod(traced_record)

    @contextmanager
    def installed(self):
        """Swap every layer for its traced wrapper; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []
        for mod_name, attr, work in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                undo.append((owner, meth, orig))
                setattr(owner, meth, self.span(f"{mod_name}.{attr}", orig, work))
                continue
            orig = getattr(mod, attr)
            wrapped = self.span(f"{mod_name}.{attr}", orig, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, wrapped)
        tape_cls = sys.modules[f"{PACKAGE}.diffcore"].Tape
        orig_record = tape_cls.__dict__["record"]
        undo.append((tape_cls, "record", orig_record))
        tape_cls.record = self._count_tape(orig_record.__func__)
        try:
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)


def layer_of(path: tuple) -> str:
    """Layer name of a span path; batch buckets fold into their function."""
    return path[-1].split("[", 1)[0]


def aggregate(paths: dict[tuple, PathStats], key) -> dict[str, PathStats]:
    """Sum path stats under key(path); paths mapping to None are skipped."""
    out: dict[str, PathStats] = {}
    for path, st in paths.items():
        k = key(path)
        if k is None:
            continue
        agg = out.get(k)
        if agg is None:
            agg = out[k] = PathStats()
        agg.calls += st.calls
        agg.total += st.total
        agg.self_time += st.self_time
        agg.rows += st.rows
        agg.flops += st.flops
    return out
