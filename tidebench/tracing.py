"""Spans around tide's public functions, installed from outside the package.

``install`` wraps each function named in ``LAYERS`` and rebinds every
module attribute in ``tide.*`` that refers to it, so calls through a
name imported with ``from .model import encode_joint`` are caught as
well as calls through ``ad.matmul``. Each call records a span (name,
start, end, parent) in flat arrays; self time is a span's duration minus
the time its child spans cover. A few counts are taken at the same
boundaries: tape length when ``backward`` is entered, computed matmul
and spmm flops, forward output bytes and bundle bytes on disk.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "autodiff": ("add", "sub", "mul", "matmul", "transpose", "spmm", "log",
                 "relu", "softplus", "row_logsumexp", "row_sum", "tsum",
                 "tmean", "mse", "scale_shift", "gather_rows", "backward"),
    "model": ("encode_joint", "encode_feature", "encode_structure",
              "predict_logits", "joint_logits_at_mean", "save_checkpoint",
              "load_checkpoint"),
    "objectives": ("vib_loss", "cross_entropy", "kl_standard_normal",
                   "club_estimate", "recon_cind_loss", "tide_total"),
    "trainer": ("train_tide", "adam_step"),
    "detection": ("energy_score", "propagate_energy", "propagation_operator",
                  "evaluate", "write_scores_csv", "histogram_data"),
    "graph": ("sym_normalized_adjacency", "save_bundle", "load_bundle"),
    "shift": ("gen_csbm", "apply_structure_shift"),
    "experiment": ("make_fixture", "run_single"),
    "gradcheck": ("gradient_check_report",),
}
CLI_COMMANDS = ("generate", "train", "eval", "check-grad")
COUNTERS = (("autodiff.tape_entries", "count"), ("autodiff.matmul.flop", "flop"),
            ("autodiff.spmm.flop", "flop"), ("autodiff.bytes_out", "B"),
            ("graph.bundle_bytes_written", "B"), ("graph.bundle_bytes_read", "B"))


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return names + [f"cli.main.{cmd}" for cmd in CLI_COMMANDS]


class Tracer:
    """In-memory span store; one instance per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {name: 0 for name, _ in COUNTERS}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span the benchmark opens itself."""
        return self.call(self.name_id(name), fn, args, kwargs)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def summary(self) -> dict[str, float]:
        """``<span>.self_s`` and ``<span>.calls`` for every span name, plus counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = np.bincount(a["name"], weights=dur - covered,
                                minlength=len(self.names))
        calls = np.bincount(a["name"], minlength=len(self.names))
        out = {}
        for name in span_names():
            nid = self._ids.get(name)
            out[f"{name}.self_s"] = float(self_time[nid]) if nid is not None else 0.0
            out[f"{name}.calls"] = int(calls[nid]) if nid is not None else 0
        out.update(self.counters)
        return out


def _hooks(tracer: Tracer, layer: str, fn: str):
    """(before, after) callbacks that feed the counters for one function."""
    c = tracer.counters
    if layer == "autodiff" and fn == "backward":
        tape_size = sys.modules["tide.autodiff"].tape_size

        def before(args):
            c["autodiff.tape_entries"] += tape_size()
        return before, None
    if layer == "autodiff":
        def after(args, out):
            c["autodiff.bytes_out"] += out.values.nbytes
            if fn == "matmul":
                m, n = out.values.shape
                c["autodiff.matmul.flop"] += 2 * m * n * args[1].shape[0]
            elif fn == "spmm":
                c["autodiff.spmm.flop"] += 2 * args[0].csr.nnz * out.values.shape[1]
        return None, after
    if layer == "graph" and fn == "save_bundle":
        def after(args, out):
            c["graph.bundle_bytes_written"] += os.path.getsize(args[1])
        return None, after
    if layer == "graph" and fn == "load_bundle":
        def before(args):
            c["graph.bundle_bytes_read"] += os.path.getsize(args[0])
        return before, None
    return None, None


def _wrap(tracer: Tracer, layer: str, fn: str, orig):
    nid = tracer.name_id(f"{layer}.{fn}")
    before, after = _hooks(tracer, layer, fn)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        out = tracer.call(nid, orig, args, kwargs)
        if after is not None:
            after(args, out)
        return out
    return wrapper


def _tide_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tide" or name.startswith("tide."))]


def rebind(orig, replacement) -> list[tuple]:
    """Point every tide attribute bound to ``orig`` at ``replacement``.

    Returns the (module, attribute, original) triples ``uninstall`` needs.
    """
    patched = []
    for mod in _tide_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, orig))
    return patched


def import_layers() -> dict:
    """Import every traced module (and the CLI, which binds some lazily)."""
    importlib.import_module("tide.cli")
    return {layer: importlib.import_module(f"tide.{layer}") for layer in LAYERS}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every function in ``LAYERS`` wherever tide binds it."""
    homes = import_layers()
    patched = []
    for layer, fns in LAYERS.items():
        home = homes[layer]
        for fn in fns:
            orig = getattr(home, fn)
            patched += rebind(orig, _wrap(tracer, layer, fn, orig))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, attr, orig in reversed(patched):
        setattr(mod, attr, orig)


def unwrapped_bindings(patched: list[tuple]) -> list[str]:
    """tide attributes still bound to an original function after ``install``."""
    originals = {id(orig) for _, _, orig in patched}
    return [f"{mod.__name__}.{attr}" for mod in _tide_modules()
            for attr, value in vars(mod).items() if id(value) in originals]
