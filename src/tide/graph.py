"""Graph container, its two operators, and the bundle format.

A Graph is an immutable bag of (X, edges, y, masks). Edges are stored
canonically: each undirected edge once as (u, v) with u < v, sorted,
deduplicated, self-loops dropped. Builders that need both directions
expand on the fly, so adjacency operators are symmetric by
construction.

A graph builds each of its two operators at most once: ``g.adjacency``
(``sym_normalized_adjacency``), the GCN operator of the encoders and
heads, and ``g.propagation`` (``propagation_operator``), that of energy
propagation. Training, the audit and scoring all read them there, and
each operator computes its own products (``SparseMatrix``).

On disk a graph is a single-JSON "bundle" (see ``save_bundle``); it
round-trips exactly, since floats are written with shortest-repr
precision.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


MASK_NAMES = ("train", "val", "test_id", "test_ood")


class GraphError(ValueError):
    """A structural invariant does not hold."""


class GraphFormatError(ValueError):
    """A bundle failed to parse; the message names the file."""


# Operators with at most this many nodes multiply in numpy, larger ones in
# scipy. Importing scipy.sparse takes 130-190 ms. One product with 1 to 64
# columns takes scipy 4-5 us at n=10 and 4-9 us at n=32, and the numpy
# sweep 10-12 us and 16-31 us. A 200-epoch `tide` run makes 2,602
# products, so at n=32 the sweep costs it about 60 ms more than scipy,
# a third of the import; at n=128 (87 against 22 us at 64 columns) the two
# are even. The sweep's cost also grows with the widest row, hence the
# margin (CPython 3.11, numpy 2.4, one thread, 2-vCPU container).
NUMPY_PRODUCT_MAX_N = 32


class SparseMatrix:
    """Square sparse matrix in coordinate form, and its two products.

    ``matmul(v)`` is ``A @ v`` and ``matmul_t(g)`` is ``Aᵀ @ g``, each
    for every (n, h) slice of a (..., n, h) operand; nothing else knows
    how the operator is stored. Both sum each output entry over its
    row's entries in scipy's storage order (the columns sorted),
    starting from zero, so both paths give scipy's bits for every
    slice. An operator of at most ``NUMPY_PRODUCT_MAX_N`` nodes runs
    numpy's per-rank sweep (``_sweep``) and never loads scipy; a larger
    one runs scipy's CSR kernel, which a stack is folded into the
    columns of. ``csr`` and ``csr_t`` are built only when read (the
    tests and tidebench's tracing read them too).
    """

    def __init__(self, n: int, rows, cols, vals):
        self.n = int(n)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise GraphError("rows/cols/vals length mismatch")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.n \
                    or self.cols.min() < 0 or self.cols.max() >= self.n:
                raise GraphError(f"sparse index out of range for n={self.n}")
            keys = self.rows * self.n + self.cols
            if np.unique(keys).size != keys.size:
                raise GraphError("duplicate (row, col) entries")
        if not np.all(np.isfinite(self.vals)):
            raise GraphError("non-finite sparse values")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def matmul(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` for each (n, h) slice of ``v`` (..., n, h)."""
        if self.n <= NUMPY_PRODUCT_MAX_N:
            return _sweep(self._plan, v)
        return _csr_product(self.csr, v)

    def matmul_t(self, g: np.ndarray) -> np.ndarray:
        """``Aᵀ @ g`` for each (n, h) slice of ``g`` (..., n, h)."""
        if self.n <= NUMPY_PRODUCT_MAX_N:
            return _sweep(self._plan_t, g)
        return _csr_product(self.csr_t, g)

    @cached_property
    def _plan(self):
        return _sweep_plan(self.rows, self.cols, self.vals, self.n)

    @cached_property
    def _plan_t(self):
        return _sweep_plan(self.cols, self.rows, self.vals, self.n)

    @cached_property
    def csr(self):
        # Imported here, at the first large product, so that sampling,
        # writing bundles and small graphs never load scipy.
        import scipy.sparse as sp
        return sp.csr_matrix((self.vals, (self.rows, self.cols)),
                             shape=self.shape)

    @cached_property
    def csr_t(self):
        return self.csr.T.tocsr()


def _sweep_plan(rows, cols, vals, n):
    """The entries regrouped for ``_sweep``, by rank within their row.

    An entry's rank is its place in its row's storage order (the
    columns sorted). Rows are laid out by descending entry count, so
    the rows holding a rank-r entry are the first ``widths[r]`` of that
    layout, and row i sits at ``slot[i]``. The entries come rank by
    rank, each rank in slot order.
    """
    counts = np.bincount(rows, minlength=n)
    order = np.lexsort((cols, rows))
    rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows[order]]
    slot = np.empty(n, dtype=np.int64)
    slot[np.argsort(-counts, kind="stable")] = np.arange(n)
    sweep = order[np.lexsort((slot[rows[order]], rank))]
    return cols[sweep], vals[sweep, None], np.bincount(rank).tolist(), slot


def _sweep(plan, v: np.ndarray) -> np.ndarray:
    """``A @ v`` as scipy's ``csr_matvec(s)`` sums it, in numpy.

    Every output entry starts from zero and adds its row's products
    ``vals * v[cols]`` one rank at a time, in scipy's storage order. A
    rank's rows are a prefix of the slot layout, so each addition is
    one slice of the output, whatever the stack.
    """
    cols, vals, widths, slot = plan
    terms = np.take(v, cols, axis=-2)
    terms *= vals
    out = np.zeros(terms.shape[:-2] + (slot.size, v.shape[-1]))
    start = 0
    for width in widths:
        out[..., :width, :] += terms[..., start:start + width, :]
        start += width
    return np.take(out, slot, axis=-2)


def _csr_product(csr, v: np.ndarray) -> np.ndarray:
    """``csr @ v`` for each (n, h) slice of ``v`` (..., n, h).

    A stack of slices is folded into the columns of one (n, B*h)
    operand: scipy's kernel sums each output column over the row's
    entries in storage order, however many columns there are, so every
    slice gets the bits of its own product. The result is unfolded
    C-contiguous, laid out like the 2-D product.
    """
    if v.ndim == 2:
        return csr @ v
    *lead, n, h = v.shape
    out = csr @ np.moveaxis(v, -2, 0).reshape(n, -1)
    return np.ascontiguousarray(np.moveaxis(
        out.reshape(out.shape[0], *lead, h), 0, -2))


@dataclass(frozen=True)
class Graph:
    """Node features, canonical undirected edges, labels, split masks."""

    n: int
    d: int
    X: np.ndarray                       # n x d float64
    edges: np.ndarray                   # m x 2 int64, u < v, sorted unique
    y: np.ndarray                       # n int64, -1 = unlabeled
    C: int
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.X.shape != (self.n, self.d):
            raise GraphError(f"X shape {self.X.shape} != ({self.n}, {self.d})")
        if self.y.shape != (self.n,):
            raise GraphError(f"y shape {self.y.shape} != ({self.n},)")
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= self.n:
                raise GraphError(
                    f"edge endpoint out of range [0, {self.n})")
            if np.any(self.edges[:, 0] >= self.edges[:, 1]):
                raise GraphError("edges must be canonical (u < v)")
        labeled = self.y[self.y >= 0]
        if labeled.size and labeled.max() >= self.C:
            raise GraphError(
                f"label {labeled.max()} >= C={self.C}")
        for name in self.masks:
            if name not in MASK_NAMES:
                raise GraphError(f"unknown mask name {name!r}")
            m = self.masks[name]
            if m.size and (m.min() < 0 or m.max() >= self.n):
                raise GraphError(f"mask {name!r} index out of range")
        # train/val/test_id are one partition; test_ood may alias test_id
        # in shifted bundles but never overlaps the supervised masks.
        disjoint_pairs = [("train", "val"), ("train", "test_id"),
                          ("val", "test_id"), ("train", "test_ood"),
                          ("val", "test_ood")]
        for a, b in disjoint_pairs:
            if a in self.masks and b in self.masks:
                if np.intersect1d(self.masks[a], self.masks[b]).size:
                    raise GraphError(f"masks {a!r} and {b!r} overlap")

    def mask(self, name: str) -> np.ndarray:
        return self.masks.get(name, np.empty(0, dtype=np.int64))

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    @cached_property
    def adjacency(self) -> SparseMatrix:
        return sym_normalized_adjacency(self)

    @cached_property
    def propagation(self) -> SparseMatrix:
        return propagation_operator(self)


def canonical_edges(pairs: np.ndarray, n: int) -> np.ndarray:
    """Sort/dedupe an arbitrary pair list into canonical u < v form.

    Self-loops are dropped; both orientations of the same edge collapse
    to one row. Endpoints are range-checked against n.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.min() < 0 or pairs.max() >= n:
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
        raise GraphError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    keys = np.unique(lo * n + hi)
    return np.column_stack([keys // n, keys % n]).astype(np.int64)


def make_graph(X, edges, y, masks=None, C: int | None = None) -> Graph:
    """Canonicalizes edges, copies all arrays and builds the ``Graph``,
    whose constructor validates them."""
    X = np.array(X, dtype=np.float64, ndmin=2)
    y = np.asarray(y, dtype=np.int64).copy()
    n, d = X.shape
    edges = canonical_edges(edges, n)
    if C is None:
        labeled = y[y >= 0]
        C = int(labeled.max()) + 1 if labeled.size else 0
    mask_arrays = {}
    for name, idx in (masks or {}).items():
        mask_arrays[name] = np.unique(np.asarray(idx, dtype=np.int64))
    return Graph(n=n, d=d, X=X, edges=edges, y=y, C=int(C), masks=mask_arrays)


# ---------------------------------------------------------------------------
# Adjacency operators
# ---------------------------------------------------------------------------

def sym_normalized_adjacency(g: Graph) -> SparseMatrix:
    """Self-looped symmetric normalization: entries 1/sqrt(deg~ u * deg~ v).

    deg~ counts the added self-loop, so every diagonal entry exists and
    no degree is zero.
    """
    deg = g.degrees() + 1
    diag = np.arange(g.n, dtype=np.int64)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], diag])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], diag])
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    return SparseMatrix(g.n, rows, cols, vals)


def propagation_operator(g: Graph) -> SparseMatrix:
    """Row-stochastic adjacency (each row averages the node's neighbours)
    with a self-loop on every isolated node, so propagation is total and
    an isolated node keeps its own energy."""
    deg = g.degrees()
    isolated = np.flatnonzero(deg == 0)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], isolated])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], isolated])
    return SparseMatrix(g.n, rows, cols, 1.0 / np.maximum(deg[rows], 1))


# ---------------------------------------------------------------------------
# Single-JSON bundle
# ---------------------------------------------------------------------------

class AtomicFiles:
    """Files that replace their targets together, as a ``with`` block.

    ``write`` puts each file's bytes in a temporary beside it. A block
    that ends cleanly renames every temporary over its file; one that
    raises removes them all and replaces nothing, so no file is replaced
    unless every file was written whole.
    """

    def __init__(self):
        self._pending: dict[Path, Path] = {}  # file -> its temporary

    def write(self, path, data: bytes) -> None:
        path = Path(path)
        tmp = self._pending[path] = path.with_name(
            f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)

    def __enter__(self) -> "AtomicFiles":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                for path, tmp in self._pending.items():
                    os.replace(tmp, path)
        finally:
            for tmp in self._pending.values():
                tmp.unlink(missing_ok=True)  # a renamed one is gone already


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it."""
    with AtomicFiles() as files:
        files.write(path, data)


def _array_json(arr: np.ndarray, memo: dict) -> str:
    if id(arr) not in memo:
        memo[id(arr)] = (arr, json.dumps(arr.tolist(), separators=(",", ":")))
    return memo[id(arr)][1]


def save_bundle(g: Graph, path, memo: dict | None = None) -> None:
    """Write ``g`` as its compact sorted-key JSON document, joined from
    one fragment per field. Bundles that share arrays can pass one
    ``memo`` dict: it encodes each array once and holds it, so no id is
    reused. Its arrays must not change while it is in use."""
    memo = {} if memo is None else memo
    splits = ",".join(f'"{name}":{_array_json(g.mask(name), memo)}'
                      for name in sorted(MASK_NAMES))
    fields = {"n": str(g.n), "d": str(g.d), "C": str(g.C),
              "features": _array_json(g.X, memo),
              "edges": _array_json(g.edges, memo),
              "labels": _array_json(g.y, memo),
              "splits": "{" + splits + "}"}
    text = ",".join(f'"{key}":{fields[key]}' for key in sorted(fields))
    write_atomic(path, ("{" + text + "}\n").encode())


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def load_bundle(path) -> Graph:
    """Parse a bundle, rejecting any field of the wrong JSON type with a
    ``GraphFormatError`` that names the file."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise GraphFormatError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{path}: a bundle must be a JSON object")
    required = {"n", "d", "C", "features", "edges", "labels", "splits"}
    missing = required - set(doc)
    if missing:
        raise GraphFormatError(f"{path}: missing keys {sorted(missing)}")
    dims = [doc[k] for k in ("n", "d", "C")]
    if not all(type(v) is int and v >= 0 for v in dims):
        raise GraphFormatError(
            f"{path}: n, d and C must be non-negative integers, got {dims}")
    n, d = dims[:2]
    features, edges, splits = doc["features"], doc["edges"], doc["splits"]
    if not (isinstance(features, list) and len(features) == n
            and all(isinstance(row, list) and len(row) == d for row in features)
            and {type(v) for row in features for v in row} <= {int, float}):
        raise GraphFormatError(f"{path}: features must be {n} rows of {d} numbers")
    if not (isinstance(edges, list)
            and all(_int_list(e) and len(e) == 2 for e in edges)):
        raise GraphFormatError(f"{path}: edges must be [u, v] integer pairs")
    if not _int_list(doc["labels"]):
        raise GraphFormatError(f"{path}: labels must be a list of integers")
    if not (isinstance(splits, dict) and all(map(_int_list, splits.values()))):
        raise GraphFormatError(
            f"{path}: splits must map names to lists of node indices")
    try:
        X = np.array(features, dtype=np.float64).reshape(n, d)
        if not np.isfinite(X).all():
            raise GraphFormatError(f"{path}: features must be finite")
        return make_graph(X, np.array(edges), doc["labels"], masks=splits,
                          C=doc["C"])
    except OverflowError as err:
        raise GraphFormatError(f"{path}: number out of range: {err}") from err
