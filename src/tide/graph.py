"""Graph container, adjacency normalizations, and the bundle format.

A Graph is an immutable bag of (X, edges, y, masks). Edges are stored
canonically: each undirected edge once as (u, v) with u < v, sorted,
deduplicated, self-loops dropped. Builders that need both directions
expand on the fly, so adjacency operators are symmetric by
construction.

On disk a graph is a single-JSON "bundle" (see ``bundle_dict``); it
round-trips exactly, since floats are written with shortest-repr
precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


MASK_NAMES = ("train", "val", "test_id", "test_ood")


class GraphError(ValueError):
    """A structural invariant does not hold."""


class GraphFormatError(ValueError):
    """A bundle failed to parse; the message names the file."""


class SparseMatrix:
    """Square sparse matrix in coordinate form with cached CSR products."""

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
        self._csr = None
        self._csr_t = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def csr(self):
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.vals, (self.rows, self.cols)), shape=self.shape)
        return self._csr

    @property
    def csr_t(self):
        if self._csr_t is None:
            self._csr_t = self.csr.T.tocsr()
        return self._csr_t

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.csr.todense())


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
        deg = np.zeros(self.n, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def replace(self, **changes) -> "Graph":
        fields = dict(n=self.n, d=self.d, X=self.X, edges=self.edges,
                      y=self.y, C=self.C, masks=self.masks)
        fields.update(changes)
        return Graph(**fields)


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
    if lo.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.unique(lo * n + hi)
    return np.column_stack([keys // n, keys % n]).astype(np.int64)


def make_graph(X, edges, y, masks=None, C: int | None = None) -> Graph:
    """Validated constructor; canonicalizes edges and copies all arrays."""
    X = np.array(X, dtype=np.float64, ndmin=2)
    y = np.asarray(y, dtype=np.int64).copy()
    n, d = X.shape
    if y.shape != (n,):
        raise GraphError(f"labels length {y.shape} inconsistent with n={n}")
    edges = canonical_edges(np.asarray(edges), n) if np.asarray(edges).size \
        else np.empty((0, 2), dtype=np.int64)
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

def _both_directions(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.concatenate([edges[:, 0], edges[:, 1]])
    v = np.concatenate([edges[:, 1], edges[:, 0]])
    return u, v


def sym_normalized_adjacency(g: Graph) -> SparseMatrix:
    """Self-looped symmetric normalization: entries 1/sqrt(deg~ u * deg~ v).

    deg~ counts the added self-loop, so every diagonal entry exists and
    no degree is zero.
    """
    deg = g.degrees() + 1
    diag = np.arange(g.n, dtype=np.int64)
    if g.edges.size:
        u, v = _both_directions(g.edges)
        rows = np.concatenate([u, diag])
        cols = np.concatenate([v, diag])
    else:
        rows, cols = diag, diag.copy()
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    return SparseMatrix(g.n, rows, cols, vals)


def row_stochastic_adjacency(g: Graph) -> SparseMatrix:
    """Plain-adjacency random-walk operator; zero-degree rows stay zero."""
    if not g.edges.size:
        return SparseMatrix(g.n, [], [], [])
    deg = g.degrees()
    u, v = _both_directions(g.edges)
    vals = 1.0 / deg[u]
    return SparseMatrix(g.n, u, v, vals)


# ---------------------------------------------------------------------------
# Single-JSON bundle
# ---------------------------------------------------------------------------

def bundle_dict(g: Graph) -> dict:
    return {
        "n": g.n,
        "d": g.d,
        "C": g.C,
        "features": [[float(v) for v in row] for row in g.X],
        "edges": [[int(u), int(v)] for u, v in g.edges],
        "labels": [int(v) for v in g.y],
        "splits": {name: [int(i) for i in g.mask(name)] for name in MASK_NAMES},
    }


def save_bundle(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(bundle_dict(g), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_bundle(path) -> Graph:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise GraphFormatError(f"{path}: {err}") from err
    required = {"n", "d", "C", "features", "edges", "labels", "splits"}
    missing = required - set(doc)
    if missing:
        raise GraphFormatError(f"{path}: missing keys {sorted(missing)}")
    X = np.array(doc["features"], dtype=np.float64, ndmin=2)
    if X.shape != (doc["n"], doc["d"]):
        raise GraphFormatError(
            f"{path}: features shape {X.shape} != ({doc['n']}, {doc['d']})")
    g = make_graph(X, np.array(doc["edges"]), doc["labels"],
                   masks=doc["splits"], C=doc["C"])
    return g
