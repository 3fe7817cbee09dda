"""Synthetic ID graphs and the three OOD shift generators.

The ID family is a contextual stochastic block model: block-structured
edges give a structure signal (p_in vs p_out), Gaussian class means
give a feature signal (mu_sep), and the two dials are independent.
Shifts mirror the three factorizations under test: structure shift
rewires edges and leaves (X, y) alone, feature shift interpolates
features and leaves (A, y) alone, label leave-out carves classes out
of the supervised masks. ``as_ood_bundle`` turns a structure- or
feature-shifted graph into an OOD bundle.

Everything here is a pure function of (inputs, seed): byte-identical
graphs on every call. Random draws happen in a fixed, documented order
(labels, class directions, feature noise, edges), so adding fields
later cannot silently reshuffle existing outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, GraphError, canonical_edges, make_graph


class ShiftError(ValueError):
    """Invalid shift parameters or an unsatisfiable rewiring request."""


class DegenerateParamsError(ValueError):
    """Generator parameters make classes unidentifiable."""


@dataclass(frozen=True)
class CsbmParams:
    n: int
    C: int
    d: int
    p_in: float
    p_out: float
    mu_sep: float
    noise: float = 1.0
    seed: int = 0
    train_frac: float = 0.4
    val_frac: float = 0.2

    def validate(self) -> None:
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ShiftError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}")
        if self.n < self.C:
            raise ShiftError(f"n={self.n} < C={self.C}")
        if self.C < 1:
            raise ShiftError("need at least one class")
        if self.d < self.C:
            raise ShiftError(
                f"d={self.d} < C={self.C}: orthogonal class means need d >= C")
        if not np.isfinite([self.mu_sep, self.noise]).all():
            raise ShiftError(f"mu_sep and noise must be finite, got "
                             f"mu_sep={self.mu_sep}, noise={self.noise}")
        if self.noise < 0:
            raise ShiftError("noise must be non-negative")
        if self.seed < 0:
            raise ShiftError(f"seed must be non-negative, got {self.seed}")
        if not (0 < self.train_frac and 0 <= self.val_frac
                and self.train_frac + self.val_frac < 1):
            raise ShiftError("split fractions must leave room for a test set")
        if self.p_in == self.p_out == 0.0 and self.mu_sep == 0.0:
            raise DegenerateParamsError(
                "p_in = p_out = 0 and mu_sep = 0: classes are unidentifiable")


@dataclass(frozen=True)
class ShiftSpec:
    kind: str                     # structure | feature | label
    intensity: float = 0.0
    seed: int = 0
    ood_classes: tuple[int, ...] | None = None   # label kind

    def validate(self, C: int | None = None) -> None:
        if self.kind not in ("structure", "feature", "label"):
            raise ShiftError(f"unknown shift kind {self.kind!r}")
        if not (0.0 <= self.intensity <= 1.0):
            raise ShiftError(f"intensity must be in [0, 1], got {self.intensity}")
        if self.kind == "label":
            if not self.ood_classes:
                raise ShiftError("label shift needs a nonempty held-out class set")
            if C is not None:
                held = set(self.ood_classes)
                if not held <= set(range(C)):
                    raise ShiftError(f"held-out classes {sorted(held)} not all in [0, {C})")
                if len(held) >= C:
                    raise ShiftError("cannot hold out every class")


# Pairs per block of the streamed edge draw.
_EDGE_BLOCK = 1 << 16


def _sample_edges(y, p_in: float, p_out: float, rng) -> np.ndarray:
    """Keep pair (i, j), i < j, when its uniform is below p_in if
    y[i] == y[j], else below p_out.

    Pairs are numbered in ``np.triu_indices`` order and their uniforms
    drawn ``_EDGE_BLOCK`` at a time. ``rng.random`` in chunks returns the
    values of one call, so the edges and the rng state left behind match
    the all-pairs draw. Only pairs under p_in (>= p_out) are mapped back
    to (i, j).
    """
    n = y.size
    rows = np.arange(n - 1)
    row_start = rows * (2 * n - rows - 1) // 2   # index of pair (i, i + 1)
    total = n * (n - 1) // 2
    edges = [np.empty((0, 2), dtype=np.int64)]
    for start in range(0, total, _EDGE_BLOCK):
        u = rng.random(min(_EDGE_BLOCK, total - start))
        hit = np.flatnonzero(u < p_in)
        pair = start + hit
        i = np.searchsorted(row_start, pair, side="right") - 1
        j = pair - row_start[i] + i + 1
        keep = (y[i] == y[j]) | (u[hit] < p_out)
        edges.append(np.column_stack([i[keep], j[keep]]))
    return np.concatenate(edges)


def gen_csbm(params: CsbmParams) -> Graph:
    """Sample a contextual SBM graph with train/val/test_id splits.

    Class means are scaled orthonormal directions, mu_sep/sqrt(2) each,
    so every pair of means is exactly mu_sep apart. Edges are
    independent Bernoulli draws over the upper triangle, in row-major
    order. Their uniforms come from the same stream in blocks of
    ``_EDGE_BLOCK`` pairs, so memory is O(block + edges), not O(n^2),
    and the graph equals the one a single all-pairs draw gives.
    """
    params.validate()
    rng = np.random.default_rng(params.seed)
    n, C, d = params.n, params.C, params.d

    try:
        y = rng.integers(0, C, size=n)
        # Orthonormal class directions from a QR factorization.
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        with np.errstate(over="ignore"):
            means = (params.mu_sep / np.sqrt(2.0)) * basis[:, :C].T   # C x d
            X = means[y] + params.noise * rng.standard_normal((n, d))
    except (ValueError, MemoryError) as err:  # numpy refused an allocation
        raise ShiftError(f"cannot allocate a graph with n={n}, d={d}, "
                         f"C={C}: {err}") from err
    if not np.isfinite(X).all():
        raise ShiftError(f"sampled features overflow: lower noise={params.noise} "
                         f"or mu_sep={params.mu_sep}")

    edges = _sample_edges(y, params.p_in, params.p_out, rng)

    order = rng.permutation(n)
    n_train = int(round(params.train_frac * n))
    n_val = int(round(params.val_frac * n))
    masks = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test_id": order[n_train + n_val:],
        "test_ood": np.empty(0, dtype=np.int64),
    }
    return make_graph(X, edges, y, masks=masks, C=C)


def apply_structure_shift(g: Graph, spec: ShiftSpec) -> Graph:
    """Replace a fraction of edges with uniformly random non-edges.

    Edge count is conserved exactly; features, labels, and masks are
    untouched. Raises when the graph has too few non-edges to absorb
    the requested rewiring (e.g. intensity 1 on a complete graph).
    """
    spec.validate()
    if spec.kind != "structure":
        raise ShiftError(f"expected structure spec, got {spec.kind!r}")
    m = g.num_edges
    k = int(round(spec.intensity * m))
    if k == 0:
        return replace(g, edges=g.edges.copy())
    total_pairs = g.n * (g.n - 1) // 2
    if k > total_pairs - m:
        raise ShiftError(
            f"cannot rewire {k} edges: only {total_pairs - m} non-edges exist")

    rng = np.random.default_rng(spec.seed)
    drop = rng.choice(m, size=k, replace=False)
    keep_mask = np.ones(m, dtype=bool)
    keep_mask[drop] = False

    seen = set((g.edges[:, 0] * g.n + g.edges[:, 1]).tolist())
    new_keys: list[int] = []
    while len(new_keys) < k:
        u = rng.integers(0, g.n, size=4 * (k - len(new_keys)) + 8)
        v = rng.integers(0, g.n, size=u.size)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        for a, b in zip(lo.tolist(), hi.tolist()):
            if a == b:
                continue
            key = a * g.n + b
            if key in seen:
                continue
            seen.add(key)
            new_keys.append(key)
            if len(new_keys) == k:
                break
    added = np.array([[key // g.n, key % g.n] for key in new_keys], dtype=np.int64)
    edges = canonical_edges(np.vstack([g.edges[keep_mask], added]), g.n)
    if edges.shape[0] != m:
        raise GraphError("edge count changed during rewiring")  # defensive
    return replace(g, edges=edges)


def apply_feature_shift(g: Graph, spec: ShiftSpec) -> Graph:
    """Interpolate every node's features with a random partner's.

    x_i <- lam * x_i + (1 - lam) * x_pi(i) with lam = 1 - intensity,
    where pi is a seed-derived fixed-point-free permutation (one long
    cycle over a shuffled node order), so every node mixes with a
    genuinely different node.
    Adjacency, labels, and masks are untouched.
    """
    spec.validate()
    if spec.kind != "feature":
        raise ShiftError(f"expected feature spec, got {spec.kind!r}")
    if g.n < 2:
        raise ShiftError("feature shift needs at least two nodes")
    lam = 1.0 - spec.intensity
    if lam == 1.0:
        return replace(g, X=g.X.copy())
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(g.n)
    partner = np.empty(g.n, dtype=np.int64)
    partner[order] = np.roll(order, -1)   # order[i] -> order[i+1], cyclic
    X = lam * g.X + (1.0 - lam) * g.X[partner]
    return replace(g, X=X)


def label_leave_out_split(g: Graph, ood_classes) -> Graph:
    """Hold out whole classes as the OOD test set.

    Held-out nodes leave train/val/test_id and form test_ood; their
    labels become -1. Remaining classes are relabeled onto a contiguous
    range, and the result's C counts them.
    """
    held = sorted(set(int(c) for c in ood_classes))
    spec = ShiftSpec(kind="label", ood_classes=tuple(held))
    spec.validate(C=g.C)

    is_ood = np.isin(g.y, held)
    kept_classes = [c for c in range(g.C) if c not in held]
    remap = -np.ones(g.C, dtype=np.int64)
    for new, old in enumerate(kept_classes):
        remap[old] = new
    y = np.where(is_ood, -1, remap[np.clip(g.y, 0, g.C - 1)])
    y[g.y < 0] = -1

    ood_nodes = np.flatnonzero(is_ood)
    masks = {}
    for name in ("train", "val", "test_id"):
        old = g.mask(name)
        masks[name] = old[~is_ood[old]]
    masks["test_ood"] = ood_nodes
    return make_graph(g.X, g.edges, y, masks=masks, C=len(kept_classes))


def apply_shift(g: Graph, spec: ShiftSpec) -> Graph:
    """Dispatch a structure or feature ShiftSpec to its generator; label
    shifts go through ``label_leave_out_split``."""
    if spec.kind == "structure":
        return apply_structure_shift(g, spec)
    if spec.kind == "feature":
        return apply_feature_shift(g, spec)
    raise ShiftError(f"unknown shift kind {spec.kind!r} for apply_shift")


def as_ood_bundle(g: Graph) -> Graph:
    """Reinterpret a shifted graph: its test split becomes the OOD pool."""
    masks = {
        "train": g.mask("train"),
        "val": g.mask("val"),
        "test_id": np.empty(0, dtype=np.int64),
        "test_ood": g.mask("test_id"),
    }
    return replace(g, masks=masks)
