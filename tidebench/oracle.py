"""Independent recomputations that the benchmark checks tide's outputs against.

Nothing here imports the package under test. Metrics are recomputed by
direct counting (AUROC over all ID/OOD pairs) or from sorted scores
(AUPR, FPR95); energies with ``scipy.special.logsumexp``; propagation
with the dense operator ``alpha*I + (1-alpha)*W`` raised to the k-th
power; inference logits from the checkpoint's raw parameter blob with a
scipy sparse adjacency built here from the edge list. Every check
raises ``Mismatch`` naming what disagreed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.special import entr, logsumexp, softmax

MASK_NAMES = ("train", "val", "test_id", "test_ood")
BUNDLE_KEYS = {"n", "d", "C", "features", "edges", "labels", "splits"}
GRADCHECK_COMPONENTS = ("cross_entropy", "kl", "club", "recon", "energy_reg",
                        "tide_total")


class Mismatch(Exception):
    """A program output disagrees with its independent recomputation."""


def expect(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def expect_close(name: str, got, want, rtol: float = 1e-9,
                 atol: float = 1e-12) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    expect(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(got - want)))
        raise Mismatch(f"{name}: differs by up to {worst:.3e}")


# ---------------------------------------------------------------------------
# Detection metrics (OOD is the positive class, higher score = more OOD)
# ---------------------------------------------------------------------------

def _populations(id_scores, ood_scores):
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    expect(id_scores.size > 0 and ood_scores.size > 0,
           "metrics need at least one ID and one OOD score")
    return id_scores, ood_scores


def auroc_pairs(id_scores, ood_scores) -> float:
    """Share of (OOD, ID) pairs with the OOD node scored higher, ties half."""
    id_scores, ood_scores = _populations(id_scores, ood_scores)
    wins = ties = 0
    for chunk in np.array_split(ood_scores, max(1, ood_scores.size // 512)):
        wins += np.count_nonzero(chunk[:, None] > id_scores[None, :])
        ties += np.count_nonzero(chunk[:, None] == id_scores[None, :])
    return (wins + 0.5 * ties) / (id_scores.size * ood_scores.size)


def _count_at_or_above(sorted_values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    return sorted_values.size - np.searchsorted(sorted_values, thresholds, side="left")


def aupr_sorted(id_scores, ood_scores) -> float:
    """Step-interpolated average precision over the distinct thresholds."""
    id_scores, ood_scores = _populations(id_scores, ood_scores)
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))[::-1]
    tp = _count_at_or_above(np.sort(ood_scores), thresholds).astype(np.float64)
    fp = _count_at_or_above(np.sort(id_scores), thresholds).astype(np.float64)
    recall = tp / ood_scores.size
    precision = tp / (tp + fp)
    steps = np.diff(np.concatenate([[0.0], recall]))
    return float(np.sum(steps * precision))


def fpr_at_tpr_sorted(id_scores, ood_scores, level: float = 0.95) -> float:
    """ID share at or above the highest threshold that catches `level` of OOD."""
    id_scores, ood_scores = _populations(id_scores, ood_scores)
    ood_sorted = np.sort(ood_scores)
    candidates = ood_sorted[::-1]
    tpr = _count_at_or_above(ood_sorted, candidates) / ood_scores.size
    threshold = candidates[np.flatnonzero(tpr >= level)[0]]
    return float(np.count_nonzero(id_scores >= threshold) / id_scores.size)


def detection_metrics(id_scores, ood_scores) -> dict:
    return {"auroc": auroc_pairs(id_scores, ood_scores),
            "aupr": aupr_sorted(id_scores, ood_scores),
            "fpr95": fpr_at_tpr_sorted(id_scores, ood_scores)}


def expect_metrics(name: str, report: dict, want: dict, atol: float = 1e-12) -> None:
    for key, value in want.items():
        got = report.get(key)
        expect(got is not None and abs(float(got) - value) <= atol,
               f"{name}.{key}: program {got!r}, recomputed {value!r}")


# ---------------------------------------------------------------------------
# Scores, propagation, inference
# ---------------------------------------------------------------------------

def energies(logits: np.ndarray) -> np.ndarray:
    return -logsumexp(np.asarray(logits, dtype=np.float64), axis=1)


def entropy(logits: np.ndarray) -> np.ndarray:
    return entr(softmax(np.asarray(logits, dtype=np.float64), axis=1)).sum(axis=1)


def _both_directions(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return (np.concatenate([edges[:, 0], edges[:, 1]]),
            np.concatenate([edges[:, 1], edges[:, 0]]))


def propagate_dense(e: np.ndarray, n: int, edges, alpha: float, k: int) -> np.ndarray:
    """(alpha*I + (1-alpha)*W)^k e with W the dense random-walk matrix.

    Isolated nodes get a self-loop in W, so they keep their own score.
    """
    rows, cols = _both_directions(edges)
    W = np.zeros((n, n))
    W[rows, cols] = 1.0
    deg = W.sum(axis=1)
    isolated = deg == 0
    W[isolated, isolated] = 1.0
    W /= np.where(isolated, 1.0, deg)[:, None]
    M = W            # alpha*I + (1-alpha)*W, built in place to hold one n x n array
    M *= 1.0 - alpha
    M[np.diag_indices(n)] += alpha
    out = np.asarray(e, dtype=np.float64)
    for _ in range(int(k)):
        out = M @ out
    return out


def sym_adjacency(n: int, edges) -> sparse.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 with D counting the self-loop."""
    rows, cols = _both_directions(edges)
    A = sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    A = A + sparse.identity(n, format="csr")
    inv_sqrt = 1.0 / np.sqrt(np.asarray(A.sum(axis=1)).ravel())
    return sparse.diags(inv_sqrt) @ A @ sparse.diags(inv_sqrt)


def joint_logits(params: dict, X: np.ndarray, edges) -> np.ndarray:
    """Mean-path logits of the joint network: two ReLU GCN layers, the
    mu head, then the graph-convolutional classifier."""
    A = sym_adjacency(X.shape[0], edges)
    h1 = np.maximum(A @ (X @ params["z_enc.gcn1.W"]), 0.0)
    h2 = np.maximum(A @ (h1 @ params["z_enc.gcn2.W"]), 0.0)
    mu = h2 @ params["z_enc.mu.W"] + params["z_enc.mu.b"]
    return A @ (mu @ params["z_head.W"])


def read_checkpoint(path) -> dict:
    """Parameter arrays from the little-endian float64 blob and its manifest."""
    path = Path(path)
    manifest = json.loads(path.with_name(path.name + ".json").read_text())
    flat = np.fromfile(path, dtype="<f8")
    out, offset = {}, 0
    for entry in manifest["params"]:
        rows, cols = entry["shape"]
        out[entry["name"]] = flat[offset:offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
    expect(offset == flat.size, f"{path}: blob has {flat.size} values, "
                                f"manifest describes {offset}")
    return out


def accuracy(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    idx = np.asarray(idx, dtype=np.int64)
    return float(np.mean(np.argmax(logits[idx], axis=1) == np.asarray(labels)[idx]))


# ---------------------------------------------------------------------------
# Training log
# ---------------------------------------------------------------------------

def expect_selection(log: list, best_epoch: int, epochs: int) -> float:
    """Model selection keeps the last epoch with the highest validation
    accuracy; returns that accuracy."""
    expect(len(log) == epochs, f"train log has {len(log)} epochs, expected {epochs}")
    expect([rec["epoch"] for rec in log] == list(range(epochs)),
           "train log epochs are not 0..epochs-1 in order")
    accs = [rec["val_acc"] for rec in log]
    best = max(accs)
    last = max(i for i, a in enumerate(accs) if a == best)
    expect(best_epoch == last,
           f"selected epoch {best_epoch}, but the last best-validation epoch is {last}")
    return best


def read_train_log(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Files written by `tide generate` and `tide eval`
# ---------------------------------------------------------------------------

def read_bundle(path) -> dict:
    doc = json.loads(Path(path).read_text())
    expect(set(doc) == BUNDLE_KEYS, f"{path}: keys {sorted(doc)}")
    doc["X"] = np.asarray(doc["features"], dtype=np.float64).reshape(doc["n"], doc["d"])
    doc["E"] = np.asarray(doc["edges"], dtype=np.int64).reshape(-1, 2)
    doc["y"] = np.asarray(doc["labels"], dtype=np.int64)
    doc["masks"] = {k: np.asarray(v, dtype=np.int64) for k, v in doc["splits"].items()}
    return doc


def expect_bundle(name: str, b: dict) -> None:
    """Shape, label and split invariants, and canonical unique edges."""
    n, C, E = b["n"], b["C"], b["E"]
    expect(b["y"].shape == (n,), f"{name}: {b['y'].size} labels for n={n}")
    expect(np.all(b["y"] >= -1) and np.all(b["y"] < C), f"{name}: label outside [-1, C)")
    expect(np.all(np.isfinite(b["X"])), f"{name}: non-finite features")
    if E.size:
        expect(E.min() >= 0 and E.max() < n, f"{name}: edge endpoint out of range")
        expect(np.all(E[:, 0] < E[:, 1]), f"{name}: edge not canonical (u < v)")
        keys = E[:, 0] * n + E[:, 1]
        expect(np.unique(keys).size == keys.size, f"{name}: duplicate edges")
    expect(set(b["masks"]) == set(MASK_NAMES), f"{name}: split keys {sorted(b['masks'])}")
    supervised = np.concatenate([b["masks"]["train"], b["masks"]["val"]])
    expect(np.intersect1d(supervised, b["masks"]["test_ood"]).size == 0,
           f"{name}: OOD pool overlaps the supervised splits")


def _edge_set(E: np.ndarray) -> set:
    return set(map(tuple, E.tolist()))


def expect_shift(name: str, base: dict, shifted: dict, kind: str) -> None:
    """Structure shift keeps edge count, X and y; feature shift keeps edges.

    Both turn the base test split into the OOD pool and keep train/val.
    """
    for key in ("n", "d", "C"):
        expect(shifted[key] == base[key], f"{name}: {key} changed")
    expect(np.array_equal(shifted["y"], base["y"]), f"{name}: labels changed")
    if kind == "structure":
        expect(shifted["E"].shape == base["E"].shape, f"{name}: edge count changed")
        expect(np.array_equal(shifted["X"], base["X"]), f"{name}: features changed")
        expect(_edge_set(shifted["E"]) != _edge_set(base["E"]), f"{name}: no edge rewired")
    elif kind == "feature":
        expect(np.array_equal(shifted["E"], base["E"]), f"{name}: edges changed")
        expect(not np.array_equal(shifted["X"], base["X"]), f"{name}: features unchanged")
    else:
        raise ValueError(f"unknown shift kind {kind!r}")
    for split in ("train", "val"):
        expect(np.array_equal(shifted["masks"][split], base["masks"][split]),
               f"{name}: {split} split changed")
    expect(np.array_equal(shifted["masks"]["test_ood"], base["masks"]["test_id"]),
           f"{name}: OOD pool is not the base test split")
    expect(shifted["masks"]["test_id"].size == 0, f"{name}: test_id not emptied")


def read_scores_csv(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expect(header == ["node_id", "score", "is_ood", "predicted", "label"],
               f"{path}: header {header}")
        rows = list(reader)
    cols = list(zip(*rows)) if rows else [()] * 5
    return {"node_id": np.array(cols[0], dtype=np.int64),
            "score": np.array(cols[1], dtype=np.float64),
            "is_ood": np.array(cols[2], dtype=np.int64).astype(bool),
            "predicted": np.array(cols[3], dtype=np.int64),
            "label": np.array(cols[4], dtype=np.int64)}


def report_from_scores(scores: dict) -> dict:
    """What report.json must say, recomputed from the scores.csv rows."""
    is_ood = scores["is_ood"]
    id_rows = ~is_ood
    expect(np.any(id_rows) and np.any(is_ood), "scores.csv lacks a population")
    out = detection_metrics(scores["score"][id_rows], scores["score"][is_ood])
    out["id_accuracy"] = float(np.mean(scores["predicted"][id_rows]
                                       == scores["label"][id_rows]))
    out["n_id"] = int(np.count_nonzero(id_rows))
    out["n_ood"] = int(np.count_nonzero(is_ood))
    return out


def expect_report(name: str, report: dict, scores: dict) -> None:
    want = report_from_scores(scores)
    for key in ("n_id", "n_ood"):
        expect(report.get(key) == want[key],
               f"{name}.{key}: program {report.get(key)!r}, scores.csv {want[key]}")
    expect_metrics(name, report, {k: want[k] for k in
                                  ("auroc", "aupr", "fpr95", "id_accuracy")})


def expect_hist(name: str, hist: dict, n_id: int, n_ood: int, scores=None) -> None:
    """64-bin histograms whose counts cover both populations exactly."""
    expect(hist.get("bins") == 64, f"{name}: bins {hist.get('bins')!r}")
    for key in ("energy_raw", "energy_prop", "confidence"):
        h = hist[key]
        expect(len(h["edges"]) == 65 and np.all(np.diff(h["edges"]) > 0),
               f"{name}.{key}: edges not 65 increasing values")
        expect(sum(h["id_counts"]) == n_id, f"{name}.{key}: ID counts sum "
                                            f"{sum(h['id_counts'])} != {n_id}")
        expect(sum(h["ood_counts"]) == n_ood, f"{name}.{key}: OOD counts sum "
                                              f"{sum(h['ood_counts'])} != {n_ood}")
    if scores is not None:
        edges = hist["energy_prop"]["edges"]
        expect(edges[0] == scores.min() and edges[-1] == scores.max(),
               f"{name}.energy_prop: range differs from the scores.csv range")


def parse_gradcheck(stdout: str) -> dict:
    """Component -> max relative error, from `tide check-grad` output."""
    errs = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[1:4] == ["max", "rel", "err"]:
            errs[parts[0]] = float(parts[4])
    return errs


def expect_gradcheck(stdout: str, threshold: float) -> dict:
    errs = parse_gradcheck(stdout)
    expect(tuple(errs) == GRADCHECK_COMPONENTS,
           f"check-grad reported components {list(errs)}")
    worst = max(errs, key=errs.get)
    expect(errs[worst] < threshold,
           f"check-grad: {worst} error {errs[worst]:.3e} >= {threshold}")
    expect(f"OK: all components below {threshold}" in stdout,
           "check-grad printed no OK line")
    return errs
