"""Energy scoring, propagation over the graph, and detection metrics.

Scores are oriented "higher means more OOD" everywhere: the energy
-logsumexp(logits) is large for uncertain nodes. ``score_splits`` is
the one scoring path of ``tide eval`` and the comparison harness.
Metrics follow fixed tie rules so that a brute-force reimplementation
reproduces them to float precision:
AUROC counts ties as half via average ranks, AUPR sweeps distinct
scores in descending order with step interpolation, FPR95 thresholds
at the k-th largest OOD score with k = ceil(0.95 * n_ood).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np
from scipy.stats import rankdata

from .graph import Graph, SparseMatrix, row_stochastic_adjacency
from .model import TideModel, joint_logits_at_mean


class MetricError(ValueError):
    pass


@dataclass
class EnergyScores:
    e: np.ndarray
    propagated: bool = False
    k: int = 0
    alpha: float = 1.0


@dataclass
class DetectionReport:
    auroc: float
    aupr: float
    fpr95: float
    id_accuracy: float
    n_id: int
    n_ood: int

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def energy_score(logits: np.ndarray) -> EnergyScores:
    """Per-node energy e_i = -log sum_c exp(logit_ic), stabilized."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 1:
        raise MetricError(f"logits must be n x C, got {logits.shape}")
    m = logits.max(axis=1)
    e = -(m + np.log(np.exp(logits - m[:, None]).sum(axis=1)))
    return EnergyScores(e=e)


def propagation_operator(g: Graph) -> SparseMatrix:
    """Row-stochastic adjacency with self-loops patched onto isolated nodes,
    so propagation is total (isolated nodes keep their own energy)."""
    base = row_stochastic_adjacency(g)
    deg = g.degrees()
    isolated = np.flatnonzero(deg == 0)
    if isolated.size == 0:
        return base
    rows = np.concatenate([base.rows, isolated])
    cols = np.concatenate([base.cols, isolated])
    vals = np.concatenate([base.vals, np.ones(isolated.size)])
    return SparseMatrix(g.n, rows, cols, vals)


def propagate_energy(scores: EnergyScores, g: Graph, alpha: float, k: int) -> EnergyScores:
    """k rounds of e <- alpha*e + (1-alpha) * neighbor-mean(e)."""
    if not (0.0 <= alpha <= 1.0):
        raise MetricError(f"alpha must be in [0, 1], got {alpha}")
    if k < 0:
        raise MetricError(f"k must be >= 0, got {k}")
    e = scores.e.astype(np.float64).copy()
    if e.shape != (g.n,):
        raise MetricError(f"scores length {e.shape} != n={g.n}")
    op = propagation_operator(g)
    for _ in range(int(k)):
        e = alpha * e + (1.0 - alpha) * (op.csr @ e)
    return EnergyScores(e=e, propagated=k > 0, k=int(k), alpha=float(alpha))


def predictive_entropy(logits: np.ndarray) -> np.ndarray:
    """Shannon entropy of the per-node softmax, in nats."""
    p = softmax_rows(np.asarray(logits, dtype=np.float64))
    safe = np.clip(p, 1e-300, None)
    return -(p * np.log(safe)).sum(axis=1)


def auroc_score(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(random OOD outscores random ID), ties counting one half."""
    n_i, n_o = id_scores.size, ood_scores.size
    if n_i == 0 or n_o == 0:
        raise MetricError("auroc needs at least one ID and one OOD score")
    ranks = rankdata(np.concatenate([id_scores, ood_scores]), method="average")
    rank_sum = ranks[n_i:].sum()
    return float((rank_sum - n_o * (n_o + 1) / 2.0) / (n_i * n_o))


def aupr_score(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Average precision with OOD positive: descending sweep over the
    distinct scores, precision read off at each recall step."""
    n_o = ood_scores.size
    if id_scores.size == 0 or n_o == 0:
        raise MetricError("aupr needs at least one ID and one OOD score")
    scores = np.concatenate([id_scores, ood_scores])
    is_ood = np.concatenate([np.zeros(id_scores.size, bool), np.ones(n_o, bool)])
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_ood = is_ood[order]
    tp = np.cumsum(sorted_ood)
    fp = np.cumsum(~sorted_ood)
    # Evaluate only at the last index of each tied block (= all nodes with
    # score >= that distinct threshold are counted).
    last_of_block = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tp_b = tp[last_of_block].astype(np.float64)
    fp_b = fp[last_of_block].astype(np.float64)
    recall = tp_b / n_o
    precision = tp_b / (tp_b + fp_b)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def fpr_at_95_tpr(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Fraction of ID nodes at or above the k-th largest OOD score,
    k = ceil(0.95 * n_ood): the largest threshold catching 95% of OOD."""
    n_o = ood_scores.size
    if n_o == 0:
        raise MetricError("fpr95 undefined without OOD scores")
    if id_scores.size == 0:
        raise MetricError("fpr95 undefined without ID scores")
    k = int(np.ceil(0.95 * n_o))
    thresh = np.sort(ood_scores)[n_o - k]
    return float(np.mean(id_scores >= thresh))


def evaluate(scores: np.ndarray, is_ood: np.ndarray,
             predictions: np.ndarray, labels: np.ndarray,
             id_mask: np.ndarray) -> DetectionReport:
    """All four metrics from one score vector plus ID classification info.

    ``scores``/``is_ood`` cover the evaluated nodes (ID and OOD
    together); ``predictions``/``labels``/``id_mask`` refer to the ID
    graph and only feed id_accuracy.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_ood = np.asarray(is_ood, dtype=bool)
    if scores.shape != is_ood.shape:
        raise MetricError(f"scores/is_ood shape mismatch: {scores.shape} vs {is_ood.shape}")
    id_scores, ood_scores = scores[~is_ood], scores[is_ood]
    if id_scores.size == 0 or ood_scores.size == 0:
        raise MetricError(
            f"need both populations: n_id={id_scores.size}, n_ood={ood_scores.size}")
    id_mask = np.asarray(id_mask, dtype=np.int64)
    if id_mask.size == 0:
        raise MetricError("empty id_mask for accuracy")
    acc = float(np.mean(np.asarray(predictions)[id_mask] == np.asarray(labels)[id_mask]))
    return DetectionReport(
        auroc=auroc_score(id_scores, ood_scores),
        aupr=aupr_score(id_scores, ood_scores),
        fpr95=fpr_at_95_tpr(id_scores, ood_scores),
        id_accuracy=acc,
        n_id=int(id_scores.size),
        n_ood=int(ood_scores.size),
    )


@dataclass
class SplitScores:
    """The joint classifier on the ID test split, then the OOD pool.

    Every array runs over the evaluated nodes in that order; the two
    reports score them by raw and by propagated energy.
    """

    logits: np.ndarray
    is_ood: np.ndarray
    raw: np.ndarray
    prop: np.ndarray
    report_raw: DetectionReport
    report_prop: DetectionReport


def score_splits(model: TideModel, g_id: Graph, g_ood: Graph,
                 alpha: float, k: int) -> SplitScores:
    """Mean-path logits, raw and propagated energies, and both reports.

    Propagation runs over each whole graph before the test rows are
    picked, so a node's score sees its neighbours in every split.
    """
    test_id, test_ood = g_id.mask("test_id"), g_ood.mask("test_ood")
    if test_ood.size == 0:
        raise MetricError("OOD bundle has an empty test_ood split")
    if test_id.size == 0:
        raise MetricError("ID bundle has an empty test_id split")
    logits_id = joint_logits_at_mean(model, g_id)
    logits_ood = joint_logits_at_mean(model, g_ood)
    raw_id, raw_ood = energy_score(logits_id), energy_score(logits_ood)
    prop_id = propagate_energy(raw_id, g_id, alpha, k)
    prop_ood = propagate_energy(raw_ood, g_ood, alpha, k)

    is_ood = np.concatenate([np.zeros(test_id.size, dtype=bool),
                             np.ones(test_ood.size, dtype=bool)])
    preds_id = logits_id.argmax(axis=1)

    def picked(a_id, a_ood):
        return np.concatenate([a_id[test_id], a_ood[test_ood]])

    raw, prop = picked(raw_id.e, raw_ood.e), picked(prop_id.e, prop_ood.e)
    return SplitScores(
        logits=picked(logits_id, logits_ood), is_ood=is_ood, raw=raw, prop=prop,
        report_raw=evaluate(raw, is_ood, preds_id, g_id.y, test_id),
        report_prop=evaluate(prop, is_ood, preds_id, g_id.y, test_id))


# ---------------------------------------------------------------------------
# Score dumps
# ---------------------------------------------------------------------------

def write_scores_csv(path, node_ids, scores, is_ood, predicted, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "score", "is_ood", "predicted", "label"])
        for nid, s, o, p, lab in zip(node_ids, scores, is_ood, predicted, labels):
            writer.writerow([int(nid), repr(float(s)), int(o), int(p), int(lab)])


def histogram_data(id_values: np.ndarray, ood_values: np.ndarray,
                   bins: int = 64) -> dict:
    """Shared-range histogram of one statistic for the two populations."""
    id_values = np.asarray(id_values, dtype=np.float64)
    ood_values = np.asarray(ood_values, dtype=np.float64)
    joint = np.concatenate([id_values, ood_values])
    lo, hi = float(joint.min()), float(joint.max())
    if lo == hi:
        hi = lo + 1.0   # all mass lands in the first bin
    edges = np.linspace(lo, hi, bins + 1)
    id_counts, _ = np.histogram(id_values, bins=edges)
    ood_counts, _ = np.histogram(ood_values, bins=edges)
    return {
        "edges": [float(x) for x in edges],
        "id_counts": [int(c) for c in id_counts],
        "ood_counts": [int(c) for c in ood_counts],
    }
