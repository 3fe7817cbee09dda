"""Reference implementations the test suite checks the package against.

Everything here is written the slow, obvious way (python loops, direct
counting, literal formulas) and deliberately shares no code with the
package. When a test says "matches the oracle", it means these.
"""

import numpy as np


def fd_gradient(fn, flat, h=1e-5):
    """Central-difference gradient of a scalar fn over a flat array."""
    flat = np.asarray(flat, dtype=np.float64)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        up = fn(bumped)
        bumped[i] = flat[i] - h
        down = fn(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def auroc_pairs(id_scores, ood_scores):
    """All-pairs rank statistic: P(ood > id) with ties counting half."""
    wins = 0.0
    for o in ood_scores:
        for i in id_scores:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def aupr_sweep(id_scores, ood_scores):
    """Exhaustive-threshold average precision, OOD = positive class.

    Sweeps thresholds at every distinct score descending; at each one
    predicted-positive means score >= threshold. Area accumulates
    precision * (recall step), the step-interpolated convention.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    n_pos = ood_scores.size
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(np.concatenate([id_scores, ood_scores])), reverse=True):
        tp = float(np.count_nonzero(ood_scores >= t))
        fp = float(np.count_nonzero(id_scores >= t))
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += precision * (recall - prev_recall)
        prev_recall = recall
    return area


def fpr_at_tpr(id_scores, ood_scores, level=0.95):
    """FPR at the largest threshold whose TPR reaches `level`.

    Candidate thresholds walk the distinct OOD scores from the top;
    the first one that captures a `level` fraction of OOD nodes is the
    operating point.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    for t in sorted(set(ood_scores), reverse=True):
        tpr = np.count_nonzero(ood_scores >= t) / ood_scores.size
        if tpr >= level:
            return np.count_nonzero(id_scores >= t) / id_scores.size
    raise AssertionError("unreachable: the minimum OOD score has TPR 1")


def kl_mc(mu, sigma, n_samples, rng):
    """Monte Carlo KL(N(mu, sigma^2) || N(0, 1)) with its standard error."""
    x = rng.normal(mu, sigma, size=n_samples)
    log_q = -0.5 * ((x - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
    log_p = -0.5 * x ** 2 - 0.5 * np.log(2 * np.pi)
    ratios = log_q - log_p
    return ratios.mean(), ratios.std(ddof=1) / np.sqrt(n_samples)


def club_all_pairs(s1, s2, p1, p2):
    """Contrastive estimate from the full n x n critic score matrix.

    Scores S = (s1 p1)(s2 p2)^T / sqrt(h); the estimate is the mean of
    the diagonal (matched pairs) minus the mean of all entries. Returns
    the value and its gradients with respect to s1, s2, p1 and p2: the
    estimate is sum(M * S) with M = I/n - 1/n^2 in every entry.
    """
    s1, s2, p1, p2 = (np.asarray(x, dtype=np.float64) for x in (s1, s2, p1, p2))
    n, h = s1.shape[0], p1.shape[1]
    a, b = s1 @ p1, s2 @ p2
    scores = a @ b.T / np.sqrt(h)
    value = np.mean(np.diag(scores)) - np.mean(scores)
    M = np.eye(n) / n - np.full((n, n), 1.0 / n ** 2)
    grad_a = M @ b / np.sqrt(h)
    grad_b = M.T @ a / np.sqrt(h)
    return value, {"s1": grad_a @ p1.T, "s2": grad_b @ p2.T,
                   "p1": s1.T @ grad_a, "p2": s2.T @ grad_b}


def csbm_all_pairs(params):
    """The cSBM draw with every upper-triangle pair materialised at once.

    Same draw order as the generator (labels, class directions, feature
    noise, edges, split permutation), with one uniform per pair from a
    single ``rng.random`` call over ``np.triu_indices``. Returns X,
    edges, y and the unsorted train/val/test_id index arrays.
    """
    rng = np.random.default_rng(params.seed)
    n, C, d = params.n, params.C, params.d
    y = rng.integers(0, C, size=n)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    means = (params.mu_sep / np.sqrt(2.0)) * basis[:, :C].T
    X = means[y] + params.noise * rng.standard_normal((n, d))
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(y[iu] == y[ju], params.p_in, params.p_out)
    picked = rng.random(iu.size) < prob
    edges = np.column_stack([iu[picked], ju[picked]])
    order = rng.permutation(n)
    n_train = int(round(params.train_frac * n))
    n_val = int(round(params.val_frac * n))
    masks = {"train": order[:n_train],
             "val": order[n_train:n_train + n_val],
             "test_id": order[n_train + n_val:]}
    return X, edges, y, masks


def bundle_doc(g):
    """The JSON document a bundle of ``g`` holds, field by field."""
    return {
        "n": g.n, "d": g.d, "C": g.C,
        "features": [[float(v) for v in row] for row in g.X],
        "edges": [[int(u), int(v)] for u, v in g.edges],
        "labels": [int(v) for v in g.y],
        "splits": {name: [int(i) for i in g.masks.get(name, [])]
                   for name in ("train", "val", "test_id", "test_ood")},
    }
