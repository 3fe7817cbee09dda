"""Loss terms: the per-network variational objectives, the
conditional-independence surrogate, the pairwise contrastive dependence
estimate (a bilinear critic, computed in closed form from the samples'
cross-covariance), the energy margin regularizer, and their routing
into per-network totals. The energies the margin compares, their
propagation and its operator live in ``detection``, the same code that
scores nodes at evaluation.

All functions build on the autodiff primitives and return 1x1 tensors,
so they compose into one fused backward pass. ``TERMS`` is the single
place that knows each term's weight and which networks it feeds;
``tide_total`` fuses and routes by it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import TideModel, LatentDistribution, glorot, reconstruct


class LossError(ValueError):
    pass


def one_hot(labels: np.ndarray, C: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= C):
        raise LossError(f"labels outside [0, {C})")
    out = np.zeros((labels.size, C))
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class over the mask rows."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise LossError("cross_entropy: empty mask")
    sub = ad.gather_rows(logits, mask)
    hot = one_hot(np.asarray(labels)[mask], logits.shape[1])
    return ad.softmax_cross_entropy(sub, hot)


def kl_standard_normal(dist: LatentDistribution) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, I)) summed over dims, averaged over rows.

    Closed form: -1/2 * sum(1 + log sigma^2 - mu^2 - sigma^2).
    """
    if dist.mu.shape[0] == 0:
        raise LossError("kl_standard_normal: empty distribution")
    return ad.gaussian_kl(dist.mu, dist.sigma)


def vib_loss(logits: Tensor, labels: np.ndarray, mask: np.ndarray,
             dist: LatentDistribution, beta: float) -> Tensor:
    """Supervised term plus beta-weighted compression, both on the mask."""
    if beta < 0:
        raise LossError(f"beta must be >= 0, got {beta}")
    ce = cross_entropy(logits, labels, mask)
    if beta == 0.0:
        return ce
    kl = kl_standard_normal(dist.rows(np.asarray(mask, dtype=np.int64)))
    return ad.add(ce, ad.mul(kl, beta))


def club_estimate(s1: Tensor, s2: Tensor, p1: Tensor, p2: Tensor) -> Tensor:
    """Contrastive dependence estimate between two sample sets.

    With projections a = s1 p1, b = s2 p2 and the bilinear critic
    a_i . b_j / sqrt(h), this is the matched-pair mean minus the
    all-pairs mean, mean_i a_i . b_i - mean_ij a_i . b_j, which equals
    sum_i (a_i - a_mean) . b_i / (n sqrt(h)). It is computed in
    cross-covariance form, sum(p1 * (M p2)) / (n sqrt(h)) with
    M = (s1 - s1_mean)^T s2: one n-row product in the forward and two in
    the backward (for s1 and s2); everything else works on the small M,
    and when the samples are constants nothing n-sized is taped.
    Centring keeps it invariant to adding a constant row to either set.
    Zero when either projection is zero or one side is constant.
    """
    if s1.shape[0] != s2.shape[0]:
        raise LossError(f"sample count mismatch: {s1.shape} vs {s2.shape}")
    n = s1.shape[0]
    if n == 0:
        raise LossError("club_estimate: no samples")
    h = p1.shape[1]
    s1_mean = ad.matmul(Tensor(np.full((1, n), 1.0 / n)), s1)
    M = ad.matmul(ad.transpose(ad.sub(s1, s1_mean)), s2)
    return ad.mul(ad.tsum(ad.mul(ad.matmul(M, p2), p1)), 1.0 / (n * np.sqrt(h)))


def recon_cind_loss(z_sample: Tensor, X: Tensor, model: TideModel) -> Tensor:
    """Feature-reconstruction surrogate: mean squared error of X-hat."""
    return ad.mse(reconstruct(z_sample, model), X)


def energy_reg_loss(e_id: Tensor, e_ood: Tensor, t_id: float, t_ood: float
                    ) -> Tensor:
    """Squared-hinge margin penalty on ID and exposure-OOD energies.

    Penalizes ID energies above t_id and exposure energies below t_ood,
    so training pushes each population to its side of the detector,
    which scores high energy as OOD (Liu et al., NeurIPS 2020).
    """
    if t_id > t_ood:
        raise LossError(f"t_id={t_id} must not exceed t_ood={t_ood}")
    if e_id.shape[0] == 0 or e_ood.shape[0] == 0:
        raise LossError("energy_reg_loss: empty score set")
    id_hinge = ad.relu(ad.sub(e_id, t_id))
    ood_hinge = ad.relu(ad.sub(t_ood, e_ood))
    return ad.add(ad.tmean(ad.mul(id_hinge, id_hinge)),
                  ad.tmean(ad.mul(ood_hinge, ood_hinge)))


# Each loss term's weight (a config field; None weighs 1) and the
# networks it feeds. The fused scalar carries each term once;
# restricting its gradient to one network's parameters reproduces that
# network's routed total:
#
#     Z <- vib_z + lambda_cind*cind + a1*pmi_zv + a2*pmi_zq [+ lambda_oe*ereg]
#     V <- vib_v + a1*pmi_zv + a3*pmi_vq
#     Q <- vib_q + a2*pmi_zq + a3*pmi_vq
TERMS = {
    "vib_z": (None, "z"),
    "vib_v": (None, "v"),
    "vib_q": (None, "q"),
    "cind": ("lambda_cind", "z"),
    "pmi_zv": ("alpha1", "zv"),
    "pmi_zq": ("alpha2", "zq"),
    "pmi_vq": ("alpha3", "vq"),
    "energy_reg": ("lambda_oe", "z"),
}


def tide_total(components: dict[str, Tensor | None], config
               ) -> tuple[Tensor, dict[str, float]]:
    """Fuse the components into one backward target and route the totals.

    ``components`` may hold any ``TERMS`` key; missing or None entries
    count as zero. Returns the fused scalar and the breakdown: each
    term's value, then ``total_z``/``total_v``/``total_q``, the routed
    per-network totals (all to minimize).
    """
    fused: Tensor | None = None
    breakdown: dict[str, float] = {}
    totals = dict.fromkeys("zvq", 0.0)
    for name, (field, nets) in TERMS.items():
        t = components.get(name)
        w = 1.0 if field is None else getattr(config, field)
        breakdown[name] = float(t.item()) if t is not None else 0.0
        for net in nets:
            totals[net] += w * breakdown[name]
        if t is None or w == 0.0:
            continue
        term = ad.mul(t, w) if w != 1.0 else t
        fused = term if fused is None else ad.add(fused, term)
    if fused is None:
        raise LossError("tide_total: no loss components")
    breakdown.update({f"total_{net}": total for net, total in totals.items()})
    return fused, breakdown


def train_club_head(s1: np.ndarray, s2: np.ndarray, seed: int = 0,
                    steps: int = 200, lr: float = 0.05) -> float:
    """Fit the pair projections by ascent and return the final estimate.

    Standalone helper for measuring dependence between two fixed sample
    sets: ``steps`` calls of the trainer's critic ascent step, then the
    estimate at the fitted projections.
    """
    # Late import: trainer imports this module and owns the ascent step.
    from .trainer import AdamState, critic_ascent_step

    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.shape[0] != s2.shape[0]:
        raise LossError("train_club_head: sample count mismatch")
    d1, d2 = s1.shape[1], s2.shape[1]
    rng = np.random.default_rng([seed, 5])
    p1 = Tensor(glorot(rng, d1, d1), requires_grad=True)
    p2 = Tensor(glorot(rng, d2, d1), requires_grad=True)
    params, state = {"p1": p1, "p2": p2}, AdamState()
    for _ in range(steps):
        critic_ascent_step([(s1, s2, p1, p2)], params, state, lr)
    with ad.no_grad():
        return club_estimate(Tensor(s1), Tensor(s2), p1, p2).item()
