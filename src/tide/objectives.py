"""Loss terms: each network's variational bottleneck (its cross-entropy
and KL, two separate terms), the conditional-independence surrogate,
the pairwise contrastive dependence estimate (in closed form from the
samples' cross-covariance, with a bilinear critic fitted by ridge least
squares), the energy margin regularizer, and their routing into
per-network totals. The energies the margin compares, their propagation
and its operator live in ``detection``, the same code that scores nodes
at evaluation.

The loss functions build on the autodiff primitives and return 1x1
tensors (``vib_loss`` a pair of them), so they compose into one fused
backward pass; ``fit_critic`` works on detached arrays, off the tape.
Each term ends in one fused tape entry (``softmax_cross_entropy``,
``gaussian_kl``, ``mse``, ``centred_bilinear`` for the dependence
estimate, ``squared_hinges`` for the margin). ``TERMS`` is the single
place that knows each term's weight, beta included, and which networks
it feeds; ``tide_total`` alone applies the weights, fusing every term
into one ``weighted_sum`` entry whose gradient restrictions do the
routing. The logged per-term values and routed totals are the
trainer's.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import TideModel, LatentDistribution, reconstruct


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
    hot = one_hot(np.asarray(labels)[mask], logits.shape[-1])
    return ad.softmax_cross_entropy(sub, hot)


def kl_standard_normal(dist: LatentDistribution) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, I)) summed over dims, averaged over rows.

    Closed form: -1/2 * sum(1 + log sigma^2 - mu^2 - sigma^2).
    """
    if dist.mu.shape[-2] == 0:
        raise LossError("kl_standard_normal: empty distribution")
    return ad.gaussian_kl(dist.mu, dist.sigma)


def vib_loss(logits: Tensor, labels: np.ndarray, mask: np.ndarray,
             dist: LatentDistribution) -> tuple[Tensor, Tensor]:
    """The bottleneck's supervised and compression terms on the mask:
    (cross-entropy, KL); ``TERMS`` weighs the KL by the network's beta."""
    mask = np.asarray(mask, dtype=np.int64)
    return (cross_entropy(logits, labels, mask),
            kl_standard_normal(dist.rows(mask)))


# The critic fit's ridge per sample: lambda = CRITIC_RIDGE * n.
CRITIC_RIDGE = 1e-3


def fit_critic(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """``club_estimate``'s critic for two n-row sample arrays.

    CLUB (Cheng et al., ICML 2020) fits its variational q(s2 | s1) by
    likelihood; it does not ascend the bound. For a linear-Gaussian q
    that fit is ridge least squares of s2 on a = s1 - s1_mean,
    P = (a^T a + lambda I)^-1 a^T s2, and the estimate at P is
    tr(s2^T a P) / (n sqrt(h)) >= 0, but only on the samples P was fitted
    to. Training reads each critic one step late, on the next epoch's
    samples, so a logged ``pmi_*`` can read slightly negative.
    """
    n = s1.shape[0]
    a = s1 - s1.mean(0)
    return np.linalg.solve(a.T @ a + CRITIC_RIDGE * n * np.eye(a.shape[1]),
                           a.T @ s2)


def club_estimate(s1: Tensor, s2: Tensor, p) -> Tensor:
    """Contrastive dependence estimate between two sample sets.

    With the projection a = s1 p (``p`` is d1 x d2, usually
    ``fit_critic``'s) and the bilinear critic a_i . s2_j / sqrt(h),
    h = d2, this is the matched-pair mean minus the all-pairs mean,
    mean_i a_i . s2_i - mean_ij a_i . s2_j, which equals
    sum_i (a_i - a_mean) . s2_i / (n sqrt(h)). It is computed in
    cross-covariance form, sum(M * p) / (n sqrt(h)) with
    M = (s1 - s1_mean)^T s2: one n-row product in the forward and two in
    the backward (for s1 and s2); everything else works on the small M.
    It is one tape entry, ``centred_bilinear``. Centring keeps it
    invariant to adding a constant row to either set. Zero when ``p`` is
    zero or one side is constant.
    """
    if s1.shape[-2] != s2.shape[-2]:
        raise LossError(f"sample count mismatch: {s1.shape} vs {s2.shape}")
    if s1.shape[-2] == 0:
        raise LossError("club_estimate: no samples")
    return ad.centred_bilinear(s1, s2, p)


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
    if e_id.shape[-2] == 0 or e_ood.shape[-2] == 0:
        raise LossError("energy_reg_loss: empty score set")
    return ad.squared_hinges(e_id, e_ood, t_id, t_ood)


# Each loss term's weight (a config field; None weighs 1) and the
# networks it feeds. The fused scalar carries each term once;
# restricting its gradient to one network's parameters reproduces that
# network's routed total:
#
#     Z <- ce_z + beta_z*kl_z + lambda_cind*cind + a1*pmi_zv + a2*pmi_zq
#          [+ lambda_oe*ereg]
#     V <- ce_v + beta_v*kl_v + a1*pmi_zv + a3*pmi_vq
#     Q <- ce_q + beta_q*kl_q + a2*pmi_zq + a3*pmi_vq
TERMS = {
    "ce_z": (None, "z"),
    "kl_z": ("beta_z", "z"),
    "ce_v": (None, "v"),
    "kl_v": ("beta_v", "v"),
    "ce_q": (None, "q"),
    "kl_q": ("beta_q", "q"),
    "cind": ("lambda_cind", "z"),
    "pmi_zv": ("alpha1", "zv"),
    "pmi_zq": ("alpha2", "zq"),
    "pmi_vq": ("alpha3", "vq"),
    "energy_reg": ("lambda_oe", "z"),
}


def term_weight(name: str, config) -> float:
    """``TERMS`` term ``name``'s weight under ``config``."""
    field = TERMS[name][0]
    return 1.0 if field is None else getattr(config, field)


def tide_total(components: dict[str, Tensor], config) -> Tensor:
    """Fuse the components into one backward target, the weighted sum of
    every ``TERMS`` term present with a nonzero weight.

    ``components`` may hold any ``TERMS`` key; a missing one counts as
    zero. The terms are 1x1 tensors, or off the tape stacks of them,
    which the others broadcast against.
    """
    terms: list[Tensor] = []
    weights: list[float] = []
    for name in TERMS:
        t = components.get(name)
        w = term_weight(name, config)
        if t is not None and w != 0.0:
            terms.append(t)
            weights.append(w)
    if not terms:
        raise LossError("tide_total: no loss components")
    return ad.weighted_sum(terms, weights)
