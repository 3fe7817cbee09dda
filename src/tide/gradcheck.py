"""Finite-difference verification of every loss component's gradients.

Each check closes over a tiny frozen probe problem (10-node sampled
graph, 8-wide model, fixed reparameterization noise) and compares the
tape's gradients against central differences, parameter entry by
parameter entry. The probe dimensions keep the slowest check (the full
routed objective, ~1.3k parameters, two evaluations each) well under
the 30 s budget. Every check builds its networks through the trainer's
``branch``, and the energy_reg and tide_total checks call the trainer's
own ``energy_margin`` and ``forward_components``, so the audited
objective is the one that trains.

The margin thresholds sit inside the initial energy range, so both
hinges have active rows at the probe point: ID energies above t_id and
exposure energies below t_ood. The squared hinge is C1, so finite
differences stay accurate as long as no probed energy sits within the
step size of a threshold (checked at seed 0 by the test suite).
"""

from __future__ import annotations

from .autodiff import Tensor, check_gradients_params
from .model import NOISE_STREAM, build_model, component_rng
from .objectives import (club_estimate, cross_entropy, kl_standard_normal,
                         recon_cind_loss, tide_total)
from .shift import CsbmParams, ShiftSpec, apply_feature_shift, gen_csbm
from .trainer import TideConfig, branch, energy_margin, forward_components

# The probe: nodes, feature width, hidden width and classes.
PROBE_N, PROBE_D, PROBE_HIDDEN, PROBE_C = 10, 5, 8, 3


def gradient_check_report(seed: int = 0, h: float = 1e-5) -> dict[str, float]:
    """Max relative gradient error per loss component, worst entry wins."""
    g = gen_csbm(CsbmParams(n=PROBE_N, C=PROBE_C, d=PROBE_D, p_in=0.6,
                            p_out=0.15, mu_sep=2.0, noise=1.0, seed=seed))
    exposure = apply_feature_shift(
        g, ShiftSpec(kind="feature", intensity=0.8, seed=seed + 1))
    model = build_model(PROBE_D, PROBE_HIDDEN, PROBE_C, seed)
    # Thresholds straddle the initial energies (about -log C) so some ID
    # rows sit above t_id and some exposure rows below t_ood.
    config = TideConfig(hidden=PROBE_HIDDEN, seed=seed, objective_mode="tide",
                        t_id=-1.15, t_ood=-1.05, epochs=0)
    eps = {tag: component_rng(seed, NOISE_STREAM[tag]).standard_normal(
               (PROBE_N, PROBE_HIDDEN))
           for tag in ("z", "v", "q", "z_exposure")}
    train = g.mask("train")

    def params(*groups: str) -> dict[str, Tensor]:
        return {nm: model[nm] for nm in model.names_in(*groups)}

    def sampled(tag: str):
        return branch(model, g, tag, eps[tag])

    z_enc = {nm: p for nm, p in params("z").items() if nm.startswith("z_enc.")}
    checks = {
        "cross_entropy": (
            lambda: cross_entropy(sampled("z")[2], g.y, train), params("z")),
        "kl": (
            lambda: kl_standard_normal(branch(model, g, "z")[0].rows(train)),
            z_enc),
        "club": (
            lambda: club_estimate(sampled("z")[1], sampled("v")[1],
                                  model["club_zv.p1"], model["club_zv.p2"]),
            {**params("z", "v"), "club_zv.p1": model["club_zv.p1"],
             "club_zv.p2": model["club_zv.p2"]}),
        "recon": (
            lambda: recon_cind_loss(sampled("z")[1], Tensor(g.X), model),
            {**z_enc, **params("recon")}),
        "energy_reg": (
            lambda: energy_margin(sampled("z")[2], model, g, config, exposure,
                                  eps["z_exposure"]),
            params("z")),
        "tide_total": (
            lambda: tide_total(forward_components(model, g, config, eps,
                                                  exposure)[0], config)[0],
            model.params),
    }

    report: dict[str, float] = {}
    for name, (fn, probed) in checks.items():
        report[name] = max(check_gradients_params(fn, probed, h=h).values())
    return report
