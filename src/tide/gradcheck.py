"""Finite-difference verification of every loss component's gradients.

The audit closes over a tiny frozen probe problem (10-node sampled
graph, 8-wide model, fixed reparameterization noise) and compares the
tape's gradients against central differences, parameter entry by
parameter entry. All six components come from one call of the
trainer's own ``forward_components`` in tide mode with its energy
margin: the joint network's cross-entropy and KL (the tensors
``ce_z`` and ``kl_z`` that train), the joint/feature dependence
estimate, the reconstruction surrogate, the energy margin and the
fused routed total. So the audited objective is the one that trains,
with its critics held fixed as in training: ``fit_critics`` fits them
once, from one untaped forward at the probe point. (A fit inside each
forward would depend on the parameters off the tape, so the
differences would check another function.)
``check_gradients_params`` checks every component against every
parameter: it perturbs each of the model's 920 parameter entries once
per direction and reads all six components off one full forward per
parameter, 28 in all, run on the stack of that parameter's 2 x size
perturbed values (the layers before the parameter stay 2-D); each of
its slices has the bits of the 2-D forward with that one entry moved.
A component gets exactly 0 on a parameter it never reads, so no
audited term leaks gradient, and a read of a parameter off the tape
shows as a central difference the tape's gradient misses. Which
networks each ``TERMS`` term trains is a property of the source, not
of the probe: the test suite pins it, term by term.

The margin thresholds sit inside the initial energy range, so both
hinges have active rows at the probe point: ID energies above t_id and
exposure energies below t_ood. The squared hinge is C1, so finite
differences stay accurate as long as no probed energy sits within the
step size of a threshold (checked at seed 0 by the test suite).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor, check_gradients_params, no_grad
from .model import NOISE_STREAM, build_model, component_rng
from .objectives import tide_total
from .shift import CsbmParams, ShiftSpec, apply_feature_shift, gen_csbm
from .trainer import (CRITIC_PAIRS, TideConfig, fit_critics,
                      forward_components)

# The probe: nodes, feature width, hidden width and classes.
PROBE_N, PROBE_D, PROBE_HIDDEN, PROBE_C = 10, 5, 8, 3


def audit_probe(seed: int) -> tuple[Callable[[], dict[str, Tensor]],
                                   dict[str, Tensor]]:
    """The probe problem at ``seed``: its components, as
    ``check_gradients_params`` reads them, and the probe model's
    parameters."""
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
    zero = dict.fromkeys(CRITIC_PAIRS, np.zeros((PROBE_HIDDEN, PROBE_HIDDEN)))
    with no_grad():
        critics = fit_critics(
            forward_components(model, g, config, eps, zero, exposure)[1])

    def components() -> dict[str, Tensor]:
        comps = forward_components(model, g, config, eps, critics, exposure)[0]
        return {"cross_entropy": comps["ce_z"], "kl": comps["kl_z"],
                "club": comps["pmi_zv"], "recon": comps["cind"],
                "energy_reg": comps["energy_reg"],
                "tide_total": tide_total(comps, config)}

    return components, model.params


def gradient_check_report(seed: int = 0, h: float = 1e-5) -> dict[str, float]:
    """Max relative gradient error per loss component, worst entry wins."""
    errors = check_gradients_params(*audit_probe(seed), h=h)
    return {name: max(errs.values()) for name, errs in errors.items()}
