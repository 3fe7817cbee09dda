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
per direction and reads all six components off one forward per
parameter, 28 in all, run on the stack of that parameter's 2 x size
perturbed values. Each rebuilds only what reads the parameter's network
(and within it, only the layers from the parameter on are stacked) and
takes the rest from one untaped forward at the probe point; each of its
slices has the bits of the 2-D forward with that one entry moved. A
check per parameter shows that scoping exact, so no term, audited or
not, reads a network ``TERMS`` does not route it to; and a component
gets exactly 0 on a parameter it never reads, so no audited term leaks
gradient.

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


def audit_probe(seed: int) -> tuple[Callable[[str | None], dict[str, Tensor]],
                                   dict[str, Tensor]]:
    """The probe problem at ``seed``: its components, as
    ``check_gradients_params`` reads them (``name`` scopes the forward to
    that parameter's network; None runs it in full), and the probe
    model's parameters."""
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
        base = forward_components(model, g, config, eps, critics, exposure)
    network = {name: net for net in ("z", "v", "q", "recon")
               for name in model.names_in(net)}

    def components(name: str | None) -> dict[str, Tensor]:
        comps = forward_components(
            model, g, config, eps, critics, exposure,
            None if name is None else (*base, network[name]))[0]
        return {"cross_entropy": comps["ce_z"], "kl": comps["kl_z"],
                "club": comps["pmi_zv"], "recon": comps["cind"],
                "energy_reg": comps["energy_reg"],
                "tide_total": tide_total(comps, config)}

    return components, model.params


def gradient_check_report(seed: int = 0, h: float = 1e-5) -> dict[str, float]:
    """Max relative gradient error per loss component, worst entry wins."""
    errors = check_gradients_params(*audit_probe(seed), h=h)
    return {name: max(errs.values()) for name, errs in errors.items()}
