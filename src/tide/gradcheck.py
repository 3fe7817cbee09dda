"""Finite-difference verification of every loss component's gradients.

Each check closes over a tiny frozen probe problem (10-node sampled
graph, 8-wide model, fixed reparameterization noise) and compares the
tape's gradients against central differences, parameter entry by
parameter entry. The probe dimensions keep the slowest check (the full
routed objective, ~1.3k parameters, two evaluations each) well under
the 30 s budget. The energy_reg and tide_total checks call the
trainer's own ``energy_margin`` and ``forward_components``, so the
audited objective is the one that trains.

The margin thresholds are placed just inside the initial energy range
so both sides of the squared hinge have active terms; the hinge is C1,
so finite differences stay accurate as long as no probed energy sits
within the step size of a threshold (true for the frozen seeds).
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Tensor, check_gradients_params
from .graph import Graph
from .model import (NOISE_STREAM, build_model, component_rng, encode_feature,
                    encode_joint, encode_structure, predict_logits,
                    reparameterize)
from .objectives import (club_estimate, cross_entropy, kl_standard_normal,
                         recon_cind_loss, tide_total)
from .shift import CsbmParams, ShiftSpec, apply_feature_shift, gen_csbm
from .trainer import TideConfig, energy_margin, forward_components


@dataclass
class _Probe:
    """Frozen inputs for all checks: graph, model, config, the exposure
    graph and the noise. Each graph builds its own operators once."""

    g: Graph
    model: object
    config: TideConfig
    exposure: Graph
    eps: dict


def _build_probe(seed: int, n: int, d: int, hidden: int, C: int) -> _Probe:
    g = gen_csbm(CsbmParams(n=n, C=C, d=d, p_in=0.6, p_out=0.15,
                            mu_sep=2.0, noise=1.0, seed=seed))
    exposure = apply_feature_shift(
        g, ShiftSpec(kind="feature", intensity=0.8, seed=seed + 1))
    model = build_model(d, hidden, C, seed)
    # Thresholds straddle the initial energies (about -log C) so both
    # hinge sides carry nonzero terms at the probe point.
    config = TideConfig(hidden=hidden, seed=seed, objective_mode="tide",
                        t_id=-1.15, t_ood=-1.05, epochs=0)
    eps = {tag: component_rng(seed, NOISE_STREAM[tag]).standard_normal((n, hidden))
           for tag in ("z", "v", "q", "z_exposure")}
    return _Probe(g=g, model=model, config=config, exposure=exposure, eps=eps)


def _params(probe: _Probe, *groups: str) -> dict[str, Tensor]:
    names = probe.model.names_in(*groups)
    return {n: probe.model.params[n] for n in names}


def _sample(probe: _Probe, tag: str):
    g = probe.g
    if tag == "z":
        dist = encode_joint(Tensor(g.X), g.adjacency, probe.model)
    elif tag == "v":
        dist = encode_feature(Tensor(g.X), probe.model)
    else:
        dist = encode_structure(g.adjacency, probe.model)
    return reparameterize(dist, probe.eps[tag])


def _training_objective(probe: _Probe) -> Tensor:
    comps, _ = forward_components(probe.model, probe.g, probe.config,
                                  probe.eps, probe.exposure)
    return tide_total(comps, probe.config)[0]


def gradient_check_report(seed: int = 0, h: float = 1e-5, n: int = 10,
                          d: int = 5, hidden: int = 8, C: int = 3
                          ) -> dict[str, float]:
    """Max relative gradient error per loss component, worst entry wins."""
    probe = _build_probe(seed, n, d, hidden, C)
    g, model = probe.g, probe.model
    train = g.mask("train")

    checks = {
        "cross_entropy": (
            lambda: cross_entropy(
                predict_logits(_sample(probe, "z"), g.adjacency, model, "z"),
                g.y, train),
            _params(probe, "z")),
        "kl": (
            lambda: kl_standard_normal(
                encode_joint(Tensor(g.X), g.adjacency, model).rows(train)),
            {nm: p for nm, p in _params(probe, "z").items()
             if nm.startswith("z_enc.")}),
        "club": (
            lambda: club_estimate(_sample(probe, "z"), _sample(probe, "v"),
                                  model["club_zv.p1"], model["club_zv.p2"]),
            {**_params(probe, "z"), **_params(probe, "v"),
             "club_zv.p1": model["club_zv.p1"],
             "club_zv.p2": model["club_zv.p2"]}),
        "recon": (
            lambda: recon_cind_loss(_sample(probe, "z"), Tensor(g.X), model),
            {**{nm: p for nm, p in _params(probe, "z").items()
                if nm.startswith("z_enc.")},
             **_params(probe, "recon")}),
        "energy_reg": (
            lambda: energy_margin(
                predict_logits(_sample(probe, "z"), g.adjacency, model, "z"),
                model, g, probe.config, probe.exposure, probe.eps["z_exposure"]),
            _params(probe, "z")),
        "tide_total": (
            lambda: _training_objective(probe),
            dict(model.parameters())),
    }

    report: dict[str, float] = {}
    for name, (fn, params) in checks.items():
        per_param = check_gradients_params(fn, params, h=h)
        report[name] = max(per_param.values())
    return report
