"""Joint training of the three networks.

One epoch is one full-graph forward of the branches the objective
trains (``MODE_GROUPS``), one fused backward whose per-network gradient
restriction implements the loss routing, an Adam step on those
branches' parameters, and (in tide mode) an ascent step on the pair
projections so they keep acting as dependence critics.
``forward_components`` is that forward; the gradient audit calls it
too, so the audited objective is the trained one.

Runs are bit-deterministic under a fixed seed: initialization and
per-epoch noise come from per-component seed streams, and training
consumes them in a fixed order.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .detection import propagation_operator
from .graph import Graph, SparseMatrix, sym_normalized_adjacency
from .model import (NOISE_STREAM, TideModel, build_model, component_rng,
                    encode_feature, encode_joint, encode_structure,
                    joint_logits_at_mean, predict_logits, reparameterize)
from .objectives import (club_estimate, cross_entropy, energy_reg_loss,
                         energy_tensor, propagate_energy_tensor,
                         recon_cind_loss, tide_total, vib_loss)

# Parameter groups each objective trains: the training forward builds
# only these branches and Adam steps only these groups. In sl/ib/ib_cind
# nothing couples V or Q to the joint classifier, so they stay at their
# initial values. The critic projections ("club") get tide's separate
# ascent step.
MODE_GROUPS = {
    "sl": ("z",),
    "ib": ("z",),
    "ib_cind": ("z", "recon"),
    "tide": ("z", "v", "q", "recon"),
}
OBJECTIVE_MODES = tuple(MODE_GROUPS)


class ConfigError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


def _has_type(value, kind: str) -> bool:
    """JSON-level type check for one config field (bool is not a number)."""
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "str":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    return isinstance(value, int if kind == "int" else (int, float))


@dataclass(frozen=True)
class TideConfig:
    """Every knob of a training run; maps 1:1 onto the config JSON."""

    beta_z: float = 1e-3
    beta_v: float = 1e-3
    beta_q: float = 1e-3
    alpha1: float = 1e-2
    alpha2: float = 1e-2
    alpha3: float = 1e-2
    lambda_cind: float = 1e-2
    lambda_oe: float = 1.0
    prop_alpha: float = 0.5
    prop_k: int = 2
    t_id: float = -7.0
    t_ood: float = -2.0
    lr: float = 1e-2
    epochs: int = 200
    hidden: int = 64
    seed: int = 0
    exposure_enabled: bool = False
    ereg_flip: bool = False
    objective_mode: str = "tide"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(
                    f"{f.name} must be of type {f.type}, got {value!r}")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ConfigError(
                f"objective_mode must be one of {OBJECTIVE_MODES}, "
                f"got {self.objective_mode!r}")
        for name in ("beta_z", "beta_v", "beta_q", "alpha1", "alpha2",
                     "alpha3", "lambda_cind", "lambda_oe"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0.0 <= self.prop_alpha <= 1.0):
            raise ConfigError(f"prop_alpha must be in [0, 1], got {self.prop_alpha}")
        if self.prop_k < 0:
            raise ConfigError("prop_k must be >= 0")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if self.exposure_enabled and not (self.t_id < self.t_ood):
            raise ConfigError(
                f"exposure needs t_id < t_ood, got {self.t_id} >= {self.t_ood}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TideConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "TideConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: {err}") from err
        return cls.from_dict(doc)


@dataclass
class AdamState:
    """Per-parameter moments and step counts (beta1=0.9, beta2=0.999)."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """Textbook bias-corrected Adam, in place."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        if name not in state.m:
            state.m[name] = np.zeros(p.shape)
            state.v[name] = np.zeros(p.shape)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1 ** t)
        v_hat = state.v[name] / (1 - state.beta2 ** t)
        p.values -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class TrainResult:
    model: TideModel
    log: list[dict]
    best_epoch: int
    best_val_acc: float


def _accuracy(logits: np.ndarray, y: np.ndarray, mask: np.ndarray) -> float:
    if mask.size == 0:
        return float("nan")
    preds = logits[mask].argmax(axis=1)
    return float(np.mean(preds == y[mask]))


@dataclass(frozen=True)
class ExposureInputs:
    """Fixed inputs of the energy margin: the ID propagation operator and
    the auxiliary OOD graph whose train rows are pushed away."""

    prop_id: SparseMatrix
    X: Tensor
    A: SparseMatrix
    prop: SparseMatrix
    train: np.ndarray

    @classmethod
    def build(cls, g: Graph, exposure_graph: Graph) -> "ExposureInputs":
        train = exposure_graph.mask("train")
        if train.size == 0:
            raise TrainingError("exposure graph has no train mask")
        return cls(prop_id=propagation_operator(g), X=Tensor(exposure_graph.X),
                   A=sym_normalized_adjacency(exposure_graph),
                   prop=propagation_operator(exposure_graph), train=train)


@contextlib.contextmanager
def _component(name: str):
    """Report a numerics failure inside one loss term by the term's name."""
    try:
        yield
    except (ad.NumericsError, ad.DomainError) as err:
        raise TrainingError(f"component {name}: {err}") from err


def energy_margin(logits_z: Tensor, model: TideModel, g: Graph,
                  config: TideConfig, exposure: ExposureInputs,
                  eps: np.ndarray | None) -> Tensor:
    """Margin between the propagated energies of the ID train rows and of
    the exposure graph's train rows. ``eps`` is the exposure pass's
    reparameterization noise; None runs it on the posterior mean."""
    e_id = propagate_energy_tensor(energy_tensor(logits_z), exposure.prop_id,
                                   config.prop_alpha, config.prop_k)
    dist = encode_joint(exposure.X, exposure.A, model)
    sample = dist.mu if eps is None else reparameterize(dist, eps)
    logits = predict_logits(sample, exposure.A, model, "z")
    e_ood = propagate_energy_tensor(energy_tensor(logits), exposure.prop,
                                    config.prop_alpha, config.prop_k)
    return energy_reg_loss(ad.gather_rows(e_id, g.mask("train")),
                           ad.gather_rows(e_ood, exposure.train),
                           config.t_id, config.t_ood, config.ereg_flip)


def forward_components(model: TideModel, X: Tensor, A: SparseMatrix,
                       g: Graph, config: TideConfig, eps: dict[str, np.ndarray],
                       exposure: ExposureInputs | None = None
                       ) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
    """One training forward: the loss terms of ``config.objective_mode``.

    Only the branches in ``MODE_GROUPS`` for the mode are built. ``eps``
    maps each noise stream the mode samples ("z", "v", "q", "z_exposure";
    sl runs on posterior means) to its draw for this forward. Returns
    the components ``tide_total`` fuses and each built branch's sample.
    """
    mode = config.objective_mode
    groups = MODE_GROUPS[mode]
    y, train = g.y, g.mask("train")
    comps: dict[str, Tensor] = {}

    dist_z = encode_joint(X, A, model)
    samples = {"z": dist_z.mu if mode == "sl"
               else reparameterize(dist_z, eps["z"])}
    logits_z = predict_logits(samples["z"], A, model, "z")
    with _component("vib_z"):
        comps["vib_z"] = (cross_entropy(logits_z, y, train) if mode == "sl"
                          else vib_loss(logits_z, y, train, dist_z, config.beta_z))
    if "v" in groups:
        dist_v = encode_feature(X, model)
        samples["v"] = reparameterize(dist_v, eps["v"])
        logits_v = predict_logits(samples["v"], None, model, "v")
        with _component("vib_v"):
            comps["vib_v"] = vib_loss(logits_v, y, train, dist_v, config.beta_v)
    if "q" in groups:
        dist_q = encode_structure(A, model)
        samples["q"] = reparameterize(dist_q, eps["q"])
        logits_q = predict_logits(samples["q"], A, model, "q")
        with _component("vib_q"):
            comps["vib_q"] = vib_loss(logits_q, y, train, dist_q, config.beta_q)
    if "recon" in groups:
        with _component("cind"):
            comps["cind"] = recon_cind_loss(samples["z"], X, model)
    if mode == "tide":
        for pair in ("zv", "zq", "vq"):
            with _component(f"pmi_{pair}"):
                comps[f"pmi_{pair}"] = club_estimate(
                    samples[pair[0]], samples[pair[1]],
                    model[f"club_{pair}.p1"], model[f"club_{pair}.p2"])
    if exposure is not None:
        with _component("energy_reg"):
            comps["energy_reg"] = energy_margin(logits_z, model, g, config,
                                                exposure, eps.get("z_exposure"))
    return comps, samples


def train_tide(g: Graph, config: TideConfig,
               exposure_graph: Graph | None = None) -> TrainResult:
    """Run the full optimization loop and return the best-validation model.

    ``exposure_graph`` supplies auxiliary OOD nodes (its train mask) for
    the energy margin term and is required iff exposure is enabled.
    Model selection: highest validation accuracy, latest epoch wins
    ties; with no val mask the final parameters are kept.
    """
    config.validate()
    mode = config.objective_mode
    train_mask = g.mask("train")
    if train_mask.size == 0:
        raise TrainingError("graph has no train mask")
    if np.any(g.y[train_mask] < 0):
        raise TrainingError("unlabeled node in train mask")
    if config.exposure_enabled and exposure_graph is None:
        raise TrainingError("exposure_enabled requires an exposure graph")

    A = sym_normalized_adjacency(g)
    X = Tensor(g.X)
    val_mask = g.mask("val")
    model = build_model(g.d, config.hidden, g.C, config.seed)
    state = AdamState()
    names = model.names_in(*MODE_GROUPS[mode])
    club_names = model.names_in("club")
    exposure = None
    if config.exposure_enabled:
        exposure = ExposureInputs.build(g, exposure_graph)
    # A noise stream per sampled branch plus the exposure pass; sl runs
    # on posterior means and draws none.
    streams = [] if mode == "sl" else [t for t in MODE_GROUPS[mode]
                                       if t in NOISE_STREAM]
    if streams and config.exposure_enabled:
        streams.append("z_exposure")
    noise = {tag: component_rng(config.seed, NOISE_STREAM[tag])
             for tag in streams}
    noise_shape = {tag: ((exposure_graph if tag == "z_exposure" else g).n,
                         config.hidden) for tag in noise}

    log: list[dict] = []
    best_acc = -np.inf
    best_snapshot = None
    best_epoch = -1

    for epoch in range(config.epochs):
        tick = time.perf_counter()
        model.zero_grad()
        ad.clear_tape()
        eps = {tag: rng.standard_normal(noise_shape[tag])
               for tag, rng in noise.items()}
        try:
            comps, samples = forward_components(model, X, A, g, config, eps,
                                                exposure)
            fused, breakdown = tide_total(comps, config)
            if not breakdown.finite():
                raise TrainingError("non-finite loss component")
            with _component("backward"):
                ad.backward(fused, wrt=[model.params[n] for n in names])
        except TrainingError as err:
            raise TrainingError(f"epoch {epoch}: {err}") from err
        except (ad.NumericsError, ad.DomainError) as err:
            # Overflow in an encoder/head forward, outside the per-loss guards.
            raise TrainingError(f"epoch {epoch}: forward pass: {err}") from err

        adam_step({n: model.params[n] for n in names},
                  {n: model.params[n].grad for n in names},
                  state, config.lr)

        if mode == "tide":
            _critic_step(model, state, config.lr, samples, club_names)

        try:
            val_logits = joint_logits_at_mean(model, g, A)
        except (ad.NumericsError, ad.DomainError) as err:
            raise TrainingError(f"epoch {epoch}: validation pass: {err}") from err
        val_acc = _accuracy(val_logits, g.y, val_mask)
        # >= keeps the newest model on a val-accuracy plateau, so the
        # restored parameters reflect a converged optimizer state.
        if val_mask.size and val_acc >= best_acc:
            best_acc = val_acc
            best_snapshot = model.snapshot()
            best_epoch = epoch
        log.append({
            "epoch": epoch,
            "loss": breakdown.to_dict(),
            "val_acc": val_acc,
            "wall_time_s": time.perf_counter() - tick,
        })

    if best_snapshot is not None:
        model.restore(best_snapshot)
    return TrainResult(model=model, log=log, best_epoch=best_epoch,
                       best_val_acc=float(best_acc) if np.isfinite(best_acc) else float("nan"))


def _critic_step(model: TideModel, state: AdamState, lr: float,
                 samples: dict[str, Tensor], club_names: list[str]) -> None:
    """Ascent on the pair projections against frozen samples."""
    for n in club_names:
        model.params[n].grad = None
    ad.clear_tape()
    sz, sv, sq = (Tensor(samples[t].values) for t in ("z", "v", "q"))
    total = ad.add(
        ad.add(club_estimate(sz, sv, model["club_zv.p1"], model["club_zv.p2"]),
               club_estimate(sz, sq, model["club_zq.p1"], model["club_zq.p2"])),
        club_estimate(sv, sq, model["club_vq.p1"], model["club_vq.p2"]))
    ad.backward(total, wrt=[model.params[n] for n in club_names])
    adam_step({n: model.params[n] for n in club_names},
              {n: -model.params[n].grad for n in club_names},
              state, lr)


def write_train_log(path, records: list[dict]) -> None:
    path = Path(path)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
