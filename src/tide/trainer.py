"""Joint training of the three networks.

``branch`` is a network's one forward (posterior, sample, head logits).
``forward_components``, the training forward, runs it for each network
the objective trains (``MODE_GROUPS``) and adds that network's
bottleneck terms, its cross-entropy and KL (sl: the cross-entropy
alone, on the posterior mean, with no sigma head), then the couplings.
``objectives.TERMS`` weighs and routes every term, and each epoch's log
records each one. ``energy_margin`` runs ``branch`` on the exposure
graph. The gradient audit reads every component it checks off
``forward_components``, so the audited objective is the trained one.
One epoch is that forward, one fused backward whose per-network
gradient restriction implements the routing and an Adam step on those
branches' parameters. Tide's dependence penalties read fixed critics,
zero at first; after each step ``fit_critics`` refits them to that
epoch's detached samples, one step behind, as in CLUB's alternation.

An epoch holds only what its next step reads. The forward keeps of
each network a ``BranchOut`` (its sample, its head logits and, for the
joint network, its posterior mean), not its sigma, which dies with its
KL. Once the step
and the critic refit are done, the epoch's noise, branches, loss
tensors and gradients are freed, so between epochs training holds
only the parameters, the Adam moments, the critics, the best
snapshot and the log.

Validation reads the next forward: epoch t+1's forward runs on the
parameters epoch t's steps produced, so its joint branch already holds
epoch t's validation logits (sl: its own logits on the posterior mean;
the other modes: the joint head applied to that forward's posterior
mean, outside the tape). Epoch t is selected and logged there, before
the next step, and only the last epoch needs a separate
``joint_logits_at_mean`` pass.

Runs are bit-deterministic under a fixed seed: initialization and
per-epoch noise come from per-component seed streams, and training
consumes them in a fixed order.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .detection import energy_tensor, propagate_energy_tensor
from .graph import Graph, GraphError
from .model import (NOISE_STREAM, LatentDistribution, TideModel, build_model,
                    component_rng, encode_feature, encode_joint,
                    encode_structure, joint_logits_at_mean, predict_logits,
                    reparameterize)
from .objectives import (TERMS, club_estimate, cross_entropy, energy_reg_loss,
                         fit_critic, recon_cind_loss, term_weight, tide_total,
                         vib_loss)

# Parameter groups each objective trains: the training forward builds
# only these branches and Adam steps only these groups. In sl/ib/ib_cind
# nothing couples V or Q to the joint classifier, so they stay at their
# initial values.
MODE_GROUPS = {
    "sl": ("z",),
    "ib": ("z",),
    "ib_cind": ("z", "recon"),
    "tide": ("z", "v", "q", "recon"),
}
OBJECTIVE_MODES = tuple(MODE_GROUPS)
# The three variational networks: joint, feature-only, structure-only.
NETWORKS = ("z", "v", "q")
# Network pairs the tide dependence penalties couple, each with its critic.
CRITIC_PAIRS = ("zv", "zq", "vq")


class ConfigError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


def _has_type(value, kind: str) -> bool:
    """JSON-level type check for one config field (bool is not a number)."""
    if kind == "str":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    return isinstance(value, int if kind == "int" else float)


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
    objective_mode: str = "tide"

    def __post_init__(self):
        """Reject a bad value, whichever way the config was built: the
        constructor, ``from_dict`` or ``dataclasses.replace``."""
        for f in fields(self):
            value = getattr(self, f.name)
            # An int given for a float field is stored as that float, so
            # equal configs serialize, and hash, equal.
            if f.type == "float" and type(value) is int:
                try:
                    value = float(value)
                except OverflowError:
                    raise ConfigError(f"{f.name} must be finite") from None
                object.__setattr__(self, f.name, value)
            if not _has_type(value, f.type):
                raise ConfigError(
                    f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ConfigError(
                f"objective_mode must be one of {OBJECTIVE_MODES}, "
                f"got {self.objective_mode!r}")
        weights = [name for name, _ in TERMS.values() if name is not None]
        for name in (*weights, "prop_k", "epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not (0.0 <= self.prop_alpha <= 1.0):
            raise ConfigError(f"prop_alpha must be in [0, 1], got {self.prop_alpha}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if not (self.t_id < self.t_ood):
            raise ConfigError(
                f"need t_id < t_ood, got {self.t_id} >= {self.t_ood}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TideConfig":
        if not isinstance(doc, dict):
            raise ConfigError(
                f"config must be a JSON object, got {json.dumps(doc)[:40]}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "TideConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: {err}") from err
        return cls.from_dict(doc)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter moments and the step count they share."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """Textbook bias-corrected Adam, in place; ``grads`` has an entry
    for every name in ``params``. One state serves one parameter set,
    every entry of which steps at every call."""
    state.t += 1
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros(p.shape)
            state.v[name] = np.zeros(p.shape)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1 - ADAM_BETA1 ** state.t)
        v_hat = state.v[name] / (1 - ADAM_BETA2 ** state.t)
        p.values -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainResult:
    model: TideModel
    log: list[dict]
    best_epoch: int
    best_val_acc: float


def _accuracy(logits: np.ndarray, y: np.ndarray, mask: np.ndarray
              ) -> float | None:
    """Accuracy over the mask rows; None for an empty mask (no val
    split), so the log stays valid JSON."""
    if mask.size == 0:
        return None
    preds = logits[mask].argmax(axis=1)
    return float(np.mean(preds == y[mask]))


def _keep_heap_mapped() -> None:
    """Let malloc reuse freed training temporaries instead of returning
    them to the system.

    Each epoch frees its arrays before the next one allocates them
    again. With glibc's defaults, memory freed at the top of the heap
    is trimmed and a large array is a fresh mmap, so those pages fault
    in again every epoch; a 32 MiB mmap threshold (M_MMAP_THRESHOLD,
    -3) and a 256 MiB trim threshold (M_TRIM_THRESHOLD, -1) keep them
    in the heap. The setting is process-wide and only ever set to these
    values. Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 256 << 20)


@contextlib.contextmanager
def _component(name: str):
    """Name the loss term in a numerics failure inside it, keeping the
    error's type, so the gradient audit can still add the probed entry."""
    try:
        yield
    except (ad.NumericsError, ad.DomainError) as err:
        raise type(err)(f"component {name}: {err}") from err


def branch(model: TideModel, g: Graph, tag: str, eps: np.ndarray | None = None
           ) -> tuple[LatentDistribution, Tensor, Tensor]:
    """Network ``tag``'s ("z", "v" or "q") forward on ``g``: its
    posterior, a sample (the posterior mean when ``eps`` is None, else
    reparameterized with noise ``eps``) and its head's logits. With no
    ``eps`` the joint network builds no sigma head (its posterior's
    sigma is None): every caller that reads a KL draws noise."""
    if tag == "z":
        dist = encode_joint(Tensor(g.X), g.adjacency, model,
                            sigma=eps is not None)
    elif tag == "v":
        dist = encode_feature(Tensor(g.X), model)
    else:
        dist = encode_structure(g.adjacency, model)
    sample = dist.mu if eps is None else reparameterize(dist, eps)
    return dist, sample, predict_logits(sample, g.adjacency, model, tag)


class BranchOut(NamedTuple):
    """What a training forward keeps of one network: its sample (the
    couplings, the reconstruction and the critic fit read it), its head
    logits and, for the joint network alone, its posterior mean
    (validation reads it); None for V and Q. The posterior's sigma dies
    with the KL that reads it."""

    sample: Tensor
    logits: Tensor
    mu: Tensor | None


def _bottleneck(model: TideModel, g: Graph, tag: str, mode: str,
                eps: np.ndarray | None, comps: dict[str, Tensor]
                ) -> BranchOut:
    """Network ``tag``'s ``branch`` and its bottleneck terms, written
    into ``comps``: ``ce_<tag>`` and ``kl_<tag>`` (sl: ``ce_z`` alone,
    on the posterior mean)."""
    dist, sample, logits = branch(model, g, tag, eps)
    with _component(f"vib_{tag}"):
        if mode == "sl":
            comps[f"ce_{tag}"] = cross_entropy(logits, g.y, g.mask("train"))
        else:
            comps[f"ce_{tag}"], comps[f"kl_{tag}"] = vib_loss(
                logits, g.y, g.mask("train"), dist)
    return BranchOut(sample, logits, dist.mu if tag == "z" else None)


def energy_margin(logits_z: Tensor, model: TideModel, g: Graph,
                  config: TideConfig, exposure: Graph,
                  eps: np.ndarray | None) -> Tensor:
    """Margin between the propagated energies of the ID train rows and of
    the exposure graph's train rows. ``eps`` is the exposure pass's
    reparameterization noise; None runs it on the posterior mean."""
    e_id = propagate_energy_tensor(energy_tensor(logits_z), g.propagation,
                                   config.prop_alpha, config.prop_k)
    logits = branch(model, exposure, "z", eps)[2]
    e_ood = propagate_energy_tensor(energy_tensor(logits), exposure.propagation,
                                    config.prop_alpha, config.prop_k)
    return energy_reg_loss(ad.gather_rows(e_id, g.mask("train")),
                           ad.gather_rows(e_ood, exposure.mask("train")),
                           config.t_id, config.t_ood)


def forward_components(model: TideModel, g: Graph, config: TideConfig,
                       eps: dict[str, np.ndarray],
                       critics: dict[str, np.ndarray],
                       exposure: Graph | None = None, base: tuple | None = None
                       ) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
    """One training forward: the loss terms of ``config.objective_mode``.

    Each network in ``MODE_GROUPS`` for the mode runs through ``branch``
    and contributes its variational bottleneck terms, ``ce_<tag>`` and
    ``kl_<tag>``; sl contributes ``ce_z`` alone, on the posterior mean.
    ``eps`` maps each noise stream the mode samples ("z", "v", "q",
    "z_exposure"; sl draws none) to its draw for this forward;
    ``critics`` maps each ``CRITIC_PAIRS`` pair to the fixed projection
    its dependence penalty reads (tide only; the other modes ignore it);
    ``exposure`` is the energy margin's OOD graph. Returns the
    components, all ``TERMS`` keys, and each built network's
    ``BranchOut``: what later readers need of it, not its posterior's
    sigma, which dies with its KL, nor V's and Q's posterior means.

    ``base``, which training never passes, scopes the forward for the
    gradient audit: ``(comps, outs, net)``, a forward's result at these
    parameters but for those of ``net`` ("z", "v", "q" or "recon").
    Only what reads ``net`` is rebuilt: its branch and bottleneck terms,
    ``cind`` (for "z" or "recon"), each ``pmi_*`` pair containing it
    and ``energy_reg`` (for "z"); the rest is the base's.
    """
    mode = config.objective_mode
    groups = MODE_GROUPS[mode]
    comps, outs, moved = ({}, {}, None) if base is None else (
        dict(base[0]), dict(base[1]), base[2])

    def reads(*nets: str) -> bool:
        return moved is None or moved in nets

    for tag in [t for t in NETWORKS if t in groups and reads(t)]:
        outs[tag] = _bottleneck(model, g, tag, mode, eps.get(tag), comps)
    if "recon" in groups and reads("z", "recon"):
        with _component("cind"):
            comps["cind"] = recon_cind_loss(outs["z"].sample, Tensor(g.X),
                                            model)
    if mode == "tide":
        for pair in [p for p in CRITIC_PAIRS if reads(*p)]:
            with _component(f"pmi_{pair}"):
                comps[f"pmi_{pair}"] = club_estimate(
                    outs[pair[0]].sample, outs[pair[1]].sample, critics[pair])
    if exposure is not None and reads("z"):
        with _component("energy_reg"):
            comps["energy_reg"] = energy_margin(
                outs["z"].logits, model, g, config, exposure,
                eps.get("z_exposure"))
    return comps, outs


def fit_critics(outs: dict) -> dict[str, np.ndarray]:
    """Each pair's ``fit_critic`` on a tide forward's detached samples;
    ``outs`` is ``forward_components``' second result."""
    return {pair: fit_critic(outs[pair[0]].sample.values,
                             outs[pair[1]].sample.values)
            for pair in CRITIC_PAIRS}


def _loss_breakdown(comps: dict[str, Tensor], config: TideConfig
                    ) -> dict[str, float]:
    """An epoch's logged losses: each ``TERMS`` term's value (0 if the
    mode does not build it), then ``total_z``/``total_v``/``total_q``,
    the per-network totals ``TERMS`` routes (all to minimize)."""
    breakdown = {name: comps[name].item() if name in comps else 0.0
                 for name in TERMS}
    totals = dict.fromkeys("zvq", 0.0)
    for name, (_, nets) in TERMS.items():
        for net in nets:
            totals[net] += term_weight(name, config) * breakdown[name]
    breakdown.update({f"total_{net}": total for net, total in totals.items()})
    return breakdown


def _mean_path_logits(model: TideModel, g: Graph, z_out: BranchOut
                      ) -> np.ndarray:
    """``joint_logits_at_mean`` read off a training forward's joint
    branch: its own logits when it ran on the posterior mean (sl), else
    the head applied to the posterior mean it already computed."""
    if z_out.sample is z_out.mu:
        return z_out.logits.values
    with ad.no_grad():
        return predict_logits(z_out.mu, g.adjacency, model, "z").values


def train_tide(g: Graph, config: TideConfig,
               exposure_graph: Graph | None = None) -> TrainResult:
    """Run the full optimization loop and return the best-validation model.

    ``exposure_graph`` supplies auxiliary OOD nodes (its train mask) for
    the energy margin term; exposure training is on exactly when it is
    given. A graph that cannot train (an empty train split, or an
    unlabeled train node) raises ``GraphError`` naming that graph.
    Model selection: highest validation accuracy of the parameters
    after each epoch's steps, latest epoch wins ties; with no val mask
    the final parameters are kept. Each log record's ``wall_time_s``
    spans its epoch's forward, backward, step and (tide) critic refit.
    """
    mode = config.objective_mode
    train_mask = g.mask("train")
    if train_mask.size == 0:
        raise GraphError("ID graph has an empty train split")
    if np.any(g.y[train_mask] < 0):
        raise GraphError("ID graph has an unlabeled node in its train split")
    if exposure_graph is not None and exposure_graph.mask("train").size == 0:
        raise GraphError("exposure graph has an empty train split")

    _keep_heap_mapped()
    val_mask = g.mask("val")
    model = build_model(g.d, config.hidden, g.C, config.seed)
    state = AdamState()
    trained = {n: model[n] for n in model.names_in(*MODE_GROUPS[mode])}
    critics = dict.fromkeys(CRITIC_PAIRS, np.zeros((config.hidden,) * 2))
    # A noise stream per sampled branch plus the exposure pass; sl runs
    # on posterior means and draws none.
    streams = [] if mode == "sl" else [t for t in NETWORKS
                                       if t in MODE_GROUPS[mode]]
    if streams and exposure_graph is not None:
        streams.append("z_exposure")
    noise = {tag: component_rng(config.seed, NOISE_STREAM[tag])
             for tag in streams}
    noise_shape = {tag: ((exposure_graph if tag == "z_exposure" else g).n,
                         config.hidden) for tag in noise}

    log: list[dict] = []
    best_acc = -np.inf
    best_snapshot = None
    best_epoch = -1

    def validate_last_epoch(val_logits: np.ndarray) -> None:
        """Fill in the last logged epoch's validation; the model holds the
        parameters that epoch's steps produced."""
        nonlocal best_acc, best_snapshot, best_epoch
        record = log[-1]
        record["val_acc"] = val_acc = _accuracy(val_logits, g.y, val_mask)
        # >= keeps the newest model on a val-accuracy plateau, so the
        # restored parameters reflect a converged optimizer state.
        if val_mask.size and val_acc >= best_acc:
            best_acc = val_acc
            best_snapshot = model.snapshot()
            best_epoch = record["epoch"]

    def run_epoch(epoch: int) -> dict[str, float]:
        """One epoch: its noise, forward, the last epoch's validation,
        backward, Adam step and (tide) critic refit. Returns the loss
        breakdown; its noise, branches, loss tensors and gradients die
        here, so none of them is alive when the next forward runs."""
        nonlocal critics
        ad.clear_tape()
        eps = {tag: rng.standard_normal(noise_shape[tag])
               for tag, rng in noise.items()}
        try:
            comps, outs = forward_components(model, g, config, eps, critics,
                                             exposure_graph)
            if log:
                validate_last_epoch(_mean_path_logits(model, g, outs["z"]))
            fused = tide_total(comps, config)
        except (ad.NumericsError, ad.DomainError) as err:
            raise TrainingError(f"epoch {epoch}: forward pass: {err}") from err
        breakdown = _loss_breakdown(comps, config)
        if not np.isfinite(list(breakdown.values())).all():
            raise TrainingError(f"epoch {epoch}: non-finite loss component")
        try:
            grads = ad.backward(fused, trained)
        except (ad.NumericsError, ad.DomainError) as err:
            raise TrainingError(f"epoch {epoch}: backward: {err}") from err
        adam_step(trained, grads, state, config.lr)
        if mode == "tide":
            critics = fit_critics(outs)
        return breakdown

    for epoch in range(config.epochs):
        tick = time.perf_counter()
        breakdown = run_epoch(epoch)
        # The next forward fills in val_acc.
        log.append({"epoch": epoch, "loss": breakdown, "val_acc": None,
                    "wall_time_s": time.perf_counter() - tick})

    if log:
        try:
            val_logits = joint_logits_at_mean(model, g)
        except (ad.NumericsError, ad.DomainError) as err:
            raise TrainingError(
                f"epoch {log[-1]['epoch']}: validation pass: {err}") from err
        validate_last_epoch(val_logits)
    if best_snapshot is not None:
        model.restore(best_snapshot)
    return TrainResult(model=model, log=log, best_epoch=best_epoch,
                       best_val_acc=float(best_acc) if np.isfinite(best_acc) else float("nan"))


def write_train_log(path, records: list[dict]) -> None:
    """One strict JSON object per line: a NaN or infinity raises
    ``ValueError`` rather than being written as a bare token."""
    path = Path(path)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=False))
            fh.write("\n")
