"""The three variational networks and their heads.

Joint encoder: 2-layer GCN over (X, A). Feature encoder: 2-layer MLP
over X alone. Structure encoder: 2-layer GCN over a constant all-ones
column, so it can only see A. Each ends in linear mu / sigma heads
(sigma through a softplus with a 1e-6 floor); a pass that reads only
the joint posterior's mean (sl training, inference) builds no joint
sigma head. On top sit a prediction
head per network (graph-convolutional for the joint and structure
networks, row-wise linear for the feature network) and an MLP that
reconstructs X from joint samples.

Parameters live in one ordered dict, initialized Glorot-uniform from
independent per-component seed streams: a model built for a single
network reproduces exactly the sub-parameters of the full model under
the same seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import Graph, SparseMatrix, write_atomic

SIGMA_FLOOR = 1e-6

# Seed-stream tags; initialization and per-epoch noise use disjoint streams
# so that dropping a network from a run never shifts another network's draws.
INIT_STREAM = {"z": 1, "v": 2, "q": 3, "recon": 4}
NOISE_STREAM = {"z": 11, "v": 12, "q": 13, "z_exposure": 14}


class ModelError(ValueError):
    pass


@dataclass
class LatentDistribution:
    """Per-node Gaussian posterior; sigma is strictly positive and shaped
    like mu, or None when the encoder ran for the mean alone. The ops
    reading both (``gaussian_kl``, ``scale_shift``) check the shapes."""

    mu: Tensor
    sigma: Tensor | None

    def rows(self, idx) -> "LatentDistribution":
        return LatentDistribution(ad.gather_rows(self.mu, idx),
                                  ad.gather_rows(self.sigma, idx))


def component_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class TideModel:
    """All parameters of the tri-network detector, in a fixed order."""

    def __init__(self, d: int, hidden: int, C: int, seed: int,
                 params: dict[str, Tensor]):
        self.d = d
        self.hidden = hidden
        self.C = C
        self.seed = seed
        self.params = params

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names_in(self, *groups: str) -> list[str]:
        """Names of the parameters in ``groups``, in parameter order."""
        return [name for group, layout
                in param_layout(self.d, self.hidden, self.C).items()
                if group in groups for name, _ in layout]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: p.values.copy() for n, p in self.params.items()}

    def restore(self, values: dict[str, np.ndarray]) -> None:
        for n, arr in values.items():
            self.params[n].values[...] = arr


def param_layout(d: int, h: int, C: int
                 ) -> dict[str, list[tuple[str, tuple[int, int]]]]:
    """Each init stream's parameter names and shapes, in draw order.

    The order is part of the checkpoint contract. Names ending in ".b"
    are biases, which start at zero and draw nothing.
    """
    def posterior(net: str) -> list[tuple[str, tuple[int, int]]]:
        return [(f"{net}_enc.mu.W", (h, h)), (f"{net}_enc.mu.b", (1, h)),
                (f"{net}_enc.sigma.W", (h, h)), (f"{net}_enc.sigma.b", (1, h))]

    return {
        "z": [("z_enc.gcn1.W", (d, h)), ("z_enc.gcn2.W", (h, h)),
              *posterior("z"), ("z_head.W", (h, C))],
        "v": [("v_enc.fc1.W", (d, h)), ("v_enc.fc1.b", (1, h)),
              ("v_enc.fc2.W", (h, h)), ("v_enc.fc2.b", (1, h)),
              *posterior("v"), ("v_head.W", (h, C)), ("v_head.b", (1, C))],
        "q": [("q_enc.gcn1.W", (1, h)), ("q_enc.gcn2.W", (h, h)),
              *posterior("q"), ("q_head.W", (h, C))],
        "recon": [("recon.fc1.W", (h, h)), ("recon.fc1.b", (1, h)),
                  ("recon.out.W", (h, d)), ("recon.out.b", (1, d))],
    }


def build_model(d: int, hidden: int, C: int, seed: int) -> TideModel:
    """Glorot-initialized model laid out by ``param_layout``; biases
    start at zero."""
    if min(d, hidden, C) < 1:
        raise ModelError(f"bad dims d={d}, hidden={hidden}, C={C}")
    params: dict[str, Tensor] = {}
    try:
        for group, layout in param_layout(d, hidden, C).items():
            rng = component_rng(seed, INIT_STREAM[group])
            for name, shape in layout:
                arr = (np.zeros(shape) if name.endswith(".b")
                       else glorot(rng, *shape))
                params[name] = Tensor(arr, requires_grad=True)
    except (ValueError, MemoryError) as err:  # numpy refused an allocation
        raise ModelError(f"cannot allocate a model with d={d}, "
                         f"hidden={hidden}, C={C}: {err}") from err
    return TideModel(d, hidden, C, seed, params)


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------

def gcn_layer(H: Tensor, A_norm: SparseMatrix, W: Tensor) -> Tensor:
    """One propagation step: ReLU(A_norm @ H @ W)."""
    return ad.relu(ad.spmm(A_norm, ad.matmul(H, W)))


def _posterior(h2: Tensor, model: TideModel, net: str, sigma: bool = True
               ) -> LatentDistribution:
    """Network ``net``'s mu head on ``h2`` and, if ``sigma``, its sigma
    head (linear, softplus, floor)."""
    mu = ad.linear(h2, model[f"{net}_enc.mu.W"], model[f"{net}_enc.mu.b"])
    if not sigma:
        return LatentDistribution(mu, None)
    pre = ad.linear(h2, model[f"{net}_enc.sigma.W"], model[f"{net}_enc.sigma.b"])
    return LatentDistribution(mu, ad.add(ad.softplus(pre), SIGMA_FLOOR))


def encode_joint(X: Tensor, A_norm: SparseMatrix, model: TideModel,
                 sigma: bool = True) -> LatentDistribution:
    """Joint posterior; ``sigma=False`` builds the mean alone (sigma None)."""
    if X.shape[1] != model.d:
        raise ModelError(f"feature width {X.shape[1]} != model d={model.d}")
    h1 = gcn_layer(X, A_norm, model["z_enc.gcn1.W"])
    h2 = gcn_layer(h1, A_norm, model["z_enc.gcn2.W"])
    return _posterior(h2, model, "z", sigma)


def encode_feature(X: Tensor, model: TideModel) -> LatentDistribution:
    if X.shape[1] != model.d:
        raise ModelError(f"feature width {X.shape[1]} != model d={model.d}")
    h1 = ad.relu(ad.linear(X, model["v_enc.fc1.W"], model["v_enc.fc1.b"]))
    h2 = ad.relu(ad.linear(h1, model["v_enc.fc2.W"], model["v_enc.fc2.b"]))
    return _posterior(h2, model, "v")


def encode_structure(A_norm: SparseMatrix, model: TideModel) -> LatentDistribution:
    """Structure-only posterior: the input is a constant ones column."""
    ones = Tensor(np.ones((A_norm.n, 1)))
    h1 = gcn_layer(ones, A_norm, model["q_enc.gcn1.W"])
    h2 = gcn_layer(h1, A_norm, model["q_enc.gcn2.W"])
    return _posterior(h2, model, "q")


def reparameterize(dist: LatentDistribution, noise: np.ndarray) -> Tensor:
    return ad.scale_shift(dist.mu, dist.sigma, np.asarray(noise, dtype=np.float64))


def predict_logits(sample: Tensor, A_norm: SparseMatrix | None,
                   model: TideModel, which: str) -> Tensor:
    """Class logits from a latent sample; no softmax (energies need raw)."""
    if which == "z":
        return ad.spmm(A_norm, ad.matmul(sample, model["z_head.W"]))
    if which == "v":
        return ad.linear(sample, model["v_head.W"], model["v_head.b"])
    if which == "q":
        return ad.spmm(A_norm, ad.matmul(sample, model["q_head.W"]))
    raise ModelError(f"unknown head {which!r}")


def reconstruct(sample: Tensor, model: TideModel) -> Tensor:
    h1 = ad.relu(ad.linear(sample, model["recon.fc1.W"], model["recon.fc1.b"]))
    return ad.linear(h1, model["recon.out.W"], model["recon.out.b"])


def joint_logits_at_mean(model: TideModel, g: Graph) -> np.ndarray:
    """Deterministic inference logits: mu through the joint classifier."""
    with ad.no_grad():
        dist = encode_joint(Tensor(g.X), g.adjacency, model, sigma=False)
        logits = predict_logits(dist.mu, g.adjacency, model, "z")
    return logits.values


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_FORMAT = "tide-ckpt-v2"


def config_sha256(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_checkpoint(model: TideModel, path, config_dict: dict | None = None) -> None:
    """Write ``path`` (flat little-endian float64) and ``path.json``."""
    path = Path(path)
    manifest = {
        "format": CKPT_FORMAT,
        "d": model.d,
        "hidden": model.hidden,
        "C": model.C,
        "seed": model.seed,
        "config_sha256": config_sha256(config_dict) if config_dict else None,
        "params": [{"name": n, "shape": list(p.shape)}
                   for n, p in model.params.items()],
    }
    flat = np.concatenate([p.values.reshape(-1) for p in model.params.values()])
    write_atomic(path, flat.astype("<f8").tobytes())
    write_atomic(path.with_name(path.name + ".json"),
                 (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode())


def load_checkpoint(path) -> TideModel:
    """Read a checkpoint whose manifest is valid JSON declaring exactly
    the parameter names and shapes ``build_model`` lays out for its
    dims, and whose blob holds that many finite values; anything else
    raises ``ModelError`` naming the file at fault."""
    path = Path(path)
    manifest_path = path.with_name(path.name + ".json")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as err:
            raise ModelError(f"{manifest_path}: {err}") from err
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found != CKPT_FORMAT:
        raise ModelError(f"{manifest_path}: checkpoint format {found!r}, "
                         f"expected {CKPT_FORMAT!r}")
    dims = [manifest.get(k) for k in ("d", "hidden", "C", "seed")]
    if not all(type(v) is int and v >= 0 for v in dims):
        raise ModelError(f"{manifest_path}: d, hidden, C and seed must be "
                         f"non-negative integers, got {dims}")
    # Names, shapes and blob size are checked against the manifest's dims
    # before anything of that size is allocated.
    layout = [item for group in param_layout(*dims[:3]).values()
              for item in group]
    if manifest.get("params") != [{"name": n, "shape": list(shape)}
                                  for n, shape in layout]:
        raise ModelError(f"{manifest_path}: parameter names and shapes do not "
                         f"match a d={dims[0]}, hidden={dims[1]}, C={dims[2]} model")
    expected = sum(rows * cols for _, (rows, cols) in layout)
    size = path.stat().st_size
    if size != 8 * expected:
        raise ModelError(f"{path}: has {size} bytes, manifest expects "
                         f"{expected} float64 values ({8 * expected} bytes)")
    flat = np.fromfile(path, dtype="<f8")
    if not np.isfinite(flat).all():
        raise ModelError(f"{path}: parameters must be finite")
    model = build_model(*dims)
    offset = 0
    for p in model.params.values():
        p.values[...] = flat[offset:offset + p.values.size].reshape(p.shape)
        offset += p.values.size
    return model
