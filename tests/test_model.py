"""Encoders, heads, parameter bookkeeping, and checkpoints."""

import gc
import math
import os
import weakref

import numpy as np
import pytest

import tide.autodiff as ad
from tide.autodiff import Tensor
from tide.graph import make_graph, sym_normalized_adjacency
from tide.model import (ModelError, build_model, encode_feature, encode_joint,
                        encode_structure, gcn_layer, joint_logits_at_mean,
                        load_checkpoint, predict_logits, reconstruct,
                        reparameterize, save_checkpoint)
from conftest import random_graph

HID = 6


@pytest.fixture
def model():
    return build_model(d=2, hidden=HID, C=3, seed=0)


def zeroed(model):
    for name in model.names_in("z", "v", "q", "recon"):
        model[name].values[...] = 0.0
    return model


# ---------------------------------------------------------------------------
# gcn layer
# ---------------------------------------------------------------------------

def test_gcn_layer_identity_operator_no_activation():
    """On nonnegative inputs the ReLU is the identity."""
    from tide.graph import SparseMatrix
    eye = SparseMatrix(2, rows=[0, 1], cols=[0, 1], vals=[1.0, 1.0])
    H = Tensor([[1.0], [2.0]])
    out = gcn_layer(H, eye, Tensor([[1.0]]))
    np.testing.assert_array_equal(out.values, H.values)


def test_gcn_layer_two_clique_averages(two_clique):
    A = sym_normalized_adjacency(two_clique)
    out = gcn_layer(Tensor([[1.0], [3.0]]), A, Tensor([[1.0]]))
    np.testing.assert_allclose(out.values, [[2.0], [2.0]])


def test_gcn_layer_relu_clamps(two_clique):
    A = sym_normalized_adjacency(two_clique)
    out = gcn_layer(Tensor([[-1.0], [-3.0]]), A, Tensor([[1.0]]))
    assert out.values.tolist() == [[0.0], [0.0]]


def test_recorded_gcn_layer_frees_what_no_gradient_reads(monkeypatch, rng):
    """spmm saves only its operator and relu only its output, so once the
    layer returns, the matmul output and the relu pre-activation are
    gone while their three entries are still on the tape."""
    made = {}

    def keep_ref(op):
        def run(*args):
            out = op(*args)
            made[op.__name__] = weakref.ref(out.values)
            return out
        return run

    for name in ("matmul", "spmm"):
        monkeypatch.setattr(ad, name, keep_ref(getattr(ad, name)))
    g = random_graph(rng, n=12, d=3)
    A = sym_normalized_adjacency(g)
    W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ad.clear_tape()
    out = gcn_layer(Tensor(g.X), A, W)
    gc.collect()
    assert ad.tape_size() == 3
    assert made["matmul"]() is None and made["spmm"]() is None
    grads = ad.backward(ad.tsum(out), {"W": W})
    expected = A.csr_t @ (A.csr @ (g.X @ W.values) > 0.0).astype(float)
    np.testing.assert_array_equal(grads["W"], g.X.T @ expected)


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def test_zero_weights_give_zero_mu_constant_sigma(two_clique, model):
    zeroed(model)
    A = sym_normalized_adjacency(two_clique)
    dist = encode_joint(Tensor(np.zeros((2, 2))), A, model)
    np.testing.assert_array_equal(dist.mu.values, np.zeros((2, HID)))
    np.testing.assert_allclose(dist.sigma.values,
                               math.log(2) + 1e-6, rtol=1e-12)


def test_joint_encoder_is_permutation_equivariant(rng):
    g = random_graph(rng, n=8, d=2)
    model = build_model(d=2, hidden=HID, C=2, seed=1)
    perm = rng.permutation(g.n)
    inv = np.argsort(perm)
    gp = make_graph(g.X[perm], inv[g.edges], g.y[perm], C=g.C)
    with ad.no_grad():
        base = encode_joint(Tensor(g.X), sym_normalized_adjacency(g), model)
        permuted = encode_joint(Tensor(gp.X), sym_normalized_adjacency(gp),
                                model)
    np.testing.assert_allclose(permuted.mu.values, base.mu.values[perm],
                               atol=1e-12)


def test_feature_encoder_is_row_local(model):
    X1 = np.array([[0.4, -1.0], [2.0, 0.3]])
    X2 = X1.copy()
    X2[1] = [9.0, 9.0]
    with ad.no_grad():
        a = encode_feature(Tensor(X1), model)
        b = encode_feature(Tensor(X2), model)
    np.testing.assert_array_equal(a.mu.values[0], b.mu.values[0])
    assert not np.array_equal(a.mu.values[1], b.mu.values[1])


def test_feature_encoder_duplicate_rows_duplicate_mu(model):
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    with ad.no_grad():
        dist = encode_feature(Tensor(X), model)
    np.testing.assert_array_equal(dist.mu.values[0], dist.mu.values[1])


def test_structure_encoder_ignores_features(two_clique, model):
    A = sym_normalized_adjacency(two_clique)
    with ad.no_grad():
        a = encode_structure(A, model)
        b = encode_structure(A, model)  # X never enters the signature
    np.testing.assert_array_equal(a.mu.values, b.mu.values)


def test_structure_encoder_regular_graph_rows_equal(model):
    # 4-cycle: every node degree 2, so the constant input stays constant.
    g = make_graph(np.zeros((4, 2)), [[0, 1], [1, 2], [2, 3], [3, 0]],
                   [0, 1, 0, 1])
    with ad.no_grad():
        dist = encode_structure(sym_normalized_adjacency(g), model)
    for row in dist.mu.values[1:]:
        np.testing.assert_allclose(row, dist.mu.values[0], atol=1e-12)


def test_encoder_rejects_wrong_width(two_clique, model):
    A = sym_normalized_adjacency(two_clique)
    with pytest.raises(ModelError, match="width"):
        encode_joint(Tensor(np.zeros((2, 5))), A, model)


def test_sigma_is_strictly_positive(rng, model):
    g = random_graph(rng, n=6, d=2)
    with ad.no_grad():
        for dist in (encode_joint(Tensor(g.X), sym_normalized_adjacency(g), model),
                     encode_feature(Tensor(g.X), model),
                     encode_structure(sym_normalized_adjacency(g), model)):
            assert (dist.sigma.values > 0).all()


# ---------------------------------------------------------------------------
# sampling + heads
# ---------------------------------------------------------------------------

def test_reparameterize_zero_noise_returns_mu(two_clique, model):
    A = sym_normalized_adjacency(two_clique)
    X = Tensor(np.array([[1.0, 3.0], [2.0, 0.0]]))
    with ad.no_grad():
        dist = encode_joint(X, A, model)
        sample = reparameterize(dist, np.zeros((2, HID)))
    np.testing.assert_array_equal(sample.values, dist.mu.values)


def test_reparameterize_monte_carlo_mean(rng):
    mu = np.array([[0.7, -0.2]])
    sigma = np.array([[0.5, 1.5]])
    from tide.model import LatentDistribution
    dist = LatentDistribution(Tensor(mu), Tensor(sigma))
    draws = np.empty((10_000, 2))
    with ad.no_grad():
        for i in range(draws.shape[0]):
            draws[i] = reparameterize(dist, rng.normal(size=(1, 2))).values[0]
    se = sigma[0] / math.sqrt(draws.shape[0])
    assert (np.abs(draws.mean(axis=0) - mu[0]) < 4 * se).all()


def test_zero_head_gives_uniform_softmax(two_clique, model):
    zeroed(model)
    A = sym_normalized_adjacency(two_clique)
    with ad.no_grad():
        logits = predict_logits(Tensor(np.ones((2, HID))), A, model, "z")
    np.testing.assert_array_equal(logits.values, np.zeros((2, 3)))


def test_mlp_head_ignores_adjacency(model, two_clique, path3):
    sample = Tensor(np.ones((2, HID)))
    with ad.no_grad():
        a = predict_logits(sample, sym_normalized_adjacency(two_clique),
                           model, "v")
        b = predict_logits(sample, None, model, "v")
    np.testing.assert_array_equal(a.values, b.values)


def test_gnn_head_mixes_two_clique_symmetrically(model, two_clique):
    A = sym_normalized_adjacency(two_clique)
    s = np.zeros((2, HID))
    s[0, 0] = 1.0
    s[1, 0] = 3.0
    with ad.no_grad():
        logits = predict_logits(Tensor(s), A, model, "z")
    # A_norm is the all-0.5 matrix, so both rows see the same mix.
    np.testing.assert_allclose(logits.values[0], logits.values[1],
                               atol=1e-12)


def test_unknown_head_kind_rejected(model):
    with pytest.raises(ModelError):
        predict_logits(Tensor(np.ones((1, HID))), None, model, "w")


def test_reconstruct_zero_weights_zero_output(model):
    zeroed(model)
    with ad.no_grad():
        out = reconstruct(Tensor(np.ones((4, HID))), model)
    np.testing.assert_array_equal(out.values, np.zeros((4, 2)))


def test_reconstruction_loss_has_gradient_through_sample(model):
    sample = Tensor(np.full((2, HID), 0.3), requires_grad=True)
    target = Tensor(np.ones((2, 2)))
    loss = ad.mse(reconstruct(sample, model), target)
    grads = ad.backward(loss, {"sample": sample})
    assert np.abs(grads["sample"]).max() > 0


# ---------------------------------------------------------------------------
# parameters + checkpoints
# ---------------------------------------------------------------------------

def test_build_model_is_seed_deterministic():
    a = build_model(d=3, hidden=4, C=2, seed=7)
    b = build_model(d=3, hidden=4, C=2, seed=7)
    c = build_model(d=3, hidden=4, C=2, seed=8)
    for name in a.names_in("z", "v", "q", "recon"):
        np.testing.assert_array_equal(a[name].values, b[name].values)
    assert any(not np.array_equal(a[name].values, c[name].values)
               for name in a.names_in("z"))


def test_snapshot_restore_round_trip(model):
    snap = model.snapshot()
    model["z_head.W"].values[...] = 99.0
    model.restore(snap)
    assert model["z_head.W"].values.max() < 99.0


@pytest.mark.parametrize("seed", [0, 1, 17, 404])
def test_checkpoint_round_trip(seed, tmp_path):
    path = tmp_path / "m.ckpt"
    model = build_model(d=3, hidden=4, C=2, seed=seed)
    save_checkpoint(model, path, {"seed": seed})
    loaded = load_checkpoint(path)
    for name in model.names_in("z", "v", "q", "recon"):
        np.testing.assert_array_equal(model[name].values,
                                      loaded[name].values)


def test_checkpoint_truncation_detected(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, {})
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ModelError):
        load_checkpoint(path)


@pytest.mark.parametrize("extra", [3, 8])
def test_checkpoint_trailing_bytes_rejected_before_reading(tmp_path, model,
                                                           monkeypatch, extra):
    """A blob longer than the manifest's layout fails on its size alone:
    a partial value (3 bytes) and a whole one (8) alike."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, {})
    path.write_bytes(path.read_bytes() + b"\x7f" * extra)

    def no_read(*args, **kwargs):
        raise AssertionError("blob read before its size was checked")

    monkeypatch.setattr(np, "fromfile", no_read)
    with pytest.raises(ModelError, match="bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("failing", [0, 1], ids=["blob", "manifest"])
def test_failed_checkpoint_write_leaves_whole_files_only(tmp_path, model,
                                                         monkeypatch, failing):
    """Blob and manifest are each renamed into place: a failure leaves
    each file whole, old or new, and no temporary file behind."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, {"seed": 0})
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other = tmp_path / "other"
    other.mkdir()
    save_checkpoint(build_model(d=2, hidden=HID, C=3, seed=1), other / "m.ckpt",
                    {"seed": 1})
    new = {p.name: p.read_bytes() for p in other.iterdir()}

    replace, calls = os.replace, []

    def flaky(src, dst):
        calls.append(dst)
        if len(calls) == failing + 1:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(build_model(d=2, hidden=HID, C=3, seed=1), path,
                        {"seed": 1})
    found = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert sorted(found) == ["m.ckpt", "m.ckpt.json"]
    assert found["m.ckpt"] == (new if failing else old)["m.ckpt"]
    assert found["m.ckpt.json"] == old["m.ckpt.json"]


def test_joint_logits_at_mean_deterministic(rng):
    g = random_graph(rng, n=10, d=2)
    model = build_model(d=2, hidden=HID, C=2, seed=3)
    a = joint_logits_at_mean(model, g)
    b = joint_logits_at_mean(model, g)
    np.testing.assert_array_equal(a, b)
