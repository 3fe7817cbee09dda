"""Optimization loop: config contract, Adam, routing, model selection."""

import dataclasses
import json

import numpy as np
import pytest

import tide.autodiff as ad
from tide.autodiff import Tensor
from tide.detection import score_splits
from tide.experiment import as_ood_bundle
from tide.graph import make_graph, sym_normalized_adjacency
from tide.model import (NOISE_STREAM, build_model, component_rng,
                        encode_feature, joint_logits_at_mean, predict_logits,
                        reparameterize)
from tide.objectives import vib_loss
from tide.shift import CsbmParams, ShiftSpec, apply_feature_shift, gen_csbm
from tide.trainer import (AdamState, ConfigError, TideConfig, TrainingError,
                          adam_step, train_tide, write_train_log)

FIXTURE = CsbmParams(n=120, C=3, d=8, p_in=0.15, p_out=0.02, mu_sep=2.0,
                     seed=0, train_frac=0.4, val_frac=0.2)


def fixture_graph(seed=0):
    return gen_csbm(dataclasses.replace(FIXTURE, seed=seed))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_validate(self):
        TideConfig().validate()

    @pytest.mark.parametrize("kw", [
        {"objective_mode": "vib"},
        {"beta_z": -0.1},
        {"alpha2": -1.0},
        {"lambda_cind": -0.5},
        {"prop_alpha": 1.5},
        {"prop_k": -1},
        {"lr": 0.0},
        {"epochs": -5},
        {"hidden": 0},
        {"exposure_enabled": True, "t_id": -2.0, "t_ood": -7.0},
        {"epochs": "5"},
        {"epochs": 5.0},
        {"hidden": True},
        {"lr": "0.01"},
        {"lr": False},
        {"exposure_enabled": 1},
        {"objective_mode": 3},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            TideConfig(**kw).validate()

    def test_round_trips_through_dict(self):
        cfg = TideConfig(beta_v=0.01, seed=3, objective_mode="ib_cind")
        again = TideConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_int_accepted_for_float_field(self):
        assert TideConfig.from_dict({"lr": 1, "t_id": -7}).lr == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            TideConfig.from_dict({"momentum": 0.9})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 7, "objective_mode": "ib"}))
        cfg = TideConfig.load(path)
        assert cfg.epochs == 7 and cfg.objective_mode == "ib"


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        state = AdamState()
        adam_step({"p": p}, {"p": np.zeros((1, 2))}, state, lr=0.1)
        np.testing.assert_array_equal(p.values, [[1.0, -2.0]])
        assert state.t["p"] == 1

    def test_first_step_matches_hand_formula(self):
        g = np.array([[0.3, -4.0]])
        p = Tensor(np.zeros((1, 2)), requires_grad=True)
        state = AdamState()
        adam_step({"p": p}, {"p": g}, state, lr=0.05)
        # After bias correction the first update is lr * g / (|g| + eps).
        expected = -0.05 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.values, expected, rtol=1e-6)

    def test_constant_gradient_moves_monotonically(self):
        p = Tensor(np.array([[0.0]]), requires_grad=True)
        state = AdamState()
        history = []
        for _ in range(50):
            adam_step({"p": p}, {"p": np.array([[2.5]])}, state, lr=0.01)
            history.append(p.values[0, 0])
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_missing_grad_treated_as_zero(self):
        p = Tensor(np.array([[5.0]]), requires_grad=True)
        adam_step({"p": p}, {}, AdamState(), lr=0.1)
        assert p.values[0, 0] == 5.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_initialization():
    g = fixture_graph()
    cfg = TideConfig(objective_mode="sl", epochs=0, seed=4)
    result = train_tide(g, cfg)
    init = build_model(g.d, cfg.hidden, g.C, seed=4)
    for name in init.names_in("z", "v", "q", "recon", "club"):
        np.testing.assert_array_equal(result.model[name].values,
                                      init[name].values)


def test_train_requires_labeled_train_mask():
    g = make_graph([[0.0], [1.0]], [[0, 1]], [0, 1], masks={"val": [0]})
    with pytest.raises(TrainingError, match="train"):
        train_tide(g, TideConfig(epochs=1))


def test_exposure_requires_companion_graph():
    g = fixture_graph()
    cfg = TideConfig(objective_mode="tide", epochs=1, exposure_enabled=True)
    with pytest.raises(TrainingError, match="exposure"):
        train_tide(g, cfg)


@pytest.mark.parametrize("mode", ["sl", "ib", "ib_cind"])
def test_joint_only_modes_leave_v_and_q_untrained(mode):
    """Only tide builds V and Q; the other modes keep them at init."""
    g = fixture_graph()
    cfg = TideConfig(objective_mode=mode, epochs=3)
    result = train_tide(g, cfg)
    zero = ["vib_v", "vib_q", "pmi_zv", "pmi_zq", "pmi_vq"]
    if mode == "ib_cind":
        assert all(rec["loss"]["cind"] > 0 for rec in result.log)
    else:
        zero.append("cind")
    for rec in result.log:
        assert rec["loss"]["vib_z"] > 0
        for key in zero:
            assert rec["loss"][key] == 0.0
    init = build_model(g.d, cfg.hidden, g.C, cfg.seed)
    for name in init.names_in("v", "q"):
        np.testing.assert_array_equal(result.model[name].values,
                                      init[name].values)


def test_tide_mode_logs_every_component():
    g = fixture_graph()
    result = train_tide(g, TideConfig(objective_mode="tide", epochs=3))
    last = result.log[-1]["loss"]
    assert last["vib_v"] > 0 and last["vib_q"] > 0 and last["cind"] > 0
    assert any(last[k] != 0.0 for k in ("pmi_zv", "pmi_zq", "pmi_vq"))


def test_train_ce_halves_from_first_epoch():
    g = fixture_graph()
    result = train_tide(g, TideConfig(objective_mode="tide", epochs=60))
    first = result.log[0]["loss"]["vib_z"]
    # Per-epoch samples keep the curve noisy, so check the best point
    # reached rather than the final epoch.
    assert min(rec["loss"]["vib_z"] for rec in result.log) <= 0.5 * first


def test_decoupled_feature_network_matches_solo_vib_run():
    """With couplings off, the V network trains as if alone.

    A hand-rolled single-network VIB loop drawing from the same noise
    stream must land on bit-identical feature-encoder weights.
    """
    g = make_graph(np.random.default_rng(5).normal(size=(30, 4)),
                   [[i, i + 1] for i in range(29)],
                   np.arange(30) % 3,
                   masks={"train": list(range(30))})
    epochs, seed = 5, 9
    cfg = TideConfig(objective_mode="tide", alpha1=0.0, alpha2=0.0,
                     alpha3=0.0, lambda_cind=0.0, epochs=epochs, seed=seed)
    joint = train_tide(g, cfg)

    solo = build_model(g.d, cfg.hidden, g.C, seed)
    v_names = solo.names_in("v")
    state = AdamState()
    rng_v = component_rng(seed, NOISE_STREAM["v"])
    X = Tensor(g.X)
    for _ in range(epochs):
        for n in v_names:
            solo.params[n].grad = None
        ad.clear_tape()
        dist = encode_feature(X, solo)
        sample = reparameterize(dist, rng_v.standard_normal(dist.shape))
        logits = predict_logits(sample, None, solo, "v")
        loss = vib_loss(logits, g.y, g.mask("train"), dist, cfg.beta_v)
        ad.backward(loss, wrt=[solo.params[n] for n in v_names])
        adam_step({n: solo.params[n] for n in v_names},
                  {n: solo.params[n].grad for n in v_names},
                  state, cfg.lr)

    for name in v_names:
        np.testing.assert_array_equal(joint.model[name].values,
                                      solo[name].values), name


def test_full_run_is_bit_deterministic():
    g = fixture_graph(seed=2)
    cfg = TideConfig(objective_mode="tide", epochs=8, seed=3)
    a, b = train_tide(g, cfg), train_tide(g, cfg)
    for name in a.model.names_in("z", "v", "q", "recon", "club"):
        np.testing.assert_array_equal(a.model[name].values,
                                      b.model[name].values)
    assert [r["loss"] for r in a.log] == [r["loss"] for r in b.log]
    np.testing.assert_array_equal(joint_logits_at_mean(a.model, g),
                                  joint_logits_at_mean(b.model, g))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_aborts_with_epoch_context():
    g = fixture_graph()
    cfg = TideConfig(objective_mode="sl", epochs=40, lr=1e160)
    with pytest.raises(TrainingError, match="epoch"):
        train_tide(g, cfg)


def test_best_val_snapshot_is_restorable_by_truncation():
    """Retraining for best_epoch+1 epochs reproduces the returned model."""
    g = fixture_graph(seed=6)
    cfg = TideConfig(objective_mode="ib", epochs=30, seed=1)
    full = train_tide(g, cfg)
    assert 0 <= full.best_epoch < 30
    truncated = train_tide(g, dataclasses.replace(cfg,
                                                  epochs=full.best_epoch + 1))
    for name in full.model.names_in("z"):
        np.testing.assert_array_equal(full.model[name].values,
                                      truncated.model[name].values)


def test_no_val_mask_keeps_final_epoch():
    g = make_graph(np.random.default_rng(0).normal(size=(20, 3)),
                   [[i, (i + 1) % 20] for i in range(20)],
                   np.arange(20) % 2,
                   masks={"train": list(range(20))})
    result = train_tide(g, TideConfig(objective_mode="sl", epochs=4))
    assert result.best_epoch == -1
    assert np.isnan(result.best_val_acc)


def test_exposure_run_produces_energy_margin_term():
    g = fixture_graph(seed=3)
    exposure = apply_feature_shift(g, ShiftSpec("feature", lambda_mix=0.2,
                                                seed=8))
    cfg = TideConfig(objective_mode="tide", epochs=3, exposure_enabled=True,
                     t_id=-1.2, t_ood=-1.0)
    result = train_tide(g, cfg, exposure_graph=exposure)
    assert all(np.isfinite(rec["loss"]["energy_reg"]) for rec in result.log)
    assert any(rec["loss"]["energy_reg"] > 0 for rec in result.log)


def test_sl_baseline_reaches_high_val_accuracy():
    g = gen_csbm(CsbmParams(n=500, C=4, d=16, p_in=0.05, p_out=0.005,
                            mu_sep=2.0, seed=0))
    result = train_tide(g, TideConfig(objective_mode="sl", epochs=100))
    assert result.best_val_acc > 0.9


def test_infer_alpha_one_equals_raw_energy():
    g = fixture_graph()
    cfg = TideConfig(objective_mode="sl", epochs=5,
                     prop_alpha=1.0, prop_k=3)
    result = train_tide(g, cfg)
    scores = score_splits(result.model, g, as_ood_bundle(g),
                          cfg.prop_alpha, cfg.prop_k)
    np.testing.assert_array_equal(scores.prop, scores.raw)
    assert scores.report_prop == scores.report_raw


def test_write_train_log_is_json_lines(tmp_path):
    g = fixture_graph()
    result = train_tide(g, TideConfig(objective_mode="sl", epochs=3))
    path = tmp_path / "log.jsonl"
    write_train_log(path, result.log)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[1])
    assert rec["epoch"] == 1
    assert set(rec) == {"epoch", "loss", "val_acc", "wall_time_s"}
