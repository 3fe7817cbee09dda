"""Optimization loop: config contract, Adam, routing, model selection."""

import dataclasses
import json
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import tide.autodiff as ad
from tide.autodiff import Tensor
from tide.detection import energy_score, propagate_energy, score_splits
from tide.experiment import FIXTURE_SHIFTS, bench_config, make_fixture
from tide.gradcheck import gradient_check_report
from tide.graph import GraphError, make_graph, sym_normalized_adjacency
from tide.model import (NOISE_STREAM, build_model, component_rng,
                        config_sha256, encode_feature, joint_logits_at_mean,
                        predict_logits, reparameterize)
from tide.objectives import (TERMS, club_estimate, cross_entropy,
                             energy_reg_loss, fit_critic, vib_loss)
from tide.shift import (CsbmParams, ShiftSpec, apply_feature_shift,
                        apply_shift, as_ood_bundle, gen_csbm)
from tide.trainer import (CRITIC_PAIRS, OBJECTIVE_MODES, AdamState,
                          ConfigError, TideConfig, TrainingError, adam_step,
                          branch, fit_critics, forward_components, train_tide,
                          write_train_log)
from conftest import tensors_held_by

FIXTURE = CsbmParams(n=120, C=3, d=8, p_in=0.15, p_out=0.02, mu_sep=2.0,
                     seed=0, train_frac=0.4, val_frac=0.2)


def fixture_graph(seed=0):
    return gen_csbm(dataclasses.replace(FIXTURE, seed=seed))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_validate(self):
        TideConfig()

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
        {"t_id": -2.0, "t_ood": -7.0},
        {"epochs": "5"},
        {"epochs": 5.0},
        {"hidden": True},
        {"lr": "0.01"},
        {"lr": False},
        {"seed": -1},
        {"objective_mode": 3},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            TideConfig(**kw)

    @pytest.mark.parametrize("build", [
        lambda kw: TideConfig(**kw),
        TideConfig.from_dict,
        lambda kw: dataclasses.replace(TideConfig(), **kw),
    ], ids=["constructor", "from_dict", "replace"])
    def test_every_way_of_building_rejects_a_bad_value(self, build):
        """``replace`` is how ``tide train`` applies its flag overrides."""
        for kw in ({"epochs": -1}, {"lr": float("nan")}, {"hidden": 2.0},
                   {"objective_mode": "vib"}):
            with pytest.raises(ConfigError):
                build(kw)
        lr = build({"lr": 1}).lr
        assert lr == 1.0 and type(lr) is float

    def test_round_trips_through_dict(self):
        cfg = TideConfig(beta_v=0.01, seed=3, objective_mode="ib_cind")
        again = TideConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_int_accepted_for_float_field(self):
        assert TideConfig.from_dict({"lr": 1, "t_id": -7}).lr == 1

    def test_int_and_float_spellings_hash_equal(self):
        as_int = TideConfig.from_dict({"lr": 1}).to_dict()
        as_float = TideConfig.from_dict({"lr": 1.0}).to_dict()
        assert config_sha256(as_int) == config_sha256(as_float)

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
        assert state.t == 1

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


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_initialization():
    g = fixture_graph()
    cfg = TideConfig(objective_mode="sl", epochs=0, seed=4)
    result = train_tide(g, cfg)
    init = build_model(g.d, cfg.hidden, g.C, seed=4)
    for name in init.names_in("z", "v", "q", "recon"):
        np.testing.assert_array_equal(result.model[name].values,
                                      init[name].values)


def test_train_requires_labeled_train_mask():
    g = make_graph([[0.0], [1.0]], [[0, 1]], [0, 1], masks={"val": [0]})
    with pytest.raises(GraphError, match="ID graph .*train"):
        train_tide(g, TideConfig(epochs=1))


@pytest.mark.parametrize("mode", ["sl", "ib", "ib_cind"])
def test_joint_only_modes_leave_v_and_q_untrained(mode):
    """Only tide builds V and Q; the other modes keep them at init."""
    g = fixture_graph()
    cfg = TideConfig(objective_mode=mode, epochs=3)
    result = train_tide(g, cfg)
    zero = ["ce_v", "kl_v", "ce_q", "kl_q", "pmi_zv", "pmi_zq", "pmi_vq"]
    if mode == "ib_cind":
        assert all(rec["loss"]["cind"] > 0 for rec in result.log)
    else:
        zero.append("cind")
    if mode == "sl":
        zero.append("kl_z")
    else:
        assert all(rec["loss"]["kl_z"] > 0 for rec in result.log)
    for rec in result.log:
        assert rec["loss"]["ce_z"] > 0
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
    assert all(last[f"{term}_{tag}"] > 0 for term in ("ce", "kl")
               for tag in "zvq")
    assert last["cind"] > 0
    assert any(last[k] != 0.0 for k in ("pmi_zv", "pmi_zq", "pmi_vq"))


def test_mean_branch_is_eval_path_and_sl_is_plain_cross_entropy():
    """The trainer's posterior-mean forward and eval's logits cannot drift,
    and sl's bottleneck term is the bare cross-entropy of those logits."""
    g = fixture_graph()
    model = build_model(g.d, 16, g.C, seed=2)
    logits = branch(model, g, "z")[2]
    np.testing.assert_array_equal(logits.values, joint_logits_at_mean(model, g))
    comps, _ = forward_components(model, g, TideConfig(objective_mode="sl"),
                                  {}, {})
    assert set(comps) == {"ce_z"}
    assert comps["ce_z"].item() == cross_entropy(logits, g.y, g.mask("train")).item()
    ad.clear_tape()


def _tape_ops() -> Counter:
    """How many entries on the tape each primitive recorded."""
    return Counter(next(fn for fn in entry.grad_fns if fn is not None)
                   .__qualname__.split(".")[0] for entry in ad._TAPE)


@pytest.mark.parametrize("mode", ["sl", "ib"])
def test_sl_epoch_and_mean_logits_build_no_sigma_head(mode, monkeypatch):
    """sl reads no KL and no sample, so its epoch's tape, exposure pass
    included, holds no softplus, and ``joint_logits_at_mean`` runs none;
    ib's tape holds the joint sigma head twice (ID and exposure)."""
    g = fixture_graph()
    exposure = apply_feature_shift(g, ShiftSpec("feature", intensity=0.8,
                                                seed=8))
    tapes = []

    def spy(loss, params):
        tapes.append(_tape_ops())
        return backward(loss, params)

    backward = ad.backward
    monkeypatch.setattr(ad, "backward", spy)
    train_tide(g, TideConfig(objective_mode=mode, epochs=1, hidden=8),
               exposure_graph=exposure)
    assert len(tapes) == 1 and tapes[0]["linear"] > 0
    assert tapes[0]["softplus"] == (0 if mode == "sl" else 2)
    calls = []
    softplus = ad.softplus
    monkeypatch.setattr(ad, "softplus", lambda a: calls.append(a) or softplus(a))
    joint_logits_at_mean(build_model(g.d, 8, g.C, seed=0), g)
    assert calls == []


def test_fit_critics_equal_per_pair_fit_critic_byte_for_byte():
    g = fixture_graph()
    config = TideConfig(hidden=8)
    model = build_model(g.d, config.hidden, g.C, 0)
    rng = np.random.default_rng(4)
    eps = {tag: rng.standard_normal((g.n, config.hidden)) for tag in "zvq"}
    zero = dict.fromkeys(CRITIC_PAIRS, np.zeros((config.hidden,) * 2))
    with ad.no_grad():
        outs = forward_components(model, g, config, eps, zero)[1]
    critics = fit_critics(outs)
    assert list(critics) == list(CRITIC_PAIRS)
    for pair, critic in critics.items():
        alone = fit_critic(outs[pair[0]].sample.values,
                           outs[pair[1]].sample.values)
        assert critic.tobytes() == alone.tobytes(), pair


def test_recorded_training_forward_holds_no_tensor_on_the_tape():
    """Every entry of a tide forward with its energy margin names tensors
    by slot only, so the tape keeps no intermediate alive by itself."""
    g = fixture_graph()
    exposure = apply_feature_shift(g, ShiftSpec("feature", intensity=0.8,
                                                seed=8))
    config = TideConfig(hidden=8, t_id=-1.2, t_ood=-1.0)
    model = build_model(g.d, config.hidden, g.C, 0)
    rng = np.random.default_rng(5)
    eps = {tag: rng.standard_normal(((exposure if tag == "z_exposure" else g).n,
                                     config.hidden)) for tag in NOISE_STREAM}
    critics = {pair: rng.normal(size=(config.hidden, config.hidden))
               for pair in CRITIC_PAIRS}
    ad.clear_tape()
    comps = forward_components(model, g, config, eps, critics, exposure)[0]
    assert set(comps) == set(TERMS) and ad.tape_size() == 78
    assert [e for e in ad._TAPE if tensors_held_by(e)] == []
    ad.clear_tape()


@pytest.mark.parametrize("exposed", [False, True], ids=["plain", "exposure"])
@pytest.mark.parametrize("mode", OBJECTIVE_MODES)
def test_every_forward_component_is_a_weighted_term(mode, exposed,
                                                     monkeypatch):
    """Whatever the training forward computes is a ``TERMS`` entry, so it
    reaches the fused loss or the log, and the log holds every term; of
    a branch it keeps the sample, the logits and (the joint network's
    only) the posterior mean."""
    g = fixture_graph()
    exposure = (apply_feature_shift(g, ShiftSpec("feature", intensity=0.8,
                                                 seed=8)) if exposed else None)
    seen = []

    def spy(*args):
        comps, outs = forward_components(*args)
        seen.append(set(comps))
        for tag, out in outs.items():
            assert out._fields == ("sample", "logits", "mu")
            assert (out.mu is None) == (tag != "z"), tag
        return comps, outs

    monkeypatch.setattr("tide.trainer.forward_components", spy)
    cfg = TideConfig(objective_mode=mode, epochs=2, t_id=-1.2, t_ood=-1.0)
    result = train_tide(g, cfg, exposure_graph=exposure)
    assert len(seen) == 2
    assert all(keys <= set(TERMS) for keys in seen)
    assert all(("energy_reg" in keys) == exposed for keys in seen)
    for rec in result.log:
        assert set(rec["loss"]) == set(TERMS) | {"total_z", "total_v",
                                                 "total_q"}


def _audit_forward_args(monkeypatch):
    """The arguments of the seed-0 gradient audit's forward: the probe
    model and graph, its tide config, frozen noise and fitted critics,
    and the exposure graph."""
    import tide.gradcheck as gc
    seen = []
    real = gc.forward_components

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(gc, "forward_components", spy)
    components, _ = gc.audit_probe(0)
    components()
    return seen[-1]


def _term_gradients(term, args):
    """Every parameter's gradient of ``term`` alone, off one forward."""
    ad.clear_tape()
    comps = forward_components(*args)[0]
    return ad.backward(comps[term], args[0].params)


def _unrouted(term, model):
    """Parameters of the networks ``TERMS`` does not route ``term`` to;
    a term routed to the joint network may also reach the decoder."""
    nets = TERMS[term][1]
    allowed = model.names_in(*nets, *(("recon",) if "z" in nets else ()))
    return [name for name in model.params if name not in allowed]


@pytest.mark.parametrize("term", list(TERMS))
def test_each_term_trains_only_the_networks_it_is_routed_to(term,
                                                            monkeypatch):
    """Backpropagated alone through the audit probe's tide forward with
    exposure, a term gives an exactly-zero gradient to every parameter
    of a network it is not routed to, and reaches each one it is. The
    gradient audit cannot see a read on the tape across networks: the
    gradient is right, the routing is not."""
    args = _audit_forward_args(monkeypatch)
    model = args[0]
    grads = _term_gradients(term, args)
    assert [name for name in _unrouted(term, model) if grads[name].any()] == []
    for net in TERMS[term][1]:
        assert any(grads[name].any() for name in model.names_in(net)), net


def test_routing_check_names_an_on_tape_cross_network_read(monkeypatch):
    """The feature head's logits scaled by the joint head's weights' sum
    through the tape: every audited gradient is right, but the feature
    network's cross-entropy now trains the joint network, against
    ``TERMS``, and the routing check names the term and the weight."""
    args = _audit_forward_args(monkeypatch)

    def planted(sample, A_norm, model, which):
        logits = predict_logits(sample, A_norm, model, which)
        if which != "v":
            return logits
        return ad.mul(logits, ad.tsum(model["z_head.W"]))

    monkeypatch.setattr("tide.trainer.predict_logits", planted)
    model = args[0]
    grads = {term: _term_gradients(term, args) for term in TERMS}
    leaks = [(term, name) for term in TERMS
             for name in _unrouted(term, model) if grads[term][name].any()]
    assert leaks == [("ce_v", "z_head.W")]


def test_epoch_frees_its_samples_sigmas_and_gradients_before_next_forward(
        monkeypatch):
    """When epoch t+1's forward starts, no array of epoch t's forward or
    backward is alive: its samples, its posteriors' sigmas (the exposure
    pass's included) and its gradients; and a forward's result holds no
    sigma."""
    g = fixture_graph()
    exposure = apply_feature_shift(g, ShiftSpec("feature", intensity=0.8,
                                                seed=8))
    calls: list[list] = []  # per forward: weak references to its arrays
    sigmas: list[list] = []
    real_backward = ad.backward

    def forward(*args):
        if calls:
            alive = [ref for ref in calls[-1] if ref() is not None]
            assert alive == [], f"forward {len(calls) - 1}: {len(alive)} alive"
        calls.append([])
        sigmas.append([])
        comps, outs = forward_components(*args)
        # Nothing the forward returns, nor its tape, holds a sigma.
        assert [ref for ref in sigmas[-1] if ref() is not None] == []
        calls[-1] += [weakref.ref(out.sample.values) for out in outs.values()]
        return comps, outs

    def sample(dist, noise):
        sigmas[-1].append(weakref.ref(dist.sigma.values))
        return reparameterize(dist, noise)

    def backward(loss, params):
        grads = real_backward(loss, params)
        calls[-1] += [weakref.ref(a) for a in grads.values()]
        return grads

    monkeypatch.setattr("tide.trainer.forward_components", forward)
    monkeypatch.setattr("tide.trainer.reparameterize", sample)
    monkeypatch.setattr(ad, "backward", backward)
    train_tide(g, TideConfig(hidden=8, epochs=3, t_id=-1.2, t_ood=-1.0),
               exposure_graph=exposure)
    assert len(calls) == 3
    # Per epoch four sigmas (the exposure pass draws one), three samples
    # and a gradient per trained parameter.
    assert [len(s) for s in sigmas] == [4] * 3
    assert len(calls[1]) == 3 + len(build_model(g.d, 8, g.C, 0).params)


def test_train_ce_halves_from_first_epoch():
    g = fixture_graph()
    result = train_tide(g, TideConfig(objective_mode="tide", epochs=60))
    first = result.log[0]["loss"]["ce_z"]
    # Per-epoch samples keep the curve noisy, so check the best point
    # reached rather than the final epoch.
    assert min(rec["loss"]["ce_z"] for rec in result.log) <= 0.5 * first


def test_tide_dependence_penalties_stay_bounded():
    """A benchmark-length tide run on the joint fixture keeps every
    dependence penalty bounded and ends near its best validation
    accuracy, rather than diverging and leaning on early stopping."""
    g, _ = make_fixture("joint", 0)
    result = train_tide(g, bench_config("tide", 0))
    worst = max(abs(rec["loss"][f"pmi_{pair}"]) for rec in result.log
                for pair in CRITIC_PAIRS)
    assert worst < 10.0
    assert result.log[-1]["val_acc"] >= result.best_val_acc - 0.15


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
    v_params = {n: solo[n] for n in solo.names_in("v")}
    state = AdamState()
    rng_v = component_rng(seed, NOISE_STREAM["v"])
    X = Tensor(g.X)
    for _ in range(epochs):
        ad.clear_tape()
        dist = encode_feature(X, solo)
        sample = reparameterize(dist, rng_v.standard_normal(dist.mu.shape))
        logits = predict_logits(sample, None, solo, "v")
        ce, kl = vib_loss(logits, g.y, g.mask("train"), dist)
        loss = ad.add(ce, ad.mul(kl, cfg.beta_v))
        adam_step(v_params, ad.backward(loss, v_params), state, cfg.lr)

    for name in v_params:
        np.testing.assert_array_equal(joint.model[name].values,
                                      solo[name].values), name


def test_full_run_is_bit_deterministic():
    g = fixture_graph(seed=2)
    cfg = TideConfig(objective_mode="tide", epochs=8, seed=3)
    a, b = train_tide(g, cfg), train_tide(g, cfg)
    for name in a.model.names_in("z", "v", "q", "recon"):
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


@pytest.mark.parametrize("mode,exposed", [
    ("sl", False), ("ib", False), ("ib_cind", False), ("tide", False),
    ("ib", True),
], ids=["sl", "ib", "ib_cind", "tide", "ib-exposure"])
def test_validation_reads_the_parameters_each_epoch_stepped_to(
        mode, exposed, monkeypatch):
    """Each epoch is validated on the parameters its steps produced, as a
    separate mean-path pass after the step would see them, although the
    trainer reads them off the next epoch's forward and runs that pass
    only once, after the last epoch."""
    g = fixture_graph(seed=1)
    exposure = (apply_feature_shift(g, ShiftSpec("feature", intensity=0.8,
                                                 seed=8)) if exposed else None)
    val = g.mask("val")
    built, after_step, snapshots = [], [], []

    def build(*args):
        built.append(build_model(*args))
        return built[-1]

    def stepped(params, grads, state, lr):
        adam_step(params, grads, state, lr)
        logits = joint_logits_at_mean(built[-1], g)
        after_step.append(float(np.mean(logits[val].argmax(axis=1)
                                        == g.y[val])))
        snapshots.append(built[-1].snapshot())

    passes = []

    def counted(model, graph):
        passes.append(graph)
        return joint_logits_at_mean(model, graph)

    monkeypatch.setattr("tide.trainer.adam_step", stepped)
    monkeypatch.setattr("tide.trainer.build_model", build)
    monkeypatch.setattr("tide.trainer.joint_logits_at_mean", counted)
    cfg = TideConfig(objective_mode=mode, epochs=12, seed=2,
                     t_id=-1.2, t_ood=-1.0)
    result = train_tide(g, cfg, exposure_graph=exposure)

    assert len(built) == 1 and len(passes) == 1 and passes[0] is g
    assert [rec["epoch"] for rec in result.log] == list(range(12))
    assert [rec["val_acc"] for rec in result.log] == after_step
    best = max(after_step)
    assert result.best_val_acc == best
    assert result.best_epoch == 11 - after_step[::-1].index(best)
    for name, values in snapshots[result.best_epoch].items():
        np.testing.assert_array_equal(result.model[name].values, values)


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
    exposure = apply_feature_shift(g, ShiftSpec("feature", intensity=0.8,
                                                seed=8))
    cfg = TideConfig(objective_mode="tide", epochs=3, t_id=-1.2, t_ood=-1.0)
    result = train_tide(g, cfg, exposure_graph=exposure)
    assert all(np.isfinite(rec["loss"]["energy_reg"]) for rec in result.log)
    assert any(rec["loss"]["energy_reg"] > 0 for rec in result.log)


def _train_energy_gap(model, g, exposure, config):
    """Mean propagated energy of the exposure train rows minus that of
    the ID train rows, at the posterior mean."""
    def mean_train_energy(graph):
        raw = energy_score(joint_logits_at_mean(model, graph))
        e = propagate_energy(raw, graph, config.prop_alpha, config.prop_k).e
        return float(np.mean(e[graph.mask("train")]))
    return mean_train_energy(exposure) - mean_train_energy(g)


@pytest.mark.parametrize("seed", range(5))
def test_exposure_margin_widens_energy_gap(seed):
    """The margin pushes ID energies down and exposure energies up, the
    detector's orientation, so training with exposure widens the gap."""
    g, _ = make_fixture("structure", seed)
    exposure = as_ood_bundle(apply_shift(g, dataclasses.replace(
        FIXTURE_SHIFTS["structure"], seed=seed + 90001)))
    config = bench_config("ib", seed)
    without, with_exposure = (
        _train_energy_gap(train_tide(g, config, exposure_graph=x).model,
                          g, exposure, config)
        for x in (None, exposure))
    assert with_exposure > without


def test_gradient_audit_probes_both_margin_hinges(monkeypatch):
    """At the audit's thresholds some ID rows sit above t_id and some
    exposure rows below t_ood, and no probed energy is within the step
    of a threshold, where a central difference would straddle the point
    at which a hinge switches on."""
    h = 1e-5
    calls = []

    def spy(e_id, e_ood, t_id, t_ood):
        calls.append((e_id.values.copy(), e_ood.values.copy(), t_id, t_ood))
        return energy_reg_loss(e_id, e_ood, t_id, t_ood)

    monkeypatch.setattr("tide.trainer.energy_reg_loss", spy)
    gradient_check_report(seed=0, h=h)
    e_id, e_ood, t_id, t_ood = calls[0]
    assert (e_id > t_id).any() and (e_ood < t_ood).any()
    nearest = min(min(np.abs(e_id - t_id).min(), np.abs(e_ood - t_ood).min())
                  for e_id, e_ood, t_id, t_ood in calls)
    assert nearest > h


def test_gradient_audit_records_at_most_50k_ops(monkeypatch):
    """On the audit's small blocks each op's fixed cost outweighs its
    arithmetic, so the number of ops it runs, taped or not, is its
    budget. One full forward per parameter on the stack of its probes,
    with one tape entry per fused loss term, makes it 2,764 at seed 0
    (49,710 with two forwards per parameter entry, and 114,438 before
    that, when the weighted total, the dependence estimate and the
    energy margin were chains of elementary ops)."""
    calls = []
    real = ad._record

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(ad, "_record", spy)
    gradient_check_report(seed=0)
    assert len(calls) <= 2_800


def _audit_forwards(monkeypatch):
    """Run the seed-0 audit and return, per ``forward_components`` call
    of gradcheck, the parameter whose probes it ran on (None: a 2-D
    forward)."""
    import tide.gradcheck as gc
    stacked = []
    real = gc.forward_components

    def spy(*args):
        moved = [name for name, p in args[0].params.items()
                 if p.values.ndim == 3]
        stacked.append(moved[0] if moved else None)
        assert len(moved) <= 1
        return real(*args)

    monkeypatch.setattr(gc, "forward_components", spy)
    return gradient_check_report(seed=0), stacked


def test_gradient_audit_reads_every_component_off_one_forward(monkeypatch):
    """The audit's forwards are all full ones: one untaped to fit the
    critics, one per component on the tape, then per parameter of the
    probe model, in order, one on the stack of its 920-entry sweep's
    probes, read by every component."""
    import tide.gradcheck as gc
    report, stacked = _audit_forwards(monkeypatch)
    model = build_model(gc.PROBE_D, gc.PROBE_HIDDEN, gc.PROBE_C, 0)
    entries = sum(p.values.size for p in model.params.values())
    assert entries == 920 and len(model.params) == 28 and len(report) == 6
    assert stacked == [None] * (1 + len(report)) + list(model.params)
    assert len(stacked) == 35


def test_gradient_audit_computes_each_ce_and_kl_once_per_forward(monkeypatch):
    """The audit reads the joint network's CE and KL off the training
    forward rather than recomputing them: every one of its tide-mode
    forwards computes the three networks' CE and KL once each, and
    nothing else does."""
    import tide.objectives as obj
    counts = dict.fromkeys(("cross_entropy", "kl_standard_normal"), 0)

    def counted(name, fn):
        def spy(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in counts:
        real = getattr(obj, name)
        spy = counted(name, real)
        for key, module in list(sys.modules.items()):
            if key.startswith("tide.") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    _, stacked = _audit_forwards(monkeypatch)
    assert len(stacked) == 35
    assert counts["cross_entropy"] == 3 * 35
    assert counts["kl_standard_normal"] == 3 * 35


def test_gradient_audit_probe_failure_names_parameter_and_entry(monkeypatch):
    """Overflow in the training forward's cross-entropy while
    z_head.W[1, 2] (flat entry 5) is perturbed: it fails the forward on
    the stack of z_head.W's probes, and the audit names the entry by
    re-evaluating them one at a time."""
    import tide.gradcheck as gc
    import tide.objectives as obj
    probed = []
    real_build, real_ce = gc.build_model, obj.cross_entropy

    def build_spy(*args):
        model = real_build(*args)
        W = model["z_head.W"]
        probed.append((W, W.values[1, 2]))
        return model

    def ce_spy(logits, labels, mask):
        W, start = probed[0]
        if (W.values[..., 1, 2] != start).any():
            ad.mul([[1e200]], [[1e200]])
        return real_ce(logits, labels, mask)

    monkeypatch.setattr(gc, "build_model", build_spy)
    monkeypatch.setattr(obj, "cross_entropy", ce_spy)
    with np.errstate(over="ignore"), pytest.raises(ad.NumericsError) as exc:
        gradient_check_report(seed=0)
    assert str(exc.value).startswith(
        "non-finite value probing z_head.W entry 5: component vib_z: "
        "mul produced non-finite")


def test_gradient_audit_loss_term_failure_names_parameter_entry_and_term(
        monkeypatch):
    """An overflow inside a loss term during a probe keeps its type, so
    the sweep still names the perturbed parameter and entry, and the
    term's name survives beside them. The 22nd call is the first of the
    forward on the stack of z_enc.gcn1.W's probes: 3 calls each for the
    critic fit and the six taped forwards precede it. That failure ends
    the stacked forward and makes the audit re-evaluate the probes one
    at a time, and the 41st call is the first of the seventh of them,
    entry 3's +h probe, after 18 for the first three entries' six
    probes."""
    calls = []

    def spy(*args):
        calls.append(None)
        if len(calls) in (22, 41):
            ad.mul([[1e200]], [[1e200]])
        return club_estimate(*args)

    monkeypatch.setattr("tide.trainer.club_estimate", spy)
    with np.errstate(over="ignore"), pytest.raises(ad.NumericsError) as exc:
        gradient_check_report(seed=0)
    assert str(exc.value).startswith(
        "non-finite value probing z_enc.gcn1.W entry 3: component pmi_zv: "
        "mul produced non-finite")


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
