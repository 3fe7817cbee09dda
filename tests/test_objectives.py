import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tide.autodiff as ad
from tide.autodiff import Tensor
from tide.graph import sym_normalized_adjacency
from tide.model import LatentDistribution, build_model, encode_joint, reparameterize
from tide.objectives import (TERMS, LossError, club_estimate, cross_entropy,
                             energy_reg_loss, fit_critic, kl_standard_normal,
                             recon_cind_loss, tide_total, vib_loss)
from tide.trainer import ConfigError, TideConfig, _loss_breakdown
from conftest import random_graph
from oracles import club_all_pairs


def dist_of(mu, sigma):
    mu = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    return LatentDistribution(Tensor(mu), Tensor(sigma))


# ---------------------------------------------------------------------------
# KL
# ---------------------------------------------------------------------------

def test_kl_zero_at_standard_normal():
    assert kl_standard_normal(dist_of([[0.0]], [[1.0]])).item() == 0.0


def test_kl_half_mu_squared():
    assert kl_standard_normal(dist_of([[1.0]], [[1.0]])).item() \
        == pytest.approx(0.5, abs=1e-12)


def test_kl_wide_sigma_closed_form():
    expected = 0.5 * (4.0 - 1.0 - math.log(4.0))
    assert kl_standard_normal(dist_of([[0.0]], [[2.0]])).item() \
        == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.80685, abs=5e-6)


def test_kl_averages_over_rows_sums_over_dims():
    # Two rows, each contributing 0.5 per dimension.
    d = dist_of([[1.0, 1.0], [1.0, 1.0]], np.ones((2, 2)))
    assert kl_standard_normal(d).item() == pytest.approx(1.0, abs=1e-12)


@given(hnp.arrays(np.float64, (3, 2),
                  elements=st.floats(-3, 3, allow_nan=False)),
       hnp.arrays(np.float64, (3, 2),
                  elements=st.floats(0.05, 4, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_kl_nonnegative(mu, sigma):
    assert kl_standard_normal(dist_of(mu, sigma)).item() >= -1e-12


@given(st.floats(-2, 2), st.floats(0.1, 3), st.floats(-2, 2),
       st.floats(0.1, 3))
@settings(max_examples=50, deadline=None)
def test_kl_convex_in_mean_and_variance(m1, v1, m2, v2):
    def kl(m, var):
        return kl_standard_normal(dist_of([[m]], [[math.sqrt(var)]])).item()

    mid = kl(0.5 * (m1 + m2), 0.5 * (v1 + v2))
    assert mid <= 0.5 * (kl(m1, v1) + kl(m2, v2)) + 1e-10


# ---------------------------------------------------------------------------
# cross entropy / VIB
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits_is_log_C():
    ce = cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]),
                       np.arange(4))
    assert ce.item() == pytest.approx(math.log(3), abs=1e-12)


def test_cross_entropy_vanishes_for_confident_correct_logits():
    labels = np.array([0, 1])
    previous = math.inf
    for scale in (1.0, 10.0, 100.0):
        logits = Tensor(scale * np.eye(2))
        ce = cross_entropy(logits, labels, np.arange(2)).item()
        assert ce < previous
        previous = ce
    assert previous < 1e-40


def test_cross_entropy_empty_mask_rejected():
    with pytest.raises(LossError, match="mask"):
        cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 1]),
                      np.array([], dtype=np.int64))


def test_vib_beta_zero_is_pure_ce():
    """A zero beta logs the KL but leaves it out of the fused loss."""
    logits = Tensor(np.array([[0.2, -0.4], [1.0, 0.0]]))
    labels = np.array([1, 0])
    mask = np.arange(2)
    d = dist_of(np.ones((2, 2)), np.ones((2, 2)))
    ce, kl = vib_loss(logits, labels, mask, d)
    comps, cfg = {"ce_z": ce, "kl_z": kl}, TideConfig(beta_z=0.0)
    fused, br = tide_total(comps, cfg), _loss_breakdown(comps, cfg)
    assert fused is ce
    assert br["kl_z"] == kl.item() > 0
    assert br["total_z"] == ce.item()


def test_vib_composes_ce_plus_beta_kl():
    logits = Tensor(np.array([[0.2, -0.4], [1.0, 0.0], [0.0, 3.0]]))
    labels = np.array([1, 0, 1])
    mask = np.array([0, 2])
    d = dist_of([[1.0], [2.0], [3.0]], [[1.0], [1.0], [2.0]])
    ce, kl = vib_loss(logits, labels, mask, d)
    assert ce.item() == cross_entropy(logits, labels, mask).item()
    assert kl.item() == kl_standard_normal(d.rows(mask)).item()
    fused = tide_total({"ce_z": ce, "kl_z": kl}, TideConfig(beta_z=0.001))
    assert fused.item() == pytest.approx(ce.item() + 0.001 * kl.item(),
                                         rel=1e-12)


@pytest.mark.parametrize("field", sorted({f for f, _ in TERMS.values() if f}))
def test_every_terms_weight_must_be_nonnegative(field):
    """Weights are config fields, so the config rejects a negative one
    before any loss is built."""
    with pytest.raises(ConfigError, match=f"{field} must be >= 0"):
        TideConfig(**{field: -0.1})


# ---------------------------------------------------------------------------
# CLUB
# ---------------------------------------------------------------------------

def test_club_single_sample_is_zero():
    v = club_estimate(Tensor([[1.0, 2.0]]), Tensor([[0.5, -1.0]]), np.eye(2))
    assert v.item() == 0.0


def test_club_constant_second_set_is_zero(rng):
    s1 = Tensor(rng.normal(size=(6, 3)))
    s2 = Tensor(np.tile([[0.3, 0.7, -0.2]], (6, 1)))
    v = club_estimate(s1, s2, np.eye(3))
    assert abs(v.item()) < 1e-12


def test_club_zero_projection_is_zero(rng):
    s1 = Tensor(rng.normal(size=(5, 3)))
    s2 = Tensor(rng.normal(size=(5, 3)))
    v = club_estimate(s1, s2, np.zeros((3, 3)))
    assert v.item() == 0.0


def test_club_sample_count_mismatch():
    with pytest.raises(LossError):
        club_estimate(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))),
                      np.eye(2))


@pytest.mark.parametrize("n,d1,d2", [(1, 3, 2), (2, 1, 1), (9, 4, 3),
                                     (60, 6, 8)])
def test_club_matches_all_pairs_definition(n, d1, d2):
    """The cross-covariance form equals the n x n definition with the
    critic as the first projection and the identity as the second,
    gradients too."""
    rng = np.random.default_rng([n, d1, d2])
    arrays = {"s1": rng.normal(size=(n, d1)), "s2": rng.normal(size=(n, d2)),
              "p1": rng.normal(size=(d1, d2))}
    want, want_grads = club_all_pairs(**arrays, p2=np.eye(d2))
    leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    ad.clear_tape()
    got = club_estimate(leaves["s1"], leaves["s2"], leaves["p1"])
    np.testing.assert_allclose(got.item(), want, rtol=1e-12)
    grads = ad.backward(got, leaves)
    for k in leaves:
        # Entries that cancel to ~1e-6 of the largest carry only absolute
        # rounding, so they get an absolute floor at that scale.
        want_k = want_grads[k]
        np.testing.assert_allclose(grads[k], want_k, rtol=1e-10, err_msg=k,
                                   atol=1e-12 * np.abs(want_k).max())


def test_club_gradients_match_central_differences():
    rng = np.random.default_rng(21)
    leaves = {"s1": rng.normal(size=(12, 4)), "s2": rng.normal(size=(12, 3)),
              "p": rng.normal(size=(4, 3))}
    leaves = {k: Tensor(v, requires_grad=True) for k, v in leaves.items()}
    errors = ad.check_gradients_params(
        lambda name: {"club": club_estimate(leaves["s1"], leaves["s2"],
                                            leaves["p"])},
        leaves)["club"]
    assert set(errors) == {"s1", "s2", "p"}
    assert max(errors.values()) < 1e-6, errors


def test_club_invariant_to_constant_row_shift(rng):
    s1, s2 = rng.normal(size=(30, 4)), rng.normal(size=(30, 3))
    p = rng.normal(size=(4, 3))
    base = club_estimate(Tensor(s1), Tensor(s2), p).item()
    shift1, shift2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 3))
    for a, b in ((s1 + shift1, s2), (s1, s2 + shift2)):
        assert abs(club_estimate(Tensor(a), Tensor(b), p).item()
                   - base) < 1e-12


def test_fitted_critic_separates_dependent_from_independent():
    """Correlated pairs score clearly above independent ones, and the
    estimate at the fitted critic is never negative."""
    n, dim = 256, 4

    def fitted(s1, s2):
        return club_estimate(Tensor(s1), Tensor(s2), fit_critic(s1, s2)).item()

    for seed in range(3):
        rng = np.random.default_rng([seed, 17])
        base = rng.normal(size=(n, dim))
        dependent = 0.9 * base + math.sqrt(1 - 0.81) * rng.normal(size=(n, dim))
        independent = rng.normal(size=(n, dim))
        hi, lo = fitted(base, dependent), fitted(base, independent)
        assert hi > lo >= 0.0, f"seed {seed}: {hi} <= {lo}"


# ---------------------------------------------------------------------------
# reconstruction + energy regularizer
# ---------------------------------------------------------------------------

def test_recon_loss_zero_head_is_mean_square(rng):
    model = build_model(d=3, hidden=4, C=2, seed=0)
    for name in model.names_in("recon"):
        model[name].values[...] = 0.0
    X = rng.normal(size=(5, 3))
    loss = recon_cind_loss(Tensor(np.ones((5, 4))), Tensor(X), model)
    assert loss.item() == pytest.approx(np.mean(X ** 2), rel=1e-12)


def test_mse_unit_residual_is_one(rng):
    X = rng.normal(size=(4, 3))
    assert ad.mse(Tensor(X + 1.0), Tensor(X)).item() == pytest.approx(1.0)


def col(*values):
    return Tensor(np.array(values, dtype=float).reshape(-1, 1))


def test_energy_reg_zero_inside_margins():
    """ID energies below t_id and exposure energies above t_ood, the
    detector's own ordering, cost nothing."""
    loss = energy_reg_loss(col(-6.0, -7.5), col(-3.0, -2.0),
                           t_id=-5.0, t_ood=-4.0)
    assert loss.item() == 0.0


def test_energy_reg_squared_hinge_contribution():
    # ID node 2 above t_id -> 4; exposure node 3 below t_ood -> 9.
    assert energy_reg_loss(col(-2.0), col(0.0), t_id=-4.0, t_ood=-3.0
                           ).item() == pytest.approx(4.0, abs=1e-12)
    assert energy_reg_loss(col(-9.0), col(-6.0), t_id=-4.0, t_ood=-3.0
                           ).item() == pytest.approx(9.0, abs=1e-12)


def test_energy_reg_penalizes_swapped_populations():
    """Swapping the two populations activates both hinges, each a mean
    over its own rows."""
    loss = energy_reg_loss(col(-2.0, -5.0), col(-6.0), t_id=-4.0, t_ood=-3.0)
    assert loss.item() == pytest.approx(4.0 / 2 + 9.0, abs=1e-12)


def test_energy_reg_monotone_in_violation():
    id_side = [energy_reg_loss(col(v), col(0.0), t_id=-4.0, t_ood=-3.0).item()
               for v in (-4.0, -3.0, -2.0, 0.0)]
    ood_side = [energy_reg_loss(col(-9.0), col(v), t_id=-4.0, t_ood=-3.0).item()
                for v in (-3.0, -4.0, -5.0, -7.0)]
    for values in (id_side, ood_side):
        assert values == sorted(values)
        assert values[0] == 0.0 < values[1]


def test_energy_reg_gradients_match_central_differences():
    e_id = col(-5.0, -3.5, -2.2, -4.5, -3.9)
    e_ood = col(-4.8, -3.3, -2.1, -3.6)
    # Both hinges are active on some rows and idle on others.
    assert energy_reg_loss(e_id, col(0.0), -4.0, -3.0).item() > 0.0
    assert energy_reg_loss(col(-9.0), e_ood, -4.0, -3.0).item() > 0.0
    x_id = Tensor(e_id.values.copy(), requires_grad=True)
    x_ood = Tensor(e_ood.values.copy(), requires_grad=True)
    errors = ad.check_gradients_params(
        lambda name: {"id": energy_reg_loss(x_id, e_ood, -4.0, -3.0),
                      "ood": energy_reg_loss(e_id, x_ood, -4.0, -3.0)},
        {"x_id": x_id, "x_ood": x_ood})
    assert max(errors["id"]["x_id"], errors["ood"]["x_ood"]) < 1e-6
    assert errors["id"]["x_ood"] == errors["ood"]["x_id"] == 0.0


def test_energy_reg_threshold_order_enforced():
    with pytest.raises(LossError):
        energy_reg_loss(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))),
                        t_id=-1.0, t_ood=-2.0)


# ---------------------------------------------------------------------------
# routed total
# ---------------------------------------------------------------------------

def scalar(v):
    return Tensor(np.array([[float(v)]]))


def test_tide_total_routes_per_network():
    cfg = TideConfig(alpha1=0.1, alpha2=0.2, alpha3=0.3, lambda_cind=0.5,
                     lambda_oe=2.0)
    comps = {"ce_z": scalar(1.0), "ce_v": scalar(2.0), "ce_q": scalar(3.0),
             "kl_z": scalar(10.0), "kl_v": scalar(20.0), "kl_q": scalar(30.0),
             "cind": scalar(4.0), "pmi_zv": scalar(5.0),
             "pmi_zq": scalar(6.0), "pmi_vq": scalar(7.0),
             "energy_reg": scalar(8.0)}
    fused, br = tide_total(comps, cfg), _loss_breakdown(comps, cfg)
    b = cfg.beta_z
    assert cfg.beta_v == cfg.beta_q == b
    assert br["total_z"] == pytest.approx(
        1 + b * 10 + 0.5 * 4 + 0.1 * 5 + 0.2 * 6 + 2.0 * 8)
    assert br["total_v"] == pytest.approx(2 + b * 20 + 0.1 * 5 + 0.3 * 7)
    assert br["total_q"] == pytest.approx(3 + b * 30 + 0.2 * 6 + 0.3 * 7)
    expected_fused = (1 + 2 + 3 + b * (10 + 20 + 30) + 0.5 * 4 + 0.1 * 5
                      + 0.2 * 6 + 0.3 * 7 + 2.0 * 8)
    assert fused.item() == pytest.approx(expected_fused, rel=1e-12)


def test_tide_total_zero_couplings_reduce_to_vibs():
    cfg = TideConfig(alpha1=0.0, alpha2=0.0, alpha3=0.0, lambda_cind=0.0,
                     beta_z=0.5, beta_v=0.25, beta_q=0.125)
    comps = {"ce_z": scalar(1.5), "ce_v": scalar(0.5), "ce_q": scalar(2.0),
             "kl_z": scalar(2.0), "kl_v": scalar(4.0), "kl_q": scalar(8.0)}
    fused, br = tide_total(comps, cfg), _loss_breakdown(comps, cfg)
    assert (br["total_z"], br["total_v"], br["total_q"]) == (2.5, 1.5, 3.0)
    assert fused.item() == pytest.approx(7.0)


def test_tide_total_without_components_rejected():
    with pytest.raises(LossError):
        tide_total({}, TideConfig())


def test_tide_total_over_every_term_records_one_entry(monkeypatch):
    """All eleven weighted terms fuse into one tape entry, whose gradient
    hands each term its weight."""
    recorded = []
    real = ad._record

    def spy(op, *args):
        recorded.append(op)
        return real(op, *args)

    cfg = TideConfig(alpha1=0.1, alpha2=0.2, alpha3=0.3, lambda_cind=0.5,
                     lambda_oe=2.0)
    comps = {name: Tensor([[i + 1.0]], requires_grad=True)
             for i, name in enumerate(TERMS)}
    ad.clear_tape()
    monkeypatch.setattr(ad, "_record", spy)
    fused = tide_total(comps, cfg)
    assert recorded == ["weighted_sum"] and ad.tape_size() == 1
    grads = ad.backward(fused, comps)
    for name, (field, _) in TERMS.items():
        w = 1.0 if field is None else getattr(cfg, field)
        assert grads[name].tolist() == [[w]], name


def test_cind_gradient_stays_out_of_feature_and_structure_nets(rng):
    """Reconstruction loss must touch only the joint encoder + decoder."""
    g = random_graph(rng, n=6, d=3)
    model = build_model(d=3, hidden=4, C=2, seed=0)
    A = sym_normalized_adjacency(g)
    dist = encode_joint(Tensor(g.X), A, model)
    z = reparameterize(dist, rng.normal(size=(6, 4)))
    loss = recon_cind_loss(z, Tensor(g.X), model)
    wrt = {name: model[name] for name
           in model.names_in("z", "v", "q", "recon")}
    grads = ad.backward(loss, wrt)
    for name, grad in grads.items():
        flowing = np.abs(grad).max() > 0
        if name.startswith(("v_", "q_")):
            assert not flowing, f"{name} received CInd gradient"
    assert any(np.abs(grads[n]).max() > 0 for n in wrt if n.startswith("z_enc"))
    assert any(np.abs(grads[n]).max() > 0 for n in wrt if n.startswith("recon"))
