import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tide.autodiff as ad
from tide.autodiff import Tensor
from tide.graph import sym_normalized_adjacency
from tide.model import LatentDistribution, build_model, encode_joint, reparameterize
from tide.objectives import (LossError, club_estimate, cross_entropy,
                             energy_reg_loss, kl_standard_normal,
                             recon_cind_loss, tide_total, train_club_head,
                             vib_loss)
from tide.trainer import TideConfig
from conftest import random_graph


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
    logits = Tensor(np.array([[0.2, -0.4], [1.0, 0.0]]))
    labels = np.array([1, 0])
    mask = np.arange(2)
    d = dist_of(np.ones((2, 2)), np.ones((2, 2)))
    vib = vib_loss(logits, labels, mask, d, beta=0.0)
    ce = cross_entropy(logits, labels, mask)
    assert vib.item() == ce.item()


def test_vib_composes_ce_plus_beta_kl():
    logits = Tensor(np.array([[0.2, -0.4], [1.0, 0.0], [0.0, 3.0]]))
    labels = np.array([1, 0, 1])
    mask = np.array([0, 2])
    d = dist_of([[1.0], [2.0], [3.0]], [[1.0], [1.0], [2.0]])
    got = vib_loss(logits, labels, mask, d, beta=0.001).item()
    ce = cross_entropy(logits, labels, mask).item()
    kl = kl_standard_normal(d.rows(mask)).item()
    assert got == pytest.approx(ce + 0.001 * kl, rel=1e-12)


def test_vib_negative_beta_rejected():
    with pytest.raises(LossError):
        vib_loss(Tensor(np.zeros((1, 2))), np.array([0]), np.array([0]),
                 dist_of([[0.0]], [[1.0]]), beta=-0.1)


# ---------------------------------------------------------------------------
# CLUB
# ---------------------------------------------------------------------------

def test_club_single_sample_is_zero():
    v = club_estimate(Tensor([[1.0, 2.0]]), Tensor([[0.5, -1.0]]),
                      Tensor(np.eye(2)), Tensor(np.eye(2)))
    assert v.item() == 0.0


def test_club_constant_second_set_is_zero(rng):
    s1 = Tensor(rng.normal(size=(6, 3)))
    s2 = Tensor(np.tile([[0.3, 0.7, -0.2]], (6, 1)))
    v = club_estimate(s1, s2, Tensor(np.eye(3)), Tensor(np.eye(3)))
    assert abs(v.item()) < 1e-12


def test_club_zero_projection_is_zero(rng):
    s1 = Tensor(rng.normal(size=(5, 3)))
    s2 = Tensor(rng.normal(size=(5, 3)))
    v = club_estimate(s1, s2, Tensor(np.zeros((3, 3))), Tensor(np.eye(3)))
    assert v.item() == 0.0


def test_club_sample_count_mismatch():
    with pytest.raises(LossError):
        club_estimate(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))),
                      Tensor(np.eye(2)), Tensor(np.eye(2)))


def test_trained_club_separates_dependent_from_independent():
    """Correlated pairs should score clearly above independent ones."""
    n, dim = 256, 4
    for seed in range(3):
        rng = np.random.default_rng([seed, 17])
        base = rng.normal(size=(n, dim))
        dependent = 0.9 * base + math.sqrt(1 - 0.81) * rng.normal(size=(n, dim))
        independent = rng.normal(size=(n, dim))
        hi = train_club_head(base, dependent, seed=seed, steps=120)
        lo = train_club_head(base, independent, seed=seed, steps=120)
        assert hi > lo, f"seed {seed}: {hi} <= {lo}"


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


def test_energy_reg_zero_inside_margins():
    e_id = Tensor(np.array([[-3.0], [-2.5]]))
    e_ood = Tensor(np.array([[-6.0], [-7.0]]))
    loss = energy_reg_loss(e_id, e_ood, t_id=-5.0, t_ood=-4.0)
    assert loss.item() == 0.0


def test_energy_reg_squared_hinge_contribution():
    # Single ID node violating t_id by exactly 2 -> mean contribution 4.
    e_id = Tensor(np.array([[-6.0]]))
    e_ood = Tensor(np.array([[-9.0]]))
    loss = energy_reg_loss(e_id, e_ood, t_id=-4.0, t_ood=-3.0)
    assert loss.item() == pytest.approx(4.0, abs=1e-12)


def test_energy_reg_monotone_in_violation():
    e_ood = Tensor(np.array([[-9.0]]))
    values = [energy_reg_loss(Tensor(np.array([[v]])), e_ood,
                              t_id=-4.0, t_ood=-3.0).item()
              for v in (-4.0, -5.0, -6.0, -8.0)]
    assert values == sorted(values)
    assert values[0] == 0.0


def test_energy_reg_flip_swaps_hinge_sides():
    e_id = Tensor(np.array([[-6.0]]))
    e_ood = Tensor(np.array([[-2.0]]))
    plain = energy_reg_loss(e_id, e_ood, t_id=-4.0, t_ood=-3.0).item()
    flipped = energy_reg_loss(e_id, e_ood, t_id=-4.0, t_ood=-3.0,
                              flip=True).item()
    assert plain > 0.0
    assert flipped == 0.0


def test_energy_reg_flip_gradients_match_central_differences():
    """The flipped hinges, which ereg_flip trains, differentiate exactly."""
    e_id = Tensor(np.array([[-5.0], [-3.5], [-2.2], [-4.5], [-3.9]]))
    e_ood = Tensor(np.array([[-4.8], [-3.3], [-2.1], [-3.6]]))
    # Both flipped hinges are active on some rows and idle on others.
    assert energy_reg_loss(e_id, Tensor(np.zeros((1, 1))), -4.0, -3.0,
                           flip=True).item() > 0.0
    assert energy_reg_loss(Tensor(np.full((1, 1), -9.0)), e_ood, -4.0, -3.0,
                           flip=True).item() > 0.0
    err_id = ad.check_gradients(
        lambda x: energy_reg_loss(x, e_ood, -4.0, -3.0, flip=True), e_id)
    err_ood = ad.check_gradients(
        lambda x: energy_reg_loss(e_id, x, -4.0, -3.0, flip=True), e_ood)
    assert max(err_id, err_ood) < 1e-6


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
    comps = {"vib_z": scalar(1.0), "vib_v": scalar(2.0), "vib_q": scalar(3.0),
             "cind": scalar(4.0), "pmi_zv": scalar(5.0),
             "pmi_zq": scalar(6.0), "pmi_vq": scalar(7.0),
             "energy_reg": scalar(8.0)}
    fused, br = tide_total(comps, cfg)
    assert br.total_z == pytest.approx(1 + 0.5 * 4 + 0.1 * 5 + 0.2 * 6 + 2.0 * 8)
    assert br.total_v == pytest.approx(2 + 0.1 * 5 + 0.3 * 7)
    assert br.total_q == pytest.approx(3 + 0.2 * 6 + 0.3 * 7)
    expected_fused = (1 + 2 + 3 + 0.5 * 4 + 0.1 * 5 + 0.2 * 6 + 0.3 * 7
                      + 2.0 * 8)
    assert fused.item() == pytest.approx(expected_fused, rel=1e-12)


def test_tide_total_zero_couplings_reduce_to_vibs():
    cfg = TideConfig(alpha1=0.0, alpha2=0.0, alpha3=0.0, lambda_cind=0.0)
    comps = {"vib_z": scalar(1.5), "vib_v": scalar(0.5), "vib_q": scalar(2.0)}
    fused, br = tide_total(comps, cfg)
    assert (br.total_z, br.total_v, br.total_q) == (1.5, 0.5, 2.0)
    assert fused.item() == pytest.approx(4.0)


def test_tide_total_without_components_rejected():
    with pytest.raises(LossError):
        tide_total({}, TideConfig())


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
    ad.backward(loss, wrt=list(wrt.values()))
    for name, p in wrt.items():
        flowing = np.abs(p.grad).max() > 0
        if name.startswith(("v_", "q_")):
            assert not flowing, f"{name} received CInd gradient"
    assert any(np.abs(wrt[n].grad).max() > 0 for n in wrt if n.startswith("z_enc"))
    assert any(np.abs(wrt[n].grad).max() > 0 for n in wrt if n.startswith("recon"))
