"""Synthetic graph generator and the three OOD shift transforms.

The load-bearing properties: every generator is a pure function of its
seed, the structure shift leaves (X, y) alone, the feature shift leaves
(A, y) alone, and the label split quarantines held-out classes.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tide.shift import (CsbmParams, DegenerateParamsError, ShiftError,
                        ShiftSpec, apply_feature_shift, apply_shift,
                        apply_structure_shift, gen_csbm,
                        label_leave_out_split)
from oracles import csbm_all_pairs

BASE = CsbmParams(n=60, C=3, d=8, p_in=0.3, p_out=0.05, mu_sep=2.0, seed=0)


def small_csbm(seed=0, **kw):
    return gen_csbm(dataclasses.replace(BASE, seed=seed, **kw))


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_p_in_one_p_out_zero_gives_disjoint_cliques():
    g = gen_csbm(CsbmParams(n=4, C=2, d=2, p_in=1.0, p_out=0.0,
                            mu_sep=1.0, seed=3))
    for u, v in g.edges:
        assert g.y[u] == g.y[v]
    for c in range(2):
        members = np.flatnonzero(g.y == c)
        within = sum(1 for u, v in g.edges
                     if g.y[u] == c and g.y[v] == c)
        assert within == members.size * (members.size - 1) // 2


@pytest.mark.parametrize("n,p_in,p_out", [
    (1, 0.3, 0.05), (2, 0.3, 0.05), (4, 0.3, 0.05), (400, 0.3, 0.05),
    (1200, 0.3, 0.05), (400, 1.0, 0.0), (400, 1.0, 1.0), (1200, 1.0, 1.0),
])
def test_streamed_edges_match_the_all_pairs_draw(n, p_in, p_out):
    # n=1200 has 719,400 pairs: several blocks, the last one partial, and
    # block boundaries that fall inside rows.
    params = CsbmParams(n=n, C=min(n, 3), d=8, p_in=p_in, p_out=p_out,
                        mu_sep=2.0, seed=11)
    X, edges, y, masks = csbm_all_pairs(params)
    g = gen_csbm(params)
    assert np.array_equal(g.edges, edges)
    assert np.array_equal(g.X, X)
    assert np.array_equal(g.y, y)
    for name, idx in masks.items():
        assert np.array_equal(g.mask(name), np.sort(idx))
    assert g.mask("test_ood").size == 0


def test_edge_sampling_memory_is_not_quadratic():
    # The cli-large graph: all 4.5M pairs at once peak at about 155 MB.
    params = CsbmParams(n=3000, C=4, d=64, p_in=0.0067, p_out=0.00083,
                        mu_sep=3.0, seed=0)
    tracemalloc.start()
    try:
        gen_csbm(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"gen_csbm peak {peak / 1e6:.1f} MB"


def test_same_seed_same_graph():
    a, b = small_csbm(11), small_csbm(11)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.y, b.y)


def test_different_seed_different_graph():
    a, b = small_csbm(0), small_csbm(1)
    assert not np.array_equal(a.X, b.X)


def test_unidentifiable_params_rejected():
    with pytest.raises(DegenerateParamsError):
        gen_csbm(CsbmParams(n=10, C=2, d=2, p_in=0.0, p_out=0.0,
                            mu_sep=0.0))


@pytest.mark.parametrize("field,value", [
    ("p_in", -0.1), ("p_out", 0.9), ("n", 2), ("d", 1),
    ("noise", -1.0), ("train_frac", 0.9), ("mu_sep", float("nan")),
    ("noise", float("inf")),
])
def test_invalid_params_rejected(field, value):
    params = dataclasses.replace(CsbmParams(n=10, C=3, d=4, p_in=0.3,
                                            p_out=0.05, mu_sep=1.0),
                                 **{field: value})
    with pytest.raises(ShiftError):
        gen_csbm(params)


def test_splits_are_disjoint_and_sized():
    g = small_csbm()
    train, val, test = g.mask("train"), g.mask("val"), g.mask("test_id")
    assert train.size == round(0.4 * 60)
    assert val.size == round(0.2 * 60)
    assert train.size + val.size + test.size == 60
    assert np.intersect1d(train, val).size == 0
    assert np.intersect1d(train, test).size == 0


def test_class_means_are_separated():
    g = small_csbm(noise=0.05)
    centroids = np.stack([g.X[g.y == c].mean(axis=0) for c in range(3)])
    dists = np.linalg.norm(centroids[:, None] - centroids[None], axis=-1)
    off_diag = dists[~np.eye(3, dtype=bool)]
    assert off_diag.min() > 1.5  # mu_sep=2 minus noise slack


# ---------------------------------------------------------------------------
# structure shift
# ---------------------------------------------------------------------------

def test_structure_intensity_zero_is_identity():
    g = small_csbm()
    h = apply_structure_shift(g, ShiftSpec("structure", 0.0, seed=5))
    np.testing.assert_array_equal(g.edges, h.edges)


def test_structure_preserves_edge_count_features_labels():
    g = small_csbm()
    h = apply_structure_shift(g, ShiftSpec("structure", 0.6, seed=5))
    assert len(h.edges) == len(g.edges)
    np.testing.assert_array_equal(g.X, h.X)
    np.testing.assert_array_equal(g.y, h.y)
    assert not np.array_equal(g.edges, h.edges)


def test_structure_full_rewire_destroys_class_alignment():
    g = small_csbm(n=120, p_in=0.4, p_out=0.0)
    h = apply_structure_shift(g, ShiftSpec("structure", 1.0, seed=2))
    intra = np.mean([g.y[u] == g.y[v] for u, v in h.edges])
    # Random non-edges land intra-class at roughly the class prior.
    assert intra < 0.55


def test_structure_on_complete_graph_errors():
    g = gen_csbm(CsbmParams(n=4, C=2, d=2, p_in=1.0, p_out=1.0,
                            mu_sep=1.0, seed=0))
    with pytest.raises(ShiftError, match="non-edge|complete|rewire"):
        apply_structure_shift(g, ShiftSpec("structure", 1.0, seed=0))


# ---------------------------------------------------------------------------
# feature shift
# ---------------------------------------------------------------------------

def test_feature_lambda_one_is_identity():
    g = small_csbm()
    h = apply_feature_shift(g, ShiftSpec("feature", intensity=0.0, seed=4))
    np.testing.assert_array_equal(g.X, h.X)


def test_feature_midpoint_on_two_nodes():
    g = gen_csbm(CsbmParams(n=2, C=2, d=2, p_in=0.5, p_out=0.5,
                            mu_sep=1.0, seed=0, train_frac=0.5,
                            val_frac=0.0))
    h = apply_feature_shift(g, ShiftSpec("feature", intensity=0.5, seed=1))
    mid = 0.5 * (g.X[0] + g.X[1])
    np.testing.assert_allclose(h.X[0], mid)
    np.testing.assert_allclose(h.X[1], mid)


def test_feature_preserves_edges_labels_and_global_mean():
    g = small_csbm()
    h = apply_feature_shift(g, ShiftSpec("feature", intensity=0.5, seed=9))
    np.testing.assert_array_equal(g.edges, h.edges)
    np.testing.assert_array_equal(g.y, h.y)
    # Partner pairing is a permutation, so convex mixing keeps the
    # per-dimension global mean.
    np.testing.assert_allclose(g.X.mean(axis=0), h.X.mean(axis=0),
                               atol=1e-10)


def test_feature_shift_on_single_node_errors():
    g = gen_csbm(CsbmParams(n=1, C=1, d=1, p_in=0.0, p_out=0.0,
                            mu_sep=1.0, seed=0, train_frac=0.9,
                            val_frac=0.0))
    with pytest.raises(ShiftError):
        apply_feature_shift(g, ShiftSpec("feature", intensity=0.5))


# ---------------------------------------------------------------------------
# label leave-out
# ---------------------------------------------------------------------------

def test_label_split_remaps_and_quarantines():
    g = small_csbm(seed=2)
    h = label_leave_out_split(g, (2,))
    assert h.C == 2
    held = np.flatnonzero(g.y == 2)
    assert set(h.mask("test_ood")) == set(held)
    for name in ("train", "val", "test_id"):
        assert np.intersect1d(h.mask(name), held).size == 0
    kept = np.setdiff1d(np.arange(g.n), held)
    assert set(np.unique(h.y[kept])) <= {0, 1}


def test_label_split_seven_classes_hold_three():
    g = gen_csbm(CsbmParams(n=140, C=7, d=8, p_in=0.3, p_out=0.02,
                            mu_sep=2.0, seed=1))
    h = label_leave_out_split(g, (4, 5, 6))
    assert h.C == 4


@pytest.mark.parametrize("held", [(), (0, 1, 2)])
def test_label_split_degenerate_sets_rejected(held):
    g = small_csbm()
    with pytest.raises(ShiftError):
        label_leave_out_split(g, held)


# ---------------------------------------------------------------------------
# dispatcher + purity
# ---------------------------------------------------------------------------

def test_apply_shift_dispatches_by_kind():
    g = small_csbm()
    s = apply_shift(g, ShiftSpec("structure", 0.4, seed=1))
    f = apply_shift(g, ShiftSpec("feature", intensity=0.5, seed=1))
    assert not np.array_equal(s.edges, g.edges)
    assert not np.array_equal(f.X, g.X)
    with pytest.raises(ShiftError, match="unknown"):
        apply_shift(g, ShiftSpec("spectral", 0.4))


@given(st.integers(0, 10 ** 6), st.sampled_from(["structure", "feature"]))
@settings(max_examples=25, deadline=None)
def test_shifts_are_pure_functions_of_seed(seed, kind):
    g = small_csbm(seed % 7)
    spec = ShiftSpec(kind, 0.5, seed=seed)
    a, b = apply_shift(g, spec), apply_shift(g, spec)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.y, b.y)
