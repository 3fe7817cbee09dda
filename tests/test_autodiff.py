"""Tape engine: forward values, backward gradients, finite differences."""

import ast
import itertools
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tide.autodiff as ad
from tide.autodiff import (DomainError, NumericsError, ScopeError,
                           ShapeError, TapeError, Tensor, backward,
                           check_gradients_params)
from conftest import arrays_held_by, tensors_held_by
from oracles import fd_gradient

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   width=64).map(lambda v: round(v, 6))


def check_scalar(fn, params):
    """``check_gradients_params`` for one scalar loss: error per parameter."""
    return check_gradients_params(lambda name: {"loss": fn()}, params)["loss"]


def small_matrix(rows=(1, 4), cols=(1, 4), elements=finite):
    return hnp.arrays(np.float64,
                      st.tuples(st.integers(*rows), st.integers(*cols)),
                      elements=elements)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_relu_clamps_negatives():
    out = ad.relu(Tensor([[-1.0, 2.0]]))
    assert out.values.tolist() == [[0.0, 2.0]]


def test_logsumexp_of_zero_row_is_log_n():
    out = ad.row_logsumexp(Tensor(np.zeros((1, 7))))
    assert out.values[0, 0] == pytest.approx(math.log(7), abs=1e-12)


def test_softplus_positive_and_close_to_relu_for_large_inputs():
    x = Tensor([[-30.0, 0.0, 30.0]])
    out = ad.softplus(x).values[0]
    assert (out > 0).all()
    assert out[1] == pytest.approx(math.log(2))
    assert out[2] == pytest.approx(30.0, abs=1e-9)


def test_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        ad.log(Tensor([[0.0]]))
    with pytest.raises(DomainError):
        ad.log(Tensor([[-1.0]]))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_square():
    x = Tensor([[3.0]], requires_grad=True)
    grads = backward(ad.tsum(ad.mul(x, x)), {"x": x})
    assert grads["x"][0, 0] == pytest.approx(6.0)


def test_untouched_leaf_gets_zero_grad():
    x = Tensor([[1.0]], requires_grad=True)
    w = Tensor([[5.0]], requires_grad=True)
    grads = backward(ad.tsum(ad.mul(x, 2.0)), {"x": x, "w": w})
    assert grads["w"].tolist() == [[0.0]]
    assert grads["x"].tolist() == [[2.0]]
    # Both arrays are the caller's: writing one leaves the other alone.
    grads["w"] += 1.0
    assert grads["x"].tolist() == [[2.0]]
    grads["x"] *= 3.0
    assert grads["w"].tolist() == [[1.0]]


def test_backward_returns_exactly_the_named_params():
    """Keys and order follow ``params``: a reached leaf left out of it
    gets no entry, a named one the loss never reaches gets zeros."""
    rng = np.random.default_rng(2)
    leaves = {name: Tensor(rng.normal(size=(2, 3)), requires_grad=True)
              for name in ("c", "a", "b", "unused")}
    ad.clear_tape()
    loss = ad.tsum(ad.mul(ad.add(leaves["a"], leaves["b"]), leaves["c"]))
    params = {k: t for k, t in leaves.items() if k != "b"}
    grads = backward(loss, params)
    assert list(grads) == list(params)
    for name, t in params.items():
        assert grads[name].shape == t.shape
    assert not grads["unused"].any()
    np.testing.assert_array_equal(grads["a"], leaves["c"].values)


def test_backward_frees_each_intermediate_gradient_once_used():
    """A 40-op chain over 1000 x 100 blocks holds a few gradients at a
    time, not one per op."""
    x = Tensor(np.ones((1000, 100)), requires_grad=True)
    ad.clear_tape()
    y = x
    for _ in range(40):
        y = ad.mul(y, 0.99)
    loss = ad.tsum(y)
    block = x.values.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        grads = backward(loss, {"x": x})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(grads["x"], np.full(x.shape, 0.99 ** 40),
                               rtol=1e-12)
    assert peak < 4 * block, f"peak {peak / block:.1f} gradients"


def test_backward_frees_each_entrys_saved_arrays_once_used():
    """By the time backward reaches the first op, the arrays the later
    ops' gradient functions saved are gone."""
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    ad.clear_tape()
    saved = []
    y = x
    for k in range(5):
        factor = np.full((3, 4), 1.0 + k)  # only mul's gradient keeps it
        saved.append(weakref.ref(factor))
        y = ad.mul(y, factor)
    del factor
    loss = ad.tsum(y)
    first = ad._TAPE[0]
    grad_fn = first.grad_fns[0]

    def check_then_run(g):
        assert [ref() is None for ref in saved] == [False] + [True] * 4
        return grad_fn(g)

    first.grad_fns = (check_then_run, None)
    del first
    grads = backward(loss, {"x": x})
    np.testing.assert_array_equal(grads["x"], np.full((3, 4), 120.0))
    assert ad.tape_size() == 0


def test_gradients_hold_when_dropped_tensors_free_their_ids():
    """Intermediates and dead branches are dropped mid-forward, so new
    tensors take their ids; the gradients still match the
    central-difference oracle, because the tape keys by slot."""
    rng = np.random.default_rng(12)
    arrays = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 4)) * 0.6,
              "b": rng.normal(size=(1, 4)) * 0.1}

    def forward_np(x, w, b):
        h = x
        for _ in range(8):
            h = np.maximum(h @ w + b, 0.0) + h * 0.5
        return (h * h).sum()

    leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    ad.clear_tape()
    ids, made = set(), 0
    h = leaves["x"]
    for _ in range(8):
        dead = ad.softplus(ad.matmul(h, leaves["w"]))  # never reaches the loss
        ids.add(id(dead))
        del dead
        h = ad.add(ad.relu(ad.linear(h, leaves["w"], leaves["b"])),
                   ad.mul(h, 0.5))
        ids.add(id(h))
        made += 2
    assert len(ids) < made  # ids were reused
    grads = backward(ad.tsum(ad.mul(h, h)), leaves)
    for name, arr in arrays.items():
        def loss_at(flat, name=name):
            moved = dict(arrays, **{name: flat.reshape(arr.shape)})
            return forward_np(**moved)
        np.testing.assert_allclose(grads[name].reshape(-1),
                                   fd_gradient(loss_at, arr.reshape(-1)),
                                   rtol=1e-6, atol=1e-7)


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(TapeError):
        backward(ad.mul(x, 1.0), {"x": x})


def test_backward_on_empty_tape_raises():
    ad.clear_tape()
    x = Tensor([[1.0]], requires_grad=True)
    with pytest.raises(TapeError):
        backward(x, {"x": x})


def test_softmax_cross_entropy_gradient_matches_oracle():
    """3-class CE row against the loop-based central-difference oracle."""
    logits0 = np.array([[0.7, -1.2, 0.4]])
    target = 2

    def loss_np(flat):
        row = flat.reshape(1, 3)
        lse = np.log(np.exp(row).sum())
        return lse - row[0, target]

    def loss_ad(t):
        log_probs = ad.sub(t, ad.row_logsumexp(t))
        return ad.mul(ad.tsum(ad.gather_rows(log_probs, [0])), -1.0)

    # gather_rows pulls the full row; mask down to the target column.
    x = Tensor(logits0, requires_grad=True)
    picked = ad.mul(ad.sub(x, ad.row_logsumexp(x)),
                    np.eye(3)[target].reshape(1, 3))
    grad = backward(ad.mul(ad.tsum(picked), -1.0), {"x": x})["x"]
    numeric = fd_gradient(loss_np, logits0.reshape(-1))
    rel = np.abs(grad.reshape(-1) - numeric) / (np.abs(numeric) + 1e-8)
    assert rel.max() < 1e-4


def test_check_gradients_on_sum_is_exact():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert check_scalar(lambda: ad.tsum(x), {"x": x})["x"] < 1e-9


def test_check_gradients_on_kl_term():
    """The closed-form KL integrand at a fixed (mu, sigma) point."""
    x = Tensor(np.array([[0.3, 1.2]]), requires_grad=True)

    def kl_of(t):
        mu = ad.mul(t, np.array([[1.0, 0.0]]))
        sigma = ad.mul(t, np.array([[0.0, 1.0]]))
        sig2 = ad.mul(sigma, sigma)
        inner = ad.add(ad.sub(ad.add(ad.mul(mu, mu), sig2),
                              ad.log(ad.add(sig2, np.array([[1.0, 0.0]])))),
                       -1.0)
        return ad.mul(ad.tsum(inner), 0.5)

    assert check_scalar(lambda: kl_of(x), {"x": x})["x"] < 1e-4


# ---------------------------------------------------------------------------
# primitive-by-primitive finite differences
# ---------------------------------------------------------------------------

def _spmat(n):
    """Fixed small sparse matrix wired through the graph module."""
    from tide.graph import SparseMatrix
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            if (i + j) % 2 == 0:
                rows.append(i)
                cols.append(j)
                vals.append(0.3 + 0.1 * i - 0.05 * j)
    return SparseMatrix(n=n, rows=np.array(rows), cols=np.array(cols),
                        vals=np.array(vals, dtype=np.float64))


PRIMITIVES = {
    "add": lambda x: ad.tsum(ad.add(x, 0.5)),
    "sub": lambda x: ad.tsum(ad.sub(1.5, x)),
    "mul": lambda x: ad.tsum(ad.mul(x, x)),
    "matmul": lambda x: ad.tsum(ad.matmul(x, ad.transpose(x))),
    "spmm": lambda x: ad.tsum(ad.spmm(_spmat(x.shape[-2]), x)),
    "log": lambda x: ad.tsum(ad.log(ad.add(ad.mul(x, x), 1.0))),
    "relu": lambda x: ad.tsum(ad.relu(x)),
    "softplus": lambda x: ad.tsum(ad.softplus(x)),
    "logsumexp": lambda x: ad.tsum(ad.row_logsumexp(x)),
    "row_sum": lambda x: ad.tsum(ad.mul(ad.row_sum(x), ad.row_sum(x))),
    "mean": lambda x: ad.mul(ad.tmean(x), 3.0),
    "mse": lambda x: ad.mse(x, np.full(x.shape[-2:], 0.25)),
    "scale_shift": lambda x: ad.tsum(
        ad.scale_shift(x, ad.softplus(x), np.full(x.shape[-2:], 0.7))),
    "gather": lambda x: ad.tsum(ad.gather_rows(x, [0, x.shape[-2] - 1])),
    "transpose": lambda x: ad.tsum(
        ad.mul(ad.transpose(x), np.arange(9.0).reshape(3, 3))),
    "linear": lambda x: ad.tsum(
        ad.mul(ad.linear(x, ad.transpose(x), ad.gather_rows(x, [1])), x)),
    "softmax_cross_entropy": lambda x: ad.softmax_cross_entropy(
        x, np.eye(x.shape[-1])[np.arange(x.shape[-2]) % x.shape[-1]]),
    "gaussian_kl": lambda x: ad.gaussian_kl(x, ad.softplus(x)),
    "weighted_sum": lambda x: ad.weighted_sum(
        [ad.tsum(x), ad.tmean(ad.mul(x, x)), ad.tsum(x)], [0.5, 1.0, 2.0]),
    "centred_bilinear": lambda x: ad.centred_bilinear(
        x, ad.mul(x, x), ad.transpose(x)),
    "neg_row_logsumexp": lambda x: ad.tsum(
        ad.mul(ad.neg_row_logsumexp(x), np.arange(3.0).reshape(3, 1))),
    "propagate": lambda x: ad.tsum(
        ad.mul(ad.propagate(x, _spmat(x.shape[-2]), 0.4, 2), x)),
    # The thresholds sit away from every |x| >= 0.3, so off the kinks.
    "squared_hinges": lambda x: ad.squared_hinges(x, ad.mul(x, 0.5),
                                                  0.1, 0.1),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradient_vs_central_differences(name):
    fn = PRIMITIVES[name]
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    for _ in range(6):
        point = rng.uniform(0.3, 2.0, size=(3, 3))  # away from relu kinks
        if rng.random() < 0.5:
            point = point * rng.choice([-1.0, 1.0], size=point.shape)
        if name == "relu":
            point = point + np.sign(point) * 0.05
        x = Tensor(point, requires_grad=True)
        err = check_scalar(lambda: fn(x), {"x": x})["x"]
        assert err < 1e-4, f"{name}: max rel err {err}"


@given(small_matrix(), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_backward_is_linear(values, a, b):
    """grad(a*f + b*g) decomposes exactly over the shared leaf."""
    def grad_of(builder):
        x = Tensor(values, requires_grad=True)
        ad.clear_tape()
        return backward(builder(x), {"x": x})["x"]

    f = lambda x: ad.tsum(ad.mul(x, x))          # noqa: E731
    g = lambda x: ad.tmean(ad.softplus(x))       # noqa: E731
    combined = grad_of(lambda x: ad.add(ad.mul(f(x), a), ad.mul(g(x), b)))
    expected = a * grad_of(f) + b * grad_of(g)
    np.testing.assert_allclose(combined, expected, rtol=1e-10, atol=1e-12)


def test_forward_and_gradient_determinism():
    def run():
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
        loss = ad.tmean(ad.mul(ad.softplus(x), ad.softplus(ad.mul(x, 0.5))))
        grad = backward(loss, {"x": x})["x"]
        return loss.values.copy(), grad

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_no_grad_suppresses_taping():
    with ad.no_grad():
        x = Tensor([[2.0]], requires_grad=True)
        ad.mul(x, x)
        assert ad.tape_size() == 0


# ---------------------------------------------------------------------------
# lean backward: only needed gradients, no aliasing between leaves
# ---------------------------------------------------------------------------

def test_constant_operand_gradient_is_never_computed():
    X = Tensor(np.arange(6.0).reshape(3, 2))
    W = Tensor(np.linspace(-1, 1, 8).reshape(2, 4), requires_grad=True)
    ad.clear_tape()
    loss = ad.tsum(ad.matmul(X, W))
    entry = ad._TAPE[0]  # the matmul; the sum follows it

    def constant_side(g):
        raise AssertionError("gradient of a constant operand computed")

    entry.grad_fns = (constant_side, entry.grad_fns[1])
    grads = backward(loss, {"W": W})
    assert list(grads) == ["W"]
    np.testing.assert_array_equal(grads["W"], X.values.T @ np.ones((3, 4)))


@pytest.mark.parametrize("op", ["add", "mul"])
def test_same_tensor_as_both_operands(op):
    fn = lambda x: ad.tsum(ad.softplus(getattr(ad, op)(x, x)))  # noqa: E731
    x = Tensor(np.linspace(-1.5, 2.0, 6).reshape(2, 3), requires_grad=True)
    assert check_scalar(lambda: fn(x), {"x": x})["x"] < 1e-6
    # One leaf under two names: equal gradients, two arrays.
    ad.clear_tape()
    grads = backward(fn(x), {"a": x, "b": x})
    np.testing.assert_array_equal(grads["a"], grads["b"])
    before = grads["b"].copy()
    grads["a"] += 1.0
    np.testing.assert_array_equal(grads["b"], before)


@pytest.mark.parametrize("a_used_before", [False, True])
def test_leaves_fed_one_upstream_gradient_stay_independent(a_used_before):
    """add(a, b) hands one array to both leaves; each must own its grad."""
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    def loss():
        # Taped first, so its contribution reaches a after the add's.
        first = ad.tsum(ad.mul(a, 3.0)) if a_used_before else None
        s = ad.add(a, b)
        rest = ad.tsum(ad.mul(s, s))
        return rest if first is None else ad.add(first, rest)

    errors = check_scalar(loss, {"a": a, "b": b})
    assert max(errors.values()) < 1e-6
    ad.clear_tape()
    grads = backward(loss(), {"a": a, "b": b})
    a_before, b_before = grads["a"].copy(), grads["b"].copy()
    grads["a"] += 1.0
    np.testing.assert_array_equal(grads["b"], b_before)
    grads["b"] *= 2.0
    np.testing.assert_array_equal(grads["a"], a_before + 1.0)


def test_softplus_matches_logaddexp_and_sigmoid():
    edges = np.array([[0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
                       700.0, -700.0]])
    block = np.random.default_rng(0).standard_normal((500, 64))
    for x in (edges, block):
        t = Tensor(x, requires_grad=True)
        ad.clear_tape()
        out = ad.softplus(t)
        grad = backward(ad.tsum(out), {"t": t})["t"]
        assert np.abs(out.values - np.logaddexp(0.0, x)).max() <= 4.5e-16
        assert np.abs(grad - 1.0 / (1.0 + np.exp(-x))).max() <= 4e-15


def test_softplus_saves_only_what_its_gradient_reads():
    """The entry keeps one array of x's shape, x - softplus(x), which is
    neither x nor the output, and the gradient keeps its bits."""
    x = Tensor(np.random.default_rng(6).normal(size=(6, 4)) * 3.0,
               requires_grad=True)
    ad.clear_tape()
    out = ad.softplus(x)
    held = arrays_held_by(ad._TAPE[-1])
    assert [a.shape for a in held] == [x.shape]
    assert held[0] is not x.values and held[0] is not out.values
    grad = backward(ad.tsum(out), {"x": x})["x"]
    ones = np.full(x.shape, 1.0)
    assert grad.tobytes() == (ones * np.exp(x.values - out.values)).tobytes()


def test_gather_rows_backward_accumulates_repeated_rows():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    weights = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    for idx, expected in (([0, 0, 2], [[4.0, 6.0], [0.0, 0.0], [5.0, 6.0]]),
                          ([2, 0, 1], [[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]])):
        ad.clear_tape()
        loss = ad.tsum(ad.mul(ad.gather_rows(x, idx), weights))
        assert backward(loss, {"x": x})["x"].tolist() == expected


def test_gather_rows_increasing_index_matches_add_at_bits():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(50, 7)), requires_grad=True)
    idx = np.sort(rng.choice(50, size=20, replace=False))
    weights = rng.normal(size=(20, 7))
    ad.clear_tape()
    grad = backward(ad.tsum(ad.mul(ad.gather_rows(x, idx), weights)),
                    {"x": x})["x"]
    expected = np.zeros((50, 7))
    np.add.at(expected, idx, weights)
    assert np.array_equal(grad, expected)


# ---------------------------------------------------------------------------
# fused primitives: bit for bit the composite chains they replaced
# ---------------------------------------------------------------------------

# The chains as the encoders and losses wrote them before fusion, kept
# here only as the reference.
def _linear_chain(x, W, b):
    return ad.add(ad.matmul(x, W), b)


def _xent_chain(a, onehot):
    lse = ad.row_logsumexp(a)
    true_logit = ad.row_sum(ad.mul(a, Tensor(onehot)))
    return ad.tmean(ad.sub(lse, true_logit))


def _kl_chain(mu, sigma):
    inner = ad.sub(ad.add(1.0, ad.mul(2.0, ad.log(sigma))),
                   ad.add(ad.mul(mu, mu), ad.mul(sigma, sigma)))
    return ad.mul(ad.tsum(inner), -0.5 / mu.shape[0])


def _bytes_of(loss_of, leaves, constant=()):
    """Forward bytes and returned-gradient bytes of ``loss_of`` over
    fresh leaf copies of ``leaves``, those named in ``constant`` taking
    no gradient."""
    params = {k: Tensor(v.copy(), requires_grad=k not in constant)
              for k, v in leaves.items()}
    ad.clear_tape()
    out, loss = loss_of(**params)
    grads = backward(loss, {k: t for k, t in params.items()
                            if k not in constant})
    return out.values.tobytes(), {k: g.tobytes() for k, g in grads.items()}


@pytest.mark.parametrize("rows", [1, 2, 7, 40])
def test_linear_matches_matmul_add_chain_bits(rows):
    rng = np.random.default_rng(rows)
    leaves = {"x": rng.normal(size=(rows, 6)), "W": rng.normal(size=(6, 5)),
              "b": rng.normal(size=(1, 5))}
    weights = rng.normal(size=(rows, 5))

    def loss_of(op):
        def run(x, W, b):
            out = op(x, W, b)
            return out, ad.tsum(ad.mul(out, weights))
        return run

    assert (_bytes_of(loss_of(ad.linear), leaves)
            == _bytes_of(loss_of(_linear_chain), leaves))


@pytest.mark.parametrize("repeated", [False, True], ids=["sorted", "repeated"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_softmax_cross_entropy_matches_chain_bits(seed, repeated):
    """Through cross_entropy's gather_rows, on sorted mask rows and on
    repeated ones (gather_rows' np.add.at backward)."""
    rng = np.random.default_rng(seed)
    n, C = 30, 4
    idx = rng.choice(n, size=12, replace=repeated)
    idx = np.sort(idx) if not repeated else np.concatenate([idx, idx[:3]])
    onehot = np.eye(C)[rng.integers(0, C, size=idx.size)]
    leaves = {"logits": rng.normal(size=(n, C)) * 3.0}

    def loss_of(op):
        def run(logits):
            out = op(ad.gather_rows(logits, idx), onehot)
            return out, ad.mul(out, 0.37)
        return run

    assert (_bytes_of(loss_of(ad.softmax_cross_entropy), leaves)
            == _bytes_of(loss_of(_xent_chain), leaves))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaussian_kl_matches_chain_bits(seed):
    rng = np.random.default_rng(seed)
    leaves = {"mu": rng.normal(size=(9, 6)) * 2.0,
              "sigma": rng.uniform(1e-3, 3.0, size=(9, 6))}

    def loss_of(op):
        def run(mu, sigma):
            out = op(mu, sigma)
            return out, ad.mul(out, 1e-3)
        return run

    assert (_bytes_of(loss_of(ad.gaussian_kl), leaves)
            == _bytes_of(loss_of(_kl_chain), leaves))


def _weighted_chain(terms, weights):
    fused = None
    for t, w in zip(terms, weights):
        term = ad.mul(t, w) if w != 1.0 else t
        fused = term if fused is None else ad.add(fused, term)
    return fused


def _club_chain(s1, s2, p):
    n, h = s1.shape[0], s2.shape[1]
    s1_mean = ad.matmul(Tensor(np.full((1, n), 1.0 / n)), s1)
    M = ad.matmul(ad.transpose(ad.sub(s1, s1_mean)), s2)
    return ad.mul(ad.tsum(ad.mul(M, p)), 1.0 / (n * np.sqrt(h)))


def _energy_chain(a):
    return ad.mul(ad.row_logsumexp(a), -1.0)


def _propagate_chain(e, sp, alpha, k):
    for _ in range(k):
        e = ad.add(ad.mul(e, alpha), ad.mul(ad.spmm(sp, e), 1.0 - alpha))
    return e


def _hinge_chain(e_id, e_ood, t_id, t_ood):
    id_hinge = ad.relu(ad.sub(e_id, t_id))
    ood_hinge = ad.relu(ad.sub(t_ood, e_ood))
    return ad.add(ad.tmean(ad.mul(id_hinge, id_hinge)),
                  ad.tmean(ad.mul(ood_hinge, ood_hinge)))


@pytest.mark.parametrize("constant", [(), ("b",)], ids=["leaves", "b_const"])
def test_weighted_sum_matches_mul_add_chain_bits(constant):
    """Weights of 1 and others, and one term given three times, so its
    contributions must be added in the chain's order."""
    rng = np.random.default_rng(15)
    leaves = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(4, 3))}
    weights = [1.0, 1e-3, 0.7, 1.0, 0.1, 1e-2]

    def loss_of(op):
        def run(a, b):
            ta, tb = ad.tsum(ad.mul(a, a)), ad.tmean(ad.mul(b, 0.3))
            out = op([ta, tb, ta, ad.tsum(ad.mul(a, b)), ta, tb], weights)
            return out, ad.mul(out, 0.37)
        return run

    assert (_bytes_of(loss_of(ad.weighted_sum), leaves, constant)
            == _bytes_of(loss_of(_weighted_chain), leaves, constant))


def test_weighted_sum_of_one_term():
    t = ad.tsum(Tensor(np.ones((2, 2)), requires_grad=True))
    assert ad.weighted_sum([t], [1.0]) is t
    size = ad.tape_size()
    assert ad.weighted_sum([t], [0.5]).item() == 2.0
    assert ad.tape_size() == size + 1


@pytest.mark.parametrize("constant,same", [
    ((), False), (("s1",), False), (("s2",), False), (("p",), False),
    ((), True)], ids=["leaves", "s1_const", "s2_const", "p_const", "s1_is_s2"])
def test_centred_bilinear_matches_club_chain_bits(constant, same):
    rng = np.random.default_rng(16)
    leaves = {"s1": rng.normal(size=(9, 4)), "s2": rng.normal(size=(9, 4)),
              "p": rng.normal(size=(4, 4))}

    def loss_of(op):
        def run(s1, s2, p):
            out = op(s1, s1 if same else s2, p)
            return out, ad.mul(out, 0.37)
        return run

    assert (_bytes_of(loss_of(ad.centred_bilinear), leaves, constant)
            == _bytes_of(loss_of(_club_chain), leaves, constant))


def test_centred_bilinear_matches_club_chain_bits_on_shared_samples():
    """The training layout: z is s1 of the zv and zq estimates, so its
    running gradient already holds zq's terms when zv's arrive, and v is
    zv's s2 and vq's s1."""
    rng = np.random.default_rng(20)
    leaves = {net: rng.normal(size=(9, 4)) for net in "zvq"}
    critics = [rng.normal(size=(4, 4)) for _ in range(3)]

    def loss_of(op):
        def run(z, v, q):
            pmi = [op(z, v, critics[0]), op(z, q, critics[1]),
                   op(v, q, critics[2])]
            out = _weighted_chain(pmi, [0.01, 0.02, 0.03])
            return out, out
        return run

    assert (_bytes_of(loss_of(ad.centred_bilinear), leaves)
            == _bytes_of(loss_of(_club_chain), leaves))


def test_neg_row_logsumexp_matches_chain_bits():
    rng = np.random.default_rng(17)
    leaves = {"a": rng.normal(size=(11, 3)) * 3.0}
    weights = rng.normal(size=(11, 1))

    def loss_of(op):
        def run(a):
            out = op(a)
            return out, ad.tsum(ad.mul(out, weights))
        return run

    assert (_bytes_of(loss_of(ad.neg_row_logsumexp), leaves)
            == _bytes_of(loss_of(_energy_chain), leaves))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 0.3])
def test_propagate_matches_chain_bits(alpha, k):
    """e has a second consumer, recorded after the propagation, so its
    gradient is already running when the first round's arrive."""
    rng = np.random.default_rng([k, 18])
    sp = _spmat(8)
    leaves = {"e": rng.normal(size=(8, 1))}
    w1, w2 = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))

    def loss_of(op):
        def run(e):
            out = op(e, sp, alpha, k)
            return out, ad.add(ad.tsum(ad.mul(out, w1)),
                               ad.tsum(ad.mul(e, w2)))
        return run

    assert (_bytes_of(loss_of(ad.propagate), leaves)
            == _bytes_of(loss_of(_propagate_chain), leaves))


def test_propagate_zero_rounds_is_the_input():
    e = Tensor(np.ones((3, 1)), requires_grad=True)
    assert ad.propagate(e, _spmat(3), 0.5, 0) is e


@pytest.mark.parametrize("case", ["leaves", "e_id_const", "e_ood_const",
                                  "same"])
def test_squared_hinges_match_chain_bits(case):
    """Each hinge is active on some rows and idle on others, and e_id
    has a second consumer, recorded after the hinges, so its gradient
    is already running when theirs arrive."""
    rng = np.random.default_rng(19)
    leaves = {"e_id": rng.normal(size=(7, 1)) - 4.0,
              "e_ood": rng.normal(size=(5, 1)) - 3.0}
    constant = {"e_id_const": ("e_id",), "e_ood_const": ("e_ood",)}.get(
        case, ())
    w = rng.normal(size=(7, 1))

    def loss_of(op):
        def run(e_id, e_ood):
            out = op(e_id, e_id if case == "same" else e_ood, -4.0, -3.0)
            return out, ad.add(ad.mul(out, 0.37), ad.tsum(ad.mul(e_id, w)))
        return run

    assert (_bytes_of(loss_of(ad.squared_hinges), leaves, constant)
            == _bytes_of(loss_of(_hinge_chain), leaves, constant))


def test_fused_primitive_shape_errors_name_the_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 2\) @ \(2, 3\) \+ \(2, 3\)"):
        ad.linear(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        ad.softmax_cross_entropy(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 1\)"):
        ad.gaussian_kl(np.ones((2, 2)), np.ones((2, 1)))
    with pytest.raises(DomainError):
        ad.gaussian_kl(np.ones((1, 2)), np.array([[1.0, 0.0]]))
    with pytest.raises(ShapeError, match=r"1x1 terms, got \(1, 2\)"):
        ad.weighted_sum([np.ones((1, 1)), np.ones((1, 2))], [1.0, 1.0])
    with pytest.raises(ShapeError, match="2 terms and 1 weights"):
        ad.weighted_sum([np.ones((1, 1))] * 2, [1.0])
    with pytest.raises(ShapeError, match=r"\(3, 2\), \(3, 4\), \(4, 2\)"):
        ad.centred_bilinear(np.ones((3, 2)), np.ones((3, 4)), np.ones((4, 2)))
    with pytest.raises(ShapeError, match=r"\(3, 3\) @ \(2, 1\)"):
        ad.propagate(np.ones((2, 1)), _spmat(3), 0.5, 1)


# ---------------------------------------------------------------------------
# one central-difference sweep over named components
# ---------------------------------------------------------------------------

def test_shared_sweep_equals_separate_sweeps_and_evaluates_once():
    """Every component is checked against every parameter, and the
    error on a parameter the component never reads is exactly 0."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    params = {"x": x, "y": y}
    calls = []

    def components(name):
        calls.append(name)
        xy = ad.matmul(x, y)
        return {"sq": ad.tsum(ad.mul(xy, xy)), "soft": ad.tmean(ad.softplus(x))}

    errors = check_gradients_params(components, params)
    # One taped forward per component, then per parameter one forward
    # on the stack of its probes and one scope-check pair.
    assert calls == [None] * 2 + ["x", "x", None] + ["y", "y", None]
    assert list(errors) == ["sq", "soft"]
    assert list(errors["sq"]) == list(errors["soft"]) == ["x", "y"]
    assert errors["soft"]["y"] == 0.0
    for comp in errors:
        alone = check_gradients_params(
            lambda name: {comp: components(name)[comp]}, params)
        assert alone == {comp: errors[comp]}
        assert max(errors[comp].values()) < 1e-6


def test_scoped_sweep_is_checked_against_full_evaluations():
    """``fn(name)`` may reuse what does not read ``name``: exact scoping
    gives the unscoped sweep's errors, and a scoped evaluation that
    misses a read raises ``ScopeError`` naming the parameter and the
    component, with the parameter restored."""
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    params = {"x": x, "y": y}

    def full(name):
        xy = ad.matmul(x, y)
        return {"sq": ad.tsum(ad.mul(xy, xy)), "soft": ad.tmean(ad.softplus(x))}

    with ad.no_grad():
        soft = full(None)["soft"]

    def scoped_to(skipped):
        def fn(name):
            comps = full(name)
            if name == skipped:
                comps["soft"] = soft
            return comps
        return fn

    assert check_gradients_params(scoped_to("y"), params) \
        == check_gradients_params(full, params)
    start = x.values.copy()
    with pytest.raises(ScopeError, match="scoped evaluation for x misses a "
                                         "read: component soft differs"):
        check_gradients_params(scoped_to("x"), params)
    assert (x.values == start).all()


def test_numerics_error_in_a_probe_names_parameter_and_entry():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    w = Tensor(np.zeros((1, 3)), requires_grad=True)

    def components(name):
        if (w.values[..., 0, 2] != 0.0).any():
            ad.mul([[1e200]], [[1e200]])
        return {"f": ad.add(ad.tsum(x), ad.tsum(w))}

    with np.errstate(over="ignore"), pytest.raises(NumericsError) as exc:
        check_gradients_params(components, {"x": x, "w": w})
    assert "probing w entry 2" in str(exc.value)
    assert "mul produced non-finite" in str(exc.value)
    assert not w.values.any()  # the perturbed entry is restored


def _recording_functions() -> set[str]:
    """Module-level ``autodiff`` functions that call ``_record``."""
    tree = ast.parse(Path(ad.__file__).read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "_record"
                    for call in ast.walk(node))}


def test_every_primitive_is_checked_by_differences_and_output_cases():
    """A primitive is anything that tapes itself through ``_record``:
    some central-difference case must call it, and it needs its own
    output-invariant case."""
    recording = _recording_functions()
    assert {"add", "linear", "softmax_cross_entropy", "gaussian_kl"} <= recording
    called = set().union(*(fn.__code__.co_names for fn in PRIMITIVES.values()))
    assert recording - called == set()
    assert recording - set(OUTPUT_CASES) == set()


# ---------------------------------------------------------------------------
# the finiteness check, broadcasting, and what every output looks like
# ---------------------------------------------------------------------------

BIG = 1e308


def _row_of_ones(n):
    """Sparse n x n matrix whose first row is all ones, nothing else."""
    from tide.graph import SparseMatrix
    return SparseMatrix(n=n, rows=np.zeros(n, dtype=np.int64),
                        cols=np.arange(n), vals=np.ones(n))

# Finite inputs whose result overflows, per primitive, with the op name
# the error must carry (tsum and tmean tape as "sum" and "mean").
OVERFLOWS = {
    "add": ("add", lambda: ad.add([[BIG]], [[BIG]])),
    "sub": ("sub", lambda: ad.sub([[BIG]], [[-BIG]])),
    "mul": ("mul", lambda: ad.mul([[1e200]], [[1e200]])),
    "matmul": ("matmul", lambda: ad.matmul([[BIG, BIG]], [[1.0], [1.0]])),
    "spmm": ("spmm", lambda: ad.spmm(_row_of_ones(2), np.full((2, 1), BIG))),
    "row_sum": ("row_sum", lambda: ad.row_sum([[BIG, BIG]])),
    "tsum": ("sum", lambda: ad.tsum([[BIG], [BIG]])),
    "tmean": ("mean", lambda: ad.tmean([[BIG, BIG]])),
    "mse": ("mse", lambda: ad.mse([[1e200]], [[-1e200]])),
    "scale_shift": ("scale_shift", lambda: ad.scale_shift(
        [[BIG]], [[BIG]], np.ones((1, 1)))),
    "linear": ("linear", lambda: ad.linear([[BIG, BIG]], [[1.0], [1.0]],
                                           [[0.0]])),
    "softmax_cross_entropy": ("softmax_cross_entropy",
                              lambda: ad.softmax_cross_entropy(
                                  [[BIG, -BIG]], np.array([[0.0, 1.0]]))),
    "gaussian_kl": ("gaussian_kl", lambda: ad.gaussian_kl([[1e200]], [[1.0]])),
    "weighted_sum": ("weighted_sum", lambda: ad.weighted_sum(
        [[[BIG]], [[BIG]]], [1.0, 1.0])),
    "centred_bilinear": ("centred_bilinear", lambda: ad.centred_bilinear(
        [[BIG], [-BIG]], [[BIG], [-BIG]], [[1.0]])),
    "propagate": ("propagate", lambda: ad.propagate(
        np.full((2, 1), BIG), _row_of_ones(2), 0.5, 1)),
    "squared_hinges": ("squared_hinges", lambda: ad.squared_hinges(
        [[BIG]], [[0.0]], 0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflow_on_finite_inputs_raises_numerics_error(name):
    op, run = OVERFLOWS[name]
    with np.errstate(over="ignore"), pytest.raises(NumericsError) as exc:
        run()
    assert str(exc.value).startswith(f"{op} produced non-finite")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_to_add_raises_numerics_error(bad):
    with pytest.raises(NumericsError, match="^add "):
        ad.add(Tensor([[1.0, bad]]), 1.0)


BROADCAST_OPS = ("add", "sub", "mul")


@pytest.mark.parametrize("op", BROADCAST_OPS)
@pytest.mark.parametrize("sa,sb", [((2, 3), (3, 2)), ((2, 3), (2, 2)),
                                   ((2, 3), (4, 3)), ((1, 3), (2, 2))])
def test_non_broadcastable_operands_name_both_shapes(op, sa, sb):
    for left, right in ((sa, sb), (sb, sa)):
        with pytest.raises(ShapeError) as exc:
            getattr(ad, op)(Tensor(np.ones(left)), Tensor(np.ones(right)))
        assert op in str(exc.value)
        assert str(left) in str(exc.value) and str(right) in str(exc.value)


BROADCAST_PAIRS = [((2, 3), (1, 3)), ((2, 3), (2, 1)), ((2, 3), (1, 1)),
                   ((2, 1), (1, 3))]


@pytest.mark.parametrize("op", BROADCAST_OPS)
@pytest.mark.parametrize("sa,sb", BROADCAST_PAIRS)
def test_size_one_axes_broadcast_in_either_slot(op, sa, sb):
    rng = np.random.default_rng(3)
    ufunc = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[op]
    for left, right in ((sa, sb), (sb, sa)):
        x, y = rng.normal(size=left), rng.normal(size=right)
        out = getattr(ad, op)(Tensor(x), Tensor(y))
        assert out.shape == np.broadcast_shapes(left, right)
        assert np.array_equal(out.values, ufunc(x, y))


@pytest.mark.parametrize("op", BROADCAST_OPS)
@pytest.mark.parametrize("sa,sb", BROADCAST_PAIRS)
def test_broadcast_gradients_match_central_differences(op, sa, sb):
    rng = np.random.default_rng(4)
    for left, right in ((sa, sb), (sb, sa)):
        a = Tensor(rng.uniform(0.5, 1.5, size=left), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 1.5, size=right), requires_grad=True)
        weights = rng.normal(size=np.broadcast_shapes(left, right))

        def loss():
            return ad.tsum(ad.mul(getattr(ad, op)(a, b), weights))

        errors = check_scalar(loss, {"a": a, "b": b})
        assert max(errors.values()) < 1e-6, (left, right, errors)


# name -> (primitive over Tensor inputs, the inputs' shapes[, the
# argument each recorded input is, where that is not one per argument
# in order])
OUTPUT_CASES = {
    "add": (ad.add, [(3, 2), (1, 2)]),
    "sub": (ad.sub, [(3, 2), (3, 1)]),
    "mul": (ad.mul, [(3, 2), (3, 2)]),
    "matmul": (ad.matmul, [(3, 2), (2, 4)]),
    "transpose": (ad.transpose, [(3, 2)]),
    "spmm": (lambda x: ad.spmm(_spmat(3), x), [(3, 2)]),
    "log": (ad.log, [(3, 2)]),
    "relu": (ad.relu, [(3, 2)]),
    "softplus": (ad.softplus, [(3, 2)]),
    "row_logsumexp": (ad.row_logsumexp, [(3, 2)]),
    "row_sum": (ad.row_sum, [(3, 2)]),
    "tsum": (ad.tsum, [(3, 2)]),
    "tmean": (ad.tmean, [(3, 2)]),
    "mse": (ad.mse, [(3, 2), (3, 2)]),
    "scale_shift": (lambda m, s: ad.scale_shift(m, s, np.full((3, 2), 0.7)),
                    [(3, 2), (3, 2)]),
    "gather_rows": (lambda x: ad.gather_rows(x, [2, 0]), [(3, 2)]),
    "linear": (ad.linear, [(3, 2), (2, 4), (1, 4)]),
    "softmax_cross_entropy": (
        lambda a: ad.softmax_cross_entropy(a, np.eye(2)[[0, 1, 1]]), [(3, 2)]),
    "gaussian_kl": (ad.gaussian_kl, [(3, 2), (3, 2)]),
    "weighted_sum": (lambda a, b, c: ad.weighted_sum([a, b, c],
                                                     [0.5, 1.0, 2.0]),
                     [(1, 1), (1, 1), (1, 1)], (2, 1, 0)),
    "centred_bilinear": (ad.centred_bilinear, [(3, 2), (3, 4), (2, 4)],
                         (2, 1, 0, 0)),
    "neg_row_logsumexp": (ad.neg_row_logsumexp, [(3, 2)]),
    "propagate": (lambda e: ad.propagate(e, _spmat(3), 0.4, 2), [(3, 1)],
                  (0, 0)),
    "squared_hinges": (lambda a, b: ad.squared_hinges(a, b, 1.0, 1.5),
                       [(3, 1), (2, 1)], (1, 0)),
}


def _inputs(shapes, flags):
    rng = np.random.default_rng(9)
    return [Tensor(rng.uniform(0.5, 2.0, size=s), requires_grad=f)
            for s, f in zip(shapes, flags)]


@pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
def test_output_tensor_invariants(name):
    fn, shapes, *order = OUTPUT_CASES[name]
    order = order[0] if order else range(len(shapes))
    for flags in itertools.product((False, True), repeat=len(shapes)):
        inputs = _inputs(shapes, flags)
        ad.clear_tape()
        out = fn(*inputs)
        assert type(out) is Tensor
        assert type(out.values) is np.ndarray  # never np.matrix
        assert out.values.ndim == 2 and out.values.dtype == np.float64
        assert not hasattr(out, "grad")  # gradients are backward's result
        assert out.requires_grad is any(flags)
        if any(flags):
            assert ad.tape_size() >= 1
            entry = ad._TAPE[-1]
            # The entry names its output and each input that requires a
            # gradient by slot, keeps exactly those inputs' gradient
            # functions, and holds no tensor.
            assert type(out.slot) is int and entry.out == out.slot
            assert entry.inputs == tuple(
                inputs[i].slot if flags[i] else None for i in order)
            assert out.slot not in entry.inputs
            assert ([fn is not None for fn in entry.grad_fns]
                    == [flags[i] for i in order])
            assert tensors_held_by(entry) == []
        else:
            assert ad.tape_size() == 0
            assert out.slot is None

        assert out.shape == out.values.shape
        assert repr(out) == (f"Tensor(shape={out.values.shape}, "
                             f"requires_grad={any(flags)})")
        if out.values.size == 1:
            assert out.item() == float(out.values[0, 0])
        else:
            with pytest.raises(ShapeError):
                out.item()

        ad.clear_tape()
        with ad.no_grad():
            quiet = fn(*_inputs(shapes, flags))
        assert quiet.requires_grad is False
        assert ad.tape_size() == 0
        assert np.array_equal(quiet.values, out.values)
    ad.clear_tape()


@pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
def test_stacked_operand_gives_each_slices_bits(name):
    """Off the tape any operand may be a stack of matrices: the output
    is the stack of the 2-D outputs, slice for slice and bit for bit."""
    fn, shapes, *_ = OUTPUT_CASES[name]
    rng = np.random.default_rng(10)
    for j in range(len(shapes)):
        inputs = _inputs(shapes, [False] * len(shapes))
        base = inputs[j].values
        stack = base * rng.uniform(0.9, 1.1, size=(4, *base.shape))
        with ad.no_grad():
            inputs[j].values = stack
            out = fn(*inputs).values
            assert out.shape[0] == len(stack) and out.ndim == 3
            for k, values in enumerate(stack):
                inputs[j].values = values
                assert out[k].tobytes() == fn(*inputs).values.tobytes(), (j, k)


def test_the_tape_refuses_a_stack():
    """Only 2-D matrices are taped, so backward never meets a stack: an
    op on a stacked leaf that requires a gradient raises, tapes nothing
    and leaves recording as it was."""
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    w.values = np.ones((4, 2, 3))
    ad.clear_tape()
    with pytest.raises(ShapeError, match=r"relu: the tape holds 2-D "
                                         r"matrices, got shape \(4, 2, 3\)"):
        ad.relu(w)
    assert ad.tape_size() == 0
    with pytest.raises(ShapeError, match="tensors are 2-D"):
        Tensor(np.ones((4, 2, 3)), requires_grad=True)
    with ad.no_grad():
        assert ad.relu(w).values.shape == (4, 2, 3)


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (10, 8), (500, 64)])
def test_reductions_equal_numpy_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    x = rng.normal(size=shape) * 1e3
    y = rng.normal(size=shape)
    assert ad.tsum(x).values.tobytes() == np.array([[x.sum()]]).tobytes()
    assert ad.tmean(x).values.tobytes() == np.array([[x.mean()]]).tobytes()
    assert (ad.mse(x, y).values.tobytes()
            == np.array([[np.mean((x - y) ** 2)]]).tobytes())
    assert (ad.row_sum(x).values.tobytes()
            == x.sum(axis=1, keepdims=True).tobytes())
