"""Tape engine: forward values, backward gradients, finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tide.autodiff as ad
from tide.autodiff import (DomainError, ShapeError, TapeError, Tensor,
                           backward, check_gradients)
from oracles import fd_gradient

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   width=64).map(lambda v: round(v, 6))


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
    backward(ad.tsum(ad.mul(x, x)))
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_untouched_leaf_gets_zero_grad():
    x = Tensor([[1.0]], requires_grad=True)
    w = Tensor([[5.0]], requires_grad=True)
    backward(ad.tsum(ad.mul(x, 2.0)), wrt=[x, w])
    assert w.grad.tolist() == [[0.0]]
    assert x.grad.tolist() == [[2.0]]


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(TapeError):
        backward(ad.mul(x, 1.0))


def test_backward_on_empty_tape_raises():
    ad.clear_tape()
    with pytest.raises(TapeError):
        backward(Tensor([[1.0]], requires_grad=True))


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
    backward(ad.mul(ad.tsum(picked), -1.0), wrt=[x])
    numeric = fd_gradient(loss_np, logits0.reshape(-1))
    rel = np.abs(x.grad.reshape(-1) - numeric) / (np.abs(numeric) + 1e-8)
    assert rel.max() < 1e-4


def test_check_gradients_on_sum_is_exact():
    err = check_gradients(ad.tsum, Tensor(np.arange(6.0).reshape(2, 3)))
    assert err < 1e-9


def test_check_gradients_on_kl_term():
    """The closed-form KL integrand at a fixed (mu, sigma) point."""
    point = Tensor(np.array([[0.3, 1.2]]))

    def kl_of(t):
        mu = ad.mul(t, np.array([[1.0, 0.0]]))
        sigma = ad.mul(t, np.array([[0.0, 1.0]]))
        sig2 = ad.mul(sigma, sigma)
        inner = ad.add(ad.sub(ad.add(ad.mul(mu, mu), sig2),
                              ad.log(ad.add(sig2, np.array([[1.0, 0.0]])))),
                       -1.0)
        return ad.mul(ad.tsum(inner), 0.5)

    assert check_gradients(kl_of, point) < 1e-4


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
    "spmm": lambda x: ad.tsum(ad.spmm(_spmat(x.shape[0]), x)),
    "log": lambda x: ad.tsum(ad.log(ad.add(ad.mul(x, x), 1.0))),
    "relu": lambda x: ad.tsum(ad.relu(x)),
    "softplus": lambda x: ad.tsum(ad.softplus(x)),
    "logsumexp": lambda x: ad.tsum(ad.row_logsumexp(x)),
    "row_sum": lambda x: ad.tsum(ad.mul(ad.row_sum(x), ad.row_sum(x))),
    "mean": lambda x: ad.mul(ad.tmean(x), 3.0),
    "mse": lambda x: ad.mse(x, np.full(x.shape, 0.25)),
    "scale_shift": lambda x: ad.tsum(
        ad.scale_shift(x, ad.softplus(x), np.full(x.shape, 0.7))),
    "gather": lambda x: ad.tsum(ad.gather_rows(x, [0, x.shape[0] - 1])),
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
        err = check_gradients(fn, Tensor(point))
        assert err < 1e-4, f"{name}: max rel err {err}"


@given(small_matrix(), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_backward_is_linear(values, a, b):
    """grad(a*f + b*g) decomposes exactly over the shared leaf."""
    def grad_of(builder):
        x = Tensor(values, requires_grad=True)
        ad.clear_tape()
        backward(builder(x), wrt=[x])
        return x.grad.copy()

    f = lambda x: ad.tsum(ad.mul(x, x))          # noqa: E731
    g = lambda x: ad.tmean(ad.softplus(x))       # noqa: E731
    combined = grad_of(lambda x: ad.add(ad.mul(f(x), a), ad.mul(g(x), b)))
    expected = a * grad_of(f) + b * grad_of(g)
    np.testing.assert_allclose(combined, expected, rtol=1e-10, atol=1e-12)


def test_forward_and_gradient_determinism():
    def run():
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
        loss = ad.tmean(ad.mul(ad.softplus(x), ad.softplus(ad.mul(x, 0.5))))
        backward(loss, wrt=[x])
        return loss.values.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_no_grad_suppresses_taping():
    with ad.no_grad():
        x = Tensor([[2.0]], requires_grad=True)
        ad.mul(x, x)
        assert ad.tape_size() == 0
