"""Reverse-mode automatic differentiation over dense 64-bit matrices.

Eager tape-based execution: every primitive records itself on a global
tape as it runs, with one gradient function per input, and ``backward``
replays the tape once in reverse. It calls only the functions whose
input requires a gradient, so a constant operand (the features, a
detached sample) costs nothing in the backward pass. Gradients are
``backward``'s return value, one array per named parameter; a tensor
holds no gradient state.

A tape entry holds no tensor. It names its output and each input that
requires a gradient by slot, an integer drawn once from a module
counter and never reused, and keeps only the gradient functions of
those inputs, each of which saves just the arrays it reads: ``relu``
its output (positive exactly where its mask is), ``softplus`` its
input minus its output, ``spmm`` the operator, ``add``, ``sub``,
``transpose`` and the reductions a shape. So an intermediate array
lives only while a Python variable or a gradient function holds it: an
spmm input or a relu pre-activation is freed as soon as the forward
moves on, and ``backward`` frees each entry's arrays once it has used
them.

The tape holds 2-D float64 matrices only; there is no broadcasting
beyond numpy's (size-1 axes), no GPU, and no higher-order gradients.
Off the tape, every primitive works on the last two axes, so any
operand may also be a stack of matrices, (..., rows, cols), which the
others broadcast against: one evaluation then computes each slice with
the bits of its own 2-D evaluation (``spmm`` and ``propagate`` hand the
whole stack to the operator's ``matmul``/``matmul_t``, which give each
slice the bits of its own product, and every stacked result is laid out
like its 2-D counterpart, since numpy picks a matrix product's kernel
from its operands' strides). ``_record`` refuses to tape anything
else, so training and ``backward`` see matrices only. The primitive set
is exactly what the encoders and losses in this package need, plus
central-difference gradient checking: the elementwise and reduction
ops, ``matmul``/``spmm``/``transpose``, ``gather_rows``, and eight
fused ops: ``linear`` (every affine layer),
``softmax_cross_entropy`` and ``gaussian_kl`` (the two variational loss
terms), ``centred_bilinear`` (the dependence estimate),
``neg_row_logsumexp``, ``propagate`` and ``squared_hinges`` (the
energies, their propagation over the graph and the energy margin) and
``weighted_sum`` (the weighted total). Each fused op is one tape entry
in place of a composite chain and reproduces that chain's values and
gradient accumulation order bit for bit: an input that the chain's
backward reaches more than once is recorded once per contribution, in
the order the chain adds them, and gradient functions that share a
partial result compute it once (``_once``).

Every op validates its output for NaN/Inf: overflow surfaces as a
``NumericsError`` instead of silently poisoning downstream values.

Per-op cost. On the small blocks of the gradient audit (a 10-node
probe) an op's fixed Python cost outweighs its arithmetic, so the
primitives keep it small: each hands ``_record`` the float64 array it
computed, which becomes the output tensor without another conversion;
the finiteness test is one count of finite entries; shapes are read off
``values``. A tape-off ``add`` of two 10x8 blocks costs about 2.6 us,
of which the numpy addition is about 0.5 us (CPython 3.11, numpy 2.4,
one thread). The fused ops pay that fixed cost once where their chains
paid it two to seventeen times, and ``check_gradients_params`` runs one
evaluation per parameter, on the stack of all its perturbed values,
reading every component off it. So one audit of the 28-parameter,
920-entry probe model runs 28 stacked evaluations and 2,764 ops at
seed 0, where one evaluation per perturbed entry ran 1,840 and 49,710
ops.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Incompatible operand shapes, naming both."""


class DomainError(ValueError):
    """Input outside a primitive's mathematical domain (log of <= 0)."""


class NumericsError(ArithmeticError):
    """A primitive produced NaN/Inf on finite inputs (e.g. exp overflow)."""


class TapeError(RuntimeError):
    """Backward called with an empty tape or a non-scalar loss."""


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
    return arr


class Tensor:
    """A dense float64 matrix.

    Tensors created with ``requires_grad=True`` are leaves; ops produce
    intermediates whose ``requires_grad`` is the OR of their inputs'.
    ``slot`` names a tensor that requires a gradient on the tape (None
    for a constant).
    """

    __slots__ = ("values", "requires_grad", "slot")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_matrix(values)
        self.requires_grad = bool(requires_grad)
        self.slot = next(_SLOTS) if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    # Exact type first: nearly every operand is a plain Tensor.
    if type(x) is Tensor or isinstance(x, Tensor):
        return x
    return Tensor(x)


class _TapeEntry:
    """One recorded op: its output's slot, and per input the input's slot
    and its gradient function (upstream g -> d/d(input)), both None for
    an input that requires no gradient."""

    __slots__ = ("out", "inputs", "grad_fns")

    def __init__(self, out: int, inputs: tuple[int | None, ...],
                 grad_fns: tuple[Callable[[np.ndarray], np.ndarray] | None, ...]):
        self.out = out
        self.inputs = inputs
        self.grad_fns = grad_fns


_SLOTS = itertools.count()
_TAPE: list[_TapeEntry] = []
_RECORDING = True


def clear_tape() -> None:
    _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (forward evaluation only)."""
    global _RECORDING
    prev = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = prev


def _record(op: str, out_values: np.ndarray, inputs: Sequence[Tensor],
            grad_fns) -> Tensor:
    """Wrap a primitive's output, which is already a float64 array.

    An output that an input requiring a gradient reaches is taped, and
    must be 2-D. The entry keeps no tensor, and drops the gradient
    functions of the inputs that require no gradient with whatever
    arrays they saved.
    """
    if np.count_nonzero(np.isfinite(out_values)) != out_values.size:
        raise NumericsError(f"{op} produced non-finite values")
    out = object.__new__(Tensor)
    out.values = out_values
    out.requires_grad = False
    out.slot = None
    if _RECORDING:
        for t in inputs:
            if t.requires_grad:
                if out_values.ndim != 2:
                    raise ShapeError(f"{op}: the tape holds 2-D matrices, "
                                     f"got shape {out_values.shape}")
                out.requires_grad = True
                out.slot = next(_SLOTS)
                slots = tuple([u.slot for u in inputs])  # None: a constant
                if None in slots:
                    grad_fns = tuple([None if slot is None else fn
                                      for slot, fn in zip(slots, grad_fns)])
                _TAPE.append(_TapeEntry(out.slot, slots, grad_fns))
                break
    return out


def _sum2(x: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, kept as a 1x1 block per slice."""
    return x.sum(axis=(-2, -1), keepdims=True)


def _size2(x: np.ndarray) -> int:
    """Entries per (rows, cols) slice."""
    return x.shape[-2] * x.shape[-1]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum grad over axes that numpy broadcast during the forward op."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and grad.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """numpy's rule: axes aligned from the last, each pair equal or 1."""
    return all(x == y or x == 1 or y == 1 for x, y in zip(a[::-1], b[::-1]))


def _once(fn: Callable[[np.ndarray], np.ndarray]
          ) -> Callable[[np.ndarray], np.ndarray]:
    """``fn(g)``, computed once per upstream gradient ``g``. Gradient
    functions of one entry that share a partial result each call this:
    whichever runs first computes it, so none relies on another having
    run (``_record`` drops those of inputs that need no gradient)."""
    memo: list = [None, None]

    def shared(g):
        if memo[0] is not g:
            memo[:] = g, fn(g)
        return memo[1]

    return shared


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.values.shape, b.values.shape
    if not _broadcastable(sa, sb):
        raise ShapeError(f"add shape mismatch: {sa} vs {sb}")
    out = a.values + b.values
    return _record("add", out, (a, b),
                   (lambda g: _unbroadcast(g, sa),
                    lambda g: _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.values.shape, b.values.shape
    if not _broadcastable(sa, sb):
        raise ShapeError(f"sub shape mismatch: {sa} vs {sb}")
    out = a.values - b.values
    return _record("sub", out, (a, b),
                   (lambda g: _unbroadcast(g, sa),
                    lambda g: _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.values.shape, b.values.shape
    if not _broadcastable(sa, sb):
        raise ShapeError(f"mul shape mismatch: {sa} vs {sb}")
    av, bv = a.values, b.values
    out = av * bv
    return _record("mul", out, (a, b),
                   (lambda g: _unbroadcast(g * bv, sa),
                    lambda g: _unbroadcast(g * av, sb)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.values, b.values
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    out = av @ bv
    return _record("matmul", out, (a, b),
                   (lambda g: g @ bv.T, lambda g: av.T @ g))


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ W + b with ``b`` one row, broadcast over x's rows.

    One tape entry for add(matmul(x, W), b), with the same values and
    gradients bit for bit.
    """
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    xv, wv, bv = x.values, W.values, b.values
    sx, sw, sb = xv.shape, wv.shape, bv.shape
    if sx[-1] != sw[-2] or sb[-2:] != (1, sw[-1]):
        raise ShapeError(f"linear shape mismatch: {sx} @ {sw} + {sb}")
    out = xv @ wv
    if bv.ndim > out.ndim:  # off the tape, a stack of biases on one product
        out = out + bv
    else:  # in place: a fresh output costs about 20% of the op at n=3000
        out += bv
    return _record("linear", out, (x, W, b),
                   (lambda g: g @ wv.T, lambda g: xv.T @ g,
                    lambda g: _unbroadcast(g, sb)))


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.swapaxes(a.values, -1, -2).copy()
    return _record("transpose", out, (a,), (lambda g: g.T,))


def spmm(sp, x: Tensor) -> Tensor:
    """Sparse @ dense. ``sp`` is a constant ``graph.SparseMatrix``: its
    ``matmul`` is the forward product and its ``matmul_t`` the gradient."""
    x = _as_tensor(x)
    if sp.shape[1] != x.values.shape[-2]:
        raise ShapeError(f"spmm shape mismatch: {sp.shape} @ {x.values.shape}")
    return _record("spmm", sp.matmul(x.values), (x,), (sp.matmul_t,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.values
    if (x <= 0.0).any():
        raise DomainError("log of non-positive value")
    return _record("log", np.log(x), (a,), (lambda g: g / x,))


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.values
    out = np.maximum(x, 0.0)  # 0 exactly where x <= 0: the mask, from out
    return _record("relu", out, (a,), (lambda g: g * (out > 0.0),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|), which never overflows.

    The gradient is the logistic sigmoid, exp(x - softplus(x)).
    """
    a = _as_tensor(a)
    x = a.values
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    logit = x - out  # all the gradient reads
    return _record("softplus", out, (a,), (lambda g: g * np.exp(logit),))


def _row_lse(x: np.ndarray) -> np.ndarray:
    """Per-row log sum exp of x with max-subtraction, n x 1."""
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def row_logsumexp(a: Tensor) -> Tensor:
    """Per-row log sum exp with max-subtraction, result n x 1."""
    a = _as_tensor(a)
    x = a.values
    out = _row_lse(x)

    # The gradient is the row softmax, reusing the forward.
    return _record("row_logsumexp", out, (a,),
                   (lambda g: g * np.exp(x - out),))


def neg_row_logsumexp(a: Tensor) -> Tensor:
    """Per-row -log sum exp, n x 1: the energy of each row of logits.

    One tape entry for mul(row_logsumexp(a), -1.0), with the same values
    and gradient bit for bit.
    """
    a = _as_tensor(a)
    x = a.values
    lse = _row_lse(x)
    return _record("neg_row_logsumexp", lse * -1.0, (a,),
                   (lambda g: (g * -1.0) * np.exp(x - lse),))


def softmax_cross_entropy(a: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(a) at the class ``onehot`` marks.

    ``onehot`` is a constant 0/1 matrix of a's shape, one 1 per row.
    One tape entry for the chain tmean(sub(row_logsumexp(a),
    row_sum(mul(a, onehot)))), with the same values and gradient bit
    for bit; the gradient is the row softmax minus ``onehot``, over n.
    """
    a = _as_tensor(a)
    x = a.values
    if onehot.shape != x.shape[-2:]:
        raise ShapeError(f"softmax_cross_entropy shape mismatch: "
                         f"{x.shape} vs {onehot.shape}")
    n = x.shape[-2]
    lse = _row_lse(x)
    out = _sum2(lse - (x * onehot).sum(axis=-1, keepdims=True)) / n

    def bwd(g):
        # The chain's two contributions to a, summed in its order.
        row = np.full((n, 1), g[0, 0] / n)
        return -row * onehot + row * np.exp(x - lse)

    return _record("softmax_cross_entropy", out, (a,), (bwd,))


def gaussian_kl(mu: Tensor, sigma: Tensor) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, I)) summed over columns, mean over rows.

    -1/2 * sum(1 + 2 log sigma - mu^2 - sigma^2) / n, 1x1. One tape
    entry for the nine-op chain of log, mul, add, sub, tsum and mul,
    with the same value bit for bit. Each input's gradient sums the
    chain's contributions in the chain's order, so it is bit-identical
    whenever the KL is the input's only consumer (a gathered row set).
    """
    mu, sigma = _as_tensor(mu), _as_tensor(sigma)
    m, s = mu.values, sigma.values
    shape = m.shape
    if s.shape[-2:] != shape[-2:]:
        raise ShapeError(f"gaussian_kl shape mismatch: {shape} vs {s.shape}")
    if (s <= 0.0).any():
        raise DomainError("gaussian_kl: log of non-positive sigma")
    c = -0.5 / shape[-2]
    out = _sum2((1.0 + 2.0 * np.log(s)) - (m * m + s * s)) * c

    def d_mu(g):
        t = -np.full(shape, g[0, 0] * c) * m
        return t + t

    def d_sigma(g):
        inner = np.full(shape, g[0, 0] * c)
        t = -inner * s
        return (t + t) + inner * 2.0 / s

    return _record("gaussian_kl", out, (mu, sigma), (d_mu, d_sigma))


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """w_1 t_1 + w_2 t_2 + ... over 1x1 tensors, added left to right.

    A term of weight 1 is added unscaled, and a lone one is returned as
    itself. One tape entry for the chain that scales each term with
    ``mul`` and folds them with ``add``, with the same value and
    gradients bit for bit: each term's gradient is g * w, or g itself.
    The terms are recorded last first, the order in which the chain's
    backward reaches them. Off the tape a term may be a stack of 1x1
    values, which the others broadcast against.
    """
    terms = [_as_tensor(t) for t in terms]
    if not terms or len(terms) != len(weights):
        raise ShapeError(f"weighted_sum needs one weight per term, got "
                         f"{len(terms)} terms and {len(weights)} weights")
    if len(terms) == 1 and weights[0] == 1.0:
        return terms[0]
    total = None
    for t, w in zip(terms, weights):
        if t.values.shape[-2:] != (1, 1):
            raise ShapeError(f"weighted_sum needs 1x1 terms, got "
                             f"{t.values.shape}")
        v = t.values if w == 1.0 else t.values * w
        total = v if total is None else total + v
    grad_fns = [(lambda g: g) if w == 1.0 else (lambda g, w=w: g * w)
                for w in reversed(weights)]
    return _record("weighted_sum", total, terms[::-1], grad_fns)


def centred_bilinear(s1: Tensor, s2: Tensor, p: Tensor) -> Tensor:
    """sum(((s1 - s1_mean)^T s2) * p) / (n sqrt(h)), 1x1.

    ``s1`` is n x h1, ``s2`` n x h, ``p`` h1 x h. One tape entry for the
    seven-op chain mul(tsum(mul(matmul(transpose(sub(s1, matmul(ones/n,
    s1))), s2), p)), 1/(n sqrt h)), with the same value and gradients
    bit for bit. The inputs are recorded as (p, s2, s1, s1), the order
    in which the chain's backward reaches them: s1's centring and mean
    contributions are added to its running gradient one at a time, as
    the chain adds them, so a sample shared by two estimates gets the
    chain's bits too.
    """
    s1, s2, p = _as_tensor(s1), _as_tensor(s2), _as_tensor(p)
    x, y, pv = s1.values, s2.values, p.values
    n, h1 = x.shape[-2:]
    h = y.shape[-1]
    if y.shape[-2] != n or pv.shape[-2:] != (h1, h):
        raise ShapeError(f"centred_bilinear shape mismatch: {x.shape}, "
                         f"{y.shape}, {pv.shape}")
    ones = np.full((1, n), 1.0 / n)
    ct = np.swapaxes(x - ones @ x, -1, -2).copy()
    M = ct @ y
    k = 1.0 / (n * np.sqrt(h))
    out = _sum2(M * pv) * k

    # d/dM is g k p; the centred samples' gradient is (d/dM @ s2^T)^T.
    centred = _once(lambda g: ((pv * (g[0, 0] * k)) @ y.T).T)
    return _record("centred_bilinear", out, (p, s2, s1, s1), (
        lambda g: (g[0, 0] * k) * M,
        lambda g: ct.T @ (pv * (g[0, 0] * k)),
        centred,
        lambda g: ones.T @ _unbroadcast(-centred(g), (1, h1))))


def propagate(e: Tensor, sp, alpha: float, k: int) -> Tensor:
    """k rounds of e <- alpha e + (1 - alpha) sp @ e; k <= 0 returns e.

    ``sp`` is a constant ``graph.SparseMatrix``, multiplied through its
    ``matmul`` and ``matmul_t``. One tape entry for the 4k-op chain
    add(mul(e, alpha), mul(spmm(sp, e), 1 - alpha)) per round, with the
    same values and gradient bit for bit. ``e`` is recorded twice,
    (e, e): its gradient gets the first round's spmm contribution and
    then its alpha contribution, one at a time, as the chain adds them.
    """
    e = _as_tensor(e)
    k = int(k)
    if k <= 0:
        return e
    if sp.shape != (e.values.shape[-2],) * 2:
        raise ShapeError(f"propagate shape mismatch: {sp.shape} @ "
                         f"{e.values.shape}")
    keep = 1.0 - alpha
    v = e.values
    for _ in range(k):
        v = v * alpha + sp.matmul(v) * keep

    def first_round(g):
        """The gradient reaching the first round's output."""
        for _ in range(k - 1):
            g = sp.matmul_t(g * keep) + g * alpha
        return g

    first = _once(first_round)
    return _record("propagate", v, (e, e),
                   (lambda g: sp.matmul_t(first(g) * keep),
                    lambda g: first(g) * alpha))


def squared_hinges(e_id: Tensor, e_ood: Tensor, t_id: float, t_ood: float
                   ) -> Tensor:
    """mean(relu(e_id - t_id)^2) + mean(relu(t_ood - e_ood)^2), 1x1.

    One tape entry for the nine-op chain of sub, relu, mul(h, h), tmean
    and add, with the same value and gradients bit for bit. The inputs
    are recorded as (e_ood, e_id), the order in which the chain's
    backward reaches them. An entry of e_id - t_id or t_ood - e_ood
    that overflows to -inf is clamped to 0 by the hinge, as it should
    be; the chain raised ``NumericsError`` there.
    """
    e_id, e_ood = _as_tensor(e_id), _as_tensor(e_ood)
    hi = np.maximum(e_id.values - t_id, 0.0)
    ho = np.maximum(t_ood - e_ood.values, 0.0)
    out = _sum2(hi * hi) / _size2(hi) + _sum2(ho * ho) / _size2(ho)

    def d_hinge(g, h):
        t = h * (g[0, 0] / h.size)
        return (t + t) * (h > 0.0)

    return _record("squared_hinges", out, (e_ood, e_id),
                   (lambda g: -d_hinge(g, ho), lambda g: d_hinge(g, hi)))


def row_sum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = a.values.sum(axis=-1, keepdims=True)
    shape = a.values.shape
    return _record("row_sum", out, (a,),
                   (lambda g: np.broadcast_to(g, shape).copy(),))


def tsum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = _sum2(a.values)
    shape = a.values.shape
    return _record("sum", out, (a,), (lambda g: np.full(shape, g[0, 0]),))


def tmean(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    shape, n = a.values.shape, _size2(a.values)
    out = _sum2(a.values) / n  # np.mean's sum and division
    return _record("mean", out, (a,),
                   (lambda g: np.full(shape, g[0, 0] / n),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all entries, 1x1 output."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.shape[-2:] != b.values.shape[-2:]:
        raise ShapeError(
            f"mse shape mismatch: {a.values.shape} vs {b.values.shape}")
    diff = a.values - b.values
    n = _size2(diff)
    out = _sum2(diff * diff) / n  # np.mean's sum and division
    return _record("mse", out, (a, b),
                   (lambda g: (2.0 * g[0, 0] / n) * diff,
                    lambda g: -(2.0 * g[0, 0] / n) * diff))


def scale_shift(mu: Tensor, sigma: Tensor, eps: np.ndarray) -> Tensor:
    """Reparameterization step mu + sigma * eps with eps a fixed draw.

    All three are one shape, but off the tape ``mu`` and ``sigma`` may
    be stacks of it."""
    mu, sigma = _as_tensor(mu), _as_tensor(sigma)
    shape = mu.values.shape
    if not (shape[-2:] == sigma.values.shape[-2:] == eps.shape):
        raise ShapeError(f"scale_shift shape mismatch: {shape} vs "
                         f"{sigma.values.shape} vs {eps.shape}")
    out = mu.values + sigma.values * eps
    return _record("scale_shift", out, (mu, sigma),
                   (lambda g: g, lambda g: g * eps))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by integer index (used for split masks)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows needs a 1-D index array")
    shape = a.values.shape
    if idx.size and (idx.min() < 0 or idx.max() >= shape[-2]):
        raise ShapeError(
            f"gather_rows index out of range for {shape[-2]} rows")
    out = np.take(a.values, idx, axis=-2)

    def bwd(g):
        full = np.zeros(shape)
        if (idx[1:] > idx[:-1]).all():  # distinct rows: 0 + g is g
            full[idx] = g
        else:
            np.add.at(full, idx, g)
        return full

    return _record("gather_rows", out, (a,), (bwd,))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """d(loss)/d(p) for each named leaf ``p`` in ``params``.

    Only the gradient functions of inputs that require a gradient run,
    and the tape is consumed entry by entry, last first. Intermediate
    gradients live in a local table, each dropped once its tape entry
    has used it. A leaf the loss never reaches gets zeros. The caller
    owns every returned array: changing one in place cannot change
    another.
    """
    if loss.values.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not _TAPE:
        raise TapeError("backward called with an empty tape")

    # Keyed by slot, which no other tensor ever takes. Each entry is
    # popped before its gradient functions run, so the arrays they saved
    # are freed as the pass goes.
    grads = {} if loss.slot is None else {loss.slot: np.ones((1, 1))}
    while _TAPE:
        entry = _TAPE.pop()
        g = grads.pop(entry.out, None)
        if g is None:
            continue  # this output never fed the loss
        for slot, grad_fn in zip(entry.inputs, entry.grad_fns):
            if slot is None:
                continue
            contrib = grad_fn(g)
            prev = grads.get(slot)
            # Out of place: a contribution may be another tensor's
            # gradient array (add hands one g to both inputs).
            grads[slot] = contrib if prev is None else prev + contrib
    out: dict[str, np.ndarray] = {}
    owned = set()
    for name, p in params.items():
        g = grads.get(p.slot)
        if g is None:
            g = np.zeros(p.shape)
        elif g.base is not None or id(g) in owned:
            g = g.copy()
        owned.add(id(g))
        out[name] = g
    return out


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def check_gradients_params(fn: Callable[[], dict[str, Tensor]],
                           params: dict[str, Tensor],
                           h: float = 1e-5) -> dict[str, dict[str, float]]:
    """Central-difference check of every named scalar component.

    ``fn`` must be a deterministic function of the parameters (freeze
    any noise draws before calling) returning a dict of 1x1 tensors.
    Every component is checked against every named parameter in
    ``params``. Returns, per component and parameter, the max relative
    error |analytic - cd| / (|cd| + 1e-8); a parameter a component
    never reads gets zeros from ``backward`` and equal perturbed values,
    so its error is exactly 0.

    ``fn()`` runs once per component on the tape, for the analytic
    gradient. Then, per parameter in ``params`` order, one untaped
    evaluation runs on a stack of its values: slice i moves entry i by
    +h and slice size + i moves it by -h, so every component is read off
    that one evaluation as a stack of 1x1 values (or one 1x1 value, if
    it does not read the parameter). Every primitive works on the last
    two axes, and each slice's bits equal those of the 2-D evaluation
    with that one entry moved; ``fn`` itself must read any shape off the
    last two axes too. The stack holds 2 * size^2 entries per parameter,
    so keep the model small. A ``NumericsError`` in the stacked
    evaluation is traced by re-evaluating the parameter's probes one
    entry at a time, in entry order, and re-raised naming the parameter
    and the first failing entry.
    """
    clear_tape()
    out = fn()
    analytic = {}
    for comp in list(out):
        if analytic:  # backward consumed the previous forward's tape
            out = fn()
        analytic[comp] = backward(out[comp], params)

    found: dict[str, dict[str, float]] = {comp: {} for comp in analytic}
    with no_grad():
        for name, p in params.items():
            orig = p.values
            size = orig.size
            flat = orig.reshape(-1)
            probes = np.repeat(flat[None, :], 2 * size, axis=0)
            entry = np.arange(size)
            probes[entry, entry] = flat + h
            probes[size + entry, entry] = flat - h
            p.values = probes.reshape(2 * size, *orig.shape)
            try:
                out = fn()
            except NumericsError as err:
                p.values = orig
                _probe_one_entry_at_a_time(fn, name, orig, h)
                raise NumericsError(f"non-finite value probing {name}: "
                                    f"{err}") from err
            finally:
                p.values = orig
            for comp in analytic:
                moved = np.broadcast_to(out[comp].values.reshape(-1),
                                        (2 * size,))
                diff = ((moved[:size] - moved[size:]) / (2.0 * h)
                        ).reshape(orig.shape)
                rel = np.abs(analytic[comp][name] - diff) / (np.abs(diff) + 1e-8)
                found[comp][name] = float(rel.max()) if rel.size else 0.0
    return found


def _probe_one_entry_at_a_time(fn: Callable[[], dict[str, Tensor]],
                               name: str, values: np.ndarray, h: float
                               ) -> None:
    """Evaluate ``fn()`` with each entry of ``values``, parameter
    ``name``'s array, moved by +h and then -h, in entry order, and raise
    a ``NumericsError`` naming the first entry that fails."""
    flat = values.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        try:
            for moved in (orig + h, orig - h):
                flat[i] = moved
                fn()
        except NumericsError as err:
            raise NumericsError(f"non-finite value probing {name} "
                                f"entry {i}: {err}") from err
        finally:
            flat[i] = orig
