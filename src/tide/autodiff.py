"""Reverse-mode automatic differentiation over dense 64-bit matrices.

Eager tape-based execution: every primitive records itself on a global
tape as it runs, and ``backward`` replays the tape once in reverse.
Everything is a 2-D float64 matrix; there is no broadcasting beyond
numpy's (size-1 axes), no GPU, and no higher-order gradients. The
primitive set is exactly what the encoders and losses in this package
need, plus central-difference gradient checking.

Every op validates its output for NaN/Inf: overflow surfaces as a
``NumericsError`` instead of silently poisoning downstream values.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit


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
    """A dense float64 matrix with an optional gradient slot.

    ``grad`` is populated by ``backward`` and always matches the shape
    of ``values``. Tensors created with ``requires_grad=True`` are
    leaves; ops produce intermediates whose ``requires_grad`` is the OR
    of their inputs'.
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_matrix(values)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all routed through the recorded primitives below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class _TapeEntry:
    __slots__ = ("op", "out", "inputs", "backward_fn")

    def __init__(self, op: str, out: Tensor, inputs: Sequence[Tensor],
                 backward_fn: Callable[[np.ndarray], Iterable[np.ndarray | None]]):
        self.op = op
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


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


def _finite_or_raise(op: str, out: np.ndarray) -> None:
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"{op} produced non-finite values")


def _record(op: str, out_values: np.ndarray, inputs: Sequence[Tensor],
            backward_fn) -> Tensor:
    _finite_or_raise(op, out_values)
    needs = _RECORDING and any(t.requires_grad for t in inputs)
    out = Tensor(out_values, requires_grad=needs)
    if needs:
        _TAPE.append(_TapeEntry(op, out, inputs, backward_fn))
    return out


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


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.values + b.values
    return _record("add", out, (a, b),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    out = a.values - b.values
    return _record("sub", out, (a, b),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = a.values * b.values
    return _record("mul", out, (a, b),
                   lambda g: (_unbroadcast(g * b.values, a.shape),
                              _unbroadcast(g * a.values, b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.values @ b.values
    return _record("matmul", out, (a, b),
                   lambda g: (g @ b.values.T, a.values.T @ g))


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = a.values.T.copy()
    return _record("transpose", out, (a,), lambda g: (g.T,))


def spmm(sp, x: Tensor) -> Tensor:
    """Sparse @ dense. ``sp`` is a constant operator with .csr / .csr_t."""
    x = _as_tensor(x)
    if sp.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm shape mismatch: {sp.shape} @ {x.shape}")
    out = sp.csr @ x.values
    return _record("spmm", out, (x,), lambda g: (sp.csr_t @ g,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.values <= 0.0):
        raise DomainError("log of non-positive value")
    out = np.log(a.values)
    return _record("log", out, (a,), lambda g: (g / a.values,))


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.values, 0.0)
    mask = (a.values > 0.0).astype(np.float64)
    return _record("relu", out, (a,), lambda g: (g * mask,))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; gradient is the logistic sigmoid."""
    a = _as_tensor(a)
    out = np.logaddexp(0.0, a.values)
    return _record("softplus", out, (a,), lambda g: (g * expit(a.values),))


def row_logsumexp(a: Tensor) -> Tensor:
    """Per-row log sum exp with max-subtraction, result n x 1."""
    a = _as_tensor(a)
    m = a.values.max(axis=1, keepdims=True)
    out = m + np.log(np.exp(a.values - m).sum(axis=1, keepdims=True))

    def bwd(g):
        soft = np.exp(a.values - out)  # softmax rows, reusing the forward
        return (g * soft,)

    return _record("row_logsumexp", out, (a,), bwd)


def row_sum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = a.values.sum(axis=1, keepdims=True)
    return _record("row_sum", out, (a,),
                   lambda g: (np.broadcast_to(g, a.shape).copy(),))


def tsum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.array([[a.values.sum()]])
    return _record("sum", out, (a,),
                   lambda g: (np.full(a.shape, g[0, 0]),))


def tmean(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.array([[a.values.mean()]])
    n = a.values.size
    return _record("mean", out, (a,),
                   lambda g: (np.full(a.shape, g[0, 0] / n),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all entries, 1x1 output."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    diff = a.values - b.values
    out = np.array([[np.mean(diff * diff)]])
    n = diff.size

    def bwd(g):
        scale = 2.0 * g[0, 0] / n
        return (scale * diff, -scale * diff)

    return _record("mse", out, (a, b), bwd)


def scale_shift(mu: Tensor, sigma: Tensor, eps: np.ndarray) -> Tensor:
    """Reparameterization step mu + sigma * eps with eps a fixed draw."""
    mu, sigma = _as_tensor(mu), _as_tensor(sigma)
    if mu.shape != sigma.shape or mu.shape != eps.shape:
        raise ShapeError(
            f"scale_shift shape mismatch: {mu.shape} vs {sigma.shape} vs {eps.shape}")
    out = mu.values + sigma.values * eps
    return _record("scale_shift", out, (mu, sigma), lambda g: (g, g * eps))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by integer index (used for split masks)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows needs a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(
            f"gather_rows index out of range for {a.shape[0]} rows")
    out = a.values[idx]

    def bwd(g):
        full = np.zeros(a.shape)
        np.add.at(full, idx, g)
        return (full,)

    return _record("gather_rows", out, (a,), bwd)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor, wrt: Sequence[Tensor] | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf.

    The tape is consumed. Leaves listed in ``wrt`` that the loss never
    touched get an explicit zero gradient instead of None.
    """
    if loss.values.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not _TAPE:
        raise TapeError("backward called with an empty tape")

    loss.grad = np.ones((1, 1))
    produced = []
    for entry in reversed(_TAPE):
        g = entry.out.grad
        if g is None:
            continue  # this output never fed the loss
        produced.append(entry.out)
        grads = entry.backward_fn(g)
        for t, contrib in zip(entry.inputs, grads):
            if contrib is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.zeros(t.shape)
            t.grad += contrib
    clear_tape()
    # Intermediates are one-shot; only leaves keep their gradients.
    for t in produced:
        t.grad = None
    if wrt is not None:
        for t in wrt:
            if t.grad is None:
                t.grad = np.zeros(t.shape)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def _central_difference(eval_fn, flat: np.ndarray, h: float) -> np.ndarray:
    cd = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        try:
            flat[i] = orig + h
            f_plus = eval_fn()
            flat[i] = orig - h
            f_minus = eval_fn()
        except NumericsError as err:
            raise NumericsError(f"non-finite value probing entry {i}: {err}") from err
        finally:
            flat[i] = orig
        cd[i] = (f_plus - f_minus) / (2.0 * h)
    return cd


def check_gradients(fn: Callable[[Tensor], Tensor], point: Tensor,
                    h: float = 1e-5) -> float:
    """Max relative error between backward and central differences.

    ``fn`` must be a deterministic scalar-valued function of its tensor
    argument (freeze any noise draws before calling). Relative error is
    |analytic - cd| / (|cd| + 1e-8), maximised over entries.
    """
    x = Tensor(point.values.copy(), requires_grad=True)
    clear_tape()
    loss = fn(x)
    backward(loss, wrt=[x])
    analytic = x.grad.copy()

    flat = x.values.reshape(-1)
    with no_grad():
        cd = _central_difference(lambda: fn(x).item(), flat, h)
    cd = cd.reshape(x.shape)
    rel = np.abs(analytic - cd) / (np.abs(cd) + 1e-8)
    return float(rel.max())


def check_gradients_params(fn: Callable[[], Tensor],
                           params: dict[str, Tensor],
                           h: float = 1e-5) -> dict[str, float]:
    """Gradient check for a loss closed over many named parameters.

    Returns per-parameter max relative error; ``fn`` is re-evaluated
    2 * total_entries times, so keep the probed model small.
    """
    for p in params.values():
        p.grad = None
    clear_tape()
    loss = fn()
    backward(loss, wrt=list(params.values()))
    analytic = {name: p.grad.copy() for name, p in params.items()}

    errors: dict[str, float] = {}
    with no_grad():
        for name, p in params.items():
            flat = p.values.reshape(-1)
            cd = _central_difference(lambda: fn().item(), flat, h)
            cd = cd.reshape(p.shape)
            rel = np.abs(analytic[name] - cd) / (np.abs(cd) + 1e-8)
            errors[name] = float(rel.max()) if rel.size else 0.0
    return errors
