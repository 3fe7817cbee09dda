import sys
import types
from pathlib import Path

# tide.cli imports only the standard library at load time, so the BLAS
# pools are pinned before numpy ever loads; the determinism contract (and
# the acceptance byte-comparisons) assume single-threaded kernels.
from tide.cli import _cap_threads

_cap_threads()

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tide.autodiff import Tensor  # noqa: E402
from tide.graph import make_graph  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def two_clique():
    """Two nodes, one edge, one feature each; the smallest useful graph."""
    return make_graph(X=[[1.0], [3.0]], edges=[[0, 1]], y=[0, 1],
                      masks={"train": [0, 1]})


@pytest.fixture
def path3():
    return make_graph(X=[[0.0], [1.0], [2.0]], edges=[[0, 1], [1, 2]],
                      y=[0, 1, 0], masks={"train": [0, 1, 2]})


def random_graph(rng, n=None, d=2, p=0.3):
    """Erdos-Renyi-ish scratch graph for property tests."""
    if n is None:
        n = int(rng.integers(2, 12))
    upper = np.transpose(np.triu_indices(n, k=1))
    keep = rng.random(len(upper)) < p
    edges = upper[keep]
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n)
    return make_graph(X, edges, y, masks={"train": list(range(n))}, C=2)


def tensors_held_by(entry) -> list:
    """Tensors a tape entry reaches through its fields and the closures
    of its gradient functions."""
    return held_by(entry, Tensor)


def arrays_held_by(entry) -> list:
    """Arrays a tape entry reaches through its fields and the closures
    of its gradient functions."""
    return held_by(entry, np.ndarray)


def held_by(entry, kind) -> list:
    """Objects of type ``kind`` a tape entry reaches through its fields
    and the closures of its gradient functions, each once."""
    found, seen, stack = [], set(), [entry.out, entry.inputs, entry.grad_fns]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
    return found
