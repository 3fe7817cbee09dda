"""Tri-network information-decomposition OOD detector for node classification.

Submodules (import them directly; this file stays import-light so the
CLI can pin BLAS thread counts before numpy loads):

- ``autodiff``: minimal reverse-mode tape over 2-D float64 arrays
- ``graph``: graph container, its two operators, bundle I/O
- ``shift``: contextual-SBM sampling and the three shift generators
- ``model``: the three variational encoders, heads, checkpoints
- ``objectives``: VIB / reconstruction / pairwise-MI / margin losses
- ``detection``: energy scores, propagation, AUROC / AUPR / FPR95, scoring
- ``trainer``: config, Adam, the training forward and routed loop
- ``experiment``: benchmark fixtures and the ablation harness
- ``gradcheck``: finite-difference audit of every loss component
- ``cli``: the ``tide`` command
"""

__version__ = "0.1.0"

__all__ = ["autodiff", "graph", "shift", "model", "objectives",
           "detection", "trainer", "experiment", "gradcheck", "cli"]
