"""Energy scoring, propagation, and detection metrics.

The metric tests lean on tests/oracles.py: slow loop-based references
that the fast implementations must reproduce to float precision.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from tide.detection import (MetricError, aupr_score, auroc_score,
                            energy_score, evaluate, fpr_at_95_tpr,
                            histogram_data, predictive_entropy,
                            propagate_energy, softmax_rows, write_scores_csv)
from tide.graph import AtomicFiles, make_graph
from conftest import random_graph
import oracles

score_arrays = hnp.arrays(
    np.float64, st.integers(1, 30),
    elements=st.floats(-50, 50, allow_nan=False).map(lambda v: round(v, 3)))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_uniform_logits():
    e = energy_score(np.zeros((3, 7))).e
    np.testing.assert_allclose(e, -math.log(7), atol=1e-12)


def test_energy_single_class():
    assert energy_score(np.array([[5.0]])).e[0] == pytest.approx(-5.0)


def test_energy_hand_row():
    e = energy_score(np.array([[1.0, 2.0, 3.0]])).e[0]
    expected = -(3.0 + math.log(1 + math.exp(-1) + math.exp(-2)))
    assert e == pytest.approx(expected, abs=1e-12)
    assert e == pytest.approx(-3.40761, abs=5e-6)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)),
                  elements=st.floats(-200, 200, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_energy_matches_logsumexp(logits):
    np.testing.assert_allclose(energy_score(logits).e,
                               -logsumexp(logits, axis=1), atol=1e-12)


@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-5, 5)),
       st.floats(-10, 10))
@settings(max_examples=40, deadline=None)
def test_energy_constant_logit_shift(logits, c):
    base = energy_score(logits).e
    shifted = energy_score(logits + c).e
    np.testing.assert_allclose(shifted, base - c, atol=1e-9)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def scores_of(values):
    from tide.detection import EnergyScores
    return EnergyScores(e=np.asarray(values, dtype=np.float64))


def test_propagation_alpha_one_is_identity(two_clique):
    out = propagate_energy(scores_of([0.0, 1.0]), two_clique, alpha=1.0, k=5)
    np.testing.assert_array_equal(out.e, [0.0, 1.0])


def test_propagation_zero_steps_is_identity(two_clique):
    out = propagate_energy(scores_of([0.0, 1.0]), two_clique, alpha=0.3, k=0)
    np.testing.assert_array_equal(out.e, [0.0, 1.0])


def test_propagation_two_clique_hand_value(two_clique):
    out = propagate_energy(scores_of([0.0, 1.0]), two_clique, alpha=0.5, k=1)
    np.testing.assert_allclose(out.e, [0.5, 0.5], atol=1e-15)


def test_propagation_isolated_node_keeps_energy():
    g = make_graph(np.zeros((3, 1)), [[0, 1]], [0, 1, 0])
    out = propagate_energy(scores_of([0.0, 1.0, 7.0]), g, alpha=0.5, k=3)
    assert out.e[2] == 7.0


@given(st.integers(0, 2 ** 32 - 1), st.floats(0, 1), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_propagation_stays_in_convex_hull(seed, alpha, k):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    e = rng.normal(size=g.n) * 3
    stepped = scores_of(e)
    for _ in range(k):
        nxt = propagate_energy(stepped, g, alpha=alpha, k=1)
        assert nxt.e.min() >= stepped.e.min() - 1e-12
        assert nxt.e.max() <= stepped.e.max() + 1e-12
        stepped = nxt


# ---------------------------------------------------------------------------
# max-softmax confidence (hist.json) / entropy
# ---------------------------------------------------------------------------

def msp(logits):
    """Max-softmax score, negated so higher means more OOD."""
    return -softmax_rows(np.asarray(logits, dtype=np.float64)).max(axis=1)


def test_msp_uniform_four_classes():
    np.testing.assert_allclose(msp(np.zeros((2, 4))), -0.25)


def test_msp_approaches_minus_one_when_dominant():
    logits = np.array([[100.0, 0.0, 0.0]])
    assert msp(logits)[0] == pytest.approx(-1.0, abs=1e-12)


def test_msp_hand_three_class():
    row = np.array([[1.0, 2.0, 3.0]])
    soft = np.exp(row - logsumexp(row))
    np.testing.assert_allclose(softmax_rows(row), soft, rtol=1e-12)
    assert msp(row)[0] == pytest.approx(-soft.max(), abs=1e-12)


def test_predictive_entropy_limits():
    uniform = predictive_entropy(np.zeros((1, 4)))[0]
    assert uniform == pytest.approx(math.log(4), abs=1e-12)
    peaked = predictive_entropy(np.array([[60.0, 0.0, 0.0, 0.0]]))[0]
    assert peaked < 1e-20


# ---------------------------------------------------------------------------
# ranking metrics vs oracles
# ---------------------------------------------------------------------------

def test_auroc_perfect_separation():
    assert auroc_score(np.array([0.0, 1.0]), np.array([2.0, 3.0])) == 1.0


def test_auroc_three_of_four_pairs():
    assert auroc_score(np.array([0.0, 1.0]),
                       np.array([0.5, 2.0])) == pytest.approx(0.75)


def test_auroc_all_ties_is_half():
    assert auroc_score(np.zeros(3), np.zeros(5)) == pytest.approx(0.5)


def test_fpr95_hand_example():
    id_s = np.array([0.0, 1.0, 2.0, 3.0])
    ood_s = np.array([2.5, 3.5, 4.0, 5.0])
    assert fpr_at_95_tpr(id_s, ood_s) == pytest.approx(0.25)
    assert oracles.fpr_at_tpr(id_s, ood_s) == pytest.approx(0.25)


def test_fpr95_perfect_separation_is_zero():
    assert fpr_at_95_tpr(np.array([0.0, 1.0]), np.array([2.0, 3.0])) == 0.0


@given(score_arrays, score_arrays)
@settings(max_examples=80, deadline=None)
def test_metrics_match_oracles(id_s, ood_s):
    assert auroc_score(id_s, ood_s) == pytest.approx(
        oracles.auroc_pairs(id_s, ood_s), abs=1e-12)
    assert aupr_score(id_s, ood_s) == pytest.approx(
        oracles.aupr_sweep(id_s, ood_s), abs=1e-12)
    assert fpr_at_95_tpr(id_s, ood_s) == pytest.approx(
        oracles.fpr_at_tpr(id_s, ood_s), abs=1e-12)


@given(score_arrays, score_arrays, st.sampled_from(["exp", "affine", "cube"]))
@settings(max_examples=40, deadline=None)
def test_auroc_rank_invariance(id_s, ood_s, transform):
    f = {"exp": lambda x: np.exp(x / 25),
         "affine": lambda x: 3.0 * x + 11.0,
         "cube": lambda x: x ** 3}[transform]
    assert auroc_score(id_s, ood_s) == pytest.approx(
        auroc_score(f(id_s), f(ood_s)), abs=1e-9)


# ---------------------------------------------------------------------------
# evaluate + exports
# ---------------------------------------------------------------------------

def make_eval_inputs():
    scores = np.array([0.0, 1.0, 2.0, 3.0])
    is_ood = np.array([False, False, True, True])
    preds = np.array([0, 1, 0, 1])
    labels = np.array([0, 0, 0, 1])
    id_mask = np.array([0, 1])
    return scores, is_ood, preds, labels, id_mask


def test_evaluate_report_fields():
    report = evaluate(*make_eval_inputs())
    assert report.auroc == 1.0
    assert report.fpr95 == 0.0
    assert report.id_accuracy == 0.5
    assert (report.n_id, report.n_ood) == (2, 2)
    d = report.to_dict()
    for key in ("auroc", "aupr", "fpr95", "id_accuracy"):
        assert 0.0 <= d[key] <= 1.0


def test_evaluate_needs_both_populations():
    scores, _, preds, labels, id_mask = make_eval_inputs()
    with pytest.raises(MetricError):
        evaluate(scores, np.zeros(4, dtype=bool), preds, labels, id_mask)
    with pytest.raises(MetricError):
        evaluate(scores, np.ones(4, dtype=bool), preds, labels, id_mask)


def test_write_scores_csv_layout(tmp_path):
    path = tmp_path / "scores.csv"
    with AtomicFiles() as files:
        write_scores_csv(files, path, node_ids=[4, 9], scores=[0.5, -1.0],
                         is_ood=[False, True], predicted=[1, 0], labels=[1, 2])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node_id", "score", "is_ood", "predicted", "label"]
    assert rows[1][0] == "4" and rows[2][0] == "9"
    assert float(rows[1][1]) == 0.5


def test_histogram_conservation(rng):
    id_v = rng.normal(size=37)
    ood_v = rng.normal(size=23) + 1.0
    hist = histogram_data(id_v, ood_v)
    assert len(hist["id_counts"]) == 64
    assert sum(hist["id_counts"]) + sum(hist["ood_counts"]) == 60
    assert hist["edges"][0] <= min(id_v.min(), ood_v.min())
    assert hist["edges"][-1] >= max(id_v.max(), ood_v.max())


def test_histogram_degenerate_range():
    hist = histogram_data(np.zeros(3), np.zeros(2))
    assert sum(hist["id_counts"]) == 3
    assert sum(hist["ood_counts"]) == 2


_PACKAGE = "import tide.cli, tide.experiment, tide.gradcheck\n"
_GENERATE = (_PACKAGE
             + "import tempfile\n"
             "tide.experiment.make_fixture('joint', 0)\n"
             "with tempfile.TemporaryDirectory() as out:\n"
             "    assert tide.cli.main(['generate', '--n', '40', '--classes', "
             "'3', '--dim', '4', '--shift', 'structure:0.3', '--shift', "
             "'feature:0.5', '--shift', 'label:1', '--out-dir', out]) == 0\n")
_CHECK_GRAD = "import tide.cli\nassert tide.cli.main(['check-grad']) == 0\n"
_SCORE = ("from tide.experiment import make_fixture\n"
          "from tide.model import build_model, joint_logits_at_mean\n"
          "g, _ = make_fixture('joint', 0)\n"
          "joint_logits_at_mean(build_model(g.d, 8, g.C, 0), g)\n")


@pytest.mark.parametrize("code, module, loaded", [
    # The metrics need numpy only.
    pytest.param(_PACKAGE, "scipy.stats", False, id="scipy.stats"),
    # Softplus and its sigmoid are numpy expressions.
    pytest.param(_PACKAGE, "scipy.special", False, id="scipy.special"),
    # Sampling and writing bundles build no sparse operator.
    pytest.param(_GENERATE, "scipy.sparse", False, id="generate-no-sparse"),
    # The audit's 10-node products run in numpy.
    pytest.param(_CHECK_GRAD, "scipy.sparse", False, id="check-grad-no-sparse"),
    # The cli pins BLAS threads from TIDE_THREADS before numpy loads.
    pytest.param("import tide.cli\n", "numpy", False, id="cli-no-numpy"),
    # Control: the first product of an n=500 operator loads scipy.sparse.
    pytest.param(_SCORE, "scipy.sparse", True, id="scoring-loads-sparse"),
])
def test_import_guard(code, module, loaded):
    """A fresh interpreter that runs ``code`` has ``module`` loaded
    exactly when ``loaded`` says so."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys\n{code}print({module!r} in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == str(loaded)
