"""Tests of the benchmark's own oracles, output checks and tracer.

Run from the repository root: python -m pytest -q tidebench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import Mismatch  # noqa: E402

# Hand-worked case with ties across and within the populations.
ID = np.array([0.1, 0.4, 0.4])
OOD = np.array([0.4, 0.9])


def test_auroc_counts_ties_as_half():
    # 0.4 beats 0.1 and ties both 0.4s; 0.9 beats all three: (1 + 1 + 3) / 6
    assert oracle.auroc_pairs(ID, OOD) == pytest.approx(5 / 6, abs=1e-15)


def test_aupr_steps_over_distinct_thresholds():
    # t=0.9: P=1, R=1/2; t=0.4: P=2/4, R=1; t=0.1: recall does not move
    assert oracle.aupr_sorted(ID, OOD) == pytest.approx(0.5 * 1 + 0.5 * 0.5, abs=1e-15)


def test_fpr95_uses_highest_threshold_reaching_the_rate():
    assert oracle.fpr_at_tpr_sorted(ID, OOD) == pytest.approx(2 / 3)
    ood = np.arange(1.0, 21.0)          # 19 of 20 at or above 2.0 is exactly 95%
    assert oracle.fpr_at_tpr_sorted(np.array([1.5, 2.0, 3.0]), ood) == pytest.approx(2 / 3)


def test_metrics_agree_with_the_program_on_tied_scores():
    from tide import detection
    rng = np.random.default_rng(0)
    for _ in range(20):
        id_s = np.round(rng.normal(size=rng.integers(1, 40)), 1)
        ood_s = np.round(rng.normal(0.5, size=rng.integers(1, 40)), 1)
        assert oracle.auroc_pairs(id_s, ood_s) == pytest.approx(
            detection.auroc_score(id_s, ood_s), abs=1e-12)
        assert oracle.aupr_sorted(id_s, ood_s) == pytest.approx(
            detection.aupr_score(id_s, ood_s), abs=1e-12)
        assert oracle.fpr_at_tpr_sorted(id_s, ood_s) == detection.fpr_at_95_tpr(id_s, ood_s)


def test_energy_and_dense_propagation_by_hand():
    e = oracle.energies(np.array([[1.0, 2.0, 3.0]]))[0]
    assert e == pytest.approx(-(3 + math.log(1 + math.exp(-1) + math.exp(-2))), abs=1e-12)
    # edge 0-1, node 2 isolated (keeps its score); alpha 0.5
    scores = np.array([1.0, 3.0, 5.0])
    np.testing.assert_allclose(oracle.propagate_dense(scores, 3, [[0, 1]], 0.5, 1), [2, 2, 5])
    np.testing.assert_allclose(oracle.propagate_dense(scores, 3, [[0, 1]], 0.5, 2), [2, 2, 5])


def test_checkpoint_and_logits_match_the_program(tmp_path):
    from tide import model
    from tide.shift import CsbmParams, gen_csbm
    g = gen_csbm(CsbmParams(n=30, C=3, d=5, p_in=0.3, p_out=0.05, mu_sep=2.0, seed=1))
    m = model.build_model(g.d, 8, g.C, seed=2)
    model.save_checkpoint(m, tmp_path / "m.ckpt")
    params = oracle.read_checkpoint(tmp_path / "m.ckpt")
    np.testing.assert_allclose(oracle.joint_logits(params, g.X, g.edges),
                               model.joint_logits_at_mean(m, g), rtol=1e-12, atol=1e-14)


def _write_eval(tmp_path, rows):
    path = tmp_path / "scores.csv"
    with open(path, "w") as fh:
        fh.write("node_id,score,is_ood,predicted,label\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


def _eval_fixture(tmp_path):
    rows = [(0, 0.1, 0, 1, 1), (1, 0.4, 0, 0, 1), (2, 0.4, 0, 2, 2),
            (5, 0.4, 1, 0, 0), (6, 0.9, 1, 1, 0)]
    scores = oracle.read_scores_csv(_write_eval(tmp_path, rows))
    report = {"auroc": 5 / 6, "aupr": 0.75, "fpr95": 2 / 3, "id_accuracy": 2 / 3,
              "n_id": 3, "n_ood": 2}
    return rows, scores, report


def test_report_recomputed_from_scores_passes(tmp_path):
    _, scores, report = _eval_fixture(tmp_path)
    oracle.expect_report("report", report, scores)


@pytest.mark.parametrize("key, value", [("auroc", 5 / 6 + 1e-9), ("fpr95", 1 / 3),
                                        ("id_accuracy", 1.0), ("n_ood", 3)])
def test_perturbed_report_is_rejected(tmp_path, key, value):
    _, scores, report = _eval_fixture(tmp_path)
    report[key] = value
    with pytest.raises(Mismatch):
        oracle.expect_report("report", report, scores)


def test_perturbed_scores_file_is_rejected(tmp_path):
    rows, _, report = _eval_fixture(tmp_path)
    rows[3] = (5, 0.05, 1, 0, 0)        # one OOD score drops below every ID score
    scores = oracle.read_scores_csv(_write_eval(tmp_path, rows))
    with pytest.raises(Mismatch):
        oracle.expect_report("report", report, scores)


def test_histogram_counts_must_cover_both_populations():
    h = {"edges": list(np.linspace(0.0, 1.0, 65)), "id_counts": [3] + [0] * 63,
         "ood_counts": [0] * 63 + [2]}
    hist = {"bins": 64, "energy_raw": h, "energy_prop": h, "confidence": h}
    oracle.expect_hist("hist", hist, 3, 2)
    with pytest.raises(Mismatch):
        oracle.expect_hist("hist", hist, 4, 2)


def test_selection_must_be_the_last_best_epoch():
    log = [{"epoch": i, "val_acc": a} for i, a in enumerate([0.5, 0.7, 0.7, 0.6])]
    assert oracle.expect_selection(log, 2, 4) == 0.7
    with pytest.raises(Mismatch):
        oracle.expect_selection(log, 1, 4)
    with pytest.raises(Mismatch):
        oracle.expect_selection(log, 2, 5)


GRADCHECK_OUT = "".join(f"{name:>14s}  max rel err {err:.3e}\n" for name, err in
                        zip(oracle.GRADCHECK_COMPONENTS, [1e-8, 1e-9, 2e-4, 4e-4, 1e-5, 4e-5]))


def test_gradcheck_output_is_parsed_and_bounded():
    ok = GRADCHECK_OUT + "OK: all components below 0.001\n"
    assert oracle.expect_gradcheck(ok, 1e-3)["recon"] == pytest.approx(4e-4)
    with pytest.raises(Mismatch):
        oracle.expect_gradcheck(ok.replace("4.000e-04", "2.000e-03"), 1e-3)
    with pytest.raises(Mismatch):
        oracle.expect_gradcheck(ok.replace("kl", "kk"), 1e-3)


def _bundle(edges, X=None):
    X = np.zeros((4, 2)) if X is None else X
    return {"n": 4, "d": 2, "C": 2, "X": X, "E": np.array(edges).reshape(-1, 2),
            "y": np.array([0, 1, 0, 1]),
            "masks": {"train": np.array([0]), "val": np.array([1]),
                      "test_id": np.array([2, 3]), "test_ood": np.array([], dtype=int)}}


def test_bundle_edges_must_be_canonical_and_unique():
    oracle.expect_bundle("ok", _bundle([[0, 1], [1, 2]]))
    with pytest.raises(Mismatch):
        oracle.expect_bundle("reversed", _bundle([[1, 0]]))
    with pytest.raises(Mismatch):
        oracle.expect_bundle("duplicate", _bundle([[0, 1], [0, 1]]))


def test_structure_shift_must_keep_features():
    base = _bundle([[0, 1], [1, 2]])
    shifted = _bundle([[0, 1], [0, 3]], X=np.ones((4, 2)))
    shifted["masks"] = dict(base["masks"], test_id=np.array([], dtype=int),
                            test_ood=base["masks"]["test_id"])
    with pytest.raises(Mismatch, match="features changed"):
        oracle.expect_shift("structure", base, shifted, "structure")
    shifted["X"] = base["X"]
    oracle.expect_shift("structure", base, shifted, "structure")


def test_tracer_wraps_every_binding_and_restores_them():
    from tide import autodiff as ad
    from tide import objectives, trainer
    before = trainer.encode_joint
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        assert tracing.unwrapped_bindings(patched) == []
        assert trainer.encode_joint is not before
        logits = ad.Tensor(np.arange(6.0).reshape(3, 2))
        objectives.cross_entropy(logits, np.array([0, 1, 1]), np.array([0, 2]))
    finally:
        tracing.uninstall(patched)
    assert trainer.encode_joint is before
    summary = tracer.summary()
    assert summary["objectives.cross_entropy.calls"] == 1
    assert summary["autodiff.gather_rows.calls"] == 1
    assert summary["autodiff.matmul.calls"] == 0
    spans = tracer.arrays()
    root = np.flatnonzero(spans["parent"] == -1)
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(float(np.sum(spans["end"][root] - spans["start"][root])))


def test_benchmark_json_lists_the_metrics_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.RUNNERS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        workloads.per_layer_metrics()


def test_exercised_functions_are_traced_span_names():
    assert set(workloads.EXERCISED) == set(workloads.RUNNERS)
    names = set(tracing.span_names())
    for required in workloads.EXERCISED.values():
        assert set(required) <= names


def test_command_line_offers_every_workload():
    import run
    assert run.WORKLOADS == tuple(workloads.RUNNERS)
