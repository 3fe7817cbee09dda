"""End-to-end command-line contract: files in, files out, exit codes."""

import json

import numpy as np
import pytest

from tide.cli import main


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage failures
        return exc.code


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """A small generated benchmark shared by the command tests."""
    out = tmp_path_factory.mktemp("bundles")
    code = run_cli("generate", "--kind", "csbm", "--n", "80",
                   "--classes", "3", "--dim", "6", "--p-in", "0.2",
                   "--p-out", "0.03", "--mu-sep", "2.0", "--seed", "7",
                   "--shift", "feature:0.5", "--out-dir", out)
    assert code == 0
    paths = sorted(out.glob("*.json"))
    assert len(paths) == 2
    id_bundle = next(p for p in paths if p.name.endswith("_id.json"))
    ood_bundle = next(p for p in paths if p is not id_bundle)
    return id_bundle, ood_bundle


@pytest.fixture(scope="module")
def trained(bundles, tmp_path_factory):
    id_bundle, _ = bundles
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--data", id_bundle, "--out", out,
                   "--objective", "ib", "--epochs", "8", "--seed", "0")
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_is_deterministic(tmp_path):
    args = ("generate", "--kind", "csbm", "--n", "40", "--classes", "2",
            "--dim", "4", "--p-in", "0.3", "--p-out", "0.05",
            "--mu-sep", "1.5", "--seed", "3", "--shift", "structure:0.4")
    assert run_cli(*args, "--out-dir", tmp_path / "a") == 0
    assert run_cli(*args, "--out-dir", tmp_path / "b") == 0
    for name in sorted(p.name for p in (tmp_path / "a").glob("*.json")):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_generate_rejects_holding_out_every_class(tmp_path, capsys):
    code = run_cli("generate", "--kind", "csbm", "--n", "40",
                   "--classes", "3", "--dim", "4", "--p-in", "0.3",
                   "--p-out", "0.05", "--mu-sep", "1.5",
                   "--shift", "label:all", "--out-dir", tmp_path)
    assert code == 1


def test_generate_prints_summary_and_paths(tmp_path, capsys):
    assert run_cli("generate", "--kind", "csbm", "--n", "30",
                   "--classes", "2", "--dim", "4", "--p-in", "0.3",
                   "--p-out", "0.05", "--mu-sep", "1.0",
                   "--shift", "feature:0.5", "--out-dir", tmp_path,
                   "--stem", "toy") == 0
    out = capsys.readouterr().out
    assert "generated n=30" in out
    assert "toy_id.json" in out and "toy_feature_0.5.json" in out


def test_generate_label_shift_writes_remapped_bundle(tmp_path):
    code = run_cli("generate", "--kind", "csbm", "--n", "60",
                   "--classes", "4", "--dim", "5", "--p-in", "0.3",
                   "--p-out", "0.05", "--mu-sep", "2.0", "--seed", "1",
                   "--shift", "label:3", "--out-dir", tmp_path)
    assert code == 0
    from tide.graph import load_bundle
    ood = next(p for p in tmp_path.glob("*.json")
               if not p.name.endswith("_id.json"))
    g = load_bundle(ood)
    assert g.C == 3
    assert g.mask("test_ood").size > 0
    assert (g.y[g.mask("test_ood")] == -1).all()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_checkpoint_and_log(trained):
    assert (trained / "model.ckpt").exists()
    assert (trained / "model.ckpt.json").exists()
    lines = (trained / "train_log.jsonl").read_text().strip().split("\n")
    assert len(lines) == 8
    assert all("loss" in json.loads(line) for line in lines)


def test_train_missing_config_exits_one(bundles, tmp_path, capsys):
    id_bundle, _ = bundles
    code = run_cli("train", "--data", id_bundle, "--out", tmp_path,
                   "--config", tmp_path / "nope.json")
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_sl_and_tide_logs_differ_in_expected_components(bundles, tmp_path):
    id_bundle, _ = bundles
    logs = {}
    for mode in ("sl", "tide"):
        out = tmp_path / mode
        assert run_cli("train", "--data", id_bundle, "--out", out,
                       "--objective", mode, "--epochs", "3") == 0
        first = json.loads(
            (out / "train_log.jsonl").read_text().split("\n")[0])
        logs[mode] = first["loss"]
    always_zero_in_sl = ("vib_v", "vib_q", "cind", "pmi_zv", "pmi_zq",
                         "pmi_vq")
    for key in always_zero_in_sl:
        assert logs["sl"][key] == 0.0
    assert logs["tide"]["vib_v"] > 0
    assert logs["tide"]["cind"] > 0
    assert logs["sl"]["vib_z"] > 0 and logs["tide"]["vib_z"] > 0


def test_train_exposure_flag_without_data_is_usage_error(bundles, tmp_path):
    id_bundle, _ = bundles
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exposure_enabled": True, "epochs": 2}))
    code = run_cli("train", "--data", id_bundle, "--out", tmp_path / "r",
                   "--config", cfg)
    assert code == 1


def test_train_config_value_of_wrong_type_exits_one(bundles, tmp_path,
                                                   capsys):
    id_bundle, _ = bundles
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": "5"}))
    code = run_cli("train", "--data", id_bundle, "--out", tmp_path / "r",
                   "--config", cfg)
    assert code == 1
    assert "epochs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_report_schema(bundles, trained, tmp_path):
    id_bundle, ood_bundle = bundles
    out = tmp_path / "eval"
    code = run_cli("eval", "--checkpoint", trained / "model.ckpt",
                   "--data", id_bundle, "--ood-data", ood_bundle,
                   "--out", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("auroc", "aupr", "fpr95", "id_accuracy"):
        assert 0.0 <= report[key] <= 1.0
        assert 0.0 <= report["raw"][key] <= 1.0
    assert report["propagation"]["k"] == 2

    hist = json.loads((out / "hist.json").read_text())
    assert hist["bins"] == 64
    n_total = report["n_id"] + report["n_ood"]
    for block in ("energy_raw", "energy_prop", "confidence"):
        counts = hist[block]["id_counts"] + hist[block]["ood_counts"]
        assert sum(counts) == n_total

    rows = (out / "scores.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + n_total


def test_eval_without_ood_nodes_exits_two(bundles, trained, tmp_path, capsys):
    id_bundle, _ = bundles
    code = run_cli("eval", "--checkpoint", trained / "model.ckpt",
                   "--data", id_bundle, "--ood-data", id_bundle,
                   "--out", tmp_path / "e2")
    assert code == 2


def test_eval_checkpoint_dim_mismatch_exits_one(bundles, tmp_path):
    id_bundle, ood_bundle = bundles
    other = tmp_path / "other"
    assert run_cli("generate", "--kind", "csbm", "--n", "30",
                   "--classes", "2", "--dim", "9", "--p-in", "0.3",
                   "--p-out", "0.1", "--mu-sep", "1.0",
                   "--out-dir", other) == 0
    run_dir = tmp_path / "othertrain"
    assert run_cli("train", "--data", next(other.glob("*_id.json")),
                   "--out", run_dir, "--epochs", "2",
                   "--objective", "sl") == 0
    code = run_cli("eval", "--checkpoint", run_dir / "model.ckpt",
                   "--data", id_bundle, "--ood-data", ood_bundle,
                   "--out", tmp_path / "e3")
    assert code == 1


def test_eval_checkpoint_class_count_mismatch_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli("generate", "--kind", "csbm", "--n", "60",
                   "--classes", "4", "--dim", "5", "--p-in", "0.3",
                   "--p-out", "0.05", "--mu-sep", "2.0", "--seed", "1",
                   "--shift", "label:3", "--out-dir", data) == 0
    id_bundle, label_bundle = data / "csbm_id.json", data / "csbm_label_3.json"
    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", id_bundle, "--out", run_dir,
                   "--epochs", "2", "--objective", "sl") == 0
    capsys.readouterr()
    # The 3-class label-leave-out bundle as the ID bundle: rejected.
    code = run_cli("eval", "--checkpoint", run_dir / "model.ckpt",
                   "--data", label_bundle, "--ood-data", label_bundle,
                   "--out", tmp_path / "bad")
    assert code == 1
    assert "C=4" in capsys.readouterr().err
    assert not (tmp_path / "bad" / "report.json").exists()
    # As the OOD bundle it carries fewer classes legitimately.
    assert run_cli("eval", "--checkpoint", run_dir / "model.ckpt",
                   "--data", id_bundle, "--ood-data", label_bundle,
                   "--out", tmp_path / "ok") == 0


# ---------------------------------------------------------------------------
# compare / check-grad / usage
# ---------------------------------------------------------------------------

def test_compare_single_mode_single_seed(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--fixture", "feature", "--modes", "sl",
                   "--seeds", "0", "--epochs", "4", "--out", out)
    assert code == 0
    md = (out / "compare.md").read_text()
    assert "sl" in md
    csv_lines = (out / "compare.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 2  # header + one run row
    summary = json.loads((out / "summary.json").read_text())
    assert summary["modes"] == ["sl"]
    assert summary["summary"][0]["n_seeds"] == 1


def test_compare_rerun_is_byte_identical(tmp_path):
    outs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        assert run_cli("compare", "--fixture", "structure", "--modes",
                       "sl,ib", "--seeds", "1", "--epochs", "3",
                       "--out", out) == 0
        outs.append(out)
    for name in ("compare.csv", "compare.md", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_no_seeds_is_usage_error(tmp_path):
    code = run_cli("compare", "--fixture", "feature", "--modes", "sl",
                   "--seeds", "", "--out", tmp_path / "cmp")
    assert code == 1


def test_check_grad_passes_at_default_threshold(capsys):
    assert run_cli("check-grad", "--seed", "0") == 0
    out = capsys.readouterr().out
    for component in ("cross_entropy", "kl", "club", "recon",
                      "energy_reg", "tide_total"):
        assert component in out


def test_check_grad_reports_failure_exit_two(capsys):
    assert run_cli("check-grad", "--seed", "0", "--threshold", "1e-12") == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("transmogrify") == 1


def test_bad_flag_value_is_usage_error(capsys):
    assert run_cli("generate", "--kind", "csbm", "--n", "not-a-number",
                   "--out-dir", "/tmp/ignored") == 1


def test_tide_threads_env_must_be_positive(monkeypatch, capsys):
    monkeypatch.setenv("TIDE_THREADS", "0")
    assert run_cli("check-grad") == 1
    monkeypatch.setenv("TIDE_THREADS", "banana")
    assert run_cli("check-grad") == 1
