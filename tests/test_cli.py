"""End-to-end command-line contract: files in, files out, exit codes."""

import errno
import hashlib
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tide.shift
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


GENERATE_SHA256 = {
    "csbm_id.json":
        "a017d265f14e19720e190487a16cd7c46854bddada318dcb468c8acca6555f65",
    "csbm_structure_0.3.json":
        "0e5961e0c2b8bb83292440ad852c5fc428104b4e13d2e40b35753050d5491bde",
    "csbm_feature_0.5.json":
        "48b5b3a88601fcef9feac67f68a4f2f01ce7509c327e08379596ae1bdfdcf827",
    "csbm_label_2.json":
        "1c09202d55c73c388ceefc185c96f5005b822fdb71150e2ca674cbfc3a423e75",
}
GENERATE_ALL_KINDS = ("generate", "--n", "60", "--classes", "3", "--dim", "4",
                      "--p-in", "0.2", "--p-out", "0.03", "--mu-sep", "2.0",
                      "--seed", "5", "--shift", "structure:0.3",
                      "--shift", "feature:0.5", "--shift", "label:2")


def test_generate_bundle_bytes_are_pinned(tmp_path):
    """Every bundle of a generate with all three shift kinds keeps the
    sha256 it had before the writer shared encodings between bundles."""
    assert run_cli(*GENERATE_ALL_KINDS, "--out-dir", tmp_path) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == GENERATE_SHA256


def test_generate_repeated_shift_exits_one_and_writes_nothing(tmp_path,
                                                              capsys):
    """Two equal --shift tokens would draw two bundles for one path."""
    out = tmp_path / "out"
    code = run_cli("generate", "--n", "40", "--classes", "2", "--dim", "4",
                   "--shift", "structure:0.3", "--shift", "feature:0.5",
                   "--shift", "structure:0.3", "--out-dir", out)
    assert code == 1
    assert "structure:0.3 is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_generate_failure_while_encoding_keeps_written_bundles_whole(
        tmp_path, monkeypatch):
    """The second bundle fails while its features are encoded: the first
    stays byte-identical and no partial or temporary file is left."""
    class Unencodable(np.ndarray):
        def tolist(self):
            raise RuntimeError("cannot encode")

    args = ("generate", "--n", "40", "--classes", "2", "--dim", "4",
            "--shift", "feature:0.5")
    assert run_cli(*args, "--out-dir", tmp_path / "clean") == 0
    apply_shift = tide.shift.apply_shift

    def unencodable_shift(g, spec):
        shifted = apply_shift(g, spec)
        return replace(shifted, X=shifted.X.view(Unencodable))

    monkeypatch.setattr(tide.shift, "apply_shift", unencodable_shift)
    with pytest.raises(RuntimeError, match="cannot encode"):
        run_cli(*args, "--out-dir", tmp_path / "failed")
    assert [p.name for p in (tmp_path / "failed").iterdir()] == ["csbm_id.json"]
    assert (tmp_path / "failed" / "csbm_id.json").read_bytes() \
        == (tmp_path / "clean" / "csbm_id.json").read_bytes()


@pytest.mark.parametrize("token", ["label:all", "bogus:0.1", "structure:7"])
def test_generate_bad_shift_exits_one_and_writes_nothing(token, tmp_path):
    """Every shift token is parsed and validated before any sampling:
    holding out every class, an unknown kind and an intensity above 1
    each exit 1 and write nothing."""
    out = tmp_path / "out"
    code = run_cli("generate", "--n", "40", "--classes", "3", "--dim", "4",
                   "--shift", "feature:0.5", "--shift", token,
                   "--out-dir", out)
    assert code == 1
    assert not out.exists()


def test_generate_overflowing_features_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code = run_cli("generate", "--n", "40", "--classes", "2", "--dim", "4",
                       "--noise", "1e308", "--out-dir", out)
    assert code == 1
    err = capsys.readouterr().err
    assert "noise" in err and "mu_sep" in err
    assert not out.exists()


def test_generate_oversized_dim_exits_one(tmp_path, capsys):
    """numpy refuses a d x d draw this large before allocating it."""
    out = tmp_path / "out"
    code = run_cli("generate", "--n", "40", "--classes", "2",
                   "--dim", "10000000000", "--out-dir", out)
    assert code == 1
    assert "d=10000000000" in capsys.readouterr().err
    assert not out.exists()


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
    always_zero_in_sl = ("ce_v", "ce_q", "kl_z", "kl_v", "kl_q", "cind",
                         "pmi_zv", "pmi_zq", "pmi_vq")
    for key in always_zero_in_sl:
        assert logs["sl"][key] == 0.0
    assert logs["tide"]["ce_v"] > 0 and logs["tide"]["kl_v"] > 0
    assert logs["tide"]["cind"] > 0
    assert logs["sl"]["ce_z"] > 0 and logs["tide"]["ce_z"] > 0


def test_train_exposure_flag_without_data_is_usage_error(bundles, tmp_path,
                                                         capsys):
    """Exposure is switched on by --exposure-data alone, with one margin
    orientation: a config that still names an old flag is rejected as an
    unknown key."""
    id_bundle, _ = bundles
    cfg = tmp_path / "cfg.json"
    for key in ("exposure_enabled", "ereg_flip"):
        cfg.write_text(json.dumps({key: True, "epochs": 2}))
        code = run_cli("train", "--data", id_bundle, "--out", tmp_path / "r",
                       "--config", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err


def test_train_exposure_data_turns_on_energy_margin(bundles, tmp_path):
    id_bundle, ood_bundle = bundles
    margins = {}
    for tag, extra in (("with", ("--exposure-data", ood_bundle)), ("without", ())):
        out = tmp_path / tag
        code = run_cli("train", "--data", id_bundle, "--out", out,
                       "--objective", "tide", "--epochs", "3", *extra)
        assert code == 0
        margins[tag] = [json.loads(line)["loss"]["energy_reg"] for line in
                        (out / "train_log.jsonl").read_text().splitlines()]
    assert any(m > 0 for m in margins["with"])
    assert margins["without"] == [0.0] * 3


def _edited_bundle(src, dest, edit):
    doc = json.loads(src.read_text())
    edit(doc)
    dest.write_text(json.dumps(doc))
    return dest


def _label_bundle(out):
    """The bundles fixture's graph with class 0 held out by label:0."""
    assert run_cli("generate", "--kind", "csbm", "--n", "80",
                   "--classes", "3", "--dim", "6", "--p-in", "0.2",
                   "--p-out", "0.03", "--mu-sep", "2.0", "--seed", "7",
                   "--shift", "label:0", "--out-dir", out) == 0
    return out / "csbm_label_0.json"


@pytest.mark.parametrize("case, message", [
    pytest.param(case, message, id=case) for case, message in (
        ("empty_train", "ID graph has an empty train split"),
        ("exposure_empty_train", "exposure graph has an empty train split"),
        ("unlabeled_train", "ID graph has an unlabeled node"),
        ("exposure_label_bundle", "must be an OOD bundle"),
        ("exposure_id_bundle", "must be an OOD bundle"))])
def test_train_unusable_graph_exits_one(case, message, bundles, tmp_path,
                                        capsys):
    """A graph that cannot train, or an exposure bundle whose train rows
    are in-distribution nodes, is a usage error naming its cause."""
    id_bundle, ood_bundle = bundles
    data, exposure = id_bundle, None
    if case == "empty_train":
        data = _edited_bundle(id_bundle, tmp_path / "b.json",
                              lambda doc: doc["splits"].update(train=[]))
    elif case == "exposure_empty_train":
        exposure = _edited_bundle(ood_bundle, tmp_path / "b.json",
                                  lambda doc: doc["splits"].update(train=[]))
    elif case == "unlabeled_train":
        def unlabel(doc):
            doc["labels"][doc["splits"]["train"][0]] = -1
        data = _edited_bundle(id_bundle, tmp_path / "b.json", unlabel)
    elif case == "exposure_label_bundle":
        exposure = _label_bundle(tmp_path)
    else:
        exposure = id_bundle
    extra = () if exposure is None else ("--exposure-data", exposure)
    code = run_cli("train", "--data", data, "--out", tmp_path / "r",
                   "--epochs", "1", *extra)
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    if message == "must be an OOD bundle":
        assert str(exposure) in err


def _bundle_with(**changes):
    doc = {"n": 2, "d": 1, "C": 2, "features": [[0.0], [1.0]],
           "edges": [[0, 1]], "labels": [0, 1],
           "splits": {"train": [0, 1], "val": [], "test_id": [],
                      "test_ood": []}}
    return doc | changes


@pytest.mark.parametrize("doc", [
    pytest.param(5, id="number"),
    pytest.param([{}], id="list"),
    pytest.param(_bundle_with(features=[["a"], [1.0]]), id="string_feature"),
    pytest.param(_bundle_with(edges=[[0]]), id="short_edge"),
    pytest.param(_bundle_with(labels=[0, 1.5]), id="float_label"),
    pytest.param(_bundle_with(splits={"train": [0.5]}), id="float_split"),
    pytest.param(_bundle_with(C="2"), id="string_C"),
    pytest.param(_bundle_with(splits=[]), id="splits_list"),
    pytest.param(_bundle_with(features=[[float("nan")], [1.0]]),
                 id="nan_feature"),
])
def test_train_malformed_bundle_exits_one(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = run_cli("train", "--data", path, "--out", tmp_path / "r",
                   "--epochs", "1")
    assert code == 1
    assert str(path) in capsys.readouterr().err


def test_train_config_value_of_wrong_type_exits_one(bundles, tmp_path,
                                                   capsys):
    id_bundle, _ = bundles
    cfg = tmp_path / "cfg.json"
    # Also files that are not a JSON object, and non-finite numbers.
    for text, named in (('{"epochs": "5"}', "epochs"), ("[]", "JSON object"),
                        ("null", "JSON object"), ('{"lr": 1e999}', "lr"),
                        ('{"lr": 1%s}' % ("0" * 400), "lr")):
        cfg.write_text(text)
        code = run_cli("train", "--data", id_bundle, "--out", tmp_path / "r",
                       "--config", cfg)
        assert code == 1, text
        assert named in capsys.readouterr().err, text


def test_train_oversized_hidden_exits_one(bundles, tmp_path, capsys):
    """numpy refuses a d x hidden weight this large before allocating it."""
    id_bundle, _ = bundles
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"hidden": 1000000000000000000, "epochs": 1}')
    out = tmp_path / "r"
    code = run_cli("train", "--data", id_bundle, "--out", out, "--config", cfg)
    assert code == 1
    assert "hidden=1000000000000000000" in capsys.readouterr().err
    assert not out.exists()


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


def test_eval_checkpoint_with_trailing_bytes_exits_one(bundles, trained,
                                                       tmp_path, capsys):
    id_bundle, ood_bundle = bundles
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes((trained / "model.ckpt").read_bytes() + b"abc")
    (tmp_path / "model.ckpt.json").write_bytes(
        (trained / "model.ckpt.json").read_bytes())
    code = run_cli("eval", "--checkpoint", ckpt, "--data", id_bundle,
                   "--ood-data", ood_bundle, "--out", tmp_path / "e")
    assert code == 1
    assert "model.ckpt: has" in capsys.readouterr().err
    assert not (tmp_path / "e" / "report.json").exists()


def test_eval_previous_checkpoint_format_exits_one(bundles, trained,
                                                   tmp_path, capsys):
    """A tide-ckpt-v1 checkpoint, which carried trained critic
    projections, is refused by its format before its layout is read."""
    id_bundle, ood_bundle = bundles
    doc = json.loads((trained / "model.ckpt.json").read_text())
    h = doc["hidden"]
    doc["format"] = "tide-ckpt-v1"
    doc["params"] += [{"name": f"club_{pair}.{side}", "shape": [h, h]}
                      for pair in ("zv", "zq", "vq") for side in ("p1", "p2")]
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes((trained / "model.ckpt").read_bytes()
                     + np.zeros(6 * h * h).astype("<f8").tobytes())
    (tmp_path / "model.ckpt.json").write_text(json.dumps(doc))
    code = run_cli("eval", "--checkpoint", ckpt, "--data", id_bundle,
                   "--ood-data", ood_bundle, "--out", tmp_path / "e")
    assert code == 1
    err = capsys.readouterr().err
    assert "tide-ckpt-v1" in err and "Traceback" not in err
    assert not (tmp_path / "e" / "report.json").exists()


def _with_shape(doc, i, shape):
    doc["params"][i]["shape"] = shape
    return doc


@pytest.mark.parametrize("corrupt", [
    lambda doc: {k: v for k, v in doc.items() if k != "params"},
    lambda doc: _with_shape(doc, 1, doc["params"][1]["shape"] + [1]),
    lambda doc: [doc],
    lambda doc: _with_shape(doc, 0, doc["params"][0]["shape"][::-1]),
    lambda doc: dict(doc, hidden=doc["hidden"] // 2),
    lambda doc: dict(doc, d=10**15),
], ids=["no_params", "3d_shape", "list", "transposed", "hidden_disagrees",
        "huge_d"])
def test_eval_bad_manifest_exits_one(bundles, trained, tmp_path, capsys,
                                     corrupt):
    id_bundle, ood_bundle = bundles
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes((trained / "model.ckpt").read_bytes())
    doc = corrupt(json.loads((trained / "model.ckpt.json").read_text()))
    (tmp_path / "model.ckpt.json").write_text(json.dumps(doc))
    code = run_cli("eval", "--checkpoint", ckpt, "--data", id_bundle,
                   "--ood-data", ood_bundle, "--out", tmp_path / "e")
    assert code == 1
    assert "model.ckpt.json" in capsys.readouterr().err
    assert not (tmp_path / "e" / "report.json").exists()


def _copy_checkpoint(trained, tmp_path):
    """A copy of the trained checkpoint in ``tmp_path``; its path."""
    ckpt = tmp_path / "model.ckpt"
    for name in ("model.ckpt", "model.ckpt.json"):
        (tmp_path / name).write_bytes((trained / name).read_bytes())
    return ckpt


def test_eval_manifest_not_json_exits_one(bundles, trained, tmp_path, capsys):
    """A manifest that does not parse is named, not just quoted."""
    id_bundle, ood_bundle = bundles
    ckpt = _copy_checkpoint(trained, tmp_path)
    text = (tmp_path / "model.ckpt.json").read_text()
    (tmp_path / "model.ckpt.json").write_text(text.replace(",", "", 1))
    code = run_cli("eval", "--checkpoint", ckpt, "--data", id_bundle,
                   "--ood-data", ood_bundle, "--out", tmp_path / "e")
    assert code == 1
    err = capsys.readouterr().err
    assert "model.ckpt.json: Expecting" in err and "Traceback" not in err
    assert not (tmp_path / "e" / "report.json").exists()


def test_eval_non_finite_parameter_exits_one(bundles, trained, tmp_path,
                                             capsys):
    """A blob holding a NaN is rejected at load, naming the blob, not
    deep in the scoring forward."""
    id_bundle, ood_bundle = bundles
    ckpt = _copy_checkpoint(trained, tmp_path)
    flat = np.fromfile(ckpt, dtype="<f8")
    flat[len(flat) // 2] = np.nan
    ckpt.write_bytes(flat.tobytes())
    code = run_cli("eval", "--checkpoint", ckpt, "--data", id_bundle,
                   "--ood-data", ood_bundle, "--out", tmp_path / "e")
    assert code == 1
    err = capsys.readouterr().err
    assert f"{ckpt}: parameters must be finite" in err
    assert not (tmp_path / "e" / "report.json").exists()


def test_train_log_without_val_split_is_strict_json(tmp_path):
    """With no ``val`` split there is no validation accuracy: the log
    writes null, not a bare NaN, and every line parses strictly."""
    data = tmp_path / "data"
    assert run_cli("generate", "--kind", "csbm", "--n", "60",
                   "--classes", "3", "--dim", "5", "--p-in", "0.3",
                   "--p-out", "0.05", "--mu-sep", "2.0", "--seed", "1",
                   "--out-dir", data) == 0
    bundle = data / "csbm_id.json"
    doc = json.loads(bundle.read_text())
    doc["splits"]["val"] = []
    bundle.write_text(json.dumps(doc))
    assert run_cli("train", "--data", bundle, "--out", tmp_path / "run",
                   "--epochs", "3", "--objective", "ib") == 0

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
    records = [json.loads(line, parse_constant=refuse) for line in lines]
    assert [rec["val_acc"] for rec in records] == [None] * 3


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


@pytest.mark.parametrize("modes,seeds,named", [
    ("sl", "-1", "seed"),
    ("nope", "0", "objective_mode"),
    ("sl,nope", "0", "objective_mode"),
], ids=["negative_seed", "unknown_mode", "unknown_mode_after_valid"])
def test_compare_bad_run_fails_before_training_and_writes_nothing(
        modes, seeds, named, tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("a run trained before every config was checked")

    monkeypatch.setattr("tide.experiment.train_tide", no_training)
    out = tmp_path / "cmp"
    assert run_cli("compare", "--modes", modes, "--seeds", seeds,
                   "--out", out) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


EVAL_OUTPUTS = ("report.json", "hist.json", "scores.csv")
COMPARE_OUTPUTS = ("compare.csv", "compare.md", "summary.json")


def _fail_writes_to(name, monkeypatch):
    """Every write to a file whose name contains ``name`` (its
    temporary twin too) fails as on a full disk."""
    real_open = open

    class Full:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    def full_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Full(fh) if "w" in mode and name in Path(file).name else fh

    monkeypatch.setattr("builtins.open", full_open)


@pytest.mark.parametrize("name", EVAL_OUTPUTS + COMPARE_OUTPUTS)
def test_failed_output_write_keeps_previous_file_whole(
        name, bundles, trained, tmp_path, monkeypatch, capsys):
    """A rerun with other inputs whose write of ``name`` fails exits 1
    and leaves all three of the first run's files byte-identical, with
    no temporary file beside them: the outputs are replaced together."""
    id_bundle, ood_bundle = bundles
    if name in EVAL_OUTPUTS:
        names = EVAL_OUTPUTS
        first = ("eval", "--checkpoint", trained / "model.ckpt", "--data",
                 id_bundle, "--ood-data", ood_bundle)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"prop_alpha": 0.9}))
        second = (*first, "--config", config)
    else:
        names = COMPARE_OUTPUTS
        first, second = (("compare", "--modes", "sl", "--seeds", seed,
                          "--epochs", "1") for seed in "01")
    out, other = tmp_path / "out", tmp_path / "other"
    assert run_cli(*first, "--out", out) == 0
    assert run_cli(*second, "--out", other) == 0
    before = {n: (out / n).read_bytes() for n in names}
    assert all((other / n).read_bytes() != before[n] for n in names)
    _fail_writes_to(name, monkeypatch)
    assert run_cli(*second, "--out", out) == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert {n: (out / n).read_bytes() for n in names} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


@pytest.mark.parametrize("command", ["train", "compare"])
def test_out_under_a_regular_file_fails_before_training(
        command, bundles, tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("a run trained before --out was checked")

    monkeypatch.setattr("tide.experiment.train_tide", no_training)
    monkeypatch.setattr("tide.trainer.train_tide", no_training)
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    out = blocker / "sub"
    argv = {"train": ("train", "--data", bundles[0], "--epochs", "1"),
            "compare": ("compare", "--modes", "sl", "--seeds", "0",
                        "--epochs", "1")}[command]
    assert run_cli(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert str(blocker) in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]


CHECK_GRAD_SEED_0 = """\
 cross_entropy  max rel err 4.661e-08
            kl  max rel err 7.585e-09
          club  max rel err 9.728e-07
         recon  max rel err 4.654e-04
    energy_reg  max rel err 1.005e-06
    tide_total  max rel err 1.063e-04
OK: all components below 0.001
"""


def test_check_grad_passes_at_default_threshold(capsys):
    """The audit's report at seed 0, byte for byte.

    Any change to the order of the audit's arithmetic shows here, even
    one that stays below the threshold.
    """
    assert run_cli("check-grad", "--seed", "0") == 0
    assert capsys.readouterr().out == CHECK_GRAD_SEED_0


# README's per-seed table: the club line as printed and the exit code.
# The failures are round-off at the *.mu.b entries (README).
CHECK_GRAD_CLUB_BY_SEED = {
    0: ("9.728e-07", 0), 1: ("2.216e-03", 2), 2: ("2.216e-03", 2),
    3: ("1.728e-06", 0), 4: ("2.216e-03", 2), 5: ("2.216e-03", 2),
    6: ("1.109e-03", 2), 7: ("1.109e-03", 2), 8: ("1.109e-03", 2),
    9: ("2.216e-03", 2), 10: ("1.595e-07", 0), 11: ("1.109e-03", 2),
}


@pytest.mark.parametrize("seed", sorted(CHECK_GRAD_CLUB_BY_SEED))
def test_check_grad_club_and_exit_per_seed_match_readme(seed, capsys):
    club, code = CHECK_GRAD_CLUB_BY_SEED[seed]
    assert run_cli("check-grad", "--seed", seed) == code
    assert f"          club  max rel err {club}\n" in capsys.readouterr().out


def test_check_grad_reports_failure_exit_two(capsys):
    assert run_cli("check-grad", "--seed", "0", "--threshold", "1e-12") == 2


def _off_tape_read(monkeypatch):
    """The feature encoder's mu plus a constant computed from the joint
    head's weights: their audited gradients miss its effect."""
    import tide.autodiff as ad
    from tide.model import LatentDistribution, encode_feature

    def planted(X, model):
        dist = encode_feature(X, model)
        shift = float(model["z_head.W"].values.sum())
        return LatentDistribution(ad.add(dist.mu, shift), dist.sigma)

    monkeypatch.setattr("tide.trainer.encode_feature", planted)


def _on_tape_read(monkeypatch):
    """The feature head's logits scaled by the joint head's weights'
    sum through the tape: every audited gradient is right, but the
    feature network's cross-entropy now trains the joint network,
    against ``TERMS``."""
    import tide.autodiff as ad
    from tide.model import predict_logits

    def planted(sample, A_norm, model, which):
        logits = predict_logits(sample, A_norm, model, which)
        if which != "v":
            return logits
        return ad.mul(logits, ad.tsum(model["z_head.W"]))

    monkeypatch.setattr("tide.trainer.predict_logits", planted)


@pytest.mark.parametrize("plant", [_off_tape_read, _on_tape_read],
                         ids=["off-tape", "on-tape"])
def test_check_grad_fails_on_a_cross_network_read(plant, monkeypatch,
                                                  capsys):
    """A read of z_head.W planted in a feature-network term. The probes
    of z_head.W, scoped to the joint network, miss it, so the scoping
    check fails with exit 2 naming the parameter and the component."""
    plant(monkeypatch)
    assert run_cli("check-grad", "--seed", "0") == 2
    assert capsys.readouterr().err.startswith(
        "tide: error: scoped evaluation for z_head.W misses a read: "
        "component tide_total differs")


@pytest.mark.parametrize("flag,value", [
    ("--step", "0"), ("--step", "-1e-5"), ("--step", "nan"), ("--step", "inf"),
    ("--threshold", "0"), ("--threshold", "-1"), ("--threshold", "nan"),
    ("--threshold", "inf"),
])
def test_check_grad_rejects_bad_step_or_threshold(flag, value, capsys):
    assert run_cli("check-grad", f"{flag}={value}") == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("train", "--seed", "-1"),
    ("generate", "--seed", "-1"),
    ("check-grad", "--seed", "-1"),
    ("compare", "--seeds", "-1"),
], ids=lambda argv: argv[0])
def test_negative_seed_exits_one(argv, bundles, tmp_path, capsys):
    id_bundle, _ = bundles
    extra = {"train": ("--data", id_bundle, "--out", tmp_path / "r"),
             "generate": ("--out-dir", tmp_path / "g"),
             "check-grad": (),
             "compare": ("--out", tmp_path / "c")}[argv[0]]
    assert run_cli(*argv, *extra) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("transmogrify") == 1


def test_generate_flag_prefix_is_usage_error(tmp_path, monkeypatch, capsys):
    """``--out`` is a prefix of generate's ``--out-dir``, not that flag:
    the command exits 1 with usage and writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--n", "20", "--classes", "2", "--dim", "2",
                   "--out", "g.json") == 1
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_flag_prefix_is_usage_error(bundles, tmp_path, capsys):
    id_bundle, _ = bundles
    assert run_cli("train", "--data", id_bundle, "--ou", tmp_path / "d",
                   "--epochs", "1") == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_bad_flag_value_is_usage_error(capsys):
    assert run_cli("generate", "--kind", "csbm", "--n", "not-a-number",
                   "--out-dir", "/tmp/ignored") == 1


def test_tide_threads_env_must_be_positive(monkeypatch, capsys):
    monkeypatch.setenv("TIDE_THREADS", "0")
    assert run_cli("check-grad") == 1
    monkeypatch.setenv("TIDE_THREADS", "banana")
    assert run_cli("check-grad") == 1
