"""Benchmark fixtures and the objective-ablation comparison harness.

The synthetic fixtures are small enough that a full training run takes
seconds, yet structured enough that the detection ordering between
objectives is stable across seeds. Each fixture is a pair of graphs:
the clean graph (train/val/test_id populated) and a shifted copy whose
test rows are relabeled as the OOD pool.

Everything here is deterministic given (fixture, seed): graph sampling,
shift application, and training all derive their randomness from the
seed, and all emitted files format floats with ``repr`` so reruns are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .detection import predictive_entropy, score_splits
from .graph import Graph
from .shift import CsbmParams, ShiftSpec, apply_shift, gen_csbm
from .trainer import TideConfig, TrainResult, train_tide

# Sampling parameters for the benchmark graphs. Separation and noise
# are tuned so a supervised run clears ~90% test accuracy while the
# mixed-feature shift stays detectable but not trivial.  The wide
# feature dimension and small training fraction leave headroom for the
# bottleneck objectives to separate from the plain classifier.
FIXTURE_CSBM = CsbmParams(n=500, C=4, d=64, p_in=0.04, p_out=0.005,
                          mu_sep=3.0, noise=1.0, seed=0,
                          train_frac=0.15, val_frac=0.2)

FIXTURE_SHIFTS = {
    "feature": ShiftSpec(kind="feature", intensity=0.5, seed=0),
    "structure": ShiftSpec(kind="structure", intensity=0.3, seed=0),
}

# Training length for benchmark runs.  The fixtures plateau earlier,
# but the best-validation snapshot makes extra epochs harmless and the
# longer horizon keeps the restored models well converged on every seed.
BENCH_EPOCHS = 200

COMPARE_COLUMNS = ("mode", "seed", "auroc_raw", "aupr_raw", "fpr95_raw",
                   "auroc_prop", "aupr_prop", "fpr95_prop", "id_acc",
                   "ent_id", "ent_ood")


def as_ood_bundle(g: Graph) -> Graph:
    """Reinterpret a shifted graph: its test split becomes the OOD pool."""
    masks = {
        "train": g.mask("train"),
        "val": g.mask("val"),
        "test_id": np.empty(0, dtype=np.int64),
        "test_ood": g.mask("test_id"),
    }
    return g.replace(masks=masks)


def make_fixture(kind: str, seed: int) -> tuple[Graph, Graph]:
    """Clean graph plus shifted OOD twin for one benchmark seed.

    ``kind`` is "feature", "structure", or "joint" (feature mix stacked
    on top of edge rewiring). The seed drives both the graph sample and
    the shift draw, so different seeds test genuinely different graphs.
    """
    g = gen_csbm(replace(FIXTURE_CSBM, seed=seed))
    if kind == "joint":
        shifted = apply_shift(g, replace(FIXTURE_SHIFTS["structure"],
                                         seed=seed + 7001))
        shifted = apply_shift(shifted, replace(FIXTURE_SHIFTS["feature"],
                                               seed=seed + 7501))
    elif kind in FIXTURE_SHIFTS:
        shifted = apply_shift(g, replace(FIXTURE_SHIFTS[kind],
                                         seed=seed + 7001))
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return g, as_ood_bundle(shifted)


def bench_config(mode: str, seed: int, **overrides) -> TideConfig:
    base = TideConfig(objective_mode=mode, seed=seed, epochs=BENCH_EPOCHS)
    if overrides:
        base = replace(base, **overrides)
    base.validate()
    return base


@dataclass
class RunOutcome:
    """Everything measured from one (mode, seed) training run."""

    row: dict
    result: TrainResult


def run_single(mode: str, seed: int, g_id: Graph, g_ood: Graph,
               **config_overrides) -> RunOutcome:
    """Train one objective on the clean graph, score against the twin."""
    config = bench_config(mode, seed, **config_overrides)
    result = train_tide(g_id, config)

    s = score_splits(result.model, g_id, g_ood, config.prop_alpha, config.prop_k)
    report_raw, report_prop = s.report_raw, s.report_prop

    row = {
        "mode": mode,
        "seed": seed,
        "auroc_raw": report_raw.auroc,
        "aupr_raw": report_raw.aupr,
        "fpr95_raw": report_raw.fpr95,
        "auroc_prop": report_prop.auroc,
        "aupr_prop": report_prop.aupr,
        "fpr95_prop": report_prop.fpr95,
        "id_acc": report_raw.id_accuracy,
        "ent_id": float(np.mean(predictive_entropy(s.logits[~s.is_ood]))),
        "ent_ood": float(np.mean(predictive_entropy(s.logits[s.is_ood]))),
    }
    return RunOutcome(row=row, result=result)


def run_comparison(fixture: str, modes: list[str], seeds: list[int],
                   **config_overrides) -> list[dict]:
    """All (mode, seed) rows for one fixture, modes outer, seeds inner."""
    rows = []
    for mode in modes:
        for seed in seeds:
            g_id, g_ood = make_fixture(fixture, seed)
            outcome = run_single(mode, seed, g_id, g_ood, **config_overrides)
            rows.append(outcome.row)
    return rows


def summarize(rows: list[dict], modes: list[str]) -> list[dict]:
    """Per-mode mean and sample std (ddof=1) of every numeric column."""
    out = []
    metric_cols = [c for c in COMPARE_COLUMNS if c not in ("mode", "seed")]
    for mode in modes:
        sub = [r for r in rows if r["mode"] == mode]
        if not sub:
            continue
        rec = {"mode": mode, "n_seeds": len(sub)}
        for col in metric_cols:
            vals = np.array([r[col] for r in sub])
            rec[f"{col}_mean"] = float(vals.mean())
            rec[f"{col}_std"] = float(vals.std(ddof=1)) if len(sub) > 1 else 0.0
        out.append(rec)
    return out


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_compare_csv(path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(COMPARE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in COMPARE_COLUMNS) + "\n")


def write_compare_markdown(path, rows: list[dict], modes: list[str]) -> None:
    """Mean +/- std table, one row per mode, prop metrics only."""
    stats = summarize(rows, modes)
    cols = ("auroc_prop", "aupr_prop", "fpr95_prop", "id_acc")
    header = "| mode | " + " | ".join(cols) + " |"
    rule = "|" + "---|" * (len(cols) + 1)
    lines = [header, rule]
    for rec in stats:
        cells = [rec["mode"]]
        for col in cols:
            cells.append(f"{rec[f'{col}_mean']:.4f} +/- {rec[f'{col}_std']:.4f}")
        lines.append("| " + " | ".join(cells) + " |")
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(path, rows: list[dict], modes: list[str],
                       fixture: str) -> None:
    doc = {"fixture": fixture, "modes": list(modes),
           "per_run": rows, "summary": summarize(rows, modes)}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def run_benchmark_suite(fixture: str, modes: list[str], seeds: list[int],
                        outdir, **config_overrides) -> list[dict]:
    """Run the comparison and drop compare.csv / compare.md / summary.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = run_comparison(fixture, modes, seeds, **config_overrides)
    write_compare_csv(outdir / "compare.csv", rows)
    write_compare_markdown(outdir / "compare.md", rows, modes)
    write_summary_json(outdir / "summary.json", rows, modes, fixture)
    return rows
