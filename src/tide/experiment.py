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
from .graph import AtomicFiles, Graph
from .shift import CsbmParams, ShiftSpec, apply_shift, as_ood_bundle, gen_csbm
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


def bench_config(mode: str, seed: int, epochs: int = BENCH_EPOCHS
                 ) -> TideConfig:
    return TideConfig(objective_mode=mode, seed=seed, epochs=epochs)


@dataclass
class RunOutcome:
    """Everything measured from one (mode, seed) training run."""

    row: dict
    result: TrainResult


def run_single(mode: str, seed: int, g_id: Graph, g_ood: Graph,
               epochs: int = BENCH_EPOCHS) -> RunOutcome:
    """Train one objective on the clean graph, score against the twin."""
    config = bench_config(mode, seed, epochs)
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
                   epochs: int = BENCH_EPOCHS) -> list[dict]:
    """All (mode, seed) rows for one fixture, modes outer, seeds inner.

    Every run's config is built and validated before the first one
    trains, so a bad mode, seed or epoch count fails at once.
    """
    for mode in modes:
        for seed in seeds:
            bench_config(mode, seed, epochs)
    rows = []
    for mode in modes:
        for seed in seeds:
            g_id, g_ood = make_fixture(fixture, seed)
            outcome = run_single(mode, seed, g_id, g_ood, epochs)
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


def write_compare_csv(files: AtomicFiles, path, rows: list[dict]) -> None:
    lines = [",".join(COMPARE_COLUMNS)]
    lines += [",".join(str(row[c]) for c in COMPARE_COLUMNS) for row in rows]
    files.write(path, ("\n".join(lines) + "\n").encode())


def write_compare_markdown(files: AtomicFiles, path, rows: list[dict],
                           modes: list[str]) -> None:
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
    files.write(path, ("\n".join(lines) + "\n").encode())


def write_summary_json(files: AtomicFiles, path, rows: list[dict],
                       modes: list[str], fixture: str) -> None:
    doc = {"fixture": fixture, "modes": list(modes),
           "per_run": rows, "summary": summarize(rows, modes)}
    files.write(path, (json.dumps(doc, sort_keys=True, indent=1)
                       + "\n").encode())


def run_benchmark_suite(fixture: str, modes: list[str], seeds: list[int],
                        outdir, epochs: int = BENCH_EPOCHS) -> list[dict]:
    """Run the comparison and drop compare.csv / compare.md / summary.json.

    ``outdir`` is created only once the rows exist, so a run that fails
    leaves nothing behind, and the three files replace a previous run's
    together or not at all.
    """
    rows = run_comparison(fixture, modes, seeds, epochs)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with AtomicFiles() as files:
        write_compare_csv(files, outdir / "compare.csv", rows)
        write_compare_markdown(files, outdir / "compare.md", rows, modes)
        write_summary_json(files, outdir / "summary.json", rows, modes, fixture)
    return rows
